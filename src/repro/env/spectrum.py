"""The 2.4 GHz ISM band: channels and co-channel interference coupling.

The paper's Aroma Adapter "communicates via a 2.4 GHz wireless LAN PCMCIA
card" and its environment analysis worries that "there are many wireless
devices operating in the 2.4 GHz radio band, and the effect of a high
concentration of these devices needs to be studied" — experiment E2 studies
exactly that, and this module provides the spectral-overlap physics.

802.11 DSSS channels in the 2.4 GHz band are 5 MHz apart with ~22 MHz
occupied bandwidth, so adjacent channels partially overlap.  We model the
interference coupling between channels ``i`` and ``j`` as a triangular
roll-off in channel separation, reaching zero at a separation of 5
channels — the classic reason channels 1/6/11 are the only "orthogonal"
set.
"""

from __future__ import annotations

import numpy as np

from ..kernel.errors import ConfigurationError

#: Valid 802.11 b channel numbers in the 2.4 GHz band (US allocation).
CHANNELS: range = range(1, 12)

#: Channel separation (in channel numbers) at which overlap reaches zero.
ORTHOGONAL_SEPARATION: int = 5

#: The classic non-overlapping channel plan.
NON_OVERLAPPING: tuple = (1, 6, 11)


def center_frequency_mhz(channel: int) -> float:
    """Centre frequency of a 2.4 GHz channel in MHz (2412 + 5*(ch-1))."""
    validate_channel(channel)
    return 2412.0 + 5.0 * (channel - 1)


def validate_channel(channel: int) -> int:
    if channel not in CHANNELS:
        raise ConfigurationError(
            f"channel {channel!r} outside 2.4 GHz band plan {CHANNELS.start}..{CHANNELS.stop - 1}")
    return channel


_OVERLAP_MEMO: dict = {}


def overlap_factor(channel_a: int, channel_b: int) -> float:
    """Fraction of channel_b's power that lands in channel_a's passband.

    1.0 for co-channel, linearly decreasing to 0.0 at a separation of
    :data:`ORTHOGONAL_SEPARATION` channels.  Symmetric.  Memoised — the
    medium asks for the same few pairs once per carrier-sense poll and per
    interferer, and the band plan has at most 121 of them.
    """
    factor = _OVERLAP_MEMO.get((channel_a, channel_b))
    if factor is None:
        validate_channel(channel_a)
        validate_channel(channel_b)
        separation = abs(channel_a - channel_b)
        factor = max(0.0, 1.0 - separation / ORTHOGONAL_SEPARATION)
        _OVERLAP_MEMO[(channel_a, channel_b)] = factor
    return factor


def least_congested(channel_loads: dict) -> int:
    """Pick the channel with the least *effective* load, accounting for
    adjacent-channel leakage.

    Args:
        channel_loads: mapping channel -> offered load (any consistent unit).

    Returns the channel from the full band plan minimising the
    overlap-weighted sum of loads; ties break toward the lowest channel so
    the choice is deterministic.
    """
    candidates = list(CHANNELS)
    loads = np.zeros(len(candidates))
    for i, cand in enumerate(candidates):
        total = 0.0
        for ch, load in channel_loads.items():
            total += overlap_factor(cand, ch) * float(load)
        loads[i] = total
    return candidates[int(np.argmin(loads))]
