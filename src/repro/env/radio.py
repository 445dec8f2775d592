"""Radio propagation in the 2.4 GHz band.

This is the quantitative core of the paper's *environment layer*: ranging,
radio interference and scaling constraints all come out of this module.
The model is deliberately classic so its shape is auditable:

* **Log-distance path loss** with reference loss at 1 m appropriate for
  2.4 GHz (≈40 dB by Friis) and a configurable exponent (2.0 free space,
  ~3.0 indoor office).
* **Log-normal shadowing**, frozen per transmitter/receiver pair so a given
  deployment has a stable radio map but different deployments differ.
* **SINR** against the thermal noise floor plus the overlap-weighted sum of
  co-channel and adjacent-channel interferers, accumulated in milliwatts
  one interferer at a time by the medium (:func:`sinr_from_mw` turns the
  sum into dB).
* **802.11b-style rates** (1, 2, 5.5, 11 Mb/s) with DSSS/CCK processing
  gain, and a frame-error-rate model built from textbook BER curves.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import special

from ..kernel.errors import ConfigurationError

# ---------------------------------------------------------------------------
# Unit helpers
# ---------------------------------------------------------------------------

def dbm_to_mw(dbm: float) -> float:
    """Convert dBm to milliwatts (native ``float`` out)."""
    return 10.0 ** (float(dbm) / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert milliwatts to dBm (clipping at a -200 dBm floor)."""
    return 10.0 * math.log10(mw if mw > 1e-20 else 1e-20)


#: Thermal noise floor for a 22 MHz 802.11b channel: -174 dBm/Hz + 10log10(22e6)
#: + ~6 dB receiver noise figure.
NOISE_FLOOR_DBM: float = float(-174.0 + 10.0 * np.log10(22e6) + 6.0)  # ≈ -94.6 dBm

#: The same floor in linear milliwatts, precomputed for the SINR hot path.
NOISE_FLOOR_MW: float = dbm_to_mw(NOISE_FLOOR_DBM)


@dataclass(frozen=True)
class RateMode:
    """One PHY rate of the 1999-era 802.11b radio the Aroma Adapter used."""

    bits_per_second: float
    #: DSSS/CCK processing gain (chip rate 11 Mc/s over symbol rate), linear.
    processing_gain: float
    #: modulation family, selects the BER curve ("dpsk" or "cck").
    modulation: str
    name: str

    def fer(self, sinr_db: float, frame_bytes: int) -> float:
        """Frame error rate for a frame of ``frame_bytes`` at ``sinr_db``.

        Pure ``math``: this runs once per decode attempt in the medium's
        hot loop.
        """
        ebn0 = dbm_to_mw(sinr_db) * self.processing_gain  # dB -> linear
        if ebn0 < 0.0:
            ebn0 = 0.0
        if self.modulation == "dpsk":
            # Non-coherent differential PSK: Pb = 0.5 * exp(-Eb/N0).
            ber = 0.5 * math.exp(-ebn0)
        else:
            # CCK approximated as coherent QPSK: Pb = Q(sqrt(2 Eb/N0)).
            ber = 0.5 * math.erfc(math.sqrt(ebn0))
        if ber <= 0.0:
            return 0.0
        bits = 8 * int(frame_bytes)
        # log1p formulation keeps precision for tiny BERs.
        return 1.0 - math.exp(bits * math.log1p(-min(ber, 0.5)))


#: The 802.11b rate set, ordered slowest to fastest.
RATES: Tuple[RateMode, ...] = (
    RateMode(1e6, 11.0, "dpsk", "1Mbps"),
    RateMode(2e6, 5.5, "dpsk", "2Mbps"),
    RateMode(5.5e6, 2.0, "cck", "5.5Mbps"),
    RateMode(11e6, 1.0, "cck", "11Mbps"),
)

RATE_BY_NAME: Dict[str, RateMode] = {r.name: r for r in RATES}


def best_rate(sinr_db: float, frame_bytes: int = 1500,
              fer_target: float = 0.1) -> RateMode:
    """Highest rate whose FER for a ``frame_bytes`` frame meets ``fer_target``.

    Falls back to the base 1 Mb/s mode when nothing meets the target — the
    sender still has to try, and the MAC's retry logic absorbs the loss.
    """
    for mode in reversed(RATES):
        if mode.fer(sinr_db, frame_bytes) <= fer_target:
            return mode
    return RATES[0]


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

#: Shadowing values are clamped to this many sigmas.  The truncation is
#: physically innocuous (a 6-sigma log-normal tail is unobservable) and it
#: is what makes the medium's audibility culling *provably* conservative: a
#: station outside the max-audible radius can never be rescued by an
#: unbounded favourable shadowing draw.
SHADOWING_CLAMP_SIGMAS: float = 6.0

_MASK64: int = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finaliser: a high-quality 64-bit integer hash."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _stable_name_hash(name: str) -> int:
    """Process-stable 64-bit hash of an entity name (``hash()`` is salted)."""
    return int.from_bytes(
        hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest(), "little")


class PropagationModel:
    """Log-distance path loss with frozen log-normal shadowing.

    Shadowing is *hash-derived*: each pair's value is a pure function of
    the model's base seed and the two entity names, not of the order in
    which pairs were first queried.  That keeps a deployment's radio map
    identical no matter which links a particular run happens to evaluate
    (or skip — the medium's audibility culling depends on this), while a
    different seed still produces a different map.  Values are clamped to
    ±:data:`SHADOWING_CLAMP_SIGMAS` sigma.

    Args:
        exponent: path-loss exponent (2.0 free space, ~3.0 indoor office).
        reference_loss_db: loss at 1 m; 40 dB is the 2.4 GHz Friis value.
        shadowing_sigma_db: std-dev of per-pair log-normal shadowing.
        rng: generator used to seed the pair-keyed shadowing hash.
    """

    def __init__(self, exponent: float = 3.0, reference_loss_db: float = 40.0,
                 shadowing_sigma_db: float = 4.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if exponent < 1.0 or exponent > 6.0:
            raise ConfigurationError(f"implausible path-loss exponent {exponent}")
        if shadowing_sigma_db < 0:
            raise ConfigurationError("shadowing sigma must be non-negative")
        self.exponent = float(exponent)
        self.reference_loss_db = float(reference_loss_db)
        self.shadowing_sigma_db = float(shadowing_sigma_db)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        #: one draw fixes the whole radio map; everything after is hashing.
        self._shadow_seed = int(self._rng.integers(0, _MASK64 + 1, dtype=np.uint64))
        self._shadowing: Dict[Tuple[str, str], float] = {}
        self._name_hashes: Dict[str, int] = {}

    def path_loss_scalar_db(self, distance_m: float) -> float:
        """Deterministic path loss in dB at ``distance_m`` (clipped to
        >= 0.1 m), as the link cache evaluates it per pair."""
        d = distance_m if distance_m > 0.1 else 0.1
        return self.reference_loss_db + 10.0 * self.exponent * math.log10(d)

    def distance_for_path_loss_db(self, loss_db: float) -> float:
        """Inverse of :meth:`path_loss_scalar_db` (clipped to >= 0.1 m)."""
        d = 10.0 ** ((loss_db - self.reference_loss_db) / (10.0 * self.exponent))
        return d if d > 0.1 else 0.1

    def max_audible_distance_m(self, tx_power_dbm: float, floor_dbm: float,
                               margin_db: float = 0.0) -> float:
        """Largest distance at which received power can still reach
        ``floor_dbm`` — the medium's spatial-culling radius.

        Conservative by construction: the budget credits the most
        favourable shadowing the clamped model can produce
        (:data:`SHADOWING_CLAMP_SIGMAS` sigma) plus any caller-supplied
        ``margin_db`` (e.g. a fast-fading allowance), so no station beyond
        the returned distance can ever be audible.
        """
        budget = (tx_power_dbm - floor_dbm + margin_db
                  + SHADOWING_CLAMP_SIGMAS * self.shadowing_sigma_db)
        if budget <= 0.0:
            return 0.1
        return self.distance_for_path_loss_db(budget)

    def _hash_of(self, name: str) -> int:
        value = self._name_hashes.get(name)
        if value is None:
            value = _stable_name_hash(name)
            self._name_hashes[name] = value
        return value

    def shadowing_db(self, tx: str, rx: str) -> float:
        """Frozen shadowing term for the (unordered) pair ``{tx, rx}``.

        A pure function of (seed, tx, rx): evaluation order never matters,
        so a culled run and an exhaustive run see the same radio map.
        """
        sigma = self.shadowing_sigma_db
        if sigma == 0.0:
            return 0.0
        key = (tx, rx) if tx <= rx else (rx, tx)
        value = self._shadowing.get(key)
        if value is None:
            mixed = _mix64(_mix64(self._shadow_seed ^ self._hash_of(key[0]))
                           ^ self._hash_of(key[1]))
            # 53 uniform bits strictly inside (0, 1), through the normal
            # inverse CDF, clamped to the documented +-6 sigma support.
            uniform = ((mixed >> 11) + 0.5) / float(1 << 53)
            value = sigma * float(special.ndtri(uniform))
            clamp = SHADOWING_CLAMP_SIGMAS * sigma
            value = -clamp if value < -clamp else (clamp if value > clamp else value)
            self._shadowing[key] = value
        return value

    def received_power_dbm(self, tx_power_dbm: float, distance_m: float,
                           tx: str = "", rx: str = "") -> float:
        """Received power for one link, including frozen shadowing.

        The medium caches the two loss terms per pair via
        :class:`repro.env.linkcache.LinkCache`.
        """
        loss = self.path_loss_scalar_db(distance_m)
        shadow = self.shadowing_db(tx, rx) if tx and rx else 0.0
        return tx_power_dbm - loss - shadow

    def range_for_rate(self, mode: RateMode, tx_power_dbm: float = 15.0,
                       frame_bytes: int = 1500, fer_target: float = 0.1,
                       max_range_m: float = 1000.0) -> float:
        """Largest interference-free distance sustaining ``mode``.

        Solved by bisection on the monotone FER-vs-distance curve; used by
        E3 to report the ranging table.
        """
        def ok(distance: float) -> bool:
            sinr = self.received_power_dbm(tx_power_dbm, distance) - NOISE_FLOOR_DBM
            return mode.fer(sinr, frame_bytes) <= fer_target

        if not ok(0.1):
            return 0.0
        lo, hi = 0.1, max_range_m
        if ok(hi):
            return hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if ok(mid):
                lo = mid
            else:
                hi = mid
        return lo


def sinr_from_mw(signal_mw: float, interference_mw: float,
                 noise_mw: float = NOISE_FLOOR_MW) -> float:
    """SINR in dB from already-linear powers (the hot-path entry point).

    The medium accumulates the interference sum in milliwatts (cached link
    gains times transmit powers), so this is one divide and one log.
    """
    ratio = signal_mw / (noise_mw + interference_mw)
    return 10.0 * math.log10(ratio if ratio > 1e-20 else 1e-20)

