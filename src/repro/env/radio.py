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
# Inverse normal CDF
# ---------------------------------------------------------------------------

# Cephes ``ndtri`` (S. L. Moshier), the algorithm behind
# ``scipy.special.ndtri``, with its constants.  P0/Q0 serve the centre,
# e^-2 < y < 1 - e^-2; P1/Q1 and P2/Q2 the tails, in z = sqrt(-2 ln y)
# below and above z = 8.  Each Q carries the leading 1.0 that Cephes'
# ``p1evl`` leaves implicit: ``1.0 * x`` is exactly ``x``, so one Horner
# loop evaluates both ``polevl`` and ``p1evl`` in Cephes' order.
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: Tuple[float, ...]) -> float:
    # The first step, 0.0 * x + coef[0], is exactly Cephes' start coef[0].
    ans = 0.0
    for c in coef:
        ans = ans * x + c
    return ans


def ndtri(y: float) -> float:
    """Inverse of the standard normal CDF: the ``x`` with Phi(x) = ``y``.

    A port of Cephes ``ndtri`` that returns the same doubles as
    ``scipy.special.ndtri``: the same constants, the same branches and
    the same order of every float operation, with ``math.log`` and
    ``math.sqrt`` for the C library's ``log`` and ``sqrt``.  Gives
    -inf at 0, inf at 1 and NaN outside [0, 1].
    """
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_MINUS_2
    if upper:
        y = 1.0 - y
    if y > _EXP_MINUS_2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > e^-32
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return x if upper else -x


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
        # Written so NaN fails too: a NaN exponent or reference loss
        # shrinks the culling radius to 0.1 m, and an infinite sigma makes
        # every shadowing term infinite.
        if not 1.0 <= exponent <= 6.0:
            raise ConfigurationError(f"implausible path-loss exponent {exponent}")
        if not -math.inf < reference_loss_db < math.inf:
            raise ConfigurationError(
                f"reference loss must be finite, not {reference_loss_db}")
        if not 0.0 <= shadowing_sigma_db < math.inf:
            raise ConfigurationError(
                f"shadowing sigma must be finite and non-negative, not "
                f"{shadowing_sigma_db}")
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
            # 53 uniform bits in (0, 1], through the normal inverse CDF,
            # clamped to the documented +-6 sigma support.  (The top key
            # rounds to 1.0, whose infinite deviate the clamp catches.)
            uniform = ((mixed >> 11) + 0.5) / float(1 << 53)
            value = sigma * ndtri(uniform)
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

