"""Physical parameter set of the multiplexed source and derived quantities.

The source is described by the number of correction stages ``m``, the single
detection window ``delta_t0_ns``, the mean pair number per window ``mu`` and
the device imperfections: heralding-branch transmission ``e_h``, static
signal-branch transmission ``e_s``, per-switch insertion loss ``e_sw_db`` and
the heralding detector dark-count rate ``r_dark``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional

__all__ = ["SourceConfig", "signal_transmission"]

# Relative tolerance for the cross-check between mu and herald_rate_r.
_MU_RATE_RTOL = 1e-12
# Largest m: the loss chain takes the 2**m windows as a float.
_MAX_M = sys.float_info.max_exp - 1


def _check_int(value, name: str, low: int, high: int) -> int:
    """``value`` as an int in [low, high]: the one check of every integer
    argument.

    An integral real such as 2.0 or np.int64(2) is accepted; a bool, a
    fraction, nan, an infinity and a non-number raise ``ValueError``
    naming ``name`` and the value.
    """
    if type(value) is int or isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = int(value)
        except (ValueError, OverflowError):  # nan, inf
            number = None
        if number == value and low <= number <= high:
            return number
    raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


def _check_real(value, name: str, high: float = math.inf, positive: bool = False):
    """``value`` if it is a finite real in [0, high], or > 0 where
    ``positive``: the one check of every real source parameter.  An int or a
    float is returned unchanged, any other real (np.float32, np.float64, a
    Fraction) as a float, so the loss chain computes in float64.

    A bool, nan, an infinity, a non-number (a string, None, a Decimal) and a
    value out of range raise ``ValueError`` naming ``name`` and the value.
    """
    # type() first: the abstract-class check costs more than the rest.
    if type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        if (value > 0 if positive else value >= 0) and value <= high and math.isfinite(value):
            return value if type(value) is float or type(value) is int else float(value)
    else:
        value = repr(value)
    if positive:
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    if high < math.inf:
        raise ValueError(f"{name} must lie in [0, {high:g}], got {value}")
    raise ValueError(f"{name} must be finite and >= 0, got {value}")


def signal_transmission(e_s: float, e_sw_db: float, m: int) -> float:
    """End-to-end signal transmission: e_s times m+1 passages through
    switches of insertion loss ``e_sw_db`` dB, as :attr:`SourceConfig.e_s_total`
    gives it."""
    return e_s * (10.0 ** (-e_sw_db / 10.0)) ** (m + 1)


@dataclass(frozen=True)
class SourceConfig:
    """Full parameter set of one source configuration.

    The defaults describe the ideal device: unit transmissions, no switch
    loss and no dark counts, so ``SourceConfig(m=m, mu=mu)`` is lossless.

    Parameters
    ----------
    m:
        Number of binary delay correction stages (>= 0).  The switching
        network spans ``2**m`` detection windows.
    delta_t0_ns:
        Length of a single detection window in nanoseconds (> 0).
    mu:
        Mean photon-pair number per single detection window.  May be omitted
        when ``herald_rate_r`` is given instead.
    herald_rate_r:
        Optional pair generation rate in pairs/second.  Implies
        ``mu = delta_t0 * herald_rate_r``; if both are supplied they must
        agree to within 1e-12 relative.
    e_h:
        Heralding-branch transmission times detector efficiency, in [0, 1].
    e_s:
        Static signal-branch transmission (coupling plus dichroic), in [0, 1].
    e_sw_db:
        Insertion loss of one optical switch, in dB (>= 0).
    r_dark:
        Dark-count rate of the heralding detector in counts/second (>= 0).
    """

    m: int = 0
    delta_t0_ns: float = 2.0
    mu: Optional[float] = None
    herald_rate_r: Optional[float] = None
    e_h: float = 1.0
    e_s: float = 1.0
    e_sw_db: float = 0.0
    r_dark: float = 0.0

    def __post_init__(self) -> None:
        # Each field keeps the value its check returns, stored in the instance
        # dict: object.__setattr__ costs several times more per field.
        checked = self.__dict__
        checked["m"] = _check_int(self.m, "m", 0, _MAX_M)
        checked["delta_t0_ns"] = _check_real(self.delta_t0_ns, "delta_t0_ns", positive=True)
        if self.herald_rate_r is not None:
            checked["herald_rate_r"] = _check_real(self.herald_rate_r, "herald_rate_r")
            implied = self.herald_rate_r * self.delta_t0_s
            if self.mu is None:
                checked["mu"] = implied
            elif abs(_check_real(self.mu, "mu") - implied) > _MU_RATE_RTOL * max(
                    abs(self.mu), abs(implied), 1e-300):
                raise ValueError(
                    f"inconsistent pump specification: mu={self.mu} but "
                    f"herald_rate_r*delta_t0 implies mu={implied}"
                )
        elif self.mu is None:
            raise ValueError("either mu or herald_rate_r must be given")
        checked["mu"] = _check_real(self.mu, "mu")
        checked["e_h"] = _check_real(self.e_h, "e_h", 1.0)
        checked["e_s"] = _check_real(self.e_s, "e_s", 1.0)
        checked["e_sw_db"] = _check_real(self.e_sw_db, "e_sw_db")
        checked["r_dark"] = _check_real(self.r_dark, "r_dark")

    # -- derived quantities ------------------------------------------------

    @property
    def n_windows(self) -> int:
        """Number of detection windows spanned by the network, 2**m."""
        return 1 << self.m

    @property
    def delta_t0_s(self) -> float:
        return self.delta_t0_ns * 1e-9

    @property
    def mu_total(self) -> float:
        """Mean pair number over the whole synchronization interval."""
        return self.n_windows * self.mu

    @property
    def period_ns(self) -> float:
        """Synchronization clock period, 2**m * delta_t0."""
        return self.n_windows * self.delta_t0_ns

    @property
    def clock_hz(self) -> float:
        return 1e9 / self.period_ns

    @property
    def e_s_total(self) -> float:
        """End-to-end signal transmission: e_s times m+1 switch passages."""
        return signal_transmission(self.e_s, self.e_sw_db, self.m)

    @property
    def p_dark(self) -> float:
        """Dark-count probability within one detection window."""
        return -math.expm1(-self.r_dark * self.delta_t0_s)

    # -- convenience -------------------------------------------------------

    def replace(self, **changes) -> "SourceConfig":
        """A copy with ``changes``.  A new ``mu`` drops the pair rate.  A new
        rate, or a new ``delta_t0_ns`` on a config that holds one, derives
        ``mu`` again.  A ``mu`` given with a rate is cross-checked against it."""
        if "mu" in changes:
            changes.setdefault("herald_rate_r", None)
        elif (changes.get("herald_rate_r", self.herald_rate_r) is not None
              and changes.keys() & {"herald_rate_r", "delta_t0_ns"}):
            changes["mu"] = None
        return replace(self, **changes)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
