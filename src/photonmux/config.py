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
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = int(value)
        except (ValueError, OverflowError):  # nan, inf
            number = None
        if number == value and low <= number <= high:
            return number
    raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")


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
        object.__setattr__(self, "m", _check_int(self.m, "m", 0, _MAX_M))
        if not (self.delta_t0_ns > 0 and math.isfinite(self.delta_t0_ns)):
            raise ValueError(f"delta_t0_ns must be finite and > 0, got {self.delta_t0_ns}")
        if self.mu is None and self.herald_rate_r is None:
            raise ValueError("either mu or herald_rate_r must be given")
        if self.herald_rate_r is not None:
            if not (self.herald_rate_r >= 0 and math.isfinite(self.herald_rate_r)):
                raise ValueError(f"herald_rate_r must be finite and >= 0, got {self.herald_rate_r}")
            implied = self.herald_rate_r * self.delta_t0_s
            if self.mu is None:
                object.__setattr__(self, "mu", implied)
            else:
                scale = max(abs(self.mu), abs(implied), 1e-300)
                if abs(self.mu - implied) > _MU_RATE_RTOL * scale:
                    raise ValueError(
                        f"inconsistent pump specification: mu={self.mu} but "
                        f"herald_rate_r*delta_t0 implies mu={implied}"
                    )
        if not (self.mu >= 0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        for name in ("e_h", "e_s"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not (self.e_sw_db >= 0 and math.isfinite(self.e_sw_db)):
            raise ValueError(f"e_sw_db must be finite and >= 0, got {self.e_sw_db}")
        if not (self.r_dark >= 0 and math.isfinite(self.r_dark)):
            raise ValueError(f"r_dark must be finite and >= 0, got {self.r_dark}")

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
