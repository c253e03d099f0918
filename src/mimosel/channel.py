"""Synthetic uplink channels and link-budget arithmetic.

Channels are i.i.d. Rayleigh with unit average entry power: full path-loss
compensation to a common received power removes large-scale disparity
between users, so the signal-to-noise ratio enters only through the
normalized noise power returned by :func:`noise_power`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinkBudget",
    "THERMAL_NOISE_DBM_PER_HZ",
    "noise_power_dbm",
    "noise_power",
    "generate_iid_rayleigh",
]

THERMAL_NOISE_DBM_PER_HZ = -174.0

# Range rules of the package's settings and arguments: the test of a value
# and the phrase that names it in the error (see ``_require``).
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_UNIT_OPEN = (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")
_POSITIVE = (lambda v: v > 0, "must be positive")


def _require(name: str, value, rule) -> None:
    """Raise the ``ValueError`` naming ``name`` unless ``value`` meets ``rule``.

    NaN meets none of the rules. A string value is shown quoted.
    """
    test, phrase = rule
    if not test(value):
        shown = repr(value) if isinstance(value, str) else value
        raise ValueError(f"{name} {phrase}, got {shown}")


def _require_real(name: str, value, rule) -> None:
    """Raise the ``ValueError`` naming ``name`` unless ``value`` is a real
    number, a bool not being one, that meets ``rule``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    _require(name, value, rule)


def _require_count(name: str, value) -> None:
    """Raise the ``ValueError`` naming ``name`` unless ``value`` is an integer >= 1,
    a bool not being one; a real number below 1 or NaN breaks ``_AT_LEAST_1``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        _require(name, value, _AT_LEAST_1)
        if isinstance(value, numbers.Integral):
            return
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _column_norms(arr: np.ndarray) -> np.ndarray:
    """Column norms of the complex channel matrix ``arr``, checked to be finite.

    Raises the ``ValueError`` naming a non-finite entry, or else a column
    whose norm overflows although its entries are finite.
    """
    # A non-finite entry makes its column's norm non-finite, so one check on
    # the norms covers both; the entries are looked at only on failure.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(arr, axis=0)
    if not np.isfinite(norms).all():
        if not np.isfinite(arr).all():
            raise ValueError("channel matrix contains a non-finite entry")
        raise ValueError("channel matrix contains a column whose norm overflows")
    return norms


@dataclass(frozen=True)
class LinkBudget:
    """Target received power plus the receiver noise parameters."""

    p0_dbm: float
    bandwidth_hz: float = 20e6
    noise_figure_db: float = 5.0

    def __post_init__(self):
        _require_real("bandwidth_hz", self.bandwidth_hz, _POSITIVE)


def noise_power_dbm(budget: LinkBudget) -> float:
    """Thermal noise power at the receiver in dBm."""
    return (
        THERMAL_NOISE_DBM_PER_HZ
        + 10.0 * np.log10(budget.bandwidth_hz)
        + budget.noise_figure_db
    )


def noise_power(budget: LinkBudget) -> float:
    """Noise power normalized to the target received power (linear scale).

    With unit-average-power channel columns the per-stream SNR in dB is
    ``p0_dbm - noise_power_dbm(budget)``, so the rate formulas take this
    normalized value directly.
    """
    return float(10.0 ** ((noise_power_dbm(budget) - budget.p0_dbm) / 10.0))


def generate_iid_rayleigh(m: int, u: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an m-by-u channel matrix with i.i.d. unit-variance complex entries.

    Column norms squared then average to m. All-zero columns (probability
    zero, but the contract forbids them) are redrawn.
    """
    if m < 1 or u < 1:
        raise ValueError(f"require m >= 1 and u >= 1, got m={m}, u={u}")
    h = (rng.standard_normal((m, u)) + 1j * rng.standard_normal((m, u))) / np.sqrt(2.0)
    while True:
        dead = ~h.any(axis=0)
        if not dead.any():
            break
        n_dead = int(dead.sum())
        h[:, dead] = (
            rng.standard_normal((m, n_dead)) + 1j * rng.standard_normal((m, n_dead))
        ) / np.sqrt(2.0)
    return h

