"""Complex vector primitives, orthonormal basis construction, and counting.

The dominant floating-point work of every kernel is funnelled through an
:class:`OpLedger` so that measured costs can be reconciled against the
closed-form models in :mod:`mimosel.complexity`. One "complex MAC" is one
term of a complex inner product; scalar divisions and comparisons are
tracked separately because the cost models ignore them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OpLedger",
    "BasisConstructionError",
    "gram_schmidt_extend",
    "subset_count",
]

#: Tolerance on basis orthonormality (off-diagonal inner products and norms).
ORTHO_TOL = 1e-10

#: A Gram-Schmidt residual below this norm means the draw was (numerically)
#: dependent on the existing columns and is redrawn.
RESIDUAL_FLOOR = 1e-8

#: Gaussian draws are almost surely independent, so exhausting the redraw
#: budget signals a broken random stream rather than bad luck.
MAX_REDRAWS = 100


class BasisConstructionError(RuntimeError):
    """Random draws repeatedly failed to extend the basis; the RNG is suspect."""


@dataclass
class OpLedger:
    """Running totals of dominant operation counts for one task.

    Concurrent tasks each own a private ledger.
    """

    complex_macs: int = 0
    divisions: int = 0
    comparisons: int = 0


def _as_vector(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-D vector of length >= 1, got shape {arr.shape}")
    return arr


def gram_schmidt_extend(seed, rng: np.random.Generator, ledger: OpLedger) -> np.ndarray:
    """Extend a unit seed vector to an (M, M) orthonormal basis.

    Column 0 is the seed. The columns beyond it are drawn as complex Gaussian vectors (real and
    imaginary parts standard normal) and orthogonalized with modified
    Gram-Schmidt; a draw whose residual falls below ``RESIDUAL_FLOOR`` is
    redrawn, at most ``MAX_REDRAWS`` times.
    """
    sv = _as_vector(seed, "seed")
    m = sv.size
    ledger.complex_macs += m
    if abs(np.linalg.norm(sv) - 1.0) > ORTHO_TOL:
        raise ValueError("seed vector must have unit norm")

    basis = np.empty((m, m), dtype=np.complex128)
    basis[:, 0] = sv
    for j in range(1, m):
        for _ in range(MAX_REDRAWS + 1):
            z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            for i in range(j):
                coef = np.vdot(basis[:, i], z)
                z -= coef * basis[:, i]
                ledger.complex_macs += 2 * m
            resid = np.linalg.norm(z)
            ledger.complex_macs += m
            if resid >= RESIDUAL_FLOOR:
                break
        else:
            raise BasisConstructionError(
                f"no independent draw for column {j} after {MAX_REDRAWS} redraws"
            )
        basis[:, j] = z / resid
        ledger.divisions += m
    return basis


def subset_count(u: int, k: int) -> int:
    """Number of non-empty subsets of at most k elements out of u (exact)."""
    u = int(u)
    k = int(k)
    if k < 1 or k > u:
        raise ValueError(f"require 1 <= k <= u, got k={k}, u={u}")
    return sum(math.comb(u, j) for j in range(1, k + 1))
