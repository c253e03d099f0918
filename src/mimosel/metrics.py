"""Zero-forcing post-processing SNR and sum spectral efficiency.

For a selected channel H_sel (columns = selected users), the ZF receiver's
per-stream SNR is 1 / (n0 * diag(inv(G))) with G = H_sel^H H_sel. G is
Hermitian positive definite whenever the columns are independent, so the
inverse diagonal is taken through a Cholesky factor, guarded by a condition
number limit.
"""

from __future__ import annotations

import numpy as np

from .numerics import OpLedger

__all__ = [
    "SingularSetError",
    "COND_LIMIT",
    "zf_post_snr",
    "sum_spectral_efficiency",
    "zf_sum_rate_batch",
]

#: Selected sets whose Gram matrix condition number exceeds this are treated
#: as rank deficient; callers score them as minus-infinity sum rate.
COND_LIMIT = 1e12


class SingularSetError(ValueError):
    """The selected columns are not linearly independent at working precision."""


def _as_selected(h_sel) -> np.ndarray:
    h = np.asarray(h_sel, dtype=np.complex128)
    if h.ndim == 1:
        h = h[:, np.newaxis]
    if h.ndim != 2:
        raise ValueError(f"selected channel must be 2-D, got shape {h.shape}")
    return h


def _zf_snr(h_stack: np.ndarray, n0: float, ledger: OpLedger):
    """ZF post-processing SNRs of a (P, M, K) stack of selected channels.

    Returns ``ok``, a (P,) mask of the sets that pass the ``COND_LIMIT``
    guard, and ``snr``, the (n_ok, K) per-stream SNRs of those sets. Each
    set is charged its Gram matrix, and each set that passes its Cholesky
    inverse and K divisions.
    """
    p, m, k = h_stack.shape
    if not 1 <= k <= m:
        raise ValueError(f"require 1 <= K <= M for zero forcing, got K={k}, M={m}")
    if n0 <= 0:
        raise ValueError(f"n0 must be positive, got {n0}")
    gram = h_stack.conj().transpose(0, 2, 1) @ h_stack
    ledger.complex_macs += p * k * k * m
    eigs = np.linalg.eigvalsh(gram)
    # Negated as a whole, so that a NaN Gram matrix passes the guard.
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = ~((eigs[:, 0] <= 0.0) | (eigs[:, -1] / eigs[:, 0] > COND_LIMIT))
    chol = np.linalg.cholesky(gram[ok])
    chol_inv = np.linalg.solve(chol, np.eye(k, dtype=np.complex128))
    gram_inv_diag = np.sum(np.abs(chol_inv) ** 2, axis=-2)
    n_ok = len(chol)
    ledger.complex_macs += n_ok * k**3
    ledger.divisions += n_ok * k
    return ok, 1.0 / (n0 * gram_inv_diag)


def zf_post_snr(h_sel, n0: float, ledger: OpLedger) -> np.ndarray:
    """Per-stream post-processing SNR of the ZF receiver for each column.

    Raises :class:`SingularSetError` when the Gram matrix is singular or its
    condition number exceeds ``COND_LIMIT``.
    """
    h = _as_selected(h_sel)
    ok, snr = _zf_snr(h[np.newaxis], n0, ledger)
    if not ok[0]:
        m, k = h.shape
        raise SingularSetError(
            f"gram matrix of the selected set is ill conditioned (K={k}, M={m})"
        )
    return snr[0]


def sum_spectral_efficiency(h_sel, n0: float, ledger: OpLedger) -> float:
    """ZF sum spectral efficiency sum_k log2(1 + SNR_k) in bits/s/Hz."""
    snr = zf_post_snr(h_sel, n0, ledger)
    return float(np.sum(np.log2(1.0 + snr)))


def zf_sum_rate_batch(h, sets, n0: float, ledger: OpLedger) -> np.ndarray:
    """ZF sum spectral efficiency of each row of ``sets``, scored in one pass.

    ``sets`` is a (P, K) array of column indices into ``h``. Entry p equals
    ``sum_spectral_efficiency(h[:, sets[p]], n0, ledger)`` bit for bit, or
    minus infinity where that call would raise :class:`SingularSetError`.
    The ledger is charged per set, as P calls of the single-set path would
    charge it. Memory grows with P, so callers bound it.
    """
    h = np.asarray(h, dtype=np.complex128)
    sets = np.asarray(sets, dtype=np.intp)
    if sets.ndim != 2:
        raise ValueError(f"candidate sets must be a 2-D index array, got shape {sets.shape}")
    # One contiguous (M, K) matrix per set, so each batched BLAS and LAPACK
    # call sees the same operands as the single-set path.
    ok, snr = _zf_snr(np.ascontiguousarray(np.moveaxis(h[:, sets], 0, 1)), n0, ledger)
    rates = np.full(len(sets), -np.inf)
    rates[ok] = np.sum(np.log2(1.0 + snr), axis=-1)
    return rates
