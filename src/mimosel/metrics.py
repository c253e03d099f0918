"""Zero-forcing post-processing SNR and sum spectral efficiency.

For a selected channel H_sel (columns = selected users), the ZF receiver's
per-stream SNR is 1 / (n0 * diag(inv(G))) with G = H_sel^H H_sel. G is
Hermitian positive definite whenever the columns are independent, so the
inverse diagonal is taken through a Cholesky factor, guarded by a condition
number limit. The guard is certified from that factor: cond(G) is at most
trace(G) trace(inv(G)), and trace(inv(G)) is the sum of the inverse
diagonal. Only the sets this bound does not certify have their eigenvalues
computed.
"""

from __future__ import annotations

import numpy as np

from .channel import _POSITIVE, _require
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
    if not np.isfinite(h).all():
        raise ValueError("channel matrix contains a non-finite entry")
    return h


def _eigen_guard(gram: np.ndarray) -> np.ndarray:
    """The ``COND_LIMIT`` guard of a (P, K, K) Gram stack, from its eigenvalues."""
    eigs = np.linalg.eigvalsh(gram)
    # Negated as a whole, so that a NaN Gram matrix passes the guard.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return ~((eigs[:, 0] <= 0.0) | (eigs[:, -1] / eigs[:, 0] > COND_LIMIT))


def _gram_inv_diag(gram: np.ndarray) -> np.ndarray:
    """Diagonals of the inverses of a (P, K, K) Gram stack, via Cholesky."""
    chol = np.linalg.cholesky(gram)
    chol_inv = np.linalg.solve(chol, np.eye(gram.shape[-1], dtype=np.complex128))
    # A column near the float64 floor overflows its entry to infinity,
    # which the condition guard then rejects.
    with np.errstate(over="ignore"):
        return (np.abs(chol_inv) ** 2).sum(axis=-2)


def _zf_snr(h_stack: np.ndarray, n0: float, ledger: OpLedger):
    """ZF post-processing SNRs of a (P, M, K) stack of selected channels.

    Returns ``ok``, a (P,) mask of the sets that pass the ``COND_LIMIT``
    guard, and ``snr``, the (n_ok, K) per-stream SNRs of those sets. Each
    set is charged its Gram matrix, and each set that passes its Cholesky
    inverse and K divisions.

    The whole stack is factored first. A set is certified when
    trace(G) trace(inv(G)), an upper bound on cond(G), is at most
    ``COND_LIMIT`` / 16; the factor of 16 covers the rounding of the
    computed bound and of the eigenvalues the guard would otherwise use.
    ``eigvalsh`` runs only on the sets left uncertified (NaN ones among
    them), and if some set is not positive definite, so that the batched
    factorisation fails, on the whole stack. Either way the mask, the SNRs
    and the charges are those of guarding every set by its eigenvalues.
    """
    p, m, k = h_stack.shape
    if not 1 <= k <= m:
        raise ValueError(f"require 1 <= K <= M for zero forcing, got K={k}, M={m}")
    _require("n0", n0, _POSITIVE)
    gram = h_stack.conj().transpose(0, 2, 1) @ h_stack
    ledger.complex_macs += p * k * k * m
    try:
        gram_inv_diag = _gram_inv_diag(gram)
    except np.linalg.LinAlgError:
        ok = _eigen_guard(gram)
        gram_inv_diag = _gram_inv_diag(gram[ok])
    else:
        trace = gram.diagonal(axis1=1, axis2=2).real.sum(axis=-1)
        ok = trace * gram_inv_diag.sum(axis=-1) <= COND_LIMIT / 16
        if not ok.all():
            unsure = ~ok
            ok[unsure] = _eigen_guard(gram[unsure])
            gram_inv_diag = gram_inv_diag[ok]
    n_ok = len(gram_inv_diag)
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
        raise _ill_conditioned(*h.shape)
    return snr[0]


def _ill_conditioned(m: int, k: int) -> SingularSetError:
    """The error of an M x K selected set that fails the ``COND_LIMIT`` guard."""
    return SingularSetError(f"gram matrix of the selected set is ill conditioned (K={k}, M={m})")


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
