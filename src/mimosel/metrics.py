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

from .channel import _POSITIVE, _column_norms, _require_real
from .numerics import OpLedger

__all__ = [
    "SingularSetError",
    "COND_LIMIT",
    "zf_post_snr",
    "sum_spectral_efficiency",
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
    [error] = _column_norms(h[np.newaxis])[1]
    if error is not None:
        raise error
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
    guard, and ``snr``, the (n_ok, K) per-stream SNRs of those sets, charged
    by ``_charge_zf``.

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
    _require_real("n0", n0, _POSITIVE)
    gram = h_stack.conj().transpose(0, 2, 1) @ h_stack
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
    _charge_zf(ledger, m, k, p, len(gram_inv_diag))
    return ok, 1.0 / (n0 * gram_inv_diag)


def _charge_zf(ledger: OpLedger, m: int, k: int, scored: int, passed: int) -> None:
    """Charge the ZF price of ``scored`` M x K sets, of which ``passed`` pass the guard.

    Each set costs its Gram matrix, K^2 M MACs; each that passes, its
    Cholesky inverse, K^3 MACs, and K divisions. Paths that rank a set
    without the kernel charge it here too, so ledgers do not depend on the
    path.
    """
    ledger.complex_macs += scored * k * k * m + passed * k**3
    ledger.divisions += passed * k


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


def _set_stack(h: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """The columns ``sets[p]`` of ``h`` for each row p, as a contiguous (P, M, K) stack."""
    # One contiguous (M, K) matrix per set, so each batched BLAS and LAPACK
    # call sees the same operands as the single-set path.
    return np.ascontiguousarray(np.moveaxis(h[:, sets], 0, 1))


def _zf_sum_rates(h_stack: np.ndarray, n0: float, ledger: OpLedger) -> np.ndarray:
    """ZF sum spectral efficiency of each set of a contiguous (P, M, K) stack.

    Entry p is sum_k log2(1 + SNR_k) of set p, or minus infinity where the
    set fails the ``COND_LIMIT`` guard; the ledger is charged by ``_zf_snr``.
    """
    ok, snr = _zf_snr(h_stack, n0, ledger)
    rates = np.full(len(h_stack), -np.inf)
    rates[ok] = np.sum(np.log2(1.0 + snr), axis=-1)
    return rates
