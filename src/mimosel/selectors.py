"""User-selection algorithms for MU-MIMO uplink scheduling.

Implements the space-splitting selector (``ss_us``) alongside the classic
baselines it is measured against: semi-orthogonal selection (``sus``),
greedy zero-forcing (``gzf``), a chordal-distance shortlist method
(``mcore_plus``), uniform random selection, and a brute-force oracle for
small instances.

Conventions shared by every selector:

* user indices and basis-direction indices are 0-based,
* the first selected user is always the one with the largest channel norm,
* argmax ties break toward the lowest index, so results are deterministic.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .channel import _AT_LEAST_1, _POSITIVE, _UNIT_OPEN, _require
from .metrics import COND_LIMIT, sum_spectral_efficiency, zf_sum_rate_batch
from .numerics import (
    RESIDUAL_FLOOR,
    BasisConstructionError,
    OpLedger,
    gram_schmidt_extend,
    subset_count,
)
from .seeding import _stacked_normals, stream

__all__ = [
    "Algorithm",
    "SelectionConfig",
    "SelectionResult",
    "ss_us",
    "ss_us_variants",
    "sus",
    "gzf",
    "mcore_plus",
    "random_select",
    "exhaustive_oracle",
    "run_selection",
    "infeasible_reason",
    "EXHAUSTIVE_SUBSET_CAP",
    "MCORE_MAX_ANTENNAS",
]

#: Hard cap on the oracle's search space (number of candidate subsets).
EXHAUSTIVE_SUBSET_CAP = 1_000_000

#: The shortlist stage of mcore_plus enumerates all subsets of up to
#: 2**M - 1 candidates; beyond 12 antennas that is no longer desk scale.
MCORE_MAX_ANTENNAS = 12

#: Block size of the subset enumeration of ``mcore_plus`` and
#: ``exhaustive_oracle``: a block holds at most this many subsets of size K
#: over K (at least one), so that their K x K factors hold at most this many
#: times K entries, and memory stays flat in the size of the search space.
_SUBSET_BLOCK = 1024

#: Float64 elements (560 kB) that the largest stack of one ``ss_us`` block
#: may hold; it sizes the block (see ``_bases_per_block``) and so bounds its
#: working set. Chosen by measurement: at U = 100 it holds the 100 bases of
#: M = 8 in one block and those of M = 16 in three.
_BLOCK_BUDGET = 70_000


class Algorithm(str, Enum):
    SSUS = "ssus"
    SUS = "sus"
    GZF = "gzf"
    MCORE_PLUS = "mcore_plus"
    RANDOM = "random"
    EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class SelectionConfig:
    """Algorithm choice plus tunables.

    ``num_bases`` and ``alpha`` drive ``ss_us``; ``sus_epsilon`` drives
    ``sus``; ``k_max`` caps the selected-set size for every algorithm;
    ``rng_seed`` keys the random streams of ``ss_us`` and ``random``.
    """

    algorithm: Algorithm
    k_max: int
    num_bases: int = 1
    alpha: float = 0.45
    sus_epsilon: float = 0.3
    rng_seed: int = 0

    def __post_init__(self):
        _require("k_max", self.k_max, _AT_LEAST_1)
        _require("num_bases", self.num_bases, _AT_LEAST_1)
        _require("alpha", self.alpha, _UNIT_OPEN)
        _require("sus_epsilon", self.sus_epsilon, _UNIT_OPEN)


@dataclass(frozen=True)
class SelectionResult:
    """Ordered selection; the metric fields are populated by ``ss_us`` only.

    ``matched_direction[i]`` is the basis column user ``selected[i]`` was
    matched to (the seed user maps to direction 0) and ``weights[i]`` its
    correlation-weighted rate in the winning basis. ``winning_basis`` is
    that basis's index; at M = 2 every basis scores the same in exact
    arithmetic, so rounding picks the index while the selection stays put.
    """

    selected: tuple[int, ...]
    matched_direction: tuple[int, ...] | None = None
    weights: tuple[float, ...] | None = None
    winning_basis: int | None = None
    mean_metric: float | None = None

    @property
    def k_b(self) -> int:
        return len(self.selected)


def infeasible_reason(algorithm: Algorithm, m: int, u: int, k: int) -> str | None:
    """Why ``algorithm`` cannot run with K = ``k`` on an M x U channel, or None.

    K is ``random_select``'s subset size and every other selector's ``k_max``.
    """
    if algorithm is Algorithm.MCORE_PLUS and m > MCORE_MAX_ANTENNAS:
        return f"mcore_plus requires M <= {MCORE_MAX_ANTENNAS}, scenario has M={m}"
    if algorithm is Algorithm.EXHAUSTIVE:
        space = subset_count(u, min(k, m, u))
        if space > EXHAUSTIVE_SUBSET_CAP:
            return f"exhaustive search space {space} exceeds cap {EXHAUSTIVE_SUBSET_CAP}"
    if algorithm is Algorithm.RANDOM and k > min(m, u):
        return f"random selection needs K <= min(M, U) = {min(m, u)}, configured K={k}"
    return None


def _as_channel(h) -> np.ndarray:
    arr = np.asarray(h, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"channel matrix must be 2-D, got shape {arr.shape}")
    m, u = arr.shape
    if m < 1 or u < 1:
        raise ValueError(f"channel matrix must be at least 1x1, got {m}x{u}")
    if not np.isfinite(arr).all():
        raise ValueError("channel matrix contains a non-finite entry")
    if not arr.any(axis=0).all():
        raise ValueError("channel matrix contains an all-zero column")
    return arr


def _column_norms(h: np.ndarray, ledger: OpLedger) -> np.ndarray:
    m, u = h.shape
    ledger.complex_macs += u * m
    return np.linalg.norm(h, axis=0)


def ss_us(h, cfg: SelectionConfig, n0: float, ledger: OpLedger) -> SelectionResult:
    """Space-splitting selection.

    The strongest user seeds direction 0 of ``cfg.num_bases`` random
    orthonormal bases. Within each basis, directions are filled in order
    with the remaining candidate maximizing correlation times single-stream
    rate, accepted only if its correlation clears ``cfg.alpha``; a direction
    whose best candidate fails the threshold stays unfilled. The basis with
    the highest mean accepted weight (seed included) wins, ties going to the
    lowest basis index. At M = 2 the seed leaves one direction, so every
    basis is the same up to phase and rounding decides which index wins;
    the selection, weights and metric are the same whichever it is.

    This is ``ss_us_variants`` with the single variant of ``cfg``; the
    ledger is charged what that variant is charged there, and a
    :class:`BasisConstructionError` is raised after the charges.
    """
    [(outcome, charged)] = ss_us_variants(
        h, cfg.k_max, cfg.rng_seed, n0, [(cfg.num_bases, cfg.alpha)]
    )
    ledger.complex_macs += charged.complex_macs
    ledger.divisions += charged.divisions
    ledger.comparisons += charged.comparisons
    if isinstance(outcome, BasisConstructionError):
        raise outcome
    return outcome


def ss_us_variants(h, k_max: int, rng_seed: int, n0: float, variants):
    """``ss_us`` for every (num_bases, alpha) pair of ``variants`` in one pass.

    Basis l depends only on (``rng_seed``, l), and alpha enters only the
    matching, so the seed user, the bases and their correlations are built
    once, for the largest L, a block at a time (see ``_basis_block`` and
    ``_correlations``), and each distinct alpha matches users on every block
    (see ``_match_block``). A block holds as many bases as its largest
    stack fits in ``_BLOCK_BUDGET`` (see ``_bases_per_block``); its size
    changes no outcome and no charge. That fills a table with one row per
    basis: its construction charges and, per alpha, its match, held as one
    array per field of the match. A variant with L bases reads the first L
    rows; only its winner's weights become a tuple.

    Returns one (outcome, ledger) pair per variant, in order. The outcome
    is the :class:`SelectionResult` of ``ss_us`` with that variant alone,
    or the :class:`BasisConstructionError` it would raise: a fallback that
    exhausts its redraws at basis j fails only the variants with L > j.
    The ledger holds what that call charges: the common charges plus, for
    each of its first L bases, the basis's construction and correlation
    charges and the match comparisons at its alpha. A failed variant's
    ledger stops at the failing basis, which adds what its fallback charged.
    """
    hm = _as_channel(h)
    m, u = hm.shape
    for num_bases, alpha in variants:
        SelectionConfig(Algorithm.SSUS, k_max, num_bases, alpha)  # checks the tunables
    common = OpLedger()
    norms = _column_norms(hm, common)
    common.divisions += u
    rates = np.log2(1.0 + norms**2 / n0)
    seed_user = int(np.argmax(norms))
    common.comparisons += max(u - 1, 0)
    seed_rate = float(rates[seed_user])

    n_dirs = min(k_max, m)
    if u == 1 or n_dirs <= 1:
        result = SelectionResult(
            selected=(seed_user,),
            matched_direction=(0,),
            weights=(seed_rate,),
            winning_basis=0,
            mean_metric=seed_rate,
        )
        return [(result, replace(common)) for _ in variants]

    v_seed = hm[:, seed_user] / norms[seed_user]
    common.divisions += m
    cand = np.delete(np.arange(u), seed_user)
    h_cand_t = hm[:, cand].conj().T
    cand_norms = norms[cand]
    cand_rates = rates[cand]
    n_steps = n_dirs - 1
    corr_charge = cand.size * n_steps

    # The table: per basis, its construction (MACs, divisions), and per
    # alpha and basis, its match (see ``_match_block``). A failed rebuild's
    # charge comes last.
    charges: list[tuple[int, int]] = []
    n_bases = max((num_bases for num_bases, _ in variants), default=0)
    table = {
        alpha: (
            np.empty(n_bases),
            np.empty((n_bases, n_steps), dtype=np.intp),
            np.empty((n_bases, n_steps)),
            np.empty(n_bases, dtype=np.intp),
        )
        for _, alpha in variants
    }
    built = 0
    block = _bases_per_block(m, cand.size, n_steps)
    for start in range(0, n_bases, block):
        indices = range(start, min(start + block, n_bases))
        bases, block_charges, error = _basis_block(v_seed, rng_seed, indices)
        charges += block_charges
        corr = _correlations(h_cand_t, bases[:, :, 1:n_dirs], cand_norms)
        built = start + len(bases)
        for alpha, columns in table.items():
            for column, part in zip(columns, _match_block(corr, cand_rates, seed_rate, alpha)):
                column[start:built] = part
        if error is not None:
            break
        # Free this block before the next one is built, so that the budget
        # bounds the working set of one block, not of two.
        del bases, corr

    outcomes = []
    for num_bases, alpha in variants:
        means, picks, best, comparisons = table[alpha]
        rows = min(num_bases, built)
        macs, divisions = map(sum, zip(*charges[:num_bases]))
        # Only the bases built are correlated, so a failed rebuild is not.
        ledger = OpLedger(
            complex_macs=common.complex_macs + macs + rows * corr_charge * m,
            divisions=common.divisions + divisions + rows * corr_charge,
            comparisons=common.comparisons + int(comparisons[:rows].sum()),
        )
        if rows < num_bases:
            outcomes.append((error, ledger))
            continue
        # argmax keeps the first maximum, so ties go to the lowest basis index.
        l_star = int(np.argmax(means[:num_bases]))
        filled = np.flatnonzero(picks[l_star] >= 0)
        result = SelectionResult(
            selected=(seed_user, *cand[picks[l_star, filled]].tolist()),
            matched_direction=(0, *(filled + 1).tolist()),
            weights=(seed_rate, *best[l_star, filled].tolist()),
            winning_basis=l_star,
            mean_metric=float(means[l_star]),
        )
        outcomes.append((result, ledger))
    return outcomes


def _bases_per_block(m: int, n_cand: int, n_steps: int) -> int:
    """Bases per ``ss_us`` block, at least one, whose stacks fit ``_BLOCK_BUDGET``.

    A basis takes C x D float64 elements of the (B, C, D) correlations, for
    C candidates and D directions, and 8 M^2 of the QR's four (B, M, M)
    complex stacks: the matrix ``_basis_block`` builds, the copy that
    ``np.linalg.qr`` factors, Q and R. The larger of the two sizes the block.
    """
    return max(1, _BLOCK_BUDGET // max(n_cand * n_steps, 8 * m * m))


def _basis_block(v_seed: np.ndarray, rng_seed: int, indices: range):
    """Orthonormal bases ``indices`` of ``ss_us`` as a (B, M, M) stack.

    Basis l is the Householder QR of [v_seed | Z], with Z drawn from
    ``stream(rng_seed, l)`` in the order ``gram_schmidt_extend`` draws
    it: column by column, the real parts and then the imaginary parts. Its
    columns therefore equal Gram-Schmidt's on the same draws up to
    unit-modulus factors, which the correlations |h^H v| do not see. The
    block's draws come from ``_stacked_normals`` as one (B, M-1, 2, M)
    array, byte for byte those of the per-basis streams, which it seeds
    together rather than by one ``default_rng`` per basis (see
    ``seeding``). A basis whose draw is numerically dependent (some
    |R_jj| < ``RESIDUAL_FLOOR``) is rebuilt by ``gram_schmidt_extend`` on a
    fresh ``stream(rng_seed, l)``, which redraws and is charged what it
    charges. Every other basis is charged the modified Gram-Schmidt cost of
    a draw without redraws.

    Returns the bases, the (MACs, divisions) charged for each and ``None``.
    When a rebuild exhausts its redraws, the bases stop before the failing
    one, the charges end with what the failed rebuild charged, and the
    error comes last; the bases drawn past it are dropped. The draws are
    copied into one complex stack and freed before the QR, so the block's
    peak is the QR's four (B, M, M) stacks (see ``_bases_per_block``).
    """
    m = v_seed.size
    z = _stacked_normals(rng_seed, indices, (m - 1, 2, m))
    a = np.empty((len(indices), m, m), dtype=np.complex128)
    a[:, :, 0] = v_seed
    a.real[:, :, 1:] = z[:, :, 0].transpose(0, 2, 1)
    a.imag[:, :, 1:] = z[:, :, 1].transpose(0, 2, 1)
    del z  # before the QR makes its own copies of a
    bases, r = np.linalg.qr(a)
    # Seed norm check, then per column j: j projections of 2M MACs and a norm.
    charges = [(m + (m - 1) * m * (m + 1), m * (m - 1))] * len(indices)
    dependent = np.flatnonzero(
        np.abs(np.diagonal(r, axis1=1, axis2=2)).min(axis=1) < RESIDUAL_FLOOR
    )
    for i in dependent:
        rebuild = OpLedger()
        try:
            bases[i] = gram_schmidt_extend(v_seed, stream(rng_seed, indices[i]), rebuild)
        except BasisConstructionError as exc:
            return bases[:i], [*charges[:i], (rebuild.complex_macs, rebuild.divisions)], exc
        charges[i] = (rebuild.complex_macs, rebuild.divisions)
    return bases, charges, None


def _correlations(h_cand_t: np.ndarray, directions: np.ndarray, cand_norms: np.ndarray):
    """|h_c^H v| / |h_c|, clipped to [0, 1], for every candidate c and direction v.

    ``directions`` is a (B, M, D) stack and the result is (B, C, D). The
    complex products are formed a few bases at a time, each within a
    quarter of ``_BLOCK_BUDGET`` float64 elements, so only the float result
    exists at full block size.
    """
    n_bases, _, n_steps = directions.shape
    corr = np.empty((n_bases, len(h_cand_t), n_steps))
    step = max(1, _BLOCK_BUDGET // (8 * len(h_cand_t) * n_steps))
    for s in range(0, n_bases, step):
        np.abs(h_cand_t @ directions[s : s + step], out=corr[s : s + step])
    corr /= cand_norms[:, np.newaxis]
    np.clip(corr, 0.0, 1.0, out=corr)
    return corr


def _match_block(corr: np.ndarray, cand_rates: np.ndarray, seed_rate: float, alpha: float):
    """Greedy direction filling of ``ss_us`` on every basis of a block at once.

    ``corr`` is (B, C, D): candidate correlations with directions 1..D. It
    is only read, so every alpha matches on the same stack; step k scores
    direction k as ``corr[:, :, k]`` times the candidate rates, with the
    candidates already matched in that basis masked to -inf.
    Returns four arrays, one row per basis: the mean weight (B,), the picks
    (B, D), the best scores (B, D) and the comparisons (B,). ``picks`` holds
    the candidate matched to each direction, or -1 where the direction
    stays unfilled; the weights of a basis are the seed rate and then the
    best scores of its filled directions, in direction order, and its mean
    weight is their ``math.fsum`` over their count. A step costs one
    comparison per candidate still available.
    """
    n_bases, n_cand, n_steps = corr.shape
    rows = np.arange(n_bases)
    used = np.zeros((n_bases, n_cand), dtype=bool)
    picks = np.full((n_bases, n_steps), -1)
    best = np.empty((n_bases, n_steps))
    for k in range(n_steps):
        scores = corr[:, :, k] * cand_rates
        scores[used] = -np.inf
        pick = scores.argmax(axis=1)
        best[:, k] = scores[rows, pick]
        take = rows[(best[:, k] > -np.inf) & (corr[rows, pick, k] >= alpha)]
        picks[take, k] = pick[take]
        used[take, pick[take]] = True
    filled = picks >= 0
    comparisons = (n_cand - (np.cumsum(filled, axis=1) - filled)).sum(axis=1)
    sums = [
        math.fsum((seed_rate, *itertools.compress(w, f)))
        for w, f in zip(best.tolist(), filled.tolist())
    ]
    return np.array(sums) / (1 + filled.sum(axis=1)), picks, best, comparisons


def sus(h, cfg: SelectionConfig, n0: float, ledger: OpLedger) -> SelectionResult:
    """Semi-orthogonal selection.

    Starting from the strongest user, each iteration projects the remaining
    pool onto the span of the selected channels, permanently drops
    candidates whose correlation to that span exceeds ``cfg.sus_epsilon``,
    and selects the survivor with the largest residual norm.
    """
    hm = _as_channel(h)
    m, u = hm.shape
    norms = _column_norms(hm, ledger)
    seed_user = int(np.argmax(norms))
    ledger.comparisons += max(u - 1, 0)

    selected = [seed_user]
    ortho = [hm[:, seed_user] / norms[seed_user]]
    ledger.divisions += m
    pool = np.delete(np.arange(u), seed_user)
    k_cap = min(cfg.k_max, m, u)
    while len(selected) < k_cap and pool.size:
        q = np.column_stack(ortho)
        coef = q.conj().T @ hm[:, pool]
        ledger.complex_macs += q.shape[1] * m * pool.size
        proj_energy = np.sum(np.abs(coef) ** 2, axis=0)
        span_corr = np.sqrt(np.minimum(proj_energy / norms[pool] ** 2, 1.0))
        ledger.divisions += pool.size
        ledger.comparisons += pool.size
        keep = span_corr <= cfg.sus_epsilon
        pool = pool[keep]
        if not pool.size:
            break
        resid_sq = np.maximum(norms[pool] ** 2 - proj_energy[keep], 0.0)
        pick = int(np.argmax(resid_sq))
        ledger.comparisons += max(pool.size - 1, 0)
        chosen = int(pool[pick])
        residual = hm[:, chosen] - q @ coef[:, keep][:, pick]
        ledger.complex_macs += q.shape[1] * m + m
        residual_norm = np.linalg.norm(residual)
        ortho.append(residual / residual_norm)
        ledger.divisions += m
        selected.append(chosen)
        pool = np.delete(pool, pick)
    return SelectionResult(selected=tuple(selected))


def gzf(h, n0: float, k_max: int, ledger: OpLedger) -> SelectionResult:
    """Greedy selection by incremental ZF sum-rate gain.

    Starting from the strongest user, each step adds the candidate whose
    inclusion yields the largest ZF sum spectral efficiency, stopping as
    soon as no candidate strictly improves it. Rank-deficient candidate
    sets score minus infinity.

    Picks, ties (to the lowest index) and the stop follow the rates that
    ``zf_sum_rate_batch`` gives each candidate set, yet most sets never
    reach the kernel: ``_bordered_rates`` borders the selected set's
    inverse Cholesky factor by every candidate at once and bounds how far
    its rate can be from the kernel's. The kernel scores the candidates
    that bound does not certify, and those whose error intervals leave the
    pick or the stop undecided. Every candidate set is charged what the
    kernel charges for it, so the ledger does not depend on which path
    scored it.
    """
    hm = _as_channel(h)
    m, u = hm.shape
    _require("k_max", k_max, _AT_LEAST_1)
    norms = _column_norms(hm, ledger)
    seed_user = int(np.argmax(norms))
    ledger.comparisons += max(u - 1, 0)

    selected = [seed_user]
    current = sum_spectral_efficiency(hm[:, selected], n0, ledger)
    current_tol = 0.0
    pool = np.delete(np.arange(u), seed_user)
    k_cap = min(k_max, m, u)
    energy = norms**2
    # The leading block holds L_S⁻¹, the inverse Cholesky factor of the
    # selected set's Gram matrix. After an uncertified pick it is rebuilt
    # from a fresh factorisation.
    factor = np.zeros((k_cap, k_cap), dtype=np.complex128)
    factor[0, 0] = 1.0 / norms[seed_user]
    rebuild = False
    while len(selected) < k_cap and pool.size:
        k = len(selected) + 1
        w_inv = factor[: k - 1, : k - 1]
        if rebuild:
            h_sel = hm[:, selected]
            w_inv[...] = np.linalg.inv(np.linalg.cholesky(h_sel.conj().T @ h_sel))
        rates, tol, sure, v_bar, schur, _ = _bordered_rates(
            w_inv,
            (w_inv.real**2 + w_inv.imag**2).sum(axis=0),
            hm[:, selected].conj().T @ hm[:, pool],
            energy[pool],
            energy[selected].sum() + energy[pool],
            m,
            n0,
        )
        n_sure = int(np.count_nonzero(sure))
        ledger.complex_macs += n_sure * (k * k * m + k**3)
        ledger.divisions += n_sure * k
        ledger.comparisons += pool.size
        if n_sure < pool.size:
            unsure = ~sure
            rates[unsure] = zf_sum_rate_batch(hm, _grown(selected, pool[unsure]), n0, ledger)
            tol[unsure] = 0.0
        pick = int(np.argmax(rates))
        # Any candidate whose interval reaches the pick's may hold the
        # kernel's first maximum; then all of them are scored exactly.
        reach = rates + tol >= rates[pick] - tol[pick]
        if np.count_nonzero(reach) > 1 and (rescore := reach & (tol > 0.0)).any():
            rates[rescore] = _exact_rates(hm, _grown(selected, pool[rescore]), n0)
            tol[rescore] = 0.0
            pick = int(np.argmax(rates))
        best, best_tol = float(rates[pick]), float(tol[pick])
        # Where the intervals of the pick and the current rate overlap, only
        # exact rates can tell "stop" (best <= current) from "continue".
        if -(best_tol + current_tol) < best - current <= best_tol + current_tol:
            best, best_tol = float(_exact_rates(hm, _grown(selected, pool[[pick]]), n0)[0]), 0.0
            if current_tol:
                current, current_tol = float(_exact_rates(hm, [selected], n0)[0]), 0.0
        if best + best_tol <= current - current_tol:
            break
        rebuild = not sure[pick]
        if not rebuild:
            # Bordered row of the pick: [-v^H, 1] / sqrt(s).
            root = math.sqrt(schur[pick])
            factor[k - 1, : k - 1] = v_bar[:, pick] / -root
            factor[k - 1, k - 1] = 1.0 / root
        selected.append(int(pool[pick]))
        pool = np.delete(pool, pick)
        current, current_tol = best, best_tol
    return SelectionResult(selected=tuple(selected))


#: ``gzf`` ranks a candidate set without the kernel only when the bordered
#: trace(G)·trace(G⁻¹) is at most this: such a set passes the kernel's
#: condition guard whatever rounding either path makes.
_BORDER_CERT_LIMIT = COND_LIMIT / 1000

_EPS = float(np.finfo(float).eps)


def _grown(selected: list[int], cands: np.ndarray) -> np.ndarray:
    """The (P, K) index array of ``selected`` followed by each of ``cands``."""
    return np.column_stack((np.tile(selected, (cands.size, 1)), cands))


def _exact_rates(hm: np.ndarray, sets, n0: float) -> np.ndarray:
    """Kernel rates of sets whose charges are already on the ledger."""
    return zf_sum_rate_batch(hm, sets, n0, OpLedger())


def _bordered_rates(w_inv, inv_diag, cross, cand_energy, trace, m, n0):
    """Approximate ZF sum rates of prefix sets S, each bordered by candidates c.

    The leading axes index a stack of prefixes and broadcast; the last axis
    of ``cross``, ``cand_energy`` and ``trace`` indexes the candidates of
    each prefix. Prefix S has W = ``w_inv`` = L_S⁻¹, the inverse Cholesky
    factor of its Gram matrix G_S = L_S L_S^H, and the inverse diagonal
    ``inv_diag`` = diag(G_S⁻¹). Candidate c has b = H_S^H h_c, a column of
    ``cross``, |h_c|², an entry of ``cand_energy``, and the trace of the
    grown Gram matrix, trace(G_S) + |h_c|², an entry of ``trace``.
    Bordering L_S by l = W b gives the Schur complement s = |h_c|² - |l|²;
    with v = W^H l = G_S⁻¹ b the inverse Gram diagonal of the grown set is
    diag(G_S⁻¹) + |v|²/s, then 1/s, and its inverse factor is W with the
    row [-v^H, 1] / sqrt(s) below it. That gives the rate R of every grown
    set and t = trace(G) trace(G⁻¹) >= cond(G) from two stacked products
    and no per-set LAPACK call.

    Returns (rates, tol, sure, v_bar, s, diag) per candidate: the rate, its
    tolerance, whether it is certified, conj(v), s and the grown inverse
    diagonal (v_bar and diag hold one column per candidate). A candidate
    is ``sure`` when s > 0 and t <= ``_BORDER_CERT_LIMIT``; its R is then
    within tol = C K t eps (1 + R) of the kernel's rate, with K the grown
    size and C = 8 (M + 4K + 12).
    Both paths compute the inverse diagonal of some G + E, |E| <= n u tr(G)
    to first order in the unit roundoff u = eps/2: the Gram products
    (n = M + 2, complex inner products, Higham 2nd ed. §3.6), the Cholesky
    factor (K + 3, Thm 10.3, as |L||L^H| has Frobenius norm tr(G)) and the
    triangular inverse and its column sums (3K + 6, §8.1). Since
    |(G⁻¹ E G⁻¹)_jj| <= |E| |G⁻¹| (G⁻¹)_jj, each entry then moves by at
    most (M + 4K + 11) u t relatively, each stream's rate by that over
    ln 2, and the K logarithms and their sum add K u R. The two paths
    together stay within (M + 4K + 12) K t eps (1 + R) / ln 2; C is 5.5
    times that, for the second-order terms and for the bordered factor's
    products with an explicit inverse. The other entries of ``rates`` and
    ``tol`` are finite and meaningless.
    """
    k = w_inv.shape[-1] + 1
    proj = w_inv @ cross
    proj_bar = proj.conj()
    schur = cand_energy - (proj * proj_bar).real.sum(axis=-2)
    v_bar = w_inv.swapaxes(-1, -2) @ proj_bar
    positive = schur > 0.0
    last = np.reciprocal(schur, out=np.ones_like(schur), where=positive)[..., np.newaxis, :]
    diag = np.concatenate(
        (inv_diag[..., np.newaxis] + (v_bar * v_bar.conj()).real * last, last), axis=-2
    )
    bound = trace * diag.sum(axis=-2)
    rates = np.log2(1.0 + (1.0 / n0) / diag).sum(axis=-2)
    tol = (8.0 * (m + 4 * k + 12) * k * _EPS) * bound * (1.0 + rates)
    return rates, tol, positive & (bound <= _BORDER_CERT_LIMIT), v_bar, schur, diag


def mcore_plus(h, n0: float, k_max: int, ledger: OpLedger) -> SelectionResult:
    """Chordal-distance shortlist selection with an exhaustive final stage.

    Keeps the 2M strongest users, greedily builds an M-user shortlist by
    max-min chordal distance sqrt(1 - corr^2) seeded with the strongest
    user, then enumerates every shortlist subset of 1..``k_max`` users and
    returns the one with the highest ZF sum spectral efficiency.
    """
    hm = _as_channel(h)
    m, u = hm.shape
    _require("k_max", k_max, _AT_LEAST_1)
    if reason := infeasible_reason(Algorithm.MCORE_PLUS, m, u, k_max):
        raise ValueError(reason)
    norms = _column_norms(hm, ledger)
    order = np.argsort(-norms, kind="stable")
    ledger.comparisons += u * max(1, math.ceil(math.log2(max(u, 2))))
    pool = np.sort(order[: min(2 * m, u)])

    h_pool = hm[:, pool] / norms[pool]
    ledger.divisions += pool.size * m
    corr = np.abs(h_pool.conj().T @ h_pool)
    ledger.complex_macs += pool.size * pool.size * m
    chordal = np.sqrt(np.maximum(1.0 - np.minimum(corr, 1.0) ** 2, 0.0))

    strongest = int(np.argmax(norms[pool]))
    ledger.comparisons += max(pool.size - 1, 0)
    taken = np.zeros(pool.size, dtype=bool)
    taken[strongest] = True
    min_dist = chordal[:, strongest].copy()
    n_short = min(m, pool.size)
    shortlist = [strongest]
    while len(shortlist) < n_short:
        scores = np.where(taken, -np.inf, min_dist)
        pick = int(np.argmax(scores))
        ledger.comparisons += max(pool.size - 1, 0)
        taken[pick] = True
        shortlist.append(pick)
        min_dist = np.minimum(min_dist, chordal[:, pick])

    short_users = sorted(int(pool[i]) for i in shortlist)
    return SelectionResult(
        selected=_best_subset(hm, short_users, min(k_max, len(short_users)), n0, ledger)
    )


def _best_subset(hm: np.ndarray, users, max_size: int, n0: float, ledger: OpLedger):
    """Subset of ``users`` with 1..``max_size`` members and the highest ZF sum SE.

    The answer, the ties and the charges are those of scoring every subset
    with ``zf_sum_rate_batch``: singular subsets are skipped, every other
    subset costs one comparison, and ties break toward the lexicographically
    smallest subset, across sizes. Most subsets never reach the kernel.

    Subsets are enumerated level by level, depth first, in blocks of at most
    ``_SUBSET_BLOCK`` // k subsets of size k: level k borders each
    size-(k-1) prefix by every user after its last one, through
    ``_bordered_rates``, with the cross terms taken from one Gram matrix of
    ``users``. A block's certified subsets carry their factor, inverse
    diagonal and trace to the next level as its prefixes. A subset the bound
    does not certify is scored by the kernel, and so is every subset it is
    a prefix of, since trace(G) trace(G⁻¹) does not fall when a column is
    added. Every subset is charged what the kernel charges for it. The
    subsets whose error intervals reach the largest lower bound of any
    subset are the only ones that may win; when more than one is left,
    those not yet exact are rescored by the kernel, and the highest rate
    wins, then the smallest subset.
    """
    _require("n0", n0, _POSITIVE)
    winner = _SubsetSearch(hm[:, users], max_size, n0, ledger).run()
    return tuple(users[i] for i in winner)


class _SubsetSearch:
    """The enumeration of ``_best_subset`` over the columns of ``h``.

    Subsets are rows of column positions into ``h``. Scored blocks are
    queued and weighed together once they hold ``_SUBSET_BLOCK`` subsets,
    and at the end. ``floor`` is a lower bound, rate - tol, of the highest
    rate of any subset weighed so far (tol is 0 for kernel rates), and
    ``kept`` holds the subsets whose intervals still reach it: only they may
    win. When more than ``_SUBSET_BLOCK`` are kept, and at the end, they are
    settled: those not yet exact are rescored by the kernel, already
    charged, and the highest rate wins, then the smallest subset.
    """

    def __init__(self, h: np.ndarray, max_size: int, n0: float, ledger: OpLedger):
        self.h, self.max_size, self.n0, self.ledger = h, max_size, n0, ledger
        self.gram = h.conj().T @ h
        self.energy = self.gram.diagonal().real
        self.positions = np.arange(h.shape[1])
        self.floor = -np.inf
        self.kept: list[tuple[tuple[int, ...], float, float]] = []
        self.queue: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.queued = 0

    def run(self) -> tuple[int, ...]:
        """The winning subset, or () when every subset is singular."""
        # Level 1 borders the empty prefix by every column at once.
        n = len(self.energy)
        rates, tol, sure, v_bar, _, diag = _bordered_rates(
            np.empty((0, 0)), np.empty(0), np.empty((0, n)), self.energy, self.energy,
            self.h.shape[0], self.n0,
        )
        for child in self._score(
            self.positions[:, np.newaxis], rates, tol, sure,
            np.empty((n, 0, 0)), self.energy, v_bar.T, diag.T,
        ):
            self._grow(*child)
        self._weigh()
        if self.floor == -np.inf:
            return ()
        self.kept = [s for s in self.kept if s[1] + s[2] >= self.floor]
        if len(self.kept) > 1:
            self._settle()
        return self.kept[0][0]

    def _grow(self, members: np.ndarray, factor) -> None:
        """Score every child of the prefixes ``members``, then their children.

        ``factor`` holds the prefixes' inverse Cholesky factors, inverse
        diagonals and traces, or is None when their children go to the
        kernel. Each block's children are grown after the block's own
        working arrays are freed.
        """
        parent, cand = (self.positions > members[:, -1:]).nonzero()
        block = max(1, _SUBSET_BLOCK // (members.shape[1] + 1))
        for lo in range(0, parent.size, block):
            p, c = parent[lo : lo + block], cand[lo : lo + block]
            for child in self._block(members, factor, p, c):
                self._grow(*child)

    def _block(self, members, factor, p, c) -> list:
        """Score the subsets ``members[p]`` + ``c``; return their prefixes to grow."""
        sets = np.concatenate((members[p], c[:, np.newaxis]), axis=1)
        if factor is None:
            self._keep(sets, self._kernel(sets), np.zeros(len(sets)))
            return [(sets, None)] if sets.shape[1] < self.max_size else []
        w_inv, inv_diag, trace = factor
        # Row i: G[S_i, c_i], then |h_c|^2 = G[c_i, c_i].
        cross = self.gram[sets, c[:, np.newaxis], np.newaxis]
        w, energy = w_inv[p], cross[:, -1, :].real
        trace = trace[p, np.newaxis] + energy
        rates, tol, sure, v_bar, _, diag = _bordered_rates(
            w, inv_diag[p], cross[:, :-1], energy, trace, self.h.shape[0], self.n0
        )
        return self._score(
            sets, rates[:, 0], tol[:, 0], sure[:, 0], w, trace[:, 0], v_bar[..., 0], diag[..., 0]
        )

    def _score(self, sets, rates, tol, sure, w, trace, v_bar, diag) -> list:
        """Charge and keep one bordered block of subsets; return its prefixes.

        Row i of each argument belongs to subset ``sets[i]``: its bordered
        rate, tolerance and certificate, its prefix's inverse factor, and its
        trace, conj(v) and inverse diagonal (see ``_bordered_rates``). The
        kernel scores the subsets that are not ``sure``. Below ``max_size``,
        the block's subsets are the next level's prefixes, as (members,
        factor) pairs; the factor is None for those the kernel scored.
        """
        m, k = self.h.shape[0], sets.shape[1]
        grown = k < self.max_size
        n_sure = int(np.count_nonzero(sure))
        self.ledger.complex_macs += n_sure * (k * k * m + k**3)
        self.ledger.divisions += n_sure * k
        self.ledger.comparisons += n_sure
        prefixes = []
        if n_sure < len(sets):
            unsure = ~sure
            rates[unsure], tol[unsure] = self._kernel(sets[unsure]), 0.0
            if grown:
                prefixes.append((sets[unsure], None))
        self._keep(sets, rates, tol)
        if not grown or not n_sure:
            return prefixes
        if n_sure < len(sets):
            sets, w, trace, v_bar, diag = (a[sure] for a in (sets, w, trace, v_bar, diag))
        # The bordered factor: W with the row [-v^H, 1] / sqrt(s) below it.
        scale = np.sqrt(diag[:, -1])
        w_next = np.zeros((len(sets), k, k), dtype=np.complex128)
        w_next[:, :-1, :-1] = w
        np.multiply(v_bar, -scale[:, np.newaxis], out=w_next[:, -1, :-1])
        w_next[:, -1, -1] = scale
        prefixes.append((sets, (w_next, diag, trace)))
        return prefixes

    def _kernel(self, sets: np.ndarray) -> np.ndarray:
        """Kernel rates of ``sets``, charged with a comparison per finite rate."""
        rates = zf_sum_rate_batch(self.h, sets, self.n0, self.ledger)
        self.ledger.comparisons += int(np.count_nonzero(rates > -np.inf))
        return rates

    def _keep(self, sets: np.ndarray, rates: np.ndarray, tol: np.ndarray) -> None:
        """Queue a scored block; the queue is weighed once it holds a block's worth."""
        self.queue.append((sets, rates, tol))
        self.queued += len(sets)
        if self.queued >= _SUBSET_BLOCK:
            self._weigh()

    def _weigh(self) -> None:
        """Raise ``floor`` by the queued subsets and keep those that reach it."""
        if not self.queue:
            return
        rates = np.concatenate([rates for _, rates, _ in self.queue])
        tol = np.concatenate([tol for _, _, tol in self.queue])
        top = rates.argmax()
        self.floor = max(self.floor, float(rates[top] - tol[top]))
        reach = (rates + tol >= self.floor).nonzero()[0].tolist()
        if reach:
            self.kept = [s for s in self.kept if s[1] + s[2] >= self.floor]
            starts = list(itertools.accumulate((len(r) for _, r, _ in self.queue), initial=0))
            for i in reach:
                block = bisect.bisect_right(starts, i) - 1
                row = self.queue[block][0][i - starts[block]]
                self.kept.append((tuple(row.tolist()), float(rates[i]), float(tol[i])))
        self.queue, self.queued = [], 0
        if len(self.kept) > _SUBSET_BLOCK:
            self._settle()

    def _settle(self) -> None:
        """Rescore the kept subsets exactly and keep the winner among them."""
        exact = {}
        for size in {len(s) for s, _, tol in self.kept if tol > 0.0}:
            sets = [s for s, _, tol in self.kept if tol > 0.0 and len(s) == size]
            exact.update(zip(sets, _exact_rates(self.h, sets, self.n0).tolist()))
        scored = [(exact.get(s, rate), s) for s, rate, _ in self.kept]
        best = max(rate for rate, _ in scored)
        self.kept = [(min(s for rate, s in scored if rate == best), best, 0.0)]


def random_select(h, k: int, rng: np.random.Generator) -> SelectionResult:
    """Uniform random K-subset of the users, deterministic given the stream."""
    hm = _as_channel(h)
    m, u = hm.shape
    _require("k", k, _AT_LEAST_1)
    if reason := infeasible_reason(Algorithm.RANDOM, m, u, k):
        raise ValueError(reason)
    picks = np.sort(rng.choice(u, size=k, replace=False))
    return SelectionResult(selected=tuple(int(i) for i in picks))


def exhaustive_oracle(h, n0: float, k_max: int, ledger: OpLedger) -> SelectionResult:
    """Ground-truth selection by enumerating every subset of size <= k_max.

    Only meant for small instances; rejects search spaces above
    ``EXHAUSTIVE_SUBSET_CAP`` subsets. Ties break toward the
    lexicographically smallest index list.
    """
    hm = _as_channel(h)
    m, u = hm.shape
    _require("k_max", k_max, _AT_LEAST_1)
    if reason := infeasible_reason(Algorithm.EXHAUSTIVE, m, u, k_max):
        raise ValueError(reason)
    return SelectionResult(selected=_best_subset(hm, range(u), min(k_max, m, u), n0, ledger))


def run_selection(h, cfg: SelectionConfig, n0: float, ledger: OpLedger) -> SelectionResult:
    """Dispatch to the selector named by ``cfg.algorithm``."""
    if cfg.algorithm is Algorithm.SSUS:
        return ss_us(h, cfg, n0, ledger)
    if cfg.algorithm is Algorithm.SUS:
        return sus(h, cfg, n0, ledger)
    if cfg.algorithm is Algorithm.GZF:
        return gzf(h, n0, cfg.k_max, ledger)
    if cfg.algorithm is Algorithm.MCORE_PLUS:
        return mcore_plus(h, n0, cfg.k_max, ledger)
    if cfg.algorithm is Algorithm.RANDOM:
        # random_select validates the channel; K only needs its shape.
        k = min((cfg.k_max, *np.shape(h)))
        return random_select(h, k, stream(cfg.rng_seed))
    if cfg.algorithm is Algorithm.EXHAUSTIVE:
        return exhaustive_oracle(h, n0, cfg.k_max, ledger)
    raise ValueError(f"unknown algorithm: {cfg.algorithm!r}")
