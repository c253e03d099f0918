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

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .metrics import sum_spectral_efficiency, zf_sum_rate_batch
from .numerics import RESIDUAL_FLOOR, OpLedger, gram_schmidt_extend, subset_count
from .seeding import stream

__all__ = [
    "Algorithm",
    "SelectionConfig",
    "SelectionResult",
    "basis_stream",
    "ss_us",
    "sus",
    "gzf",
    "mcore_plus",
    "random_select",
    "exhaustive_oracle",
    "run_selection",
    "EXHAUSTIVE_SUBSET_CAP",
    "MCORE_MAX_ANTENNAS",
]

#: Hard cap on the oracle's search space (number of candidate subsets).
EXHAUSTIVE_SUBSET_CAP = 1_000_000

#: The shortlist stage of mcore_plus enumerates all subsets of up to
#: 2**M - 1 candidates; beyond 12 antennas that is no longer desk scale.
MCORE_MAX_ANTENNAS = 12

#: Subsets scored per kernel call by the enumerating selectors, which keeps
#: their memory flat in the size of the search space.
_SUBSET_BLOCK = 1024

#: Bases that ``ss_us`` builds and matches per batch; it bounds the size of
#: the stacked draws, QR factors and correlations at large L.
_BASIS_BLOCK = 8


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
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.num_bases < 1:
            raise ValueError(f"num_bases must be >= 1, got {self.num_bases}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.sus_epsilon < 1.0:
            raise ValueError(f"sus_epsilon must lie in (0, 1), got {self.sus_epsilon}")


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


def _as_channel(h) -> np.ndarray:
    arr = np.asarray(h, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"channel matrix must be 2-D, got shape {arr.shape}")
    m, u = arr.shape
    if m < 1 or u < 1:
        raise ValueError(f"channel matrix must be at least 1x1, got {m}x{u}")
    if not arr.any(axis=0).all():
        raise ValueError("channel matrix contains an all-zero column")
    return arr


def _column_norms(h: np.ndarray, ledger: OpLedger) -> np.ndarray:
    m, u = h.shape
    ledger.complex_macs += u * m
    return np.linalg.norm(h, axis=0)


def basis_stream(rng_seed: int, basis_index: int) -> np.random.Generator:
    """Random stream feeding basis ``basis_index``.

    Streams depend only on (rng_seed, basis_index), so the first L bases of
    a run with more bases are identical to a run with exactly L.
    """
    return stream(rng_seed, basis_index)


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

    Bases are built and matched ``_BASIS_BLOCK`` at a time, every basis of
    a block at once (see ``_basis_block`` and ``_match_block``).
    """
    hm = _as_channel(h)
    m, u = hm.shape
    norms = _column_norms(hm, ledger)
    ledger.divisions += u
    rates = np.log2(1.0 + norms**2 / n0)
    seed_user = int(np.argmax(norms))
    ledger.comparisons += max(u - 1, 0)
    seed_rate = float(rates[seed_user])

    n_dirs = min(cfg.k_max, m)
    if u == 1 or n_dirs <= 1:
        return SelectionResult(
            selected=(seed_user,),
            matched_direction=(0,),
            weights=(seed_rate,),
            winning_basis=0,
            mean_metric=seed_rate,
        )

    v_seed = hm[:, seed_user] / norms[seed_user]
    ledger.divisions += m
    cand = np.delete(np.arange(u), seed_user)
    h_cand_t = hm[:, cand].conj().T
    cand_norms = norms[cand]
    cand_rates = rates[cand]

    best: tuple[float, int, np.ndarray, list[float]] | None = None
    for start in range(0, cfg.num_bases, _BASIS_BLOCK):
        indices = range(start, min(start + _BASIS_BLOCK, cfg.num_bases))
        directions = _basis_block(v_seed, cfg.rng_seed, indices, ledger)[:, :, 1:n_dirs]
        corr = np.abs(h_cand_t @ directions) / cand_norms[:, np.newaxis]
        np.clip(corr, 0.0, 1.0, out=corr)
        ledger.complex_macs += corr.size * m
        ledger.divisions += corr.size

        picks, best_w = _match_block(corr, cand_rates, cfg.alpha, ledger)
        for l, row, row_w in zip(indices, picks, best_w):
            weights = [seed_rate, *row_w[row >= 0].tolist()]
            mean_w = math.fsum(weights) / len(weights)
            if best is None or mean_w > best[0]:
                best = (mean_w, l, row, weights)

    mean_w, l_star, row, weights = best
    filled = np.flatnonzero(row >= 0)
    return SelectionResult(
        selected=(seed_user, *cand[row[filled]].tolist()),
        matched_direction=(0, *(filled + 1).tolist()),
        weights=tuple(weights),
        winning_basis=l_star,
        mean_metric=mean_w,
    )


def _basis_block(v_seed: np.ndarray, rng_seed: int, indices: range, ledger: OpLedger):
    """Orthonormal bases ``indices`` of ``ss_us`` as a (B, M, M) stack.

    Basis l is the Householder QR of [v_seed | Z], with Z drawn from
    ``basis_stream(rng_seed, l)`` in the order ``gram_schmidt_extend`` draws
    it: column by column, the real parts and then the imaginary parts. Its
    columns therefore equal Gram-Schmidt's on the same draws up to
    unit-modulus factors, which the correlations |h^H v| do not see. A basis
    whose draw is numerically dependent (some |R_jj| < ``RESIDUAL_FLOOR``)
    is rebuilt by ``gram_schmidt_extend`` on a fresh stream, which redraws
    and charges the ledger as it goes. Every other basis is charged the
    modified Gram-Schmidt cost of a draw without redraws.
    """
    m = v_seed.size
    z = np.stack([basis_stream(rng_seed, l).standard_normal((m - 1, 2, m)) for l in indices])
    a = np.empty((len(indices), m, m), dtype=np.complex128)
    a[:, :, 0] = v_seed
    a[:, :, 1:] = (z[:, :, 0] + 1j * z[:, :, 1]).transpose(0, 2, 1)
    bases, r = np.linalg.qr(a)
    dependent = np.flatnonzero(
        np.abs(np.diagonal(r, axis1=1, axis2=2)).min(axis=1) < RESIDUAL_FLOOR
    )
    for i in dependent:
        bases[i] = gram_schmidt_extend(v_seed, basis_stream(rng_seed, indices[i]), ledger)
    n_drawn = len(indices) - dependent.size
    # Seed norm check, then per column j: j projections of 2M MACs and a norm.
    ledger.complex_macs += n_drawn * (m + (m - 1) * m * (m + 1))
    ledger.divisions += n_drawn * m * (m - 1)
    return bases


def _match_block(corr: np.ndarray, cand_rates: np.ndarray, alpha: float, ledger: OpLedger):
    """Greedy direction filling of ``ss_us`` on every basis of a block at once.

    ``corr`` is (B, C, D): candidate correlations with directions 1..D.
    Returns ``picks`` (B, D), the candidate matched to each direction or -1
    where the direction stays unfilled, and ``best`` (B, D), the weight of
    each direction's best candidate. A step costs one comparison per
    candidate still available in its basis.
    """
    n_bases, n_cand, n_steps = corr.shape
    rows = np.arange(n_bases)
    clears = corr >= alpha
    # A matched candidate's scores drop to -inf, so argmax skips it later.
    scores = corr * cand_rates[:, np.newaxis]
    picks = np.full((n_bases, n_steps), -1)
    best = np.empty((n_bases, n_steps))
    for k in range(n_steps):
        pick = scores[:, :, k].argmax(axis=1)
        best[:, k] = scores[rows, pick, k]
        take = rows[(best[:, k] > -np.inf) & clears[rows, pick, k]]
        picks[take, k] = pick[take]
        scores[take, pick[take]] = -np.inf
    filled = picks >= 0
    ledger.comparisons += int((n_cand - (np.cumsum(filled, axis=1) - filled)).sum())
    return picks, best


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
    """
    hm = _as_channel(h)
    m, u = hm.shape
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    norms = _column_norms(hm, ledger)
    seed_user = int(np.argmax(norms))
    ledger.comparisons += max(u - 1, 0)

    selected = [seed_user]
    current = sum_spectral_efficiency(hm[:, selected], n0, ledger)
    pool = np.delete(np.arange(u), seed_user)
    k_cap = min(k_max, m, u)
    while len(selected) < k_cap and pool.size:
        sets = np.column_stack((np.tile(selected, (pool.size, 1)), pool))
        rates = zf_sum_rate_batch(hm, sets, n0, ledger)
        ledger.comparisons += pool.size
        pick = int(np.argmax(rates))
        if rates[pick] <= current:
            break
        selected.append(int(pool[pick]))
        pool = np.delete(pool, pick)
        current = float(rates[pick])
    return SelectionResult(selected=tuple(selected))


def mcore_plus(h, n0: float, k_max: int, ledger: OpLedger) -> SelectionResult:
    """Chordal-distance shortlist selection with an exhaustive final stage.

    Keeps the 2M strongest users, greedily builds an M-user shortlist by
    max-min chordal distance sqrt(1 - corr^2) seeded with the strongest
    user, then enumerates every shortlist subset of 1..``k_max`` users and
    returns the one with the highest ZF sum spectral efficiency.
    """
    hm = _as_channel(h)
    m, u = hm.shape
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if m > MCORE_MAX_ANTENNAS:
        raise ValueError(
            f"mcore_plus exhaustive stage requires M <= {MCORE_MAX_ANTENNAS}, got M={m}"
        )
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

    Subsets are scored in blocks of at most ``_SUBSET_BLOCK``. Singular
    subsets are skipped; every other scored subset costs one comparison.
    Ties break toward the lexicographically smallest subset.
    """
    best_rate = -np.inf
    best_set: tuple[int, ...] = ()
    for size in range(1, max_size + 1):
        combos = itertools.combinations(users, size)
        while block := list(itertools.islice(combos, _SUBSET_BLOCK)):
            rates = zf_sum_rate_batch(hm, block, n0, ledger)
            ledger.comparisons += int(np.count_nonzero(rates > -np.inf))
            # argmax is the first maximum: the smallest subset of this size
            # in lexicographic order, since combinations come in that order.
            pick = int(np.argmax(rates))
            rate, combo = float(rates[pick]), block[pick]
            if rate > best_rate or (rate == best_rate and combo < best_set):
                best_rate = rate
                best_set = combo
    return best_set


def random_select(h, k: int, rng: np.random.Generator) -> SelectionResult:
    """Uniform random K-subset of the users, deterministic given the stream."""
    hm = _as_channel(h)
    m, u = hm.shape
    if not 1 <= k <= min(m, u):
        raise ValueError(f"require 1 <= k <= min(M, U) = {min(m, u)}, got k={k}")
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
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    k_cap = min(k_max, m, u)
    space = subset_count(u, k_cap)
    if space > EXHAUSTIVE_SUBSET_CAP:
        raise ValueError(
            f"exhaustive search space {space} exceeds cap {EXHAUSTIVE_SUBSET_CAP}"
        )
    return SelectionResult(selected=_best_subset(hm, range(u), k_cap, n0, ledger))


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
        hm = _as_channel(h)
        k = min(cfg.k_max, hm.shape[0], hm.shape[1])
        return random_select(hm, k, stream(cfg.rng_seed))
    if cfg.algorithm is Algorithm.EXHAUSTIVE:
        return exhaustive_oracle(h, n0, cfg.k_max, ledger)
    raise ValueError(f"unknown algorithm: {cfg.algorithm!r}")
