"""User-selection algorithms for MU-MIMO uplink scheduling.

Implements the space-splitting selector (``ss_us``) alongside the classic
baselines it is measured against: semi-orthogonal selection (``sus``),
greedy zero-forcing (``gzf``), a chordal-distance shortlist method
(``mcore_plus``), uniform random selection, and a brute-force oracle for
small instances.

Every selection reaches its private chunk engine (``_ss_us_trials``,
``_sus_trials``, ``_gzf_trials``, ``_mcore_plus_trials``,
``_random_trials`` or ``_exhaustive_trials``) through one entry,
``_select_trials``, which also checks every argument but the channels. An
engine runs every trial of a (T, M, U) stack of channels at once, each
trial's outcome and charges being those of a lone call. ``_ss_us_trials``
sets up the chunk, hashes its bases' streams and assembles its outcomes
once per chunk, and builds and matches the bases a block at a time; the
lockstep engines step every trial together, and the subset searches score
blocks of subsets of any trials. The harness makes
one entry call per algorithm and chunk of trials; ``run_selection``,
``ss_us``, ``sus``, ``gzf``, ``mcore_plus`` and ``exhaustive_oracle`` make
one on a stack of one (see ``_select_one``). A channel is checked once,
where it enters, by the one stacked check ``_checked_channels``: every
public selector checks its own (see ``_as_channel``), and the harness
checks each slice of the channels it draws.

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
from numpy.linalg import _umath_linalg

from .channel import _POSITIVE, _UNIT_OPEN, _column_norms, _require_count, _require_real
from .channel import _require_seed
from .metrics import COND_LIMIT, _charge_zf, _ill_conditioned, _set_stack, _zf_snr, _zf_sum_rates
# Not called here; the benchmark's span tracer wraps it by this name.
from .metrics import sum_spectral_efficiency
from .numerics import (
    RESIDUAL_FLOOR,
    BasisConstructionError,
    OpLedger,
    gram_schmidt_extend,
    subset_count,
)
from .seeding import _CHAIN_ORIGIN, _derive_seeds, _pcg64_states, _seeded, _stacked_normals
from .seeding import _stream_seeds, stream

__all__ = [
    "Algorithm",
    "SelectionConfig",
    "SelectionResult",
    "ss_us",
    "sus",
    "gzf",
    "mcore_plus",
    "random_select",
    "exhaustive_oracle",
    "run_selection",
    "infeasible_reason",
    "EXHAUSTIVE_SUBSET_CAP",
]

#: Hard cap on the search space (number of candidate subsets) of the
#: oracle and of ``mcore_plus``'s shortlist search.
EXHAUSTIVE_SUBSET_CAP = 1_000_000

#: Float64 elements (560 kB) that the largest stack of one ``ss_us`` block
#: may hold; it sizes the block (see ``_bases_per_block``) and so bounds its
#: working set. Chosen by measurement: at U = 100 it holds the 100 bases of
#: M = 8 in one block and those of M = 16 in three. It also caps the Gram
#: matrices that one subset search holds (see ``_best_subset``).
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
    ``rng_seed``, an integer in [0, 2**64), keys the random streams of
    ``ss_us`` and ``random``.
    """

    algorithm: Algorithm
    k_max: int
    num_bases: int = 1
    alpha: float = 0.45
    sus_epsilon: float = 0.3
    rng_seed: int = 0

    def __post_init__(self):
        _require_count("k_max", self.k_max)
        _require_count("num_bases", self.num_bases)
        _require_real("alpha", self.alpha, _UNIT_OPEN)
        _require_real("sus_epsilon", self.sus_epsilon, _UNIT_OPEN)
        _require_seed("rng_seed", self.rng_seed)


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
    The oracle searches all U users, ``mcore_plus`` its min(M, U) shortlist.
    """
    if algorithm in (Algorithm.EXHAUSTIVE, Algorithm.MCORE_PLUS):
        n = u if algorithm is Algorithm.EXHAUSTIVE else min(m, u)
        space = subset_count(n, min(k, m, u))
        if space > EXHAUSTIVE_SUBSET_CAP:
            return f"{algorithm.value} search space {space} exceeds cap {EXHAUSTIVE_SUBSET_CAP}"
    if algorithm is Algorithm.RANDOM and k > min(m, u):
        return f"random selection needs K <= min(M, U) = {min(m, u)}, configured K={k}"
    return None


def _checked_channels(hs: np.ndarray) -> tuple[np.ndarray, list]:
    """The (T, U) column norms of the (T, M, U) complex stack ``hs`` and,
    per channel, None or the ``ValueError`` that rejects it.

    This is the one channel check: ``_as_channel`` makes it on a stack of
    one, and ``harness._draw_chunk`` on each slice of the channels it
    draws. A channel fails on a non-finite entry or a column whose norm
    overflows (see ``channel._column_norms``), or else on an all-zero
    column or one whose norm underflows. Only a failing channel is looked
    at on its own, to name its error. The chunk engines take the checked
    channels and their norms and do not check again.
    """
    norms, errors = _column_norms(hs)
    # A NaN norm is nonzero, so a non-finite column keeps its error.
    if not norms.all():
        for t in (~norms.all(axis=1)).nonzero()[0].tolist():
            if errors[t] is None:
                errors[t] = ValueError(
                    "channel matrix contains an all-zero column, or one whose norm underflows"
                )
    return norms, errors


def _as_channel(h) -> tuple[np.ndarray, np.ndarray]:
    """The channel ``h`` as a checked complex (M, U) array, and its column norms.

    Each public selector makes this check once on its channel: the
    ``_checked_channels`` case of a stack of one, which raises its error.
    """
    arr = np.asarray(h, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"channel matrix must be 2-D, got shape {arr.shape}")
    m, u = arr.shape
    if m < 1 or u < 1:
        raise ValueError(f"channel matrix must be at least 1x1, got {m}x{u}")
    norms, [error] = _checked_channels(arr[np.newaxis])
    if error is not None:
        raise error
    return arr, norms[0]


def _select_trials(algorithm, hs, norms, n0, k, rng_seeds, variants, epsilon) -> list:
    """``algorithm`` on every trial of a (T, M, U) stack: the one selection entry.

    ``hs`` holds checked channels (see ``_as_channel``), ``norms`` their
    (T, U) column norms. ``k`` caps each selected set, so ``random`` draws
    min(``k``, M, U) users; ``rng_seeds[t]`` keys trial t's streams of
    ``ssus`` and ``random``; ``variants`` lists the (num_bases, alpha) pairs
    of ``ssus``, any other algorithm running as one variant; ``epsilon`` is
    the threshold of ``sus``. An algorithm reads only what it uses.

    This is the one place that maps an algorithm to its engine and the
    engine's arguments, and that checks them. In this order, ``sus``'s
    ``epsilon``, a seed count unlike the stack's, a ``k`` that is not an
    integer >= 1, a search space above ``EXHAUSTIVE_SUBSET_CAP``, an ``n0``
    that is not a positive real number, a bad ``ssus`` tunable or an
    unknown algorithm raises ``ValueError`` for the whole call; a bool is
    neither a count nor a real number. Returns, per trial, one
    (outcome, ledger) pair per variant: the :class:`SelectionResult` of a
    lone call, or the error it would raise, and what that call charges.
    """
    if algorithm is Algorithm.SUS:
        _require_real("sus_epsilon", epsilon, _UNIT_OPEN)
    elif algorithm in (Algorithm.SSUS, Algorithm.RANDOM) and len(rng_seeds) != len(hs):
        raise ValueError(f"{len(hs)} channels need as many seeds, got {len(rng_seeds)}")
    _require_count("k_max", k)
    _, m, u = hs.shape
    if reason := infeasible_reason(algorithm, m, u, min(k, m, u)):
        raise ValueError(reason)
    _require_real("n0", n0, _POSITIVE)
    if algorithm is Algorithm.SSUS:
        for num_bases, alpha in variants:
            SelectionConfig(algorithm, k, num_bases, alpha)  # checks the tunables
        return _ss_us_trials(hs, norms, k, rng_seeds, n0, variants)
    if algorithm is Algorithm.SUS:
        outcomes = _sus_trials(hs, norms, k, epsilon)
    elif algorithm is Algorithm.GZF:
        outcomes = _gzf_trials(hs, norms, n0, k)
    elif algorithm is Algorithm.MCORE_PLUS:
        outcomes = _mcore_plus_trials(hs, norms, n0, k)
    elif algorithm is Algorithm.RANDOM:
        outcomes = _random_trials(hs, min(k, m, u), rng_seeds)
    elif algorithm is Algorithm.EXHAUSTIVE:
        outcomes = _exhaustive_trials(hs, n0, k)
    else:
        raise ValueError(f"unknown algorithm: {algorithm!r}")
    return [[pair] for pair in outcomes]


def _select_one(algorithm, h, n0, k, ledger: OpLedger, rng_seed=0, variant=None, epsilon=None):
    """``_select_trials`` on the one channel ``h``: its result, its charges added to ``ledger``.

    The channel is checked first, so a bad channel raises its
    ``ValueError`` before any other argument is checked. A selection that
    fails raises its error after the charges.
    """
    hm, norms = _as_channel(h)
    [[(outcome, charged)]] = _select_trials(
        algorithm, hm[np.newaxis], norms[np.newaxis], n0, k, [rng_seed], [variant], epsilon
    )
    ledger.complex_macs += charged.complex_macs
    ledger.divisions += charged.divisions
    ledger.comparisons += charged.comparisons
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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

    This is ``_ss_us_trials`` on a chunk of one trial, the channel ``h``,
    with the single variant of ``cfg`` (see ``_select_one``); a
    :class:`BasisConstructionError` is raised after the charges.
    """
    return _select_one(
        Algorithm.SSUS, h, n0, cfg.k_max, ledger, cfg.rng_seed, (cfg.num_bases, cfg.alpha)
    )


def _ss_us_trials(
    hs: np.ndarray, norms: np.ndarray, k_max: int, rng_seeds, n0: float, variants
) -> list:
    """``ss_us`` for every trial of a chunk and every (num_bases, alpha) pair of ``variants``.

    This is the one engine of the space-splitting selector; ``ss_us`` is its
    case of one trial and one variant. ``hs`` is a (T, M, U) stack of
    checked channels (see ``_as_channel``) with (T, U) column norms
    ``norms``, and trial t draws its bases from ``rng_seeds[t]``. Basis l of
    a trial depends only on (its seed, l), and alpha enters only the
    matching, so each trial's seed user, bases and correlations are built
    once, for the largest L, and each distinct alpha matches users on them
    (see ``_basis_block``, ``_correlations`` and ``_match_block``).

    The chunk finds, once for all its trials, each trial's seed user and
    its direction, the rates, and the candidates (every user but the seed)
    with their norms and rates; it hashes its bases' streams in one pass,
    or in a few where their states would take more than an eighth of
    ``_BLOCK_BUDGET`` (see ``seeding``). The bases are built a block at a
    time, as many as fit their largest stack in ``_BLOCK_BUDGET`` (see
    ``_bases_per_block``): the L bases of as many trials as fit, or part of
    one trial's bases where its L bases do not fit. Only the conjugated
    candidate channels are gathered for a block's trials. Past a block, a
    trial keeps, per variant, its match comparisons so far, summed from
    each block's prefix sums, and its winner so far: mean, basis, picks and
    best scores. A block's best basis replaces the winner only with a
    strictly higher mean, and ``argmax`` keeps the first maximum, so ties
    go to the lowest basis index. Neither the block size nor the trials
    that share a block change any outcome or charge. The ledgers follow
    from each variant's counts of bases built and charged, and the
    outcomes of the whole chunk are assembled at the end.

    Returns, per trial, one (outcome, ledger) pair per variant, in order.
    The outcome is the :class:`SelectionResult` of ``ss_us`` with that
    variant alone, or the error it would raise. A fallback that exhausts
    its redraws at basis j fails only the variants of its trial with L > j.
    The ledger holds what that call charges: the common charges plus, for
    each of its first L bases, the basis's construction and correlation
    charges and the match comparisons at its alpha. A failed variant's
    ledger stops at the failing basis, which adds what its fallback
    charged.
    """
    n_trials, m, u = hs.shape
    trials = np.arange(n_trials)
    seed_users = norms.argmax(axis=1)
    rates = np.log2(1.0 + norms**2 / n0)
    seed_rates = rates[trials, seed_users]
    n_dirs = min(k_max, m)
    if u == 1 or n_dirs <= 1:
        # The seed user alone, in every variant; no basis is built.
        return [
            [
                (SelectionResult((user,), (0,), (rate,), 0, rate), OpLedger(u * m, u, u - 1))
                for _ in variants
            ]
            for user, rate in zip(seed_users.tolist(), seed_rates.tolist())
        ]

    v_seeds = hs[trials, :, seed_users] / norms[trials, seed_users][:, np.newaxis]
    n_cand, n_steps = u - 1, n_dirs - 1
    # A trial's candidates are every user but its seed, in order.
    is_cand = np.ones((n_trials, u), dtype=bool)
    is_cand[trials, seed_users] = False
    cand_norms = norms[is_cand].reshape(n_trials, n_cand)
    cand_rates = rates[is_cand].reshape(n_trials, 1, n_cand)
    del rates

    lengths = np.array([num_bases for num_bases, _ in variants], dtype=np.intp)
    n_bases = int(lengths.max(initial=0))
    per_block = _bases_per_block(m, n_cand, n_steps)
    # A block holds the L bases of ``per_row`` trials, or part of one trial's.
    per_row = max(1, per_block // max(n_bases, 1))
    block = max(1, min(n_bases, per_block))
    # The streams of as many whole rows as their states, 4 words a stream,
    # fit in an eighth of the budget are hashed at once.
    per_hash = per_row * max(1, _BLOCK_BUDGET // (32 * per_row * max(n_bases, 1)))
    # Per block of bases: for each alpha, its variants that reach the block
    # and how many of the block's bases each one counts.
    by_alpha = {alpha: np.flatnonzero([a == alpha for _, a in variants]) for _, alpha in variants}
    blocks = []
    for start in range(0, n_bases, block):
        indices = range(start, min(start + block, n_bases))
        reach = []
        for alpha, members in by_alpha.items():
            cols = members[lengths[members] > start]
            if cols.size:
                ends = np.minimum(lengths[cols] - start, len(indices))
                reach.append((alpha, cols, ends, ends.tolist()))
        blocks.append((indices, reach))

    # Per trial and variant: the match comparisons so far, and the winner
    # so far, its mean, basis, picks and best scores.
    compared = np.zeros((n_trials, len(variants)), dtype=np.int64)
    win_mean = np.full(compared.shape, -np.inf)
    win_basis = np.zeros_like(compared)
    win_picks = np.empty((*compared.shape, n_steps), dtype=np.intp)
    win_best = np.empty(win_picks.shape)
    built, failed = np.full(n_trials, n_bases), np.zeros(n_trials, dtype=bool)
    errors: list = [None] * n_trials
    rebuilt = []
    for lo in range(0, n_trials, per_row):
        row = slice(lo, lo + per_row)
        n_row = min(per_row, n_trials - lo)
        if lo % per_hash == 0:
            states = _pcg64_states(_stream_seeds(rng_seeds[lo : lo + per_hash], range(n_bases)))
        row_states = states[:, lo % per_hash : lo % per_hash + n_row]
        # C-contiguous (C, M) matrices, laid out as h[:, cand].conj().T is.
        h_cand_t = hs[row].swapaxes(1, 2)[is_cand[row]].reshape(n_row, n_cand, m).conj()
        at_row = np.arange(n_row)[:, np.newaxis]
        for indices, reach in blocks:
            start = indices.start
            bases, rebuilds, failures = _basis_block(
                v_seeds[row], rng_seeds[row], indices, row_states
            )
            corr = _correlations(h_cand_t, bases[..., 1:n_dirs], cand_norms[row])
            del bases  # the match reads only the correlations
            rebuilt += [(lo + t, start + i, *charge) for (t, i), charge in rebuilds.items()]
            for t, (i, error) in failures.items():
                built[lo + t], failed[lo + t], errors[lo + t] = start + i, True, error
            for alpha, cols, ends, stops in reach:
                means, picks, best, comparisons = _match_block(
                    corr, cand_rates[row], seed_rates[row, np.newaxis], alpha
                )
                for t, (i, _) in failures.items():
                    comparisons[t, i:] = 0  # only the bases built are matched
                compared[row, cols] += comparisons.cumsum(axis=1)[:, ends - 1]
                # argmax keeps the first maximum, and the winner so far
                # yields only to a strictly higher mean, so ties go to the
                # lowest basis index.
                local = np.array([means[:, :stop].argmax(axis=1) for stop in stops]).T
                top = means[at_row, local]
                gain_t, gain_v = (top > win_mean[row, cols]).nonzero()
                if gain_t.size:
                    at = local[gain_t, gain_v]
                    won = lo + gain_t, cols[gain_v]
                    win_mean[won] = top[gain_t, gain_v]
                    win_basis[won] = start + at
                    win_picks[won] = picks[gain_t, at]
                    win_best[won] = best[gain_t, at]
            if failures:
                # Only a lone trial's bases span blocks, so none is left to build.
                break
            # Free this block before the next one is built, so that the budget
            # bounds the working set of one block, not of two.
            del corr

    # A basis is correlated and matched only if built, and charged also if
    # its rebuild failed.
    matched = np.minimum(lengths, built[:, np.newaxis])
    charged = np.minimum(lengths, (built + failed)[:, np.newaxis])
    basis_charge = np.array(_basis_charge(m))
    ledgers = np.stack(
        [
            u * m + charged * basis_charge[0] + matched * (n_cand * n_steps * m),
            u + m + charged * basis_charge[1] + matched * (n_cand * n_steps),
            compared + n_cand,
        ],
        axis=-1,
    )
    for t, l, *charge in rebuilt:
        ledgers[t, charged[t] > l, :2] += charge - basis_charge
    # Candidate c of trial t is user c + (c >= its seed); -1, an unfilled
    # direction, stays -1.
    users = win_picks + (win_picks >= seed_users[:, np.newaxis, np.newaxis])
    outcomes = []
    for seed_user, seed_rate, error, *per_variant in zip(
        seed_users.tolist(),
        seed_rates.tolist(),
        errors,
        (matched == lengths).tolist(),
        ledgers.tolist(),
        users.tolist(),
        win_best.tolist(),
        win_basis.tolist(),
        win_mean.tolist(),
    ):
        trial = []
        for ok, ledger, picked, best, basis, mean in zip(*per_variant):
            if not ok:
                trial.append((error, OpLedger(*ledger)))
                continue
            filled = [k for k, user in enumerate(picked) if user >= 0]
            result = SelectionResult(
                selected=(seed_user, *[picked[k] for k in filled]),
                matched_direction=(0, *[k + 1 for k in filled]),
                weights=(seed_rate, *[best[k] for k in filled]),
                winning_basis=basis,
                mean_metric=mean,
            )
            trial.append((result, OpLedger(*ledger)))
        outcomes.append(trial)
    return outcomes


def _bases_per_block(m: int, n_cand: int, n_steps: int) -> int:
    """Bases per ``ss_us`` block, at least one, whose stacks fit ``_BLOCK_BUDGET``.

    A basis takes C x D float64 elements of the correlations, for C
    candidates and D directions, and 8 M^2 for its construction: the four
    (M, M) complex stacks of ``np.linalg.qr``, the matrix ``_basis_block``
    builds, the copy it factors, Q and R. That is what ``_qr`` holds where
    it falls back to ``np.linalg.qr``; where it calls numpy's two LAPACK
    steps itself, it holds two of them, so there the other 4 M^2 are only a
    margin. The larger of the two sizes the block.
    """
    return max(1, _BLOCK_BUDGET // max(n_cand * n_steps, 8 * m * m))


def _basis_charge(m: int) -> tuple[int, int]:
    """(MACs, divisions) of one ``ss_us`` basis without redraws, as
    ``gram_schmidt_extend`` charges it: the seed's norm check, then per
    column j, j projections of 2M MACs and a norm."""
    return m + (m - 1) * m * (m + 1), m * (m - 1)


def _basis_block(v_seeds: np.ndarray, rng_seeds, indices: range, states: np.ndarray):
    """Orthonormal bases ``indices`` of ``ss_us`` for G trials, as a (G, B, M, M) stack.

    Trial t's basis l is the Householder QR of [v_seeds[t] | Z], with Z
    drawn from ``stream(rng_seeds[t], l)`` in the order
    ``gram_schmidt_extend`` draws it: column by column, the real parts and
    then the imaginary parts. Its columns therefore equal Gram-Schmidt's on
    the same draws up to unit-modulus factors, which the correlations
    |h^H v| do not see. ``states`` holds the trials' hashed streams, the
    (4, G, L) ``_pcg64_states`` of ``_stream_seeds(rng_seeds, range(L))``
    with L >= ``indices.stop``; the block sets the states of its own columns
    and draws them through ``_stacked_normals`` as one (G, B, M-1, 2, M)
    array, byte for byte those of the per-basis streams (see ``seeding``).
    A basis whose draw is numerically dependent
    (some |R_jj| < ``RESIDUAL_FLOOR``) is rebuilt by ``gram_schmidt_extend``
    on a fresh ``stream(rng_seeds[t], l)``, which redraws and is charged
    what it charges. Every other basis costs ``_basis_charge(M)``, the
    modified Gram-Schmidt cost of a draw without redraws.

    Returns the bases, the rebuilds and the failures. The rebuilds map
    (t, i) to the (MACs, divisions) that the rebuild of trial t's basis
    ``indices[i]`` charged, and the failures map t to (i, error) when that
    rebuild exhausts its redraws: trial t's later bases are then neither
    rebuilt nor meaningful. The draws are copied into one complex stack and
    freed before the QR, so the block's peak is the QR's (G, B, M, M)
    stacks, two or, where ``_qr`` falls back to ``np.linalg.qr``, four (see
    ``_bases_per_block``).
    """
    n_trials, m = v_seeds.shape
    z = _stacked_normals(states[..., indices.start : indices.stop], (m - 1, 2, m))
    a = np.empty((n_trials, len(indices), m, m), dtype=np.complex128)
    a[..., 0] = v_seeds[:, np.newaxis]
    a.real[..., 1:] = z[:, :, :, 0].swapaxes(-1, -2)
    a.imag[..., 1:] = z[:, :, :, 1].swapaxes(-1, -2)
    del z  # before the QR forms Q beside a
    bases, r_moduli = _qr(a)
    dependent = r_moduli.min(axis=-1) < RESIDUAL_FLOOR
    rebuilds, failures = {}, {}
    for t, i in zip(*(axis.tolist() for axis in dependent.nonzero())):
        if t in failures:
            continue
        rebuild = OpLedger()
        try:
            bases[t, i] = gram_schmidt_extend(v_seeds[t], stream(rng_seeds[t], indices[i]), rebuild)
        except BasisConstructionError as exc:
            failures[t] = (i, exc)
        rebuilds[t, i] = (rebuild.complex_macs, rebuild.divisions)
    return bases, rebuilds, failures


# The gufunc of geqrf, which np.linalg.qr calls as ``qr_r_raw`` where numpy
# has it (numpy 1.x splits it into ``qr_r_raw_m`` and ``qr_r_raw_n``), or
# None, where ``_qr`` falls back to np.linalg.qr.
_QR_R_RAW = getattr(_umath_linalg, "qr_r_raw", None)


def _qr(a: np.ndarray):
    """``np.linalg.qr(a)``'s Q and the moduli of its R's diagonal, for a
    C-contiguous (..., M, M) complex128 stack ``a`` of finite entries, which
    it may overwrite.

    Where numpy's ``_umath_linalg`` has ``qr_r_raw`` (see ``_QR_R_RAW``),
    these are the two LAPACK calls of ``np.linalg.qr``, geqrf and then ungqr
    on its result, without the copy of ``a`` and the triangular R that it
    also makes: geqrf leaves R in the upper triangle of ``a``. Nothing then
    turns a LAPACK error into ``LinAlgError``, which finite entries do not
    raise. Elsewhere it calls ``np.linalg.qr``.
    """
    if _QR_R_RAW is None:
        q, r = np.linalg.qr(a)
        return q, np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    tau = _QR_R_RAW(a, signature="D->D")
    r_moduli = np.abs(np.diagonal(a, axis1=-2, axis2=-1))
    return _umath_linalg.qr_reduced(a, tau, signature="DD->D"), r_moduli


def _correlations(h_cand_t: np.ndarray, directions: np.ndarray, cand_norms: np.ndarray):
    """|h_c^H v| / |h_c|, clipped to [0, 1], for every candidate c and direction v of each trial.

    ``h_cand_t`` is a (G, C, M) stack of conjugated candidate channels,
    ``directions`` a (G, B, M, D) stack and ``cand_norms`` (G, C); the
    result is (G, B, C, D). The complex products are formed a few bases at
    a time, each within a quarter of ``_BLOCK_BUDGET`` float64 elements, as
    (G', 1, C, M) @ (G', B', M, D) over the whole bases of as many trials as
    fit, or part of one trial's; so only the float result exists at full
    block size.
    """
    n_trials, n_bases, _, n_steps = directions.shape
    n_cand = h_cand_t.shape[1]
    corr = np.empty((n_trials, n_bases, n_cand, n_steps))
    step = max(1, _BLOCK_BUDGET // (8 * n_cand * n_steps))
    bases_step, trials_step = min(step, n_bases), max(1, step // n_bases)
    for t in range(0, n_trials, trials_step):
        for s in range(0, n_bases, bases_step):
            np.abs(
                h_cand_t[t : t + trials_step, np.newaxis]
                @ directions[t : t + trials_step, s : s + bases_step],
                out=corr[t : t + trials_step, s : s + bases_step],
            )
    corr /= cand_norms[:, np.newaxis, :, np.newaxis]
    # |h^H v| / |h| is not negative, so only rounding above 1 is clipped.
    np.minimum(corr, 1.0, out=corr)
    return corr


def _match_block(corr: np.ndarray, cand_rates: np.ndarray, seed_rates: np.ndarray, alpha: float):
    """Greedy direction filling of ``ss_us`` on every basis of a block at once.

    ``corr`` is (..., C, D): candidate correlations with directions 1..D,
    one (C, D) matrix per basis, whichever trial it belongs to. The
    candidate rates ``cand_rates`` broadcast to ``corr[..., 0]`` and the
    seed rates ``seed_rates`` to ``corr[..., 0, 0]``: a (G, B, C, D) block
    takes (G, 1, C) and (G, 1). ``corr`` is only read, so every alpha
    matches on the same stack; step k scores direction k as ``corr[..., k]``
    times the candidate rates, into one buffer, and adds a mask that holds
    -inf at the candidates already matched in that basis and 0 elsewhere;
    the scores are non-negative, so adding 0 keeps their bits. Returns, per
    basis, the mean weight, the picks (D), the best scores (D) and the
    comparisons. ``picks`` holds the candidate matched to each direction,
    or -1 where the direction stays unfilled; the weights of a basis are the
    seed rate and then the best scores of its filled directions, in
    direction order, and its mean weight is their ``math.fsum`` over their
    count. A step costs one comparison per candidate still available.
    """
    *lead, n_cand, n_steps = corr.shape
    flat = corr.reshape(-1, n_cand, n_steps)
    rows = np.arange(len(flat))
    scores = np.empty((*lead, n_cand))
    flat_scores = scores.reshape(rows.size, n_cand)
    mask = np.zeros(flat_scores.shape)
    picks = np.full((rows.size, n_steps), -1)
    best = np.empty(picks.shape)
    for k in range(n_steps):
        np.multiply(corr[..., k], cand_rates, out=scores)
        flat_scores += mask
        pick = flat_scores.argmax(axis=1)
        best[:, k] = flat_scores[rows, pick]
        clears = flat[rows, pick, k] >= alpha
        if k >= n_cand:
            # After k picks the pool may be empty, its best score -inf.
            clears &= best[:, k] > -np.inf
        take = rows[clears]
        taken = pick[take]
        picks[take, k] = taken
        mask[take, taken] = -np.inf
    filled = picks >= 0
    comparisons = (n_cand - (np.cumsum(filled, axis=1) - filled)).sum(axis=1)
    weights = np.empty((*lead, n_steps + 1))
    weights[..., 0] = seed_rates
    flat_weights = weights.reshape(rows.size, n_steps + 1)
    # An unfilled direction weighs 0 here: fsum rounds the exact sum once,
    # so zeros do not change it.
    flat_weights[:, 1:] = np.where(filled, best, 0.0)
    means = np.array(list(map(math.fsum, flat_weights.tolist()))) / (1 + filled.sum(axis=1))
    return tuple(a.reshape(*lead, *a.shape[1:]) for a in (means, picks, best, comparisons))


def sus(h, cfg: SelectionConfig, n0: float, ledger: OpLedger) -> SelectionResult:
    """Semi-orthogonal selection.

    Starting from the strongest user, each iteration projects the remaining
    pool onto the span of the selected channels, permanently drops
    candidates whose correlation to that span exceeds ``cfg.sus_epsilon``,
    and selects the survivor with the largest residual norm. ``n0`` is not
    read, but it must be positive, as for every other selector.

    This is ``_sus_trials`` on a stack of one trial, the channel ``h`` (see
    ``_select_one``).
    """
    return _select_one(Algorithm.SUS, h, n0, cfg.k_max, ledger, epsilon=cfg.sus_epsilon)


def _sus_trials(hs: np.ndarray, norms: np.ndarray, k_max: int, epsilon: float) -> list:
    """``sus`` for every trial of a (T, M, U) stack of channels, in lockstep.

    This is the one engine of semi-orthogonal selection; ``sus`` is its case
    of one trial. ``hs`` holds checked channels (see ``_as_channel``) and
    ``norms`` their (T, U) column norms. Each trial's pool is a row of a
    (T, U) mask. Step j makes one stacked product Q^H H of every running
    trial's j orthonormal directions with all its users, filters each pool
    by span correlation, and picks each survivor with the largest residual
    energy by one masked argmax in user order, so ties go to the lowest
    index. A trial stops when its pool empties or it holds min(``k_max``,
    M, U) users, and its rows are dropped. Each trial is charged from its
    own pool sizes, as one loop over its pool would be.

    Returns one (outcome, ledger) pair per trial: the
    :class:`SelectionResult` of ``sus`` and what that call charges.
    """
    n_trials, m, u = hs.shape
    trials = np.arange(n_trials)
    k_cap = min(k_max, m, u)
    # Per trial: the complex MACs, divisions and comparisons charged; the
    # column norms, the seed's direction and the argmax that finds the seed.
    charged = np.full((n_trials, 3), (u * m, m, max(u - 1, 0)), dtype=np.int64)
    seeds = norms.argmax(axis=1)
    selected = np.empty((n_trials, k_cap), dtype=np.intp)
    selected[:, 0] = seeds
    sizes = np.full(n_trials, k_cap)

    # Row i of the state arrays is the trial ``trial[i]`` still running:
    # its channel, column energies, pool and orthonormal directions, as
    # the columns of q.
    trial, h, energy = trials, hs, norms**2
    pool = np.ones((n_trials, u), dtype=bool)
    pool[trials, seeds] = False
    q = np.empty((n_trials, m, k_cap), dtype=np.complex128)
    q[:, :, 0] = hs[trials, :, seeds] / norms[trials, seeds][:, np.newaxis]
    for j in range(1, k_cap):
        coef = q[:, :, :j].conj().swapaxes(1, 2) @ h
        proj = (np.abs(coef) ** 2).sum(axis=1)
        size = pool.sum(axis=1)
        pool &= np.sqrt(np.minimum(proj / energy, 1.0)) <= epsilon
        left = pool.sum(axis=1)
        # Per pool member j M MACs, a division and a comparison; then one
        # comparison per survivor but one, for the argmax.
        charged[trial] += np.column_stack((j * m * size, size, size + np.maximum(left - 1, 0)))
        # A trial stops when its pool is empty, before or after the filter;
        # a pool that was empty is charged nothing.
        stop = left == 0
        if stop.any():
            sizes[trial[stop]] = j
            go = ~stop
            trial, h, energy, pool, q, coef, proj = (
                a[go] for a in (trial, h, energy, pool, q, coef, proj)
            )
            if not trial.size:
                break
        pick = np.where(pool, np.maximum(energy - proj, 0.0), -np.inf).argmax(axis=1)
        rows = np.arange(trial.size)
        # The pick's residual and its norm, then its direction.
        charged[trial] += (j * m + m, m, 0)
        residual = h[rows, :, pick] - (q[:, :, :j] @ coef[rows, :, pick, np.newaxis])[..., 0]
        # |residual|^2 as ``np.linalg.norm`` sums it: one dot of the real
        # parts and one of the imaginary parts.
        re, im = residual.real[:, np.newaxis], residual.imag[:, np.newaxis]
        residual_sq = (re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
        q[:, :, j] = residual / np.sqrt(residual_sq)
        selected[trial, j] = pick
        pool[rows, pick] = False
    return [
        (SelectionResult(selected=tuple(selected[t, : sizes[t]].tolist())), OpLedger(*row))
        for t, row in enumerate(charged.tolist())
    ]


def gzf(h, n0: float, k_max: int, ledger: OpLedger) -> SelectionResult:
    """Greedy selection by incremental ZF sum-rate gain.

    Starting from the strongest user, each step adds the candidate whose
    inclusion yields the largest ZF sum spectral efficiency, stopping as
    soon as no candidate strictly improves it. Rank-deficient candidate
    sets score minus infinity.

    This is ``_gzf_trials`` on a stack of one trial, the channel ``h`` (see
    ``_select_one``).
    """
    return _select_one(Algorithm.GZF, h, n0, k_max, ledger)


def _gzf_trials(hs: np.ndarray, norms: np.ndarray, n0: float, k_max: int) -> list:
    """``gzf`` for every trial of a (T, M, U) stack of channels, in lockstep.

    This is the one engine of greedy ZF; ``gzf`` is its case of one trial.
    ``hs`` holds checked channels (see ``_as_channel``) and ``norms`` their
    (T, U) column norms. Picks, ties (to the lowest index) and the stop
    follow the rates that ``_zf_sum_rates`` gives each candidate set, yet
    most steps never reach the kernel: ``_bordered_rates`` borders the
    selected set's inverse Cholesky factor by every candidate at once and
    bounds how far each rate can be from the kernel's. One rule settles a
    step: the bounds decide it, or the kernel scores it whole, every set of
    the pool and the current set if its rate is not yet exact. Either way
    ``_charge_zf`` prices every candidate set as the kernel would, so the
    ledger does not depend on which path scored it.

    The trials step together: the seed sets are scored by one stacked
    ``_zf_snr`` call, and each step borders the factors of every trial still
    running by its pool in one ``_bordered_rates`` call, the pools being
    the same size. Row i of the state arrays is the trial ``trial[i]``
    still running, and the rows of the trials that stop are dropped.
    Factor rebuilds and the kernel's steps run trial by trial, for the few
    trials that need them, so no trial's outcome depends on the others.

    Returns one (outcome, ledger) pair per trial: the
    :class:`SelectionResult` of ``gzf``, or the error it would raise, and
    what that call charges; a seed set that fails the ``COND_LIMIT`` guard
    fails its trial after the charges.
    """
    n_trials, m, u = hs.shape
    trials = np.arange(n_trials)
    k_cap = min(k_max, m, u)
    # Per trial: the complex MACs, divisions and comparisons charged, and per
    # set size k the (scored, passed) counts of its candidate sets, which
    # ``_charge_zf`` prices at the end.
    charged = np.zeros((n_trials, 3), dtype=np.int64)
    charged[:, 0] = u * m  # the column norms
    charged[:, 2] = max(u - 1, 0)
    priced = np.zeros((n_trials, k_cap + 1, 2), dtype=np.int64)
    seeds = norms.argmax(axis=1)
    users = hs.swapaxes(1, 2)  # (T, U, M): row j is user j's channel
    ok, snr = _zf_snr(users[trials, seeds][..., np.newaxis], n0, OpLedger())
    priced[:, 1, 0] = 1
    priced[:, 1, 1] = ok
    selected = np.empty((n_trials, k_cap), dtype=np.intp)
    sizes = np.ones(n_trials, dtype=np.intp)

    trial = trials[ok]
    n_rows = trial.size
    seeds, energy = seeds[ok], norms**2
    current = np.log2(1.0 + snr).sum(axis=-1)
    current_tol = np.zeros(n_rows)
    # The selected users, and the candidates in index order.
    sel = np.empty((n_rows, k_cap), dtype=np.intp)
    sel[:, 0] = seeds
    pool = np.arange(u - 1) + (np.arange(u - 1) >= seeds[:, np.newaxis])
    # Each row's leading block holds L_S⁻¹, the inverse Cholesky factor of
    # its selected set's Gram matrix. After an uncertified pick it is
    # rebuilt from a fresh factorisation.
    factor = np.zeros((n_rows, k_cap, k_cap), dtype=np.complex128)
    factor[:, 0, 0] = 1.0 / norms[trial, seeds]
    rebuild = np.zeros(n_rows, dtype=bool)
    for k in range(2, k_cap + 1):
        if not n_rows:
            break
        rows, of_row = np.arange(n_rows), trial[:, np.newaxis]
        w_inv = factor[:, : k - 1, : k - 1]
        for i in rebuild.nonzero()[0]:
            h_sel = hs[trial[i]][:, sel[i, : k - 1]]
            w_inv[i] = np.linalg.inv(np.linalg.cholesky(h_sel.conj().T @ h_sel))
        pool_e = energy[of_row, pool]
        rates, tol, sure, v_bar, schur, _ = _bordered_rates(
            w_inv,
            (w_inv.real**2 + w_inv.imag**2).sum(axis=-2),
            users[of_row, sel[:, : k - 1]].conj() @ users[of_row, pool].swapaxes(-1, -2),
            pool_e,
            energy[of_row, sel[:, : k - 1]].sum(axis=-1)[:, np.newaxis] + pool_e,
            m,
            n0,
        )
        pick = rates.argmax(axis=-1)
        best, best_tol = rates[rows, pick], tol[rows, pick]
        # The bounds decide a step when every candidate is certified, no
        # other candidate's interval reaches the pick's, and the pick's
        # interval clears the current rate's. Otherwise the kernel scores
        # the row's whole pool, and its current set if that is not exact.
        reach = (rates + tol >= (best - best_tol)[:, np.newaxis]).sum(axis=-1) > 1
        margin, gain = best_tol + current_tol, best - current
        undecided = ~sure.all(axis=-1) | reach | ((-margin < gain) & (gain <= margin))
        # Every set of the pool is scored. A certified set passes the
        # kernel's guard, and a set the kernel scores passes where its rate
        # is finite.
        priced[trial, k] = pool.shape[1]
        charged[trial, 2] += pool.shape[1]
        for i in undecided.nonzero()[0]:
            hm = hs[trial[i]]
            rates[i] = _exact_rates(hm, _grown(sel[i, : k - 1], pool[i]), n0)
            priced[trial[i], k, 1] = np.count_nonzero(rates[i] > -np.inf)
            pick[i] = rates[i].argmax()
            best[i], best_tol[i] = rates[i, pick[i]], 0.0
            if current_tol[i]:
                current[i] = _exact_rates(hm, sel[np.newaxis, i, : k - 1], n0)[0]
                current_tol[i] = 0.0
        stop = best + best_tol <= current - current_tol

        # Every row takes its pick; those that stop are dropped after.
        certified = sure[rows, pick]
        rebuild = ~certified
        grown = certified.nonzero()[0]
        root = np.sqrt(schur[grown, pick[grown]])
        # Bordered row of each certified pick: [-v^H, 1] / sqrt(s).
        factor[grown, k - 1, : k - 1] = v_bar[grown, :, pick[grown]] / -root[:, np.newaxis]
        factor[grown, k - 1, k - 1] = 1.0 / root
        sel[:, k - 1] = pool[rows, pick]
        current, current_tol = best, best_tol
        kept = np.ones(pool.shape, dtype=bool)
        kept[rows, pick] = False
        pool = pool[kept].reshape(n_rows, pool.shape[1] - 1)
        if stop.any():
            selected[trial[stop], : k - 1] = sel[stop, : k - 1]
            sizes[trial[stop]] = k - 1
            go = ~stop
            n_rows = int(np.count_nonzero(go))
            trial, sel, pool, factor, rebuild, current, current_tol = (
                a[go] for a in (trial, sel, pool, factor, rebuild, current, current_tol)
            )
    selected[trial] = sel
    sizes[trial] = k_cap

    price = OpLedger()
    _charge_zf(price, m, np.arange(k_cap + 1), priced[..., 0], priced[..., 1])
    charged[:, 0] += price.complex_macs.sum(axis=-1)
    charged[:, 1] += price.divisions.sum(axis=-1)
    return [
        (
            SelectionResult(selected=tuple(selected[t, : sizes[t]].tolist()))
            if ok[t]
            else _ill_conditioned(m, 1),
            OpLedger(*charged[t].tolist()),
        )
        for t in trials
    ]


#: ``gzf`` ranks a candidate set without the kernel only when the bordered
#: trace(G)·trace(G⁻¹) is at most this: such a set passes the kernel's
#: condition guard whatever rounding either path makes.
_BORDER_CERT_LIMIT = COND_LIMIT / 1000

_EPS = float(np.finfo(float).eps)


def _grown(selected: list[int], cands: np.ndarray) -> np.ndarray:
    """The (P, K) index array of ``selected`` followed by each of ``cands``."""
    return np.column_stack((np.tile(selected, (cands.size, 1)), cands))


def _exact_rates(hm: np.ndarray, sets: np.ndarray, n0: float) -> np.ndarray:
    """Kernel rates of the (P, K) index array ``sets`` of ``hm``, uncharged.

    These are the rates ``_zf_sum_rates`` gives the sets' columns; the
    channel was checked where it entered. The selectors ask the kernel only
    for rates, through here, and price every set they score through
    ``_charge_zf``.
    """
    return _zf_sum_rates(_set_stack(hm, sets), n0, OpLedger())


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
    # A Schur complement near the float64 floor overflows to an infinite
    # inverse diagonal, whose bound then certifies nothing.
    with np.errstate(over="ignore"):
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

    This is ``_mcore_plus_trials`` on a stack of one trial, the channel
    ``h`` (see ``_select_one``).
    """
    return _select_one(Algorithm.MCORE_PLUS, h, n0, k_max, ledger)


def _mcore_plus_trials(hs: np.ndarray, norms: np.ndarray, n0: float, k_max: int) -> list:
    """``mcore_plus`` for every trial of a (T, M, U) stack of channels, in lockstep.

    This is the one engine of the shortlist method; ``mcore_plus`` is its
    case of one trial. ``hs`` holds checked channels (see ``_as_channel``)
    and ``norms`` their (T, U) column norms. The shortlist stage runs on
    the stack: a stable argsort of each trial's column norms, its 2M pool,
    the pool's chordal distances from one stacked product, and the max-min
    greedy in one stacked step per shortlist member after the strongest.
    One ``_best_subset`` call then searches every trial's shortlist.

    Returns one (outcome, ledger) pair per trial: the
    :class:`SelectionResult` of ``mcore_plus`` and what that call charges.
    """
    n_trials, m, u = hs.shape
    rows = np.arange(n_trials)
    n_pool = min(2 * m, u)
    n_short = min(m, n_pool)
    # Every trial pays the same: the column norms, the argsort, the pool's
    # normalisation and correlations, and one comparison per pool member
    # for the strongest and for each later pick.
    charged = OpLedger(
        complex_macs=u * m + n_pool * n_pool * m,
        divisions=n_pool * m,
        comparisons=u * max(1, math.ceil(math.log2(max(u, 2)))) + n_short * (n_pool - 1),
    )
    pool = np.sort(np.argsort(-norms, axis=1, kind="stable")[:, :n_pool], axis=1)
    pool_norms = np.take_along_axis(norms, pool, axis=1)
    h_pool = np.take_along_axis(hs, pool[:, np.newaxis], axis=2) / pool_norms[:, np.newaxis]
    corr = np.abs(h_pool.conj().transpose(0, 2, 1) @ h_pool)
    chordal = np.sqrt(np.maximum(1.0 - np.minimum(corr, 1.0) ** 2, 0.0))

    # Positions into each trial's pool, the strongest first.
    short = np.empty((n_trials, n_short), dtype=np.intp)
    short[:, 0] = pool_norms.argmax(axis=1)
    taken = np.zeros(pool.shape, dtype=bool)
    taken[rows, short[:, 0]] = True
    min_dist = chordal[rows, :, short[:, 0]]
    for i in range(1, n_short):
        short[:, i] = np.where(taken, -np.inf, min_dist).argmax(axis=1)
        taken[rows, short[:, i]] = True
        min_dist = np.minimum(min_dist, chordal[rows, :, short[:, i]])
    users = np.sort(np.take_along_axis(pool, short, axis=1), axis=1)

    ledgers = [replace(charged) for _ in rows]
    winners = _best_subset(
        np.take_along_axis(hs, users[:, np.newaxis], axis=2), min(k_max, n_short), n0, ledgers
    )
    return [
        (SelectionResult(selected=tuple(row[list(winner)].tolist())), ledger)
        for row, winner, ledger in zip(users, winners, ledgers)
    ]


def _best_subset(hs: np.ndarray, max_size: int, n0: float, ledgers) -> list:
    """Per trial of a (T, M, n) stack, its subset of 1..``max_size`` columns with the highest ZF sum SE.

    Returns each trial's winner as a tuple of column positions, and charges
    ``ledgers[t]`` what trial t's search costs. The answer, the ties and the
    charges are those of scoring every subset with ``_zf_sum_rates``:
    singular subsets are skipped, every other subset costs one comparison,
    and ties break toward the lexicographically smallest subset, across
    sizes. Most subsets never reach the kernel.

    Subsets are enumerated level by level, depth first, in blocks of at most
    ``_subsets_per_block(M, k)`` subsets of size k, as many as their stacks
    fit in ``_BLOCK_BUDGET``, whichever trials they belong to: level k
    borders each size-(k-1) prefix by every column of its trial after its
    last one, through ``_bordered_rates``, with the cross terms taken from
    the trial's Gram matrix; level 1 borders the empty prefix like any
    other level. A block's certified subsets carry their factor,
    inverse diagonal and trace to the next level as its prefixes. One rule
    scores a subset: its bound certifies its rate, or the kernel scores it,
    and so every subset it is a prefix of, since trace(G) trace(G⁻¹) does
    not fall when a column is added. A block's uncertified subsets of every
    trial go to the kernel in one call. ``_charge_zf`` prices every subset
    as the kernel would, whichever path scored it. The subsets whose error
    intervals reach the largest lower bound of any subset of their trial
    are the only ones that may win; when more than one is left, those not
    yet exact are rescored by the kernel, and the highest rate wins, then
    the smallest subset. Neither the blocks nor the trials that share them
    change an answer or a charge.

    One ``_SubsetSearch`` takes as many trials as their Gram matrices fit in
    ``_BLOCK_BUDGET`` float64 elements, and at least one.
    """
    n = hs.shape[2]
    per_search = max(1, _BLOCK_BUDGET // (2 * n * n))
    winners = []
    for lo in range(0, len(hs), per_search):
        found, charged = _SubsetSearch(hs[lo : lo + per_search], max_size, n0).run()
        winners += found
        for ledger, (macs, divisions, comparisons) in zip(ledgers[lo:], charged.tolist()):
            ledger.complex_macs += macs
            ledger.divisions += divisions
            ledger.comparisons += comparisons
    return winners


def _subsets_per_block(m: int, k: int) -> int:
    """Subsets of size k per subset-search block, at least one, whose stacks fit ``_BLOCK_BUDGET``.

    A subset that ``_bordered_rates`` scores takes 2 k^2 + 2 (k-1)^2 + 5 k - 2
    float64 elements: its bordered factor, a k x k complex stack, its
    prefix's (k-1) x (k-1) factor, and the complex columns ``cross`` (k)
    and ``v_bar`` (k - 1) and the real ``diag`` (k). One that the kernel
    scores takes its (M, k) complex columns, 2 M k, as in the final
    scoring. The larger of the two sizes the block.
    """
    bordered = 2 * k * k + 2 * (k - 1) ** 2 + 5 * k - 2
    return max(1, _BLOCK_BUDGET // max(bordered, 2 * m * k))


class _SubsetSearch:
    """The enumeration of ``_best_subset`` over the columns of a (T, M, n) stack.

    The trials' columns sit side by side in ``h``, an (M, T n) matrix, so
    trial t owns positions t n to t n + n - 1. A subset is a row of
    positions: its trial is its first position over n, and the kernel
    scores rows of any trials in one call. ``gram`` holds the trials' Gram
    matrices row by row, so that row p of it is position p's. The search
    grows from each trial's empty prefix, whose inverse factor is 0 x 0 and
    whose trace is 0, so level 1 borders it like any other level. Scored
    blocks are queued and weighed together once they hold ``cap`` subsets,
    as many as the largest block holds, that of single columns (see
    ``_subsets_per_block``), and at the end. Per trial, ``floor`` is a
    lower bound, rate - tol, of the highest rate of any of its subsets
    weighed so far (tol is 0 for kernel rates), and ``kept`` holds its
    subsets whose intervals still reach it: only they may win. When a trial
    keeps more than ``cap``, and at the end, its kept subsets are settled:
    those not yet exact are rescored by the kernel, already charged, and
    the highest rate wins, then the smallest subset. Every subset is
    scored, so a trial scores C(n, k) subsets of size k, and all but those
    that ``failed`` the kernel's guard pass it, a certified rate being
    finite; ``_charge_zf`` prices them at the end.
    """

    def __init__(self, hs: np.ndarray, max_size: int, n0: float):
        n_trials, m, n = hs.shape
        self.n, self.max_size, self.n0 = n, max_size, n0
        self.h = hs.transpose(1, 0, 2).reshape(m, n_trials * n)
        self.gram = (hs.conj().transpose(0, 2, 1) @ hs).reshape(n_trials * n, n)
        self.floor = np.full(n_trials, -np.inf)
        self.kept: list[list[tuple[tuple[int, ...], float, float]]] = [[] for _ in range(n_trials)]
        self.failed = np.zeros((n_trials, max_size + 1), dtype=np.int64)
        self.queue: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.queued = 0
        self.cap = _subsets_per_block(m, 1)

    def run(self) -> tuple[list, np.ndarray]:
        """Each trial's winning subset, () when every subset is singular, and
        its (MACs, divisions, comparisons) as a (T, 3) array."""
        n_trials, n = len(self.floor), self.n
        self._grow(
            np.empty((n_trials, 0), dtype=np.intp),
            (np.empty((n_trials, 0, 0)), np.empty((n_trials, 0)), np.zeros(n_trials)),
        )
        self._weigh()
        for t, floor in enumerate(self.floor.tolist()):
            self.kept[t] = [s for s in self.kept[t] if s[1] + s[2] >= floor]
        self._settle([t for t, kept in enumerate(self.kept) if len(kept) > 1])
        winners = [
            tuple(p - t * n for p in kept[0][0]) if floor > -np.inf else ()
            for t, (kept, floor) in enumerate(zip(self.kept, self.floor.tolist()))
        ]
        sizes = np.arange(1, self.max_size + 1)
        scored = np.array([math.comb(n, k) for k in sizes.tolist()])
        passed = scored - self.failed[:, 1:]
        price = OpLedger()
        _charge_zf(price, self.h.shape[0], sizes, scored, passed)
        charged = np.stack(
            (price.complex_macs.sum(axis=-1), price.divisions.sum(axis=-1), passed.sum(axis=-1)),
            axis=-1,
        )
        return winners, charged

    def _grow(self, members: np.ndarray, factor) -> None:
        """Score every child of the prefixes ``members``, then their children.

        ``factor`` holds the prefixes' inverse Cholesky factors, inverse
        diagonals and traces, or is None when their children go to the
        kernel. Each block's children are grown after the block's own
        working arrays are freed.
        """
        # A child adds a column of its trial after its prefix's last; any to a root.
        n = self.n
        if members.shape[1]:
            last = members[:, -1] % n
            first = members[:, -1] - last
        else:
            last = np.full(len(members), -1)
            first = np.arange(len(members)) * n
        parent, cand = (np.arange(n) > last[:, np.newaxis]).nonzero()
        cand += first[parent]
        block = _subsets_per_block(self.h.shape[0], members.shape[1] + 1)
        for lo in range(0, parent.size, block):
            p, c = parent[lo : lo + block], cand[lo : lo + block]
            for child in self._block(members, factor, p, c):
                self._grow(*child)

    def _block(self, members, factor, p, c) -> list:
        """Score the subsets ``members[p]`` + ``c``; return their prefixes to grow."""
        # ``take`` gathers the prefixes' rows at under half the fixed cost of
        # fancy indexing, which a search pays on every block.
        sets = np.concatenate((members.take(p, axis=0), c[:, np.newaxis]), axis=1)
        if factor is None:
            n = len(sets)
            return self._score(sets, np.empty(n), np.empty(n), np.zeros(n, dtype=bool))
        w_inv, inv_diag, trace = factor
        # Row i: G[S_i, c_i], then |h_c|^2 = G[c_i, c_i], from c_i's trial.
        cross = self.gram[sets, (c % self.n)[:, np.newaxis], np.newaxis]
        w, energy = w_inv.take(p, axis=0), cross[:, -1, :].real
        trace = trace.take(p)[:, np.newaxis] + energy
        rates, tol, sure, v_bar, _, diag = _bordered_rates(
            w, inv_diag.take(p, axis=0), cross[:, :-1], energy, trace, self.h.shape[0], self.n0
        )
        return self._score(
            sets, rates[:, 0], tol[:, 0], sure[:, 0],
            (w, trace[:, 0], v_bar[..., 0], diag[..., 0]),
        )

    def _score(self, sets, rates, tol, sure, bordered=None) -> list:
        """Score and keep one block of subsets; return its prefixes.

        Row i of each argument belongs to subset ``sets[i]``: its bordered
        rate, tolerance and certificate, and in ``bordered`` its prefix's
        inverse factor, its trace, conj(v) and inverse diagonal (see
        ``_bordered_rates``), which only ``sure`` rows need. ``_exact_rates``
        scores the subsets that are not ``sure``, all in one call, and those
        that fail the kernel's guard are counted per trial. Below
        ``max_size``, the block's subsets are the next level's prefixes, as
        (members, factor) pairs; the factor is None for those the kernel
        scored.
        """
        k = sets.shape[1]
        grown = k < self.max_size
        n_sure = int(np.count_nonzero(sure))
        prefixes = []
        if n_sure < len(sets):
            unsure = ~sure
            exact = _exact_rates(self.h, sets[unsure], self.n0)
            rates[unsure], tol[unsure] = exact, 0.0
            np.add.at(self.failed[:, k], sets[unsure][~(exact > -np.inf), 0] // self.n, 1)
            if grown:
                prefixes.append((sets[unsure], None))
        self._keep(sets, rates, tol)
        if not grown or not n_sure:
            return prefixes
        w, trace, v_bar, diag = bordered
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

    def _keep(self, sets: np.ndarray, rates: np.ndarray, tol: np.ndarray) -> None:
        """Queue a scored block; the queue is weighed once it holds ``cap`` subsets."""
        self.queue.append((sets, rates, tol))
        self.queued += len(sets)
        if self.queued >= self.cap:
            self._weigh()

    def _weigh(self) -> None:
        """Raise each trial's ``floor`` by the queued subsets and keep those that reach it."""
        if not self.queue:
            return
        sets = [s for s, _, _ in self.queue]
        rates = np.concatenate([r for _, r, _ in self.queue])
        tol = np.concatenate([t for _, _, t in self.queue])
        trial = np.concatenate([s[:, 0] for s in sets]) // self.n
        floor = self.floor.copy()
        np.fmax.at(floor, trial, rates - tol)
        reach = (rates + tol >= floor[trial]).nonzero()[0].tolist()
        for t in (floor > self.floor).nonzero()[0].tolist():
            self.kept[t] = [s for s in self.kept[t] if s[1] + s[2] >= floor[t]]
        self.floor = floor
        starts = list(itertools.accumulate((len(s) for s in sets), initial=0))
        crowded = set()
        for i in reach:
            block = bisect.bisect_right(starts, i) - 1
            t = int(trial[i])
            self.kept[t].append(
                (tuple(sets[block][i - starts[block]].tolist()), float(rates[i]), float(tol[i]))
            )
            if len(self.kept[t]) > self.cap:
                crowded.add(t)
        self.queue, self.queued = [], 0
        self._settle(sorted(crowded))

    def _settle(self, trials: list[int]) -> None:
        """Rescore the kept subsets of ``trials`` exactly and keep each one's winner among them."""
        pending: dict[int, list[tuple[int, ...]]] = {}
        for t in trials:
            for s, _, tol in self.kept[t]:
                if tol > 0.0:
                    pending.setdefault(len(s), []).append(s)
        exact = {}
        for sets in pending.values():
            exact.update(zip(sets, _exact_rates(self.h, np.array(sets), self.n0).tolist()))
        for t in trials:
            scored = [(exact.get(s, rate), s) for s, rate, _ in self.kept[t]]
            best = max(rate for rate, _ in scored)
            self.kept[t] = [(min(s for rate, s in scored if rate == best), best, 0.0)]


def random_select(h, k: int, rng: np.random.Generator) -> SelectionResult:
    """Uniform random K-subset of the users, deterministic given the stream."""
    hm, _ = _as_channel(h)
    m, u = hm.shape
    _require_count("k", k)
    if reason := infeasible_reason(Algorithm.RANDOM, m, u, k):
        raise ValueError(reason)
    return _random_users(rng, u, k)


def _random_users(rng: np.random.Generator, u: int, k: int) -> SelectionResult:
    """The K of ``u`` users that ``rng`` draws, in index order."""
    return SelectionResult(selected=tuple(np.sort(rng.choice(u, size=k, replace=False)).tolist()))


def _random_trials(hs: np.ndarray, k: int, rng_seeds) -> list:
    """``random_select`` of K = ``k`` for every trial of a (T, M, U) stack of channels.

    Trial t draws from ``stream(rng_seeds[t])``, set on one generator by
    ``seeding._seeded``; the streams' seeds ``derive_seed(rng_seeds[t])``
    are derived at once. Returns one (outcome, empty ledger) pair per trial.
    """
    u = hs.shape[2]
    streams = _seeded(_pcg64_states(_derive_seeds(_CHAIN_ORIGIN, rng_seeds)))
    return [(_random_users(rng, u, k), OpLedger()) for rng in streams]


def exhaustive_oracle(h, n0: float, k_max: int, ledger: OpLedger) -> SelectionResult:
    """Ground-truth selection by enumerating every subset of size <= k_max.

    Only meant for small instances; rejects search spaces above
    ``EXHAUSTIVE_SUBSET_CAP`` subsets. Ties break toward the
    lexicographically smallest index list.

    This is ``_exhaustive_trials`` on a stack of one trial, the channel
    ``h`` (see ``_select_one``).
    """
    return _select_one(Algorithm.EXHAUSTIVE, h, n0, k_max, ledger)


def _exhaustive_trials(hs: np.ndarray, n0: float, k_max: int) -> list:
    """``exhaustive_oracle`` for every trial of a (T, M, U) stack of checked channels.

    This is the one engine of the oracle; ``exhaustive_oracle`` is its case
    of one trial. One ``_best_subset`` call searches the subsets of
    1..min(``k_max``, M, U) users of every trial.

    Returns one (outcome, ledger) pair per trial: the
    :class:`SelectionResult` of ``exhaustive_oracle`` and what that call
    charges.
    """
    _, m, u = hs.shape
    ledgers = [OpLedger() for _ in hs]
    winners = _best_subset(hs, min(k_max, m, u), n0, ledgers)
    return [(SelectionResult(selected=winner), ledger) for winner, ledger in zip(winners, ledgers)]


def run_selection(h, cfg: SelectionConfig, n0: float, ledger: OpLedger) -> SelectionResult:
    """The selector named by ``cfg.algorithm`` on the channel ``h`` (see ``_select_one``).

    ``random`` draws min(``cfg.k_max``, M, U) users from
    ``stream(cfg.rng_seed)``, as ``random_select`` would.
    """
    return _select_one(
        cfg.algorithm, h, n0, cfg.k_max, ledger, cfg.rng_seed, (cfg.num_bases, cfg.alpha),
        cfg.sus_epsilon,
    )
