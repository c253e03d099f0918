"""The batched ZF scoring kernel against the per-set path it replaces.

``reference_zf_post_snr`` is the single-set ZF factorisation that
``zf_post_snr`` ran before it became a call of the batched kernel, and
``reference_sum_se`` the sum rate built on it. ``reference_gzf`` and
``reference_best_subset`` are the per-candidate loops that ``gzf`` and the
subset enumeration of ``mcore_plus`` and ``exhaustive_oracle`` ran before
they scored candidates in batches; they score with ``reference_sum_se``.
``zf_sum_rate_batch`` is the kernel reference: it scores index sets of one
channel with the package's kernel, ``metrics._zf_sum_rates``, after the
public metrics' channel check. ``reference_zf_snr`` is the batched kernel
as it was when every set was guarded by its eigenvalues; the kernel now
certifies most sets from their Cholesky factors instead. The package must reproduce their SNRs, masks,
selections and op-ledger totals exactly, not approximately. ``gzf`` ranks
most candidates by a bordered Cholesky update instead of the kernel; its
selections and ledgers must still be ``reference_gzf``'s, and its rates must
stay well inside the error bound it acts on. The subset enumeration of
``mcore_plus`` and ``exhaustive_oracle`` borders the inverse Cholesky factors
of every prefix the same way; its selections and ledgers must still be
``reference_best_subset``'s, with the same margin on its certified rates.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mimosel import harness, metrics, selectors
from mimosel.channel import LinkBudget, _column_norms, generate_iid_rayleigh, noise_power
from mimosel.harness import ExperimentConfig, algo_instances, grid_points
from mimosel.metrics import COND_LIMIT, SingularSetError, sum_spectral_efficiency, zf_post_snr
from mimosel.numerics import OpLedger, subset_count
from mimosel.seeding import stream
from mimosel.selectors import Algorithm, exhaustive_oracle, gzf, mcore_plus
from test_selectors import checked, select_trials

N0_SWEEP = (
    noise_power(LinkBudget(p0_dbm=-90.0)),
    noise_power(LinkBudget(p0_dbm=-105.0)),
    1e-3,
    1e3,
)


def reference_zf_post_snr(h_sel, n0, ledger):
    h = np.asarray(h_sel, dtype=np.complex128)
    if h.ndim == 1:
        h = h[:, np.newaxis]
    m, k = h.shape
    gram = h.conj().T @ h
    ledger.complex_macs += k * k * m
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 0.0 or eigs[-1] / eigs[0] > COND_LIMIT:
        raise SingularSetError("ill conditioned")
    chol = np.linalg.cholesky(gram)
    chol_inv = np.linalg.solve(chol, np.eye(k, dtype=np.complex128))
    ledger.complex_macs += k**3
    gram_inv_diag = np.sum(np.abs(chol_inv) ** 2, axis=0)
    ledger.divisions += k
    return 1.0 / (n0 * gram_inv_diag)


def reference_sum_se(h_sel, n0, ledger):
    return float(np.sum(np.log2(1.0 + reference_zf_post_snr(h_sel, n0, ledger))))


def reference_gzf(h, n0, k_max, ledger):
    hm = np.asarray(h, dtype=np.complex128)
    m, u = hm.shape
    norms = np.linalg.norm(hm, axis=0)
    ledger.complex_macs += u * m
    seed_user = int(np.argmax(norms))
    ledger.comparisons += max(u - 1, 0)
    selected = [seed_user]
    current = reference_sum_se(hm[:, selected], n0, ledger)
    pool = [i for i in range(u) if i != seed_user]
    k_cap = min(k_max, m, u)
    while len(selected) < k_cap and pool:
        best_rate = -np.inf
        best_user = -1
        for cand in pool:
            try:
                rate = reference_sum_se(hm[:, selected + [cand]], n0, ledger)
            except SingularSetError:
                rate = -np.inf
            ledger.comparisons += 1
            if rate > best_rate:
                best_rate = rate
                best_user = cand
        if best_user < 0 or best_rate <= current:
            break
        selected.append(best_user)
        pool.remove(best_user)
        current = best_rate
    return tuple(selected)


def reference_best_subset(hm, users, max_size, n0, ledger):
    best_rate = -np.inf
    best_set = ()
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(users, size):
            try:
                rate = reference_sum_se(hm[:, list(combo)], n0, ledger)
            except SingularSetError:
                continue
            ledger.comparisons += 1
            if rate > best_rate or (rate == best_rate and combo < best_set):
                best_rate = rate
                best_set = combo
    return best_set


def zf_sum_rate_batch(h, sets, n0, ledger):
    """ZF sum spectral efficiency of each row of ``sets``, scored in one kernel call.

    ``sets`` is a (P, K) array of column indices into ``h``. Entry p equals
    ``sum_spectral_efficiency(h[:, sets[p]], n0, ledger)`` bit for bit, or
    minus infinity where that call would raise :class:`SingularSetError`,
    and the ledger is charged as P such calls would charge it. A channel
    with a non-finite entry, or a column whose norm overflows, raises the
    ``ValueError`` that ``sum_spectral_efficiency`` raises for it.
    """
    h = np.asarray(h, dtype=np.complex128)
    _column_norms(h)
    sets = np.asarray(sets, dtype=np.intp)
    if sets.ndim != 2:
        raise ValueError(f"candidate sets must be a 2-D index array, got shape {sets.shape}")
    return metrics._zf_sum_rates(metrics._set_stack(h, sets), n0, ledger)


def reference_search(hs, max_size, n0, ledgers):
    """``reference_best_subset`` on each trial of a (T, M, n) stack, in the
    signature of ``selectors._best_subset``: every trial's winner, as
    column positions, each trial charged to its own ledger."""
    return [
        reference_best_subset(h, range(h.shape[1]), max_size, n0, ledger)
        for h, ledger in zip(hs, ledgers)
    ]


def instance(seed, m, u):
    """Seeded channel and noise power; every fourth one has a repeated
    column, so that singular candidate sets occur."""
    h = generate_iid_rayleigh(m, u, stream(seed, m, u))
    if seed % 4 == 0:
        h[:, 2] = h[:, 0]
    n0 = noise_power(LinkBudget(p0_dbm=(-90.0, -105.0)[seed % 2]))
    return h, n0


# (M, U, instances): 210 in all, fewer where the reference loop is slow.
CASES = [(m, u, n) for u, n in ((10, 30), (20, 30), (100, 10)) for m in (4, 8, 16)]


def batched_and_reference(fn, *args):
    """Selection and ledger of ``fn`` as it is, then with the reference loop
    in place of ``_best_subset``."""
    got, ref = OpLedger(), OpLedger()
    selected = fn(*args, got).selected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selectors, "_best_subset", reference_search)
        expected = fn(*args, ref).selected
    return (selected, got), (expected, ref)


@pytest.mark.parametrize("m, u, n", CASES)
def test_selectors_match_per_candidate_loops(m, u, n):
    for seed in range(n):
        h, n0 = instance(seed, m, u)
        k_max = m if u < 100 else min(m, 8)
        ledger = OpLedger()
        expected = OpLedger()
        assert gzf(h, n0, k_max, ledger).selected == reference_gzf(h, n0, k_max, expected)
        assert ledger == expected
        # The reference search takes seconds per instance at M = 16 beyond
        # U = 10, so there mcore_plus is checked on seed 0 alone, which has
        # the repeated column.
        if m < 16 or u == 10 or seed == 0:
            got, ref = batched_and_reference(mcore_plus, h, n0, k_max)
            assert got == ref
        if u == 10:
            # k_max = 3 keeps the reference enumeration quick.
            got, ref = batched_and_reference(exhaustive_oracle, h, n0, 3)
            assert got == ref


def test_kernel_equals_single_set_path_exactly():
    for seed in range(6):
        for m in (4, 8, 16):
            h, n0 = instance(seed, m, 20)
            rng = np.random.default_rng(seed)
            for k in range(1, m + 1):
                sets = np.array([rng.choice(20, size=k, replace=False) for _ in range(8)])
                rates = zf_sum_rate_batch(h, sets, n0, OpLedger())
                for row, rate in zip(sets, rates):
                    try:
                        expected = reference_sum_se(h[:, row], n0, OpLedger())
                    except SingularSetError:
                        expected = -np.inf
                    assert rate == expected


def test_kernel_ledger_equals_per_set_charges():
    h, n0 = instance(1, 8, 20)
    sets = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    batched, per_set = OpLedger(), OpLedger()
    zf_sum_rate_batch(h, sets, n0, batched)
    for row in sets:
        reference_sum_se(h[:, row], n0, per_set)
    assert batched == per_set


def test_zf_post_snr_equals_reference_bit_for_bit():
    rng = np.random.default_rng(2026)
    singular = 0
    for i in range(2400):
        m = 1 + i % 16
        k = 1 + (i // 16) % m
        h = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        if i % 7 == 0 and k > 1:
            h[:, -1] = h[:, 0]
        n0 = 10.0 ** rng.uniform(-3.0, 1.0)
        got, want = OpLedger(), OpLedger()
        try:
            expected = reference_zf_post_snr(h, n0, want)
        except SingularSetError:
            with pytest.raises(SingularSetError):
                zf_post_snr(h, n0, got)
            singular += 1
        else:
            assert zf_post_snr(h, n0, got).tobytes() == expected.tobytes()
        assert got == want
    assert singular >= 200


def test_repeated_column_scores_minus_inf_and_is_charged_the_gram_only():
    m, k = 4, 2
    h = generate_iid_rayleigh(m, 3, stream(5))
    h[:, 1] = h[:, 0]
    ledger = OpLedger()
    rates = zf_sum_rate_batch(h, [[0, 1], [0, 2]], 0.1, ledger)
    assert rates[0] == -np.inf
    assert np.isfinite(rates[1])
    assert ledger == OpLedger(complex_macs=2 * k * k * m + k**3, divisions=k)
    with pytest.raises(SingularSetError):
        sum_spectral_efficiency(h[:, [0, 1]], 0.1, OpLedger())


@pytest.mark.parametrize(
    "sets, n0, message",
    [
        ([0, 1], 0.1, "2-D"),
        ([[0, 1, 2, 3, 4]], 0.1, "1 <= K <= M"),
        ([[0]], 0.0, "n0 must be positive"),
        ([[0]], float("nan"), "n0 must be positive, got nan"),
    ],
)
def test_kernel_rejects_bad_arguments(sets, n0, message):
    h = generate_iid_rayleigh(4, 6, stream(2))
    with pytest.raises(ValueError, match=message):
        zf_sum_rate_batch(h, sets, n0, OpLedger())


def test_tie_across_sizes_resolves_to_smaller_tuple():
    # User 0 is orthogonal to the others and so weak that it adds exactly
    # nothing to a rate (1 + snr rounds to 1); users 2 and 3 are one channel
    # and user 1 is half of it. So (2,), (3,), (0, 2) and (0, 3) share the
    # highest rate bit for bit, and (0, 2) < (2,) as tuples. Every entry is
    # a power of two, so each of those rates is exact in both paths' kernel.
    # The singletons are certified by bordering; (0, 1), (0, 2) and (0, 3)
    # are not (cond 2^34 and 2^36, inside COND_LIMIT) and reach the kernel;
    # (1, 2), (1, 3) and (2, 3) are singular.
    h = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 2.0**17, 2.0**18, 2.0**18]], dtype=complex)
    n0 = 2.0**57
    single = zf_sum_rate_batch(h, [[2], [3]], n0, OpLedger())
    pair = zf_sum_rate_batch(h, [[0, 2], [0, 3], [0, 1], [1, 2], [2, 3]], n0, OpLedger())
    assert single.tolist() == pair[:2].tolist() and pair[0] > pair[2] > -np.inf
    assert pair[3] == pair[4] == -np.inf
    ledger, expected = OpLedger(), OpLedger()
    assert exhaustive_oracle(h, n0, 2, ledger).selected == (0, 2)
    assert reference_best_subset(h, range(4), 2, n0, expected) == (0, 2)
    assert ledger == expected
    assert ledger.comparisons == 4 + 3


def set_subset_blocks(monkeypatch, block):
    """Blocks of at most ``block`` // k subsets of size k (at least one), and
    so a queue weighed, and a trial's kept subsets settled, past ``block``;
    None keeps ``_subsets_per_block``. Returns the block size rule in force."""
    if block is not None:
        monkeypatch.setattr(selectors, "_subsets_per_block", lambda m, k: max(1, block // k))
    return selectors._subsets_per_block


@pytest.mark.parametrize("block", [1, 7, 50])
def test_block_boundaries_do_not_change_the_answer(monkeypatch, block):
    h, n0 = instance(3, 4, 12)
    h[:, 5] = h[:, 1]
    whole = OpLedger()
    expected = exhaustive_oracle(h, n0, 4, whole).selected
    set_subset_blocks(monkeypatch, block)
    queued = []
    keep = selectors._SubsetSearch._keep

    def spy(search, sets, rates, tol):
        queued.append(sets.shape)
        keep(search, sets, rates, tol)

    monkeypatch.setattr(selectors._SubsetSearch, "_keep", spy)
    split = OpLedger()
    assert exhaustive_oracle(h, n0, 4, split).selected == expected
    assert split == whole
    # Every level, the first included, queues blocks of its own size.
    assert {k for _, k in queued} == {1, 2, 3, 4}
    assert all(rows <= max(1, block // k) for rows, k in queued)


# Peak bytes that tracemalloc sees in one exhaustive_oracle call at M = 8,
# U = 16, K_max = 8 (39,202 subsets): 4.90 MB when every subset went through
# the kernel in blocks of 1024 // K subsets, 0.92 MB with the bordered search
# in such blocks, 2.50 MB in blocks sized by _subsets_per_block.
EXHAUSTIVE_PEAK_MB = 4.9


def test_working_set_of_one_exhaustive_call_is_bounded():
    h = generate_iid_rayleigh(8, 16, stream(5500, 8, 16))
    n0 = noise_power(LinkBudget(p0_dbm=-90.0))
    expected = exhaustive_oracle(h, n0, 8, OpLedger()).selected
    tracemalloc.start()
    try:
        selected = exhaustive_oracle(h, n0, 8, OpLedger()).selected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert selected == expected
    assert peak <= EXHAUSTIVE_PEAK_MB * 1e6


@pytest.mark.parametrize("m, u, k_max, n_trials", [(8, 16, 8, 4), (1, 1000, 1, 35)])
def test_working_set_of_an_exhaustive_chunk_is_bounded(m, u, k_max, n_trials):
    # What an _exhaustive_trials call holds beyond the outcomes it returns
    # stays within the bound of one trial's call plus one trial's U x U
    # complex Gram matrix: the blocks, not the number of trials, set the
    # working set, and the Gram matrices of a search fit _BLOCK_BUDGET. At
    # M = 1, U = 1000, where a harness chunk holds 35 trials, a search takes
    # one trial, whose Gram matrix is 16 MB.
    hs = checked([generate_iid_rayleigh(m, u, stream(5500, m, u, t)) for t in range(n_trials)])[0]
    n0 = noise_power(LinkBudget(p0_dbm=-90.0))
    expected = [exhaustive_oracle(h, n0, k_max, OpLedger()).selected for h in hs]
    tracemalloc.start()
    try:
        outcomes = selectors._exhaustive_trials(hs, n0, k_max)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [outcome.selected for outcome, _ in outcomes] == expected
    assert peak - kept <= EXHAUSTIVE_PEAK_MB * 1e6 + 16 * u * u


@pytest.mark.parametrize(
    "m, k", [(1, 1), (4, 1), (4, 2), (4, 4), (8, 1), (8, 5), (8, 8), (12, 6), (12, 12),
             (16, 16), (64, 3), (5000, 8)],
)
def test_subset_block_fills_the_budget_with_its_largest_stack(m, k):
    # A subset needs its bordered stacks (the k x k bordered factor, the
    # (k-1) x (k-1) prefix factor, cross, v_bar and diag) or the kernel's
    # (M, k) columns, whichever is more.
    per_subset = max(2 * k * k + 2 * (k - 1) ** 2 + 2 * k + 2 * (k - 1) + k, 2 * m * k)
    size = selectors._subsets_per_block(m, k)
    assert size >= 1
    assert size == 1 or size * per_subset <= selectors._BLOCK_BUDGET
    assert (size + 1) * per_subset > selectors._BLOCK_BUDGET


def test_subset_blocks_of_a_chunk_fill_the_budget(monkeypatch):
    # The oracle's chunk of the oracle_small workload: 50 trials at M = 4,
    # U = 10, K_max = 4, every subset certified by its bound. Every queued
    # block fits its level's rule, and the largest block of each level is
    # full, or holds the whole level where that is smaller. A level's
    # children are cut per parent block, so every block is full but at
    # most one per block of the level above.
    m, u, n_trials = 4, 10, 50
    hs = checked([generate_iid_rayleigh(m, u, stream(9950, m, u, t)) for t in range(n_trials)])[0]
    n0 = noise_power(LinkBudget(p0_dbm=-90.0))
    queued = []
    keep = selectors._SubsetSearch._keep

    def spy(search, sets, rates, tol):
        queued.append(sets.shape)
        keep(search, sets, rates, tol)

    monkeypatch.setattr(selectors._SubsetSearch, "_keep", spy)
    selectors._exhaustive_trials(hs, n0, 4)
    parents = 1
    for k in range(1, 5):
        rows = [r for r, size in queued if size == k]
        block = selectors._subsets_per_block(m, k)
        assert sum(rows) == n_trials * math.comb(u, k)
        assert max(rows) == min(block, sum(rows))
        assert len(rows) < sum(rows) / block + parents
        parents = len(rows)


# Peak bytes that tracemalloc sees in one mcore_plus call at M = 16, U = 100,
# K_max = 16 (65,535 shortlist subsets): 3.33 MB, 5.9 times the budget's
# 560 kB, against a bound of 5.6 MB. Depth first, each level above the one
# being scored holds one block's prefixes, whose factors take about half the
# budget; the bound allows half the budget per level of K_max, and two
# budgets for the block being scored and the search's Gram matrices.
def test_working_set_of_one_mcore_plus_call_at_m16_is_bounded():
    m, u = 16, 100
    h = generate_iid_rayleigh(m, u, stream(5600, m, u))
    n0 = noise_power(LinkBudget(p0_dbm=-90.0))
    expected = mcore_plus(h, n0, m, OpLedger()).selected
    tracemalloc.start()
    try:
        selected = mcore_plus(h, n0, m, OpLedger()).selected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert selected == expected
    assert peak <= (m // 2 + 2) * 8 * selectors._BLOCK_BUDGET


def reference_zf_snr(h_stack, n0, ledger):
    p, m, k = h_stack.shape
    gram = h_stack.conj().transpose(0, 2, 1) @ h_stack
    ledger.complex_macs += p * k * k * m
    eigs = np.linalg.eigvalsh(gram)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = ~((eigs[:, 0] <= 0.0) | (eigs[:, -1] / eigs[:, 0] > COND_LIMIT))
    chol = np.linalg.cholesky(gram[ok])
    chol_inv = np.linalg.solve(chol, np.eye(k, dtype=np.complex128))
    gram_inv_diag = np.sum(np.abs(chol_inv) ** 2, axis=-2)
    n_ok = len(chol)
    ledger.complex_macs += n_ok * k**3
    ledger.divisions += n_ok * k
    return ok, 1.0 / (n0 * gram_inv_diag)


def assert_same_guard(h_stack, n0):
    """The kernel's mask, SNR bytes and ledger equal the reference's."""
    got, want = OpLedger(), OpLedger()
    ok, snr = metrics._zf_snr(h_stack, n0, got)
    ref_ok, ref_snr = reference_zf_snr(h_stack, n0, want)
    assert np.array_equal(ok, ref_ok)
    assert snr.tobytes() == ref_snr.tobytes()
    assert got == want
    return ref_ok


def complex_normal(rng, shape):
    return rng.standard_normal((*shape, 2)).view(np.complex128)[..., 0]


def guard_stack(i, rng):
    """Stack i of the guard-equivalence sweep and the kind of sets it holds.

    Kinds cycle through plain sets, exactly singular ones (a repeated
    column), borderline ones (a near-dependent column whose Gram condition
    number sweeps about 1e10 to 1e14, across ``COND_LIMIT``) and one set
    with a NaN column.
    """
    m = 1 + i % 16
    p = 1 + (i // 16) % 64
    k = int(rng.integers(1, m + 1))
    h = complex_normal(rng, (p, m, k))
    kind = ("plain", "singular", "borderline", "nan")[i % 4]
    if kind == "nan":
        h[rng.integers(p), :, rng.integers(k)] = np.nan
        return h, kind, []
    if k == 1 or kind == "plain":
        return h, "plain", []
    sets = rng.choice(p, size=max(1, p // 2), replace=False)
    col = int(rng.integers(1, k))
    if kind == "singular":
        h[sets, :, col] = h[sets, :, 0]
    else:
        # cond(G) is about 4 / delta^2 for columns a and a + delta z.
        delta = 2.0 * 10.0 ** rng.uniform(-7.0, -5.0, size=(sets.size, 1))
        h[sets, :, col] = h[sets, :, 0] + delta * complex_normal(rng, (sets.size, m))
    return h, kind, sets


def test_certified_guard_equals_eigenvalue_guard():
    rng = np.random.default_rng(2027)
    failed = {"plain": 0, "singular": 0, "borderline": 0}
    passed_borderline = 0
    nan_stacks = {"pass": 0, "raise": 0}
    n_sets = 0
    for i in range(10_000):
        h, kind, sets = guard_stack(i, rng)
        n0 = 10.0 ** rng.uniform(-3.0, 1.0)
        n_sets += len(h)
        if kind == "nan":
            # eigvalsh raises on a NaN Gram matrix of K >= 3 and passes it
            # below that; the kernel must do the same.
            try:
                reference_zf_snr(h, n0, OpLedger())
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError):
                    metrics._zf_snr(h, n0, OpLedger())
                nan_stacks["raise"] += 1
                continue
            assert assert_same_guard(h, n0).all()
            nan_stacks["pass"] += 1
            continue
        ok = assert_same_guard(h, n0)
        failed[kind] += int(np.count_nonzero(~ok))
        if kind == "borderline":
            passed_borderline += int(np.count_nonzero(ok[sets]))
    assert n_sets > 300_000
    assert failed["plain"] == 0
    assert failed["singular"] > 10_000
    # Borderline sets fall on both sides of COND_LIMIT.
    assert failed["borderline"] > 5_000 and passed_borderline > 5_000
    assert min(nan_stacks.values()) > 100


def test_cholesky_failure_falls_back_to_eigenvalue_guard():
    rng = np.random.default_rng(11)
    h = rng.standard_normal((40, 8, 4)) + 1j * rng.standard_normal((40, 8, 4))
    h[17, :, 2] = 0.0
    h[23, :, 3] = h[23, :, 1] + 1e-7 * h[23, :, 0]
    gram = h.conj().transpose(0, 2, 1) @ h
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gram)
    ok = assert_same_guard(h, 0.1)
    assert np.flatnonzero(~ok).tolist() == [17, 23]


def test_well_conditioned_stack_skips_eigvalsh(monkeypatch):
    def no_eigvalsh(gram):
        raise AssertionError("eigvalsh ran on a certified stack")

    h, n0 = instance(2, 8, 20)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    rates = zf_sum_rate_batch(h, list(itertools.combinations(range(6), 4)), n0, OpLedger())
    assert np.isfinite(rates).all()


def sweep_instance(i):
    """Instance i of the ``gzf`` sweep: M cycles through 1-16, U is
    log-uniform on 1-120 and K_max is at most 8, so below M from M = 9 on.
    A third of the instances repeat a column and a third hold a
    near-parallel pair, whose candidate sets sweep the condition guard."""
    rng = np.random.default_rng(i)
    m = 1 + i % 16
    u = int(np.exp(rng.uniform(0.0, np.log(121.0))))
    k_max = int(rng.integers(1, min(m, 8) + 1))
    h = complex_normal(rng, (m, u))
    if u > 2 and i % 3:
        a, b = rng.choice(u, 2, replace=False)
        h[:, b] = h[:, a]
        if i % 3 == 2:
            h[:, b] += 10.0 ** rng.uniform(-8.0, -2.0) * complex_normal(rng, (m,))
    return h, N0_SWEEP[(i // 3) % 4], k_max


def record_kernel_calls(monkeypatch):
    """The index sets of every kernel call that ``selectors`` makes from now
    on, through ``_exact_rates``, one list per call."""
    real_kernel = selectors._exact_rates
    scored = []

    def spy(hm, sets, n0):
        scored.append(np.asarray(sets).tolist())
        return real_kernel(hm, sets, n0)

    monkeypatch.setattr(selectors, "_exact_rates", spy)
    return scored


def test_gzf_equals_reference_and_bordered_rates_stay_inside_their_bound(monkeypatch):
    real_bordered = selectors._bordered_rates
    worst = {"ratio": 0.0, "sure": 0, "unsure": 0}
    run = {}

    def checked(*args):
        out = real_bordered(*args)
        # A lone gzf call borders a stack of one trial.
        rates, tol, sure = (a[0] for a in out[:3])
        # gzf's picks are the reference's, so its step i borders the first
        # i + 1 of them by every other user, in index order.
        h, picks, step = run["h"], run["picks"], run["step"]
        selected = list(picks[: step + 1])
        pool = np.setdiff1d(np.arange(h.shape[1]), selected)
        assert pool.size == rates.size
        run["step"] += 1
        kernel = zf_sum_rate_batch(h, selectors._grown(selected, pool[sure]), args[-1], OpLedger())
        if sure.any():
            ratio = np.abs(rates[sure] - kernel) / tol[sure]
            worst["ratio"] = max(worst["ratio"], float(ratio.max()))
        worst["sure"] += int(np.count_nonzero(sure))
        worst["unsure"] += int(np.count_nonzero(~sure))
        return out

    monkeypatch.setattr(selectors, "_bordered_rates", checked)
    for i in range(1000):
        h, n0, k_max = sweep_instance(i)
        got, want = OpLedger(), OpLedger()
        expected = reference_gzf(h, n0, k_max, want)
        run.update(h=h, picks=expected, step=0)
        assert gzf(h, n0, k_max, got).selected == expected, i
        assert got == want, i
    # The sweep reaches the kernel fallback, and the largest gap between a
    # certified bordered rate and the kernel's is 100 times inside its bound.
    assert worst["sure"] > 20_000 and worst["unsure"] > 100
    assert worst["ratio"] <= 0.01, worst


def subset_instance(i):
    """Instance i of the subset-search sweep: M cycles through 2-8 and K_max
    through 1..M, and U is uniform on M..16 with the search space kept to at
    most 600 subsets, so that the reference loop stays quick. A third of the
    instances repeat a column and a third hold a near-parallel pair, whose
    subsets have Gram condition numbers of about 1e10 to 1e14."""
    rng = np.random.default_rng(7000 + i)
    m = 2 + i % 7
    k_max = 1 + (i // 7) % m
    u_max = max(u for u in range(m, 17) if u == m or subset_count(u, k_max) <= 600)
    u = int(rng.integers(m, u_max + 1))
    h = complex_normal(rng, (m, u))
    if i % 3:
        a, b = rng.choice(u, 2, replace=False)
        h[:, b] = h[:, a]
        if i % 3 == 2:
            # cond(G) is about 4 / delta^2 for columns a and a + delta z.
            h[:, b] += 2.0 * 10.0 ** rng.uniform(-7.0, -5.0) * complex_normal(rng, (m,))
    return h, N0_SWEEP[(i // 3) % 4], k_max


def test_subset_search_equals_reference_and_bordered_rates_stay_inside_their_bound(
    monkeypatch,
):
    real_keep = selectors._SubsetSearch._keep
    worst = {"ratio": 0.0, "sure": 0, "unsure": 0}

    def checked(search, sets, rates, tol):
        # Certified subsets carry a positive tolerance; kernel rates carry 0.
        sure = tol > 0.0
        if sure.any():
            kernel = zf_sum_rate_batch(search.h, sets[sure], search.n0, OpLedger())
            ratio = np.abs(rates[sure] - kernel) / tol[sure]
            worst["ratio"] = max(worst["ratio"], float(ratio.max()))
        worst["sure"] += int(np.count_nonzero(sure))
        worst["unsure"] += int(np.count_nonzero(~sure))
        return real_keep(search, sets, rates, tol)

    monkeypatch.setattr(selectors._SubsetSearch, "_keep", checked)
    sizes = set()
    for i in range(168):
        h, n0, k_max = subset_instance(i)
        sizes.add((h.shape[0], k_max))
        got, ref = batched_and_reference(exhaustive_oracle, h, n0, k_max)
        assert got == ref, i
        got, ref = batched_and_reference(mcore_plus, h, n0, k_max)
        assert got == ref, i
    # Every K_max <= M for M = 2-8; both paths score; the certified rates
    # stay 100 times inside their bound.
    assert sizes == {(m, k) for m in range(2, 9) for k in range(1, m + 1)}
    assert worst["sure"] > 20_000 and worst["unsure"] > 1_000
    assert worst["ratio"] <= 0.01, worst


def test_well_conditioned_gzf_never_calls_the_kernel(monkeypatch):
    # The benchmark's traffic at P0 = -90 dBm: i.i.d. Rayleigh channels, run
    # by _gzf_trials in chunks of the benchmark's (M, U, T) shapes and by the
    # subset search at M = 4, U = 10, K_max = 4. The bounds settle every
    # step and every subset there, so no input reaches the kernel.
    def no_kernel(*args):
        raise AssertionError("a selector called the ZF kernel on a well-conditioned instance")

    h, n0 = instance(2, 8, 100)
    expected = reference_gzf(h, n0, 8, OpLedger())
    monkeypatch.setattr(selectors, "_exact_rates", no_kernel)
    assert gzf(h, n0, 8, OpLedger()).selected == expected

    n0 = noise_power(LinkBudget(p0_dbm=-90.0))
    for m, u, n_trials in ((4, 10, 50), (4, 20, 24), (8, 20, 24), (4, 100, 24), (8, 100, 24)):
        for seed in range(20):
            hs, norms = checked(
                [generate_iid_rayleigh(m, u, stream(9800 + seed, m, u, t)) for t in range(n_trials)]
            )
            for outcome, _ in selectors._gzf_trials(hs, norms, n0, m):
                assert 1 <= outcome.k_b <= m
    for seed in range(200):
        h = generate_iid_rayleigh(4, 10, stream(9900 + seed))
        for fn in (exhaustive_oracle, mcore_plus):
            assert 1 <= len(fn(h, n0, 4, OpLedger()).selected) <= 4


def tie_channel():
    """Channel, n0 and (seed user, low, first pick) of the tie test: a copy
    of gzf's first pick at a lower index ties with it at step one."""
    h, n0 = instance(1, 8, 20)
    seed_user, first_pick = gzf(h, n0, 8, OpLedger()).selected[:2]
    low = min(set(range(first_pick)) - {seed_user})
    h[:, low] = h[:, first_pick]
    return h, n0, (seed_user, low, first_pick)


def test_tie_between_duplicated_candidates_is_settled_by_the_kernel(monkeypatch):
    h, n0, (seed_user, low, first_pick) = tie_channel()
    scored = record_kernel_calls(monkeypatch)
    ledger, expected = OpLedger(), OpLedger()
    selected = gzf(h, n0, 8, ledger).selected
    # The two tied sets leave step one undecided, so the kernel scores the
    # step whole: the seed user beside every other user, in index order.
    assert scored[0] == [[seed_user, c] for c in range(20) if c != seed_user]
    assert selected[:2] == (seed_user, low)
    assert selected == reference_gzf(h, n0, 8, expected)
    assert ledger == expected


def near_parallel_channel():
    """Four near-parallel columns: every candidate set has a Gram condition
    number near 1e10, inside COND_LIMIT but beyond the bordered
    certificate, and at n0 = 1e-30 each extra stream is worth adding."""
    rng = np.random.default_rng(3)
    a = 2.0 * complex_normal(rng, (3,))
    return np.stack([a] + [a + 1e-5 * complex_normal(rng, (3,)) for _ in range(3)], axis=1)


def test_uncertified_picks_are_made_by_the_kernel(monkeypatch):
    h = near_parallel_channel()
    scored = record_kernel_calls(monkeypatch)
    ledger, expected = OpLedger(), OpLedger()
    selected = gzf(h, 1e-30, 3, ledger).selected
    assert selected == reference_gzf(h, 1e-30, 3, expected) == (3, 2)
    assert ledger == expected
    # Both steps send every candidate to the kernel; the second one borders
    # a factor rebuilt after the uncertified first pick.
    assert scored == [[[3, 0], [3, 1], [3, 2]], [[3, 2, 0], [3, 2, 1]]]


def no_gain_channel(channel, gain):
    """``channel(theta)`` at the largest theta in [0.01, pi/2] that bisection
    finds with ``gain(theta)`` <= 0, and that gain."""
    lo, hi = 0.01, np.pi / 2
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gain(mid) <= 0.0 else (lo, mid)
    return channel(lo), gain(lo)


def stop_within_bound_channel():
    """Two users whose pair gains nothing over the strongest alone, to within
    one rounding: the bordered rate cannot tell "stop" from "continue"."""
    def channel(theta):
        return np.array([[2.0, 1.9 * np.cos(theta)], [0.0, 1.9 * np.sin(theta)]], complex)

    def gain(theta):
        h = channel(theta)
        pair = zf_sum_rate_batch(h, [[0, 1]], 1.0, OpLedger())[0]
        return pair - sum_spectral_efficiency(h[:, [0]], 1.0, OpLedger())

    return no_gain_channel(channel, gain)


def test_stop_within_the_error_bound_is_settled_by_the_kernel(monkeypatch):
    h, gain = stop_within_bound_channel()
    assert -1e-14 < gain <= 0.0
    scored = record_kernel_calls(monkeypatch)
    ledger, expected = OpLedger(), OpLedger()
    assert gzf(h, 1.0, 2, ledger).selected == reference_gzf(h, 1.0, 2, expected) == (0,)
    assert ledger == expected
    assert scored == [[[0, 1]]]


def stop_after_certified_pick_channel():
    """User 1 is orthogonal to users 0 and 2, so {0, 1} is certified at step
    two and its rate carries a bordered tolerance. Adding user 2 then gains
    nothing to within one rounding, so the stop is settled by the kernel's
    rates of both {0, 1, 2} and the current set {0, 1}."""
    def channel(theta):
        return np.array(
            [[2.0, 0.0, 1.8 * np.cos(theta)], [0.0, 1.9, 0.0], [0.0, 0.0, 1.8 * np.sin(theta)]],
            complex,
        )

    def gain(theta):
        h = channel(theta)
        rates = [zf_sum_rate_batch(h, [s], 1.0, OpLedger())[0] for s in ([0, 1, 2], [0, 1])]
        return rates[0] - rates[1]

    return no_gain_channel(channel, gain)


def test_stop_after_a_certified_pick_rescores_the_current_rate(monkeypatch):
    h, gain = stop_after_certified_pick_channel()
    assert -1e-14 < gain <= 0.0
    scored = record_kernel_calls(monkeypatch)
    ledger, expected = OpLedger(), OpLedger()
    assert gzf(h, 1.0, 3, ledger).selected == reference_gzf(h, 1.0, 3, expected) == (0, 1)
    assert ledger == expected
    assert scored == [[[0, 1, 2]], [[0, 1]]]


def beside_ordinary_trials(h, seed):
    """A stack of five trials of the shape of ``h``: ordinary Gaussian
    channels, with ``h`` in the middle."""
    hs = complex_normal(np.random.default_rng(seed), (5, *h.shape))
    hs[2] = h
    return hs


def gzf_chunk(hs, n0, k_max):
    """``_gzf_trials`` on the checked stack ``hs``."""
    return selectors._gzf_trials(*checked(hs), n0, k_max)


def chunked(hs, n0, k_max, size):
    """(selection, ledger) of each trial of ``_gzf_trials`` on ``hs`` in chunks of ``size``."""
    return [
        (outcome.selected, ledger)
        for lo in range(0, len(hs), size)
        for outcome, ledger in gzf_chunk(hs[lo : lo + size], n0, k_max)
    ]


def assert_chunks_equal_reference(hs, n0, k_max):
    """``_gzf_trials`` on ``hs`` in chunks of 1, 3 and all its trials gives
    each trial the selection and ledger of a lone ``reference_gzf`` call."""
    want = [(reference_gzf(h, n0, k_max, ledger := OpLedger()), ledger) for h in hs]
    for size in (1, 3, len(hs)):
        assert chunked(hs, n0, k_max, size) == want, size


def test_gzf_trials_equal_reference_at_every_chunk_size():
    # Each sweep instance, which may stop at any step or reach any path of
    # the engine, runs beside ordinary trials. It must get the reference's
    # selection and ledger in every chunk, and so must the ordinary trials,
    # whose lone runs the sweep of the lone ``gzf`` above checks against
    # the reference on instances drawn the same way.
    for i in range(1000):
        h, n0, k_max = sweep_instance(i)
        hs = beside_ordinary_trials(h, 9000 + i)
        want = chunked(hs, n0, k_max, 1)
        assert want[2] == (reference_gzf(h, n0, k_max, ledger := OpLedger()), ledger), i
        for size in (3, len(hs)):
            assert chunked(hs, n0, k_max, size) == want, (i, size)


@pytest.mark.parametrize(
    "build",
    [
        lambda: (*tie_channel()[:2], 8),
        lambda: (near_parallel_channel(), 1e-30, 3),
        lambda: (stop_within_bound_channel()[0], 1.0, 2),
        lambda: (stop_after_certified_pick_channel()[0], 1.0, 3),
    ],
    ids=["tie", "uncertified picks", "stop within the bound", "stop after a certified pick"],
)
def test_gzf_trials_settle_ties_and_stops_beside_ordinary_trials(build):
    h, n0, k_max = build()
    assert_chunks_equal_reference(beside_ordinary_trials(h, 9500), n0, k_max)


def drawn_beside_a_bad_channel(monkeypatch, algorithm, engine):
    """Each trial's (outcome, ledger) from ``harness._draw_chunk`` for
    ``algorithm`` alone on five scripted channels at M = 4, U = 10,
    K_max = 4, P0 = -90 dBm, whose trial 2 has a NaN entry; with the stack,
    n0, and the trial count of each call of the chunk engine ``engine``,
    which the harness reaches through ``selectors._select_trials``."""
    hs = complex_normal(np.random.default_rng(9600), (5, 4, 10))
    hs[2, 1, 3] = np.nan
    cfg = ExperimentConfig(
        m_values=(4,), u_values=(10,), p0_dbm_values=(-90.0,), algorithms=(algorithm,), k_max=4
    )
    point = grid_points(cfg)[0]
    [inst] = algo_instances(cfg)
    drawn = iter(hs)
    monkeypatch.setattr(harness, "generate_iid_rayleigh", lambda m, u, rng: next(drawn).copy())
    seen = []
    real = getattr(selectors, engine)

    def spy(stack, *args):
        seen.append(len(stack))
        return real(stack, *args)

    monkeypatch.setattr(selectors, engine, spy)
    _, chunk = harness._draw_chunk(cfg, point, [inst], list(range(5)))
    return hs, point.n0, [cell[inst][:2] for cell in chunk], seen


def assert_only_the_bad_trial_fails(hs, n0, outcomes, lone):
    assert [(str(outcome), ledger) for outcome, ledger in outcomes[2:3]] == [
        ("channel matrix contains a non-finite entry", OpLedger())
    ]
    for t in (0, 1, 3, 4):
        assert outcomes[t] == (lone(hs[t], n0, 4, ledger := OpLedger()), ledger), t


def test_gzf_trials_fail_only_the_trial_with_a_bad_channel(monkeypatch):
    # The chunk draw checks each channel once: the NaN trial fails with an
    # empty ledger, ``_gzf_trials`` runs once on the four valid trials, and
    # each of them gets the selection and ledger of a lone ``gzf`` call.
    hs, n0, outcomes, seen = drawn_beside_a_bad_channel(monkeypatch, "gzf", "_gzf_trials")
    assert seen == [4]
    assert_only_the_bad_trial_fails(hs, n0, outcomes, gzf)


@pytest.mark.parametrize("n0", [np.nan, 0.0, -1.0])
def test_gzf_trials_reject_a_bad_noise_power_for_the_whole_call(n0):
    hs = complex_normal(np.random.default_rng(9700), (3, 4, 10))
    with pytest.raises(ValueError) as exc:
        select_trials(Algorithm.GZF, hs, n0, 4)
    assert str(exc.value) == f"n0 must be positive, got {n0}"


def exhaustive_chunk(hs, n0, k_max):
    """``_exhaustive_trials`` on the checked stack ``hs``."""
    return selectors._exhaustive_trials(checked(hs)[0], n0, k_max)


def mcore_plus_chunk(hs, n0, k_max):
    """``_mcore_plus_trials`` on the checked stack ``hs``."""
    return selectors._mcore_plus_trials(*checked(hs), n0, k_max)


# Each subset-search engine and its lone call.
SUBSET_PAIRS = [(exhaustive_chunk, exhaustive_oracle), (mcore_plus_chunk, mcore_plus)]
SUBSET_ENGINES = pytest.mark.parametrize("engine, lone", SUBSET_PAIRS, ids=["exhaustive", "mcore_plus"])


def engine_chunked(engine, hs, n0, k_max, size):
    """(selection, ledger) of each trial of ``engine`` on ``hs`` in chunks of ``size``."""
    return [
        (outcome.selected, ledger)
        for lo in range(0, len(hs), size)
        for outcome, ledger in engine(hs[lo : lo + size], n0, k_max)
    ]


@SUBSET_ENGINES
def test_subset_engines_equal_reference_at_every_chunk_size(engine, lone):
    # Each subset-search instance, whose subsets may reach the kernel at any
    # level or tie, runs in the middle of four ordinary trials. In every
    # chunk, every trial gets the selection and ledger of a lone call with
    # the reference loop in place of the search.
    for i in range(168):
        h, n0, k_max = subset_instance(i)
        hs = beside_ordinary_trials(h, 9800 + i)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(selectors, "_best_subset", reference_search)
            want = [(lone(h_t, n0, k_max, ledger := OpLedger()).selected, ledger) for h_t in hs]
        for size in (1, 3, len(hs)):
            assert engine_chunked(engine, hs, n0, k_max, size) == want, (i, size)


@pytest.mark.parametrize(
    "algorithm, engine, lone",
    [("exhaustive", "_exhaustive_trials", exhaustive_oracle),
     ("mcore_plus", "_mcore_plus_trials", mcore_plus)],
    ids=["exhaustive", "mcore_plus"],
)
def test_subset_engines_fail_only_the_trial_with_a_bad_channel(monkeypatch, algorithm, engine, lone):
    # As for ``gzf``: the NaN trial fails at the chunk draw, the engine runs
    # once on the four valid trials, and each gets its lone call's answer.
    hs, n0, outcomes, seen = drawn_beside_a_bad_channel(monkeypatch, algorithm, engine)
    assert seen == [4]
    assert_only_the_bad_trial_fails(hs, n0, outcomes, lone)


@SUBSET_ENGINES
@pytest.mark.parametrize("n0", [np.nan, 0.0, -1.0])
def test_subset_engines_reject_a_bad_noise_power_for_the_whole_call(engine, lone, n0):
    # The entry checks every engine's arguments, before the engine runs.
    algorithm = {exhaustive_chunk: Algorithm.EXHAUSTIVE, mcore_plus_chunk: Algorithm.MCORE_PLUS}
    hs = complex_normal(np.random.default_rng(9700), (3, 4, 10))
    with pytest.raises(ValueError) as exc:
        select_trials(algorithm[engine], hs, n0, 4)
    assert str(exc.value) == f"n0 must be positive, got {n0}"


@pytest.mark.parametrize("block", [1, 7, 50, 1024, None])
def test_subset_blocks_mix_trials_within_their_size(monkeypatch, block):
    # A chunk of five trials at M = 4, U = 12, one with a repeated column.
    hs = beside_ordinary_trials(instance(3, 4, 12)[0], 9900)
    hs[2, :, 5] = hs[2, :, 1]
    n0 = noise_power(LinkBudget(p0_dbm=-90.0))
    want = {engine: engine_chunked(engine, hs, n0, 4, 1) for engine, _ in SUBSET_PAIRS}
    size = set_subset_blocks(monkeypatch, block)
    queued = []
    keep = selectors._SubsetSearch._keep

    def spy(search, sets, rates, tol):
        queued.append((sets.shape, len(np.unique(sets[:, 0] // search.n))))
        keep(search, sets, rates, tol)

    monkeypatch.setattr(selectors._SubsetSearch, "_keep", spy)
    for engine, _ in SUBSET_PAIRS:
        queued.clear()
        assert engine_chunked(engine, hs, n0, 4, len(hs)) == want[engine]
        # Every level queues blocks of its own size, and a block of more
        # than one row takes the rows of the next trial where one ends.
        assert {k for (_, k), _ in queued} == {1, 2, 3, 4}
        assert all(rows <= size(4, k) for (rows, k), _ in queued)
        assert (max(trials for _, trials in queued) > 1) == (size(4, 1) > 1)


def test_column_near_the_float64_floor_selects_without_warnings():
    # A column of norm about 1e-160 has an energy near the float64 floor:
    # its bordered inverse diagonal and its kernel entries overflow to
    # infinity, and the guards must reject its sets without a warning,
    # which pyproject's filter turns into an error.
    h = generate_iid_rayleigh(4, 12, stream(6100))
    h[:, 5] *= 1e-160
    n0 = noise_power(LinkBudget(p0_dbm=-90.0))
    # The per-set references overflow as well; only the package must not warn.
    with np.errstate(over="ignore"), pytest.MonkeyPatch.context() as mp:
        want = [(reference_gzf(h, n0, 4, ledger := OpLedger()), ledger)]
        mp.setattr(selectors, "_best_subset", reference_search)
        want += [
            (fn(h, n0, 4, ledger := OpLedger()).selected, ledger)
            for fn in (exhaustive_oracle, mcore_plus)
        ]
    got = [
        (fn(h, n0, 4, ledger := OpLedger()).selected, ledger)
        for fn in (gzf, exhaustive_oracle, mcore_plus)
    ]
    assert got == want
