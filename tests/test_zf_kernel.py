"""The batched ZF scoring kernel against the per-set path it replaces.

``reference_zf_post_snr`` is the single-set ZF factorisation that
``zf_post_snr`` ran before it became a call of the batched kernel, and
``reference_sum_se`` the sum rate built on it. ``reference_gzf`` and
``reference_best_subset`` are the per-candidate loops that ``gzf`` and the
subset enumeration of ``mcore_plus`` and ``exhaustive_oracle`` ran before
they scored candidates in batches; they score with ``reference_sum_se``.
``reference_zf_snr`` is the batched kernel as it was when every set was
guarded by its eigenvalues; the kernel now certifies most sets from their
Cholesky factors instead. The package must reproduce their SNRs, masks,
selections and op-ledger totals exactly, not approximately.
"""

import itertools

import numpy as np
import pytest

from mimosel import metrics, selectors
from mimosel.channel import LinkBudget, generate_iid_rayleigh, noise_power
from mimosel.metrics import (
    COND_LIMIT,
    SingularSetError,
    sum_spectral_efficiency,
    zf_post_snr,
    zf_sum_rate_batch,
)
from mimosel.numerics import OpLedger
from mimosel.seeding import stream
from mimosel.selectors import (
    MCORE_MAX_ANTENNAS,
    exhaustive_oracle,
    gzf,
    mcore_plus,
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
        mp.setattr(selectors, "_best_subset", reference_best_subset)
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
        if m <= MCORE_MAX_ANTENNAS:
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
    ],
)
def test_kernel_rejects_bad_arguments(sets, n0, message):
    h = generate_iid_rayleigh(4, 6, stream(2))
    with pytest.raises(ValueError, match=message):
        zf_sum_rate_batch(h, sets, n0, OpLedger())


def test_tie_across_sizes_resolves_to_smaller_tuple(monkeypatch):
    # (2,) and (0, 3) share the best rate; (0, 3) < (2,) as tuples. (1, 2)
    # ties too but comes later in the same size. Singular sets score -inf.
    rate_of = {(2,): 5.0, (0, 3): 5.0, (1, 2): 5.0, (0, 1): -np.inf}

    def fake_kernel(h, sets, n0, ledger):
        return np.array([rate_of.get(tuple(s), 1.0) for s in sets])

    monkeypatch.setattr(selectors, "zf_sum_rate_batch", fake_kernel)
    ledger = OpLedger()
    assert selectors._best_subset(None, range(4), 2, 1.0, ledger) == (0, 3)
    assert ledger.comparisons == 4 + 6 - 1


@pytest.mark.parametrize("block", [1, 7, 50])
def test_block_boundaries_do_not_change_the_answer(monkeypatch, block):
    h, n0 = instance(3, 4, 12)
    h[:, 5] = h[:, 1]
    whole = OpLedger()
    expected = exhaustive_oracle(h, n0, 4, whole).selected
    monkeypatch.setattr(selectors, "_SUBSET_BLOCK", block)
    split = OpLedger()
    assert exhaustive_oracle(h, n0, 4, split).selected == expected
    assert split == whole


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
