import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimosel import selectors
from mimosel.channel import generate_iid_rayleigh
from mimosel.metrics import SingularSetError, sum_spectral_efficiency, zf_post_snr
from mimosel.numerics import OpLedger, gram_schmidt_extend
from mimosel.seeding import derive_seed, stream
from mimosel.selectors import (
    Algorithm,
    SelectionConfig,
    exhaustive_oracle,
    gzf,
    mcore_plus,
    random_select,
    run_selection,
    ss_us,
    sus,
)


def checked(hs):
    """A stack of channels as the chunk engines take it: each channel checked
    by ``_as_channel``, the check that the harness makes on each slice of
    the channels it draws, and the (T, U) column norms."""
    pairs = [selectors._as_channel(h) for h in hs]
    return np.stack([h for h, _ in pairs]), np.stack([norms for _, norms in pairs])


def select_trials(algorithm, hs, n0, k, rng_seeds=None, variants=(None,), epsilon=None):
    """``selectors._select_trials``, the one entry that checks the arguments
    of every chunk engine, on the checked stack ``hs``."""
    return selectors._select_trials(
        algorithm, *checked(hs), n0, k, rng_seeds, list(variants), epsilon
    )


def ssus_cfg(**kw):
    kw.setdefault("algorithm", Algorithm.SSUS)
    kw.setdefault("k_max", 4)
    return SelectionConfig(**kw)


def brute_force_best(h, n0, k_max):
    """Reference maximizer over every subset, independent of the oracle's
    bookkeeping: straight enumeration with lexicographic tie-break."""
    m, u = h.shape
    best_rate, best = -np.inf, None
    for size in range(1, min(k_max, m, u) + 1):
        for combo in itertools.combinations(range(u), size):
            try:
                rate = sum_spectral_efficiency(h[:, list(combo)], n0, OpLedger())
            except SingularSetError:
                continue
            if rate > best_rate:
                best_rate, best = rate, combo
    return best, best_rate


class TestSpaceSplitSelection:
    def test_single_candidate(self):
        h = np.array([[1.0 + 1j]], dtype=complex)
        res = ss_us(h, ssus_cfg(num_bases=3, alpha=0.9), 1.0, OpLedger())
        assert res.selected == (0,)
        assert res.k_b == 1

    def test_hand_example_accepting(self):
        # Users (2,0), (0,1), (1,1): the seed is user 0; in the (unique up
        # to phase) second direction user 2 wins the weighted metric and
        # clears alpha = 0.5.
        h = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)
        res = ss_us(h, ssus_cfg(k_max=2, num_bases=1, alpha=0.5, rng_seed=3), 1.0, OpLedger())
        assert res.selected == (0, 2)
        assert res.matched_direction == (0, 1)
        assert res.weights[1] == pytest.approx(math.log2(3.0) / math.sqrt(2), rel=1e-12)

    def test_hand_example_threshold_skips_direction(self):
        # Same instance with alpha = 0.8: user 2 is still the argmax but
        # fails the cone test, so the direction stays unfilled.
        h = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)
        res = ss_us(h, ssus_cfg(k_max=2, num_bases=1, alpha=0.8, rng_seed=3), 1.0, OpLedger())
        assert res.selected == (0,)
        assert res.k_b == 1

    def test_orthogonal_equal_norm_pair(self):
        h = np.eye(2, dtype=complex) * 1.7
        res = ss_us(h, ssus_cfg(k_max=2, num_bases=8, alpha=0.001, rng_seed=1), 1.0, OpLedger())
        assert res.selected == (0, 1)
        # every basis scores identically, so the tie goes to basis 0
        assert res.winning_basis == 0

    def test_seed_is_max_norm_lowest_index_on_tie(self):
        h = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], dtype=complex)
        res = ss_us(h, ssus_cfg(k_max=2, num_bases=1, alpha=0.1, rng_seed=0), 1.0, OpLedger())
        assert res.selected[0] == 0

    def test_k_max_one_returns_seed_only(self):
        h = generate_iid_rayleigh(4, 10, stream(8))
        res = ss_us(h, ssus_cfg(k_max=1, num_bases=5, alpha=0.3), 1.0, OpLedger())
        norms = np.linalg.norm(h, axis=0)
        assert res.selected == (int(np.argmax(norms)),)

    def test_single_antenna_returns_seed_only(self):
        h = generate_iid_rayleigh(1, 6, stream(9))
        res = ss_us(h, ssus_cfg(k_max=4, num_bases=2, alpha=0.3), 1.0, OpLedger())
        assert res.k_b == 1

    def test_deterministic(self):
        h = generate_iid_rayleigh(4, 20, stream(10))
        cfg = ssus_cfg(num_bases=6, alpha=0.4, rng_seed=77)
        a = ss_us(h, cfg, 0.5, OpLedger())
        b = ss_us(h, cfg, 0.5, OpLedger())
        assert a == b

    def test_cone_guarantee_and_reconstruction(self):
        # Every non-seed selected user clears alpha against its recorded
        # direction in the winning basis, which we rebuild from its stream.
        n0 = 0.25
        for trial in range(20):
            h = generate_iid_rayleigh(8, 40, stream(100, trial))
            cfg = ssus_cfg(k_max=8, num_bases=4, alpha=0.45, rng_seed=trial)
            res = ss_us(h, cfg, n0, OpLedger())
            norms = np.linalg.norm(h, axis=0)
            seed_user = int(np.argmax(norms))
            assert res.selected[0] == seed_user
            basis = gram_schmidt_extend(
                h[:, seed_user] / norms[seed_user],
                stream(cfg.rng_seed, res.winning_basis),
                OpLedger(),
            )
            for user, direction in zip(res.selected[1:], res.matched_direction[1:]):
                corr = abs(np.vdot(h[:, user], basis[:, direction])) / norms[user]
                assert corr >= cfg.alpha - 1e-12

    def test_mean_metric_is_mean_of_weights(self):
        h = generate_iid_rayleigh(4, 15, stream(11))
        res = ss_us(h, ssus_cfg(num_bases=3, alpha=0.4, rng_seed=5), 1.0, OpLedger())
        assert res.mean_metric == pytest.approx(sum(res.weights) / len(res.weights), rel=1e-12)

    def test_winning_metric_nondecreasing_in_num_bases(self):
        h = generate_iid_rayleigh(8, 30, stream(12))
        metrics = []
        for l in (1, 2, 4, 8, 16):
            res = ss_us(h, ssus_cfg(k_max=8, num_bases=l, alpha=0.45, rng_seed=9), 0.5, OpLedger())
            metrics.append(res.mean_metric)
        assert all(b >= a for a, b in zip(metrics, metrics[1:]))

    def test_scale_covariance(self):
        h = generate_iid_rayleigh(4, 12, stream(13))
        cfg = ssus_cfg(num_bases=3, alpha=0.45, rng_seed=21)
        base = ss_us(h, cfg, 0.8, OpLedger())
        c = 3.7
        scaled = ss_us(c * h, cfg, c**2 * 0.8, OpLedger())
        assert scaled.selected == base.selected
        assert scaled.matched_direction == base.matched_direction

    def test_rejects_zero_column(self):
        h = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="all-zero column"):
            ss_us(h, ssus_cfg(), 1.0, OpLedger())


class TestSemiOrthogonalSelection:
    def cfg(self, eps, k_max=4):
        return SelectionConfig(algorithm=Algorithm.SUS, k_max=k_max, sus_epsilon=eps)

    def test_single_candidate(self):
        h = np.array([[2.0]], dtype=complex)
        assert sus(h, self.cfg(0.3), 1.0, OpLedger()).selected == (0,)

    def test_orthogonal_pair_both_selected(self):
        h = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
        for eps in (0.05, 0.3, 0.9):
            assert sus(h, self.cfg(eps), 1.0, OpLedger()).selected == (0, 1)

    def test_parallel_pair_keeps_stronger(self):
        h = np.array([[2.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert sus(h, self.cfg(0.3), 1.0, OpLedger()).selected == (0,)

    def test_k_max_respected(self):
        h = np.eye(6, dtype=complex)
        res = sus(h, self.cfg(0.5, k_max=3), 1.0, OpLedger())
        assert res.k_b == 3

    def test_selected_survivors_are_semiorthogonal(self):
        for trial in range(10):
            h = generate_iid_rayleigh(8, 40, stream(200, trial))
            res = sus(h, self.cfg(0.45, k_max=8), 1.0, OpLedger())
            cols = [h[:, i] for i in res.selected]
            # each later pick had span-correlation <= eps at selection time;
            # check the pairwise correlations stay clearly below 1
            for a, b in itertools.combinations(cols, 2):
                corr = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
                assert corr < 0.999


def reference_sus(h, k_max, epsilon, ledger):
    """``sus`` as a loop over one channel's pool: the reference for ``_sus_trials``."""
    hm, norms = selectors._as_channel(h)
    m, u = hm.shape
    ledger.complex_macs += u * m  # the column norms
    seed_user = int(np.argmax(norms))
    ledger.comparisons += max(u - 1, 0)

    selected = [seed_user]
    ortho = [hm[:, seed_user] / norms[seed_user]]
    ledger.divisions += m
    pool = np.delete(np.arange(u), seed_user)
    k_cap = min(k_max, m, u)
    while len(selected) < k_cap and pool.size:
        q = np.column_stack(ortho)
        coef = q.conj().T @ hm[:, pool]
        ledger.complex_macs += q.shape[1] * m * pool.size
        proj_energy = np.sum(np.abs(coef) ** 2, axis=0)
        span_corr = np.sqrt(np.minimum(proj_energy / norms[pool] ** 2, 1.0))
        ledger.divisions += pool.size
        ledger.comparisons += pool.size
        keep = span_corr <= epsilon
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
    return selectors.SelectionResult(selected=tuple(selected))


def sus_stack(m, u, seed):
    """Six M x U channels whose ``sus`` pools empty at different steps.

    Trial 0 is i.i.d.; trials 1 to 3 span subspaces of rank 1 to 3, so
    every pool empties by step r; trial 4 repeats the M axes, so norms and
    residuals tie and each axis's copies are parallel; trial 5 is i.i.d.
    with one user scaled up.
    """
    rng = np.random.default_rng(seed)

    def normal(*shape):
        return rng.standard_normal((*shape, 2)).view(np.complex128)[..., 0]

    axes = np.eye(m, dtype=complex)[:, np.arange(u) % m]
    strong = normal(m, u)
    strong[:, rng.integers(u)] *= 4.0
    low_rank = [normal(m, r) @ normal(r, u) for r in (1, 2, 3)]
    return np.stack([normal(m, u), *low_rank, axes, strong])


SUS_EPSILONS = (0.05, 0.3, 0.45, 0.99)


class TestSusTrials:
    """``_sus_trials`` runs ``sus`` on a stack in lockstep; each trial gets
    the selection and the charges of the per-trial loop ``reference_sus``."""

    @pytest.mark.parametrize("u", [1, 2, 10, 100])
    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_equals_the_reference_loop(self, m, u):
        stacks, sizes = 0, set()
        for epsilon in SUS_EPSILONS:
            # k_max below M where M allows it, and above it.
            for k_max in sorted({max(1, m - 1), m + 3}):
                for seed in range(2):
                    hs = sus_stack(m, u, (6100, m, u, seed))
                    got = selectors._sus_trials(*checked(hs), k_max, epsilon)
                    want = []
                    for h in hs:
                        ledger = OpLedger()
                        want.append((reference_sus(h, k_max, epsilon, ledger), ledger))
                    assert got == want, (epsilon, k_max, seed)
                    sizes.add(tuple(result.k_b for result, _ in want))
                    stacks += 1
        assert stacks >= 16
        if min(m, u) >= 4:
            # Within one stack, pools empty at different steps.
            assert any(len(set(row)) >= 3 for row in sizes)

    def test_lone_call_is_a_stack_of_one(self):
        for seed in range(20):
            h = generate_iid_rayleigh(4, 10, stream(6200, seed))
            cfg = SelectionConfig(Algorithm.SUS, k_max=4, sus_epsilon=0.45)
            got = sus(h, cfg, 1.0, ledger := OpLedger())
            want = reference_sus(h, 4, 0.45, want_ledger := OpLedger())
            assert (got, ledger) == (want, want_ledger)

    def test_correlation_equal_to_epsilon_stays_in_the_pool(self):
        # User 1's span correlation is 0.75 / 1.25 = 0.6 exactly, so it
        # survives a filter at epsilon = 0.6; user 2's 0.8 does not.
        h = np.array([[2.0, 0.75, 1.0], [0.0, 1.0, 0.75]], dtype=complex)
        hs = h[np.newaxis]
        [(result, _)] = selectors._sus_trials(*checked(hs), 2, 0.6)
        assert result.selected == (0, 1)
        assert reference_sus(h, 2, 0.6, OpLedger()).selected == (0, 1)

    @pytest.mark.parametrize("m, u, k_max", [(2, 10, 2), (4, 10, 4), (8, 30, 5), (8, 100, 8)])
    def test_chunk_does_not_change_the_answer(self, m, u, k_max):
        hs = np.concatenate([sus_stack(m, u, (6300, m, u, seed)) for seed in range(2)])
        hs, norms = checked(hs)
        for epsilon in SUS_EPSILONS:
            want = selectors._sus_trials(hs, norms, k_max, epsilon)
            for size in (1, 3, 5):
                got = []
                for lo in range(0, len(hs), size):
                    part = slice(lo, lo + size)
                    got += selectors._sus_trials(hs[part], norms[part], k_max, epsilon)
                assert got == want, (epsilon, size)

    @pytest.mark.parametrize("n0", [math.nan, 0.0, -1.0])
    def test_rejects_a_bad_noise_power_for_the_whole_call(self, n0):
        hs = sus_stack(4, 10, 6400)
        with pytest.raises(ValueError) as exc:
            select_trials(Algorithm.SUS, hs, n0, 4, epsilon=0.3)
        assert str(exc.value) == f"n0 must be positive, got {n0}"

    @pytest.mark.parametrize(
        "k_max, epsilon, message",
        [(0, 0.3, "k_max must be >= 1, got 0"),
         (4, 1.0, "sus_epsilon must lie in (0, 1), got 1.0")],
    )
    def test_rejects_bad_tunables_for_the_whole_call(self, k_max, epsilon, message):
        with pytest.raises(ValueError) as exc:
            select_trials(Algorithm.SUS, sus_stack(4, 10, 6500), 1.0, k_max, epsilon=epsilon)
        assert str(exc.value) == message


class TestGreedyZeroForcing:
    def test_single_candidate(self):
        h = np.array([[1.0], [1.0]], dtype=complex)
        assert gzf(h, 1.0, 2, OpLedger()).selected == (0,)

    def test_identity_selects_all(self):
        m = 4
        res = gzf(np.eye(m, dtype=complex), 1.0, m, OpLedger())
        assert set(res.selected) == set(range(m))

    def test_parallel_equal_norm_pair_selects_one(self):
        h = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        res = gzf(h, 1.0, 2, OpLedger())
        assert res.selected == (0,)

    def test_rate_nondecreasing_over_iterations(self):
        for trial in range(10):
            h = generate_iid_rayleigh(6, 25, stream(300, trial))
            res = gzf(h, 0.5, 6, OpLedger())
            rates = [
                sum_spectral_efficiency(h[:, list(res.selected[: i + 1])], 0.5, OpLedger())
                for i in range(res.k_b)
            ]
            assert all(b > a for a, b in zip(rates, rates[1:]))


class TestMcorePlus:
    def test_single_candidate(self):
        h = np.array([[1.0 + 0.5j]], dtype=complex)
        assert mcore_plus(h, 1.0, 1, OpLedger()).selected == (0,)

    def test_identity_selects_all(self):
        m = 3
        res = mcore_plus(np.eye(m, dtype=complex), 1.0, m, OpLedger())
        assert res.selected == tuple(range(m))

    def test_hand_example(self):
        h = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)
        res = mcore_plus(h, 1.0, 2, OpLedger())
        assert res.selected == (0, 1)

    def test_pool_restricted_to_strongest(self):
        # Eight strong, nearly parallel users crowd out a weak orthogonal
        # one: with M=2 the pool keeps only the 4 strongest.
        rng = np.random.default_rng(31)
        base = np.array([1.0, 0.02], dtype=complex)
        strong = np.column_stack(
            [10.0 * (base + 0.01 * rng.standard_normal(2)) for _ in range(8)]
        )
        weak = np.array([[0.0], [0.1]], dtype=complex)
        h = np.hstack([strong, weak])
        res = mcore_plus(h, 1.0, 2, OpLedger())
        assert 8 not in res.selected

    def test_rejects_large_arrays(self):
        # Its 20 shortlisted users have 1,026,875 subsets of at most 14.
        h = generate_iid_rayleigh(20, 20, stream(1))
        with pytest.raises(ValueError, match="mcore_plus search space 1026875 exceeds cap"):
            mcore_plus(h, 1.0, 14, OpLedger())

    def test_honours_k_max(self):
        # Every set of s orthogonal unit users scores s bits at n0 = 1.
        h = np.eye(4, dtype=complex)
        for k_max in range(1, 5):
            assert mcore_plus(h, 1.0, k_max, OpLedger()).selected == tuple(range(k_max))

    def test_rejects_k_max_below_one(self):
        with pytest.raises(ValueError, match="k_max"):
            mcore_plus(np.eye(2, dtype=complex), 1.0, 0, OpLedger())


class TestRandomSelect:
    def test_all_users_when_k_equals_u(self):
        h = generate_iid_rayleigh(6, 4, stream(2))
        assert random_select(h, 4, stream(0)).selected == (0, 1, 2, 3)

    def test_deterministic(self):
        h = generate_iid_rayleigh(4, 5, stream(3))
        assert random_select(h, 1, stream(42)) == random_select(h, 1, stream(42))

    def test_uniform_frequencies(self):
        h = generate_iid_rayleigh(4, 5, stream(4))
        counts = np.zeros(5)
        draws = 10_000
        for i in range(draws):
            counts[random_select(h, 1, stream(5, i)).selected[0]] += 1
        assert np.all(np.abs(counts / draws - 0.2) <= 0.02)

    def test_rejects_out_of_range_k(self):
        h = generate_iid_rayleigh(2, 5, stream(5))
        with pytest.raises(ValueError):
            random_select(h, 3, stream(0))  # k > M
        with pytest.raises(ValueError):
            random_select(h, 0, stream(0))


class TestRandomTrials:
    """``_random_trials`` draws each trial's users from its stream, set on one
    generator by ``seeding._seeded``: its picks are ``random_select``'s on
    ``stream(seed)``."""

    # Seeds of 0, 1 and 2 uint32 words, the edges between them, and chained seeds.
    SEEDS = [*range(30), 2**32 - 1, 2**32, 2**64 - 1, *(derive_seed(6600, t) for t in range(30))]

    @pytest.mark.parametrize("m, u", [(1, 1), (2, 10), (4, 10), (8, 100), (16, 20)])
    def test_picks_equal_lone_calls_on_the_same_streams(self, m, u):
        hs = np.stack([generate_iid_rayleigh(m, u, stream(6700, m, u, s)) for s in self.SEEDS])
        for k in range(1, min(m, u) + 1):
            got = selectors._random_trials(checked(hs)[0], k, self.SEEDS)
            want = [random_select(h, k, stream(seed)) for h, seed in zip(hs, self.SEEDS)]
            assert got == [(result, OpLedger()) for result in want], k

    @pytest.mark.parametrize(
        "n0, k, message",
        [(math.nan, 2, "n0 must be positive, got nan"),
         (0.0, 2, "n0 must be positive, got 0.0"),
         (-1.0, 2, "n0 must be positive, got -1.0"),
         (1.0, 0, "k_max must be >= 1, got 0")],
    )
    def test_rejects_bad_arguments_for_the_whole_call(self, n0, k, message):
        hs = np.stack([generate_iid_rayleigh(4, 10, stream(6800, t)) for t in range(3)])
        with pytest.raises(ValueError) as exc:
            select_trials(Algorithm.RANDOM, hs, n0, k, [1, 2, 3])
        assert str(exc.value) == message

    def test_k_above_min_m_u_draws_min_m_u_users(self):
        # K caps the draw, as k_max caps every other selector's set; a
        # ``random.k`` above min(M, U) is skipped by the sweep instead, and
        # ``random_select`` refuses it.
        hs = np.stack([generate_iid_rayleigh(4, 10, stream(6800, t)) for t in range(3)])
        want = [[pair] for pair in selectors._random_trials(hs, 4, [1, 2, 3])]
        assert select_trials(Algorithm.RANDOM, hs, 1.0, 5, [1, 2, 3]) == want
        with pytest.raises(ValueError) as exc:
            random_select(hs[0], 5, stream(1))
        assert str(exc.value) == "random selection needs K <= min(M, U) = 4, configured K=5"

    def test_seed_count_must_match_the_stack(self):
        hs = np.stack([generate_iid_rayleigh(4, 10, stream(6800, t)) for t in range(3)])
        for algorithm, variants in ((Algorithm.RANDOM, [None]), (Algorithm.SSUS, [(1, 0.45)])):
            with pytest.raises(ValueError) as exc:
                select_trials(algorithm, hs, 1.0, 4, [1, 2], variants)
            assert str(exc.value) == "3 channels need as many seeds, got 2"


class TestExhaustiveOracle:
    def test_single_candidate(self):
        h = np.array([[1.0], [2.0]], dtype=complex)
        assert exhaustive_oracle(h, 1.0, 2, OpLedger()).selected == (0,)

    def test_identity_selects_all(self):
        m = 4
        assert exhaustive_oracle(np.eye(m, dtype=complex), 1.0, m, OpLedger()).selected == tuple(
            range(m)
        )

    def test_matches_independent_enumeration(self):
        for trial in range(10):
            h = generate_iid_rayleigh(3, 7, stream(400, trial))
            res = exhaustive_oracle(h, 0.5, 3, OpLedger())
            want, want_rate = brute_force_best(h, 0.5, 3)
            assert res.selected == want
            got_rate = sum_spectral_efficiency(h[:, list(res.selected)], 0.5, OpLedger())
            assert got_rate == want_rate

    def test_three_user_hand_instance(self):
        h = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)
        res = exhaustive_oracle(h, 1.0, 2, OpLedger())
        assert res.selected == (0, 1)

    def test_rejects_oversized_search_space(self):
        h = generate_iid_rayleigh(8, 100, stream(6))
        with pytest.raises(ValueError, match="exceeds cap"):
            exhaustive_oracle(h, 1.0, 8, OpLedger())


class TestCrossAlgorithmProperties:
    def all_results(self, h, n0, k_max, seed):
        cfgs = {
            "ssus": SelectionConfig(Algorithm.SSUS, k_max=k_max, num_bases=10,
                                    alpha=0.45, rng_seed=seed),
            "sus": SelectionConfig(Algorithm.SUS, k_max=k_max, sus_epsilon=0.3),
            "gzf": SelectionConfig(Algorithm.GZF, k_max=k_max),
            "mcore_plus": SelectionConfig(Algorithm.MCORE_PLUS, k_max=k_max),
            "random": SelectionConfig(Algorithm.RANDOM, k_max=k_max, rng_seed=seed),
        }
        return {
            name: run_selection(h, cfg, n0, OpLedger()) for name, cfg in cfgs.items()
        }

    def test_indices_valid_and_bounded(self):
        for trial in range(10):
            m, u = 4, 12
            h = generate_iid_rayleigh(m, u, stream(500, trial))
            for name, res in self.all_results(h, 0.5, m, trial).items():
                assert len(set(res.selected)) == res.k_b
                assert all(0 <= i < u for i in res.selected)
                assert 1 <= res.k_b <= min(m, u)

    def test_no_heuristic_beats_oracle(self):
        n0 = 0.25178508235883346  # 6 dB point
        for trial in range(15):
            m, u = 4, 8
            h = generate_iid_rayleigh(m, u, stream(600, trial))
            oracle = exhaustive_oracle(h, n0, m, OpLedger())
            oracle_se = sum_spectral_efficiency(h[:, sorted(oracle.selected)], n0, OpLedger())
            for name, res in self.all_results(h, n0, m, trial).items():
                se = sum_spectral_efficiency(h[:, sorted(res.selected)], n0, OpLedger())
                assert se <= oracle_se, f"{name} beat the oracle on trial {trial}"

    @settings(max_examples=80, deadline=None, database=None)
    @given(st.data())
    def test_every_selector_within_k_max_and_oracle(self, data):
        m = data.draw(st.integers(1, 5), label="M")
        u = data.draw(st.integers(1, 8), label="U")
        k_max = data.draw(st.integers(1, m), label="K_max")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        n0 = data.draw(st.sampled_from((0.01, 0.25178508235883346, 4.0)), label="n0")
        h = generate_iid_rayleigh(m, u, stream(seed))
        oracle = exhaustive_oracle(h, n0, k_max, OpLedger())
        oracle_se = sum_spectral_efficiency(h[:, sorted(oracle.selected)], n0, OpLedger())
        for algorithm in Algorithm:
            cfg = SelectionConfig(algorithm, k_max=k_max, num_bases=3, rng_seed=seed)
            res = run_selection(h, cfg, n0, OpLedger())
            assert len(set(res.selected)) == res.k_b, algorithm
            assert 1 <= res.k_b <= k_max, algorithm
            # Scored on sorted columns, as the harness scores every cell.
            se = sum_spectral_efficiency(h[:, sorted(res.selected)], n0, OpLedger())
            assert se <= oracle_se, algorithm

    def test_dispatch_rejects_unknown(self):
        h = generate_iid_rayleigh(2, 3, stream(7))
        cfg = SelectionConfig(Algorithm.SSUS, k_max=2)
        object.__setattr__(cfg, "algorithm", "bogus")
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_selection(h, cfg, 1.0, OpLedger())


class TestSelectionConfigValidation:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            SelectionConfig(Algorithm.SSUS, k_max=4, alpha=0.0)
        with pytest.raises(ValueError):
            SelectionConfig(Algorithm.SSUS, k_max=4, alpha=1.0)

    def test_num_bases_and_k_max(self):
        with pytest.raises(ValueError):
            SelectionConfig(Algorithm.SSUS, k_max=0)
        with pytest.raises(ValueError):
            SelectionConfig(Algorithm.SSUS, k_max=4, num_bases=0)

    def test_sus_epsilon(self):
        with pytest.raises(ValueError):
            SelectionConfig(Algorithm.SUS, k_max=4, sus_epsilon=1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 8])
@pytest.mark.parametrize(
    "bad", [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 1.0), complex(0.0, -np.inf)]
)
def test_non_finite_channel_is_one_value_error(k, bad):
    h = generate_iid_rayleigh(8, k, stream(5100, k))
    h[3, k - 1] = bad
    calls = [
        lambda: zf_post_snr(h, 1.0, OpLedger()),
        lambda: sum_spectral_efficiency(h, 1.0, OpLedger()),
    ] + [
        lambda algo=algo: run_selection(h, SelectionConfig(algo, k_max=k), 1.0, OpLedger())
        for algo in Algorithm
    ]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert type(exc.value) is ValueError
        assert str(exc.value) == "channel matrix contains a non-finite entry"


@pytest.mark.parametrize(
    "scale, message",
    [
        (1e-170, "channel matrix contains an all-zero column, or one whose norm underflows"),
        (1e160, "channel matrix contains a column whose norm overflows"),
    ],
)
def test_column_norm_out_of_float64_range_is_one_value_error(scale, message):
    # At 1e-170 every entry squares to below the smallest subnormal, so each
    # column norm is 0.0 although no entry is zero; at 1e160 each overflows.
    h = generate_iid_rayleigh(4, 6, stream(1)) * scale
    assert np.isfinite(h).all() and h.all()
    for algo in Algorithm:
        with pytest.raises(ValueError) as exc:
            run_selection(h, SelectionConfig(algo, k_max=4), 1.0, OpLedger())
        assert str(exc.value) == message


@pytest.mark.parametrize("n0", [math.nan, 0.0, -1.0])
def test_noise_power_that_is_not_positive_is_one_value_error(n0):
    # ``sus`` and ``random`` do not read n0, yet reject it as the others do.
    h = generate_iid_rayleigh(4, 6, stream(2))
    for algo in Algorithm:
        with pytest.raises(ValueError) as exc:
            run_selection(h, SelectionConfig(algo, k_max=4), n0, OpLedger())
        assert str(exc.value) == f"n0 must be positive, got {n0}", algo
