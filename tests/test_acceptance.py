"""Acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with ``pytest -s`` or on failure). Monte Carlo criteria run on
fixed master seeds, so the pinned regression values are exact reruns.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from mimosel.channel import generate_iid_rayleigh
from mimosel.complexity import CostQuery, model_cost
from mimosel.harness import (
    ExperimentConfig,
    _draw_chunk,
    algo_instances,
    emit,
    grid_points,
    run_monte_carlo,
    run_trial,
)
from mimosel.metrics import zf_post_snr
from mimosel.numerics import OpLedger, gram_schmidt_extend, subset_count
from mimosel.seeding import stream
from mimosel.selectors import (
    Algorithm,
    SelectionConfig,
    mcore_plus,
    ss_us,
    sus,
)
from test_complexity import ratio_to_model

# ---------------------------------------------------------------------------
# Pinned regression values, frozen from the calibration run of this suite on
# the fixed seeds below. Floors come first; the pins only detect drift.
PIN_ORACLE_RATIO = 0.8897517710707851  # criterion 2, mean SE(ssus) / SE(oracle)
PIN_GZF_RATIO = {  # criterion 5 per pool size
    20: 0.9445811730041064,
    50: 0.9504956502178036,
    100: 0.9579540143894251,
}
PIN_TUNED_ALPHA = {20: 0.35, 50: 0.35, 100: 0.35}

SEED_C2 = 220
SEED_C3 = 330
SEED_C4 = 440
SEED_C5 = 550


@contextmanager
def criterion(number: int, name: str):
    note = {"detail": ""}
    try:
        yield note
    except Exception:
        print(f"[ACCEPTANCE {number}] {name}: FAIL")
        raise
    suffix = f" ({note['detail']})" if note["detail"] else ""
    print(f"[ACCEPTANCE {number}] {name}: PASS{suffix}")


def collect_trials(cfg: ExperimentConfig):
    """Sequential paired trials for one grid point, as (instances, reports)."""
    points = grid_points(cfg)
    assert len(points) == 1
    instances = algo_instances(cfg)
    reports = [run_trial(cfg, points[0], instances, t) for t in range(cfg.trials)]
    return instances, reports


def test_criterion_1_complexity_model_ratios():
    with criterion(1, "complexity-model ratios") as note:
        for m in (4, 8, 16):
            split = model_cost(CostQuery(Algorithm.SSUS, u=100, m=m, k=m, l=1))
            s = model_cost(CostQuery(Algorithm.SUS, u=100, m=m, k=m))
            g = model_cost(CostQuery(Algorithm.GZF, u=100, m=m, k=m))
            assert split < s < g
        gzf8 = model_cost(CostQuery(Algorithm.GZF, u=100, m=8, k=8))
        split8 = model_cost(CostQuery(Algorithm.SSUS, u=100, m=8, k=8, l=1))
        assert (gzf8, split8) == (180252, 6912)
        assert gzf8 > 10 * split8
        mcore16 = model_cost(CostQuery(Algorithm.MCORE_PLUS, u=100, m=16, k=16))
        split16 = model_cost(CostQuery(Algorithm.SSUS, u=100, m=16, k=16, l=1))
        assert mcore16 > 2500 * split16
        # The same ratio from the ledgers of one seeded channel.
        h = generate_iid_rayleigh(16, 100, stream(1600))
        n0 = 0.25178508235883346
        mcore_led, split_led = OpLedger(), OpLedger()
        mcore_plus(h, n0, 16, mcore_led)
        cfg = SelectionConfig(Algorithm.SSUS, k_max=16, num_bases=1, alpha=0.45, rng_seed=3)
        ss_us(h, cfg, n0, split_led)
        assert (mcore_led.complex_macs, split_led.complex_macs) == (111_167_040, 29_456)
        measured = mcore_led.complex_macs / split_led.complex_macs
        assert measured > 1000
        note["detail"] = (
            f"gzf/split at M=8: {gzf8 / split8:.1f}x; "
            f"measured mcore_plus/split at M=16: {measured:.0f}x"
        )


def compute_criterion_2():
    cfg = ExperimentConfig(
        m_values=(4,),
        u_values=(10,),
        p0_dbm_values=(-90.0,),  # 6 dB nominal SNR with the default budget
        algorithms=("ssus", "sus", "gzf", "mcore_plus", "random", "exhaustive"),
        ssus_num_bases=(10,),
        ssus_alpha=(0.45,),
        trials=200,
        master_seed=SEED_C2,
    )
    instances, reports = collect_trials(cfg)
    oracle = next(i for i in instances if i.algorithm is Algorithm.EXHAUSTIVE)
    ssus_inst = next(i for i in instances if i.algorithm is Algorithm.SSUS)
    violations = 0
    ratios = []
    for report in reports:
        oracle_se = report.cells[oracle].se
        for inst in instances:
            if report.cells[inst].se > oracle_se:
                violations += 1
        ratios.append(report.cells[ssus_inst].se / oracle_se)
    return violations, math.fsum(ratios) / len(ratios)


def test_criterion_2_oracle_bound_and_near_optimality():
    with criterion(2, "oracle bound and near-optimality") as note:
        violations, mean_ratio = compute_criterion_2()
        assert violations == 0
        assert mean_ratio >= 0.80
        if PIN_ORACLE_RATIO is not None:
            assert mean_ratio == pytest.approx(PIN_ORACLE_RATIO, rel=1e-9)
        note["detail"] = f"mean SE ratio to oracle: {mean_ratio:.4f}"


def one_sided_lower_bound(diffs: np.ndarray) -> float:
    """95% one-sided confidence lower bound on the mean of paired diffs."""
    n = diffs.size
    mean = float(np.mean(diffs))
    sd = float(np.std(diffs, ddof=1))
    return mean - stats.t.ppf(0.95, n - 1) * sd / math.sqrt(n)


def test_criterion_3_monotonic_in_basis_count():
    with criterion(3, "spectral efficiency non-decreasing in basis count") as note:
        cfg = ExperimentConfig(
            m_values=(8,),
            u_values=(100,),
            p0_dbm_values=(-90.0,),
            algorithms=("ssus",),
            ssus_num_bases=(1, 10, 100),
            ssus_alpha=(0.45,),
            trials=500,
            master_seed=SEED_C3,
        )
        instances, reports = collect_trials(cfg)
        by_l = {
            inst.num_bases: np.array([r.cells[inst].se for r in reports])
            for inst in instances
        }
        assert by_l[10].mean() >= by_l[1].mean()
        assert by_l[100].mean() >= by_l[10].mean()
        lb_10_1 = one_sided_lower_bound(by_l[10] - by_l[1])
        lb_100_10 = one_sided_lower_bound(by_l[100] - by_l[10])
        assert lb_10_1 >= 0.0
        assert lb_100_10 >= 0.0
        note["detail"] = (
            f"mean SE {by_l[1].mean():.3f} -> {by_l[10].mean():.3f} -> "
            f"{by_l[100].mean():.3f} bits/s/Hz"
        )


def test_criterion_4_random_lower_bound():
    with criterion(4, "random selection is a lower bound") as note:
        details = []
        for m in (4, 8):
            base = dict(
                m_values=(m,),
                u_values=(50,),
                p0_dbm_values=(-90.0,),
                trials=500,
                master_seed=SEED_C4,
            )
            cfg = ExperimentConfig(
                algorithms=("ssus",), ssus_num_bases=(10,), ssus_alpha=(0.45,), **base
            )
            instances, reports = collect_trials(cfg)
            ssus_se = np.array([r.cells[instances[0]].se for r in reports])
            mean_kb = np.mean([r.cells[instances[0]].k_b for r in reports])
            k = int(round(mean_kb))
            cfg_rand = ExperimentConfig(algorithms=("random",), random_k=k, **base)
            inst_rand, rep_rand = collect_trials(cfg_rand)
            rand_se = np.array([r.cells[inst_rand[0]].se for r in rep_rand])
            # identical channel streams: the comparison is paired
            point = grid_points(cfg)[0]
            indices = list(range(cfg.trials))
            assert np.array_equal(
                _draw_chunk(cfg, point, [], indices)[0],
                _draw_chunk(cfg_rand, grid_points(cfg_rand)[0], [], indices)[0],
            )
            result = stats.ttest_rel(ssus_se, rand_se, alternative="greater")
            assert ssus_se.mean() > rand_se.mean()
            assert result.pvalue < 0.05
            details.append(f"M={m}: +{ssus_se.mean() - rand_se.mean():.2f} bits/s/Hz")
        note["detail"] = "; ".join(details)


def compute_criterion_5():
    alphas = (0.35, 0.45, 0.55, 0.65)
    out = {}
    for u in (20, 50, 100):
        cfg = ExperimentConfig(
            m_values=(4,),
            u_values=(u,),
            p0_dbm_values=(-90.0,),
            algorithms=("ssus", "gzf"),
            ssus_num_bases=(10,),
            ssus_alpha=alphas,
            trials=1000,
            master_seed=SEED_C5,
        )
        instances, reports = collect_trials(cfg)
        gzf_inst = next(i for i in instances if i.algorithm is Algorithm.GZF)
        gzf_mean = math.fsum(r.cells[gzf_inst].se for r in reports) / len(reports)
        means = {
            inst.alpha: math.fsum(r.cells[inst].se for r in reports) / len(reports)
            for inst in instances
            if inst.algorithm is Algorithm.SSUS
        }
        tuned_alpha = max(means, key=lambda a: means[a])
        out[u] = (tuned_alpha, means[tuned_alpha] / gzf_mean)
    return out


def test_criterion_5_baseline_proximity():
    with criterion(5, "proximity to greedy zero-forcing") as note:
        results = compute_criterion_5()
        details = []
        for u, (tuned_alpha, ratio) in results.items():
            assert ratio >= 0.85
            if PIN_GZF_RATIO[u] is not None:
                assert ratio == pytest.approx(PIN_GZF_RATIO[u], rel=1e-9)
            if PIN_TUNED_ALPHA[u] is not None:
                assert tuned_alpha == PIN_TUNED_ALPHA[u]
            details.append(f"U={u}: {ratio:.3f} (alpha={tuned_alpha})")
        note["detail"] = "; ".join(details)


def test_criterion_6_algorithmic_invariants():
    with criterion(6, "algorithmic invariants") as note:
        # Gram-Schmidt orthonormality over 1000 random bases.
        from test_numerics import orthonormality_defect

        count = 0
        for m in (2, 4, 8, 16):
            rng = np.random.default_rng(m)
            for trial in range(250):
                v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                v /= np.linalg.norm(v)
                basis = gram_schmidt_extend(v, stream(6000 + m, trial), OpLedger())
                cross, norm_err = orthonormality_defect(basis)
                assert cross <= 1e-10 and norm_err <= 1e-10
                count += 1
        assert count == 1000

        # Cone guarantee and max-norm seed on random instances.
        n0 = 0.25178508235883346
        for trial in range(100):
            h = generate_iid_rayleigh(8, 50, stream(6100, trial))
            cfg = SelectionConfig(
                Algorithm.SSUS, k_max=8, num_bases=4, alpha=0.45, rng_seed=trial
            )
            res = ss_us(h, cfg, n0, OpLedger())
            norms = np.linalg.norm(h, axis=0)
            assert res.selected[0] == int(np.argmax(norms))
            basis = gram_schmidt_extend(
                h[:, res.selected[0]] / norms[res.selected[0]],
                stream(cfg.rng_seed, res.winning_basis),
                OpLedger(),
            )
            for user, direction in zip(res.selected[1:], res.matched_direction[1:]):
                corr = abs(np.vdot(h[:, user], basis[:, direction])) / norms[user]
                assert corr >= cfg.alpha - 1e-12

        # Worker-count determinism: byte-identical CSV.
        mc_kwargs = dict(
            m_values=(4,),
            u_values=(20,),
            p0_dbm_values=(-90.0,),
            algorithms=("ssus", "sus", "gzf", "random"),
            ssus_num_bases=(4,),
            ssus_alpha=(0.45,),
            trials=16,
            master_seed=66,
        )
        csv_1 = emit(run_monte_carlo(ExperimentConfig(workers=1, **mc_kwargs)), "csv")
        csv_8 = emit(run_monte_carlo(ExperimentConfig(workers=8, **mc_kwargs)), "csv")
        assert csv_1 == csv_8

        # ZF post-SNR against the projection-residual oracle.
        from test_metrics import projection_residual_snr

        rng = np.random.default_rng(61)
        for _ in range(1000):
            m = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(m, 6) + 1))
            h = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2)
            got = zf_post_snr(h, n0, OpLedger())
            want = projection_residual_snr(h, n0)
            assert np.max(np.abs(got - want) / want) <= 1e-8
        note["detail"] = "1000 bases, 100 cone checks, 1 vs 8 workers, 1000 ZF cross-checks"


def test_criterion_7_ledger_reconciliation():
    with criterion(7, "ledger reconciliation") as note:
        h = generate_iid_rayleigh(8, 100, stream(7000))
        n0 = 0.25178508235883346

        macs = {}
        for l in (1, 2, 3, 5, 8):
            led = OpLedger()
            cfg = SelectionConfig(Algorithm.SSUS, k_max=8, num_bases=l, alpha=0.45, rng_seed=3)
            ss_us(h, cfg, n0, led)
            macs[l] = led.complex_macs
        slope = macs[2] - macs[1]
        for l in (1, 2, 3, 5, 8):
            assert macs[l] == macs[1] + (l - 1) * slope

        led = OpLedger()
        ss_us(h, SelectionConfig(Algorithm.SSUS, k_max=8, num_bases=1, alpha=0.45, rng_seed=3),
              n0, led)
        split_ratio = ratio_to_model(CostQuery(Algorithm.SSUS, u=100, m=8, k=8, l=1), led)

        led = OpLedger()
        res = sus(h, SelectionConfig(Algorithm.SUS, k_max=8, sus_epsilon=0.45), n0, led)
        sus_ratio = ratio_to_model(CostQuery(Algorithm.SUS, u=100, m=8, k=max(res.k_b, 2)), led)
        note["detail"] = (
            f"slope {slope} MACs/basis; measured/model "
            f"split={split_ratio:.2f}, sus={sus_ratio:.2f}"
        )


def test_criterion_8_subset_count_anchors():
    with criterion(8, "combinatorial search-space anchors") as note:
        assert subset_count(50, 4) - subset_count(50, 3) == 230300
        assert subset_count(100, 8) - subset_count(100, 7) == 186087894300
        assert math.comb(50, 4) == 230300
        assert math.comb(100, 8) == 186087894300
        note["detail"] = "C(50,4)=2.3e5, C(100,8)=1.86e11"
