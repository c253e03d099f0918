import pytest

from mimosel.channel import generate_iid_rayleigh
from mimosel.complexity import (
    RECONCILE_BOUNDS,
    CostQuery,
    model_cost,
    reconcile_ledger,
    relative_cost,
)
from mimosel.numerics import OpLedger
from mimosel.seeding import stream
from mimosel.selectors import Algorithm, SelectionConfig, ss_us, sus


class TestModelCost:
    def test_space_split_reference_value(self):
        assert model_cost(CostQuery(Algorithm.SSUS, u=100, m=8, k=8, l=1)) == 6912

    def test_sus_reference_value(self):
        assert model_cost(CostQuery(Algorithm.SUS, u=100, m=8, k=8)) == 23200

    def test_gzf_reference_value(self):
        assert model_cost(CostQuery(Algorithm.GZF, u=100, m=8, k=8)) == 180252

    def test_mcore_reference_value(self):
        assert model_cost(CostQuery(Algorithm.MCORE_PLUS, u=100, m=8, k=8)) == 60704

    def test_mcore_enumeration_stops_at_k(self):
        # 100*8 + 8^3 + sum over i = 1..4 of C(8, i) (8 i^2 + i^3)
        assert model_cost(CostQuery(Algorithm.MCORE_PLUS, u=100, m=8, k=4)) == 21488

    def test_space_split_affine_in_bases(self):
        m, u = 8, 100
        slope = m**3 + u * m * (m - 1)
        costs = [model_cost(CostQuery(Algorithm.SSUS, u=u, m=m, k=m, l=l)) for l in range(1, 6)]
        assert all(b - a == slope for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("m", [4, 8, 16])
    @pytest.mark.parametrize("u", [20, 50, 100])
    def test_ordering_full_rank(self, m, u):
        # At K = M and a single basis the split method undercuts SUS, which
        # undercuts GZF. (At M = 2 the formulas order the other way round:
        # 4U + 8 vs 4U, hence M >= 4 here.)
        split = model_cost(CostQuery(Algorithm.SSUS, u=u, m=m, k=m, l=1))
        s = model_cost(CostQuery(Algorithm.SUS, u=u, m=m, k=m))
        g = model_cost(CostQuery(Algorithm.GZF, u=u, m=m, k=m))
        assert split < s < g

    def test_mcore_u_dependence_is_exactly_um(self):
        for u, m in [(50, 4), (100, 8), (30, 6)]:
            low = model_cost(CostQuery(Algorithm.MCORE_PLUS, u=u, m=m, k=m))
            high = model_cost(CostQuery(Algorithm.MCORE_PLUS, u=2 * u, m=m, k=m))
            assert high - low == u * m

    def test_query_validation(self):
        with pytest.raises(ValueError):
            CostQuery(Algorithm.SUS, u=10, m=4, k=5)
        with pytest.raises(ValueError):
            CostQuery(Algorithm.SUS, u=3, m=4, k=4)
        with pytest.raises(ValueError):
            CostQuery(Algorithm.SSUS, u=10, m=4, k=4, l=0)
        with pytest.raises(ValueError):
            CostQuery(Algorithm.RANDOM, u=10, m=4, k=4)


class TestRelativeCost:
    def test_sus_normalizes_to_one(self):
        rows = relative_cost([CostQuery(Algorithm.SUS, u=40, m=8, k=4)])
        assert rows[0]["relative_to_sus"] == 1.0

    def test_requires_sus_reference(self):
        with pytest.raises(ValueError, match="no SUS reference"):
            relative_cost([CostQuery(Algorithm.GZF, u=40, m=8, k=4)])

    def test_gzf_to_split_ratio_at_m_2k(self):
        queries = [
            CostQuery(Algorithm.SUS, u=100, m=8, k=4),
            CostQuery(Algorithm.GZF, u=100, m=8, k=4),
            CostQuery(Algorithm.SSUS, u=100, m=8, k=4, l=1),
        ]
        rows = {r["method"]: r for r in relative_cost(queries)}
        expected = model_cost(queries[1]) / model_cost(queries[2])
        assert rows["gzf"]["relative_to_sus"] / rows["ssus"]["relative_to_sus"] == pytest.approx(
            expected, rel=1e-12
        )

    def test_mcore_dominates_split_at_m16(self):
        mcore = model_cost(CostQuery(Algorithm.MCORE_PLUS, u=100, m=16, k=16))
        split = model_cost(CostQuery(Algorithm.SSUS, u=100, m=16, k=16, l=1))
        assert mcore > 2500 * split


class TestReconcileLedger:
    def test_space_split_measured_close_to_model(self):
        h = generate_iid_rayleigh(8, 100, stream(900))
        led = OpLedger()
        cfg = SelectionConfig(Algorithm.SSUS, k_max=8, num_bases=1, alpha=0.45, rng_seed=1)
        ss_us(h, cfg, 0.25, led)
        report = reconcile_ledger(CostQuery(Algorithm.SSUS, u=100, m=8, k=8, l=1), led)
        assert report.within_bounds
        lo, hi = RECONCILE_BOUNDS
        assert lo <= report.ratio <= hi

    def test_sus_measured_close_to_model(self):
        h = generate_iid_rayleigh(8, 100, stream(901))
        led = OpLedger()
        cfg = SelectionConfig(Algorithm.SUS, k_max=8, sus_epsilon=0.45)
        res = sus(h, cfg, 0.25, led)
        report = reconcile_ledger(
            CostQuery(Algorithm.SUS, u=100, m=8, k=max(res.k_b, 1)), led
        )
        assert report.within_bounds

    def test_doubling_pool_doubles_correlation_stage(self):
        # Per basis, the correlation stage costs (U-1)*(M-1)*M MACs, so
        # doubling U scales it by (2U-1)/(U-1): within 1% of 2 at U=100.
        m, n0 = 8, 0.25
        stage = {}
        for u in (100, 200):
            h = generate_iid_rayleigh(m, u, stream(903, u))
            led = OpLedger()
            cfg = SelectionConfig(Algorithm.SSUS, k_max=m, num_bases=1, alpha=0.45, rng_seed=4)
            ss_us(h, cfg, n0, led)
            stage[u] = led.complex_macs - u * m - m**3  # strip seed scan + basis build
        assert abs(stage[200] / stage[100] - 2.0) <= 0.02

    def test_measured_additivity_per_basis(self):
        # Total MACs with L bases = seed scan + L * single-basis cost,
        # exactly, because every basis does identical work on this instance.
        h = generate_iid_rayleigh(8, 100, stream(902))
        macs = []
        for l in (1, 2, 3, 5):
            led = OpLedger()
            cfg = SelectionConfig(Algorithm.SSUS, k_max=8, num_bases=l, alpha=0.45, rng_seed=2)
            ss_us(h, cfg, 0.25, led)
            macs.append(led.complex_macs)
        slope = macs[1] - macs[0]
        assert macs[2] - macs[1] == slope
        assert macs[3] == macs[0] + 4 * slope
