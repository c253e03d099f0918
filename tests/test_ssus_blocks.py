"""Block construction of the ``ss_us`` bases against the per-basis reference.

``ss_us`` builds its bases a block at a time by one batched Householder QR
and matches users on every basis of a block at once; ``_bases_per_block``
sizes the block from its working set. ``reference_ss_us`` below is the
earlier implementation, one modified Gram-Schmidt basis and one greedy loop
per basis; both must select the same users, match them to the same
directions and charge the same ledger. ``_ss_us_trials`` runs many
(L, alpha) variants on one set of bases per trial; on a one-trial stack each
of its variants must equal a lone ``ss_us`` call, and each trial of a larger
stack must get what its one-trial stack gets. The block size must not change
any of it: tests that need block edges at known bases fix the size to
``BLOCK`` with the ``fixed_blocks`` fixture.
"""

import collections
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import mimosel.selectors as sel
from mimosel import harness, seeding
from mimosel.channel import generate_iid_rayleigh
from mimosel.harness import ExperimentConfig, algo_instances, grid_points, run_trial
from mimosel.numerics import (
    MAX_REDRAWS,
    ORTHO_TOL,
    BasisConstructionError,
    OpLedger,
    gram_schmidt_extend,
)
from mimosel.seeding import derive_seed, stream
from mimosel.selectors import Algorithm, SelectionConfig, ss_us
from test_numerics import orthonormality_defect
from test_selectors import checked

N0 = 0.25

#: Bases per block where a test fixes the block size with ``fixed_blocks``.
BLOCK = 8


def set_block_size(monkeypatch, size):
    monkeypatch.setattr(sel, "_bases_per_block", lambda m, n_cand, n_steps: size)


@pytest.fixture
def fixed_blocks(monkeypatch):
    """Blocks of ``BLOCK`` bases, whatever the shape of the instance."""
    set_block_size(monkeypatch, BLOCK)


def reference_ss_us(h, cfg, n0, ledger):
    """Per-basis ``ss_us``: one Gram-Schmidt basis and one greedy loop each."""
    hm, norms = sel._as_channel(h)
    m, u = hm.shape
    ledger.complex_macs += u * m  # the column norms
    ledger.divisions += u
    rates = np.log2(1.0 + norms**2 / n0)
    seed_user = int(np.argmax(norms))
    ledger.comparisons += max(u - 1, 0)
    seed_rate = float(rates[seed_user])

    n_dirs = min(cfg.k_max, m)
    if u == 1 or n_dirs <= 1:
        return sel.SelectionResult(
            selected=(seed_user,),
            matched_direction=(0,),
            weights=(seed_rate,),
            winning_basis=0,
            mean_metric=seed_rate,
        )

    v_seed = hm[:, seed_user] / norms[seed_user]
    ledger.divisions += m
    cand = np.delete(np.arange(u), seed_user)
    h_cand = hm[:, cand]
    cand_norms = norms[cand]
    cand_rates = rates[cand]

    best = None
    for l in range(cfg.num_bases):
        basis = gram_schmidt_extend(v_seed, sel.stream(cfg.rng_seed, l), ledger)
        directions = basis[:, 1:n_dirs]
        corr = np.abs(h_cand.conj().T @ directions) / cand_norms[:, np.newaxis]
        np.clip(corr, 0.0, 1.0, out=corr)
        ledger.complex_macs += cand.size * directions.shape[1] * m
        ledger.divisions += cand.size * directions.shape[1]

        available = np.ones(cand.size, dtype=bool)
        users = [seed_user]
        matched = [0]
        weights = [seed_rate]
        for k in range(1, n_dirs):
            n_avail = int(available.sum())
            if n_avail == 0:
                break
            scores = np.where(available, corr[:, k - 1] * cand_rates, -np.inf)
            pick = int(np.argmax(scores))
            ledger.comparisons += n_avail
            if corr[pick, k - 1] >= cfg.alpha:
                users.append(int(cand[pick]))
                matched.append(k)
                weights.append(float(scores[pick]))
                available[pick] = False
        mean_w = math.fsum(weights) / len(weights)
        if best is None or mean_w > best[0]:
            best = (mean_w, l, users, matched, weights)

    mean_w, l_star, users, matched, weights = best
    return sel.SelectionResult(
        selected=tuple(users),
        matched_direction=tuple(matched),
        weights=tuple(weights),
        winning_basis=l_star,
        mean_metric=mean_w,
    )


def assert_same_as_reference(h, cfg):
    """Run both implementations on fresh ledgers and compare everything."""
    got_ledger, want_ledger = OpLedger(), OpLedger()
    got = ss_us(h, cfg, N0, got_ledger)
    want = reference_ss_us(h, cfg, N0, want_ledger)
    assert got.selected == want.selected
    assert got.matched_direction == want.matched_direction
    assert got_ledger == want_ledger
    assert got.weights == pytest.approx(want.weights, rel=1e-12)
    assert got.mean_metric == pytest.approx(want.mean_metric, rel=1e-12)
    if h.shape[0] == 2:
        # At M = 2 the seed leaves a single direction, so every basis is the
        # same up to phase and scores the same in exact arithmetic; which
        # index wins is decided by rounding, in either construction. The
        # checks above already pin the winner's set and metric.
        assert 0 <= got.winning_basis < cfg.num_bases
    else:
        assert got.winning_basis == want.winning_basis
    return got


def ssus_cfg(m, l, alpha, seed, k_max=None):
    return SelectionConfig(
        Algorithm.SSUS, k_max=k_max or m, num_bases=l, alpha=alpha, rng_seed=seed
    )


# Seeds per L: many instances where the reference is cheap, one at L = 100.
SEEDS_PER_L = {1: 6, 10: 3, 100: 1}
ALPHAS = (0.35, 0.6)


@pytest.mark.parametrize("m", [2, 4, 8, 16])
@pytest.mark.parametrize("u", [10, 20, 100])
def test_matches_reference(m, u):
    count = 0
    for l, n_seeds in SEEDS_PER_L.items():
        for alpha in ALPHAS:
            for seed in range(n_seeds):
                h = generate_iid_rayleigh(m, u, stream(4100, m, u, l, seed))
                assert_same_as_reference(h, ssus_cfg(m, l, alpha, seed))
                count += 1
            if l < 100:
                # k_max below M leaves the trailing directions unused.
                h = generate_iid_rayleigh(m, u, stream(4200, m, u, l))
                assert_same_as_reference(h, ssus_cfg(m, l, alpha, 50 + l, k_max=max(2, m // 2)))
                count += 1
    assert count == 24


@pytest.mark.parametrize("m", [2, 4, 8, 16])
@pytest.mark.parametrize("l", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_matches_reference_across_block_edges(fixed_blocks, m, l):
    for alpha in ALPHAS:
        for seed in range(2):
            h = generate_iid_rayleigh(m, 20, stream(4300, m, l, seed))
            assert_same_as_reference(h, ssus_cfg(m, l, alpha, 900 + seed))


@pytest.mark.parametrize(
    "m, u, k_max",
    [
        (4, 1, 4),  # one user: the seed alone
        (1, 6, 4),  # one antenna: no direction besides the seed
        (8, 30, 1),  # k_max = 1
        (8, 3, 8),  # two candidates for seven directions: the pool runs out
        (16, 5, 16),
        (4, 2, 4),
    ],
)
def test_edge_cases_match_reference(m, u, k_max):
    for seed in range(3):
        h = generate_iid_rayleigh(m, u, stream(4400, m, u, seed))
        got = assert_same_as_reference(h, ssus_cfg(m, 12, 0.05, seed, k_max=k_max))
        assert got.k_b == min(u, m, k_max)


@pytest.mark.parametrize("m", [2, 3, 8, 16])
def test_block_draw_equals_per_column_draw(m):
    block = sel.stream(77, 5).standard_normal((m - 1, 2, m))
    rng = sel.stream(77, 5)
    for j in range(1, m):
        column = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        assert np.array_equal(block[j - 1, 0] + 1j * block[j - 1, 1], column)


def unit_seed(m, key):
    rng = stream(4500, m, key)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return v / np.linalg.norm(v)


def basis_block(v_seeds, rng_seeds, indices):
    """``sel._basis_block`` on the streams of bases 0..``indices.stop`` - 1,
    hashed at once, as ``_ss_us_trials`` hashes those of its trials."""
    states = seeding._pcg64_states(seeding._stream_seeds(rng_seeds, range(indices.stop)))
    return sel._basis_block(v_seeds, rng_seeds, indices, states)


def bases_as_ss_us_builds_them(v, rng_seed, l):
    """The first ``l`` bases, built in blocks of ``BLOCK``."""
    return np.concatenate(
        [
            basis_block(v[np.newaxis], [rng_seed], range(s, min(s + BLOCK, l)))[0][0]
            for s in range(0, l, BLOCK)
        ]
    )


class TestBatchedBases:
    def test_orthonormal_over_1000_bases(self):
        count = 0
        for m in (2, 4, 8, 16):
            v = unit_seed(m, 0)
            for basis in bases_as_ss_us_builds_them(v, m, 250):
                cross, norm_err = orthonormality_defect(basis)
                assert cross <= ORTHO_TOL and norm_err <= ORTHO_TOL
                count += 1
        assert count == 1000

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_columns_are_gram_schmidt_columns_up_to_phase(self, m):
        v = unit_seed(m, 1)
        [bases], _, _ = basis_block(v[np.newaxis], [31], range(BLOCK))
        for l, basis in enumerate(bases):
            phase0 = np.vdot(v, basis[:, 0])
            assert abs(abs(phase0) - 1.0) <= 1e-12
            np.testing.assert_allclose(basis[:, 0], phase0 * v, rtol=0, atol=1e-12)
            mgs = gram_schmidt_extend(v, sel.stream(31, l), OpLedger())
            phases = np.einsum("ij,ij->j", mgs.conj(), basis)
            np.testing.assert_allclose(np.abs(phases), 1.0, rtol=0, atol=1e-10)
            np.testing.assert_allclose(basis, mgs * phases, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("l", [1, BLOCK - 1, BLOCK + 3, 40])
    def test_first_l_of_2l_bases_equal_a_run_with_l(self, l):
        v = unit_seed(8, 2)
        np.testing.assert_array_equal(
            bases_as_ss_us_builds_them(v, 5, 2 * l)[:l], bases_as_ss_us_builds_them(v, 5, l)
        )

    @pytest.mark.parametrize("fallback", [False, True])
    @pytest.mark.parametrize("m", [2, 8, 16])
    def test_qr_is_numpy_qr_byte_for_byte(self, monkeypatch, m, fallback):
        # Q and |diag R| of sel._qr equal np.linalg.qr's, dependent columns
        # (a zero column, a repeated one) included, also where numpy has no
        # qr_r_raw and _qr falls back to np.linalg.qr.
        if fallback:
            monkeypatch.setattr(sel, "_QR_R_RAW", None)
        rng = np.random.default_rng(900 + m)
        a = rng.standard_normal((3, 4, m, m)) + 1j * rng.standard_normal((3, 4, m, m))
        a[0, 1, :, 1:] = 0.0
        a[2, 3, :, -1] = a[2, 3, :, 0]
        q, r = np.linalg.qr(a)
        got_q, got_r = sel._qr(a.copy())
        assert got_q.tobytes() == q.tobytes()
        assert got_r.tobytes() == np.abs(np.diagonal(r, axis1=-2, axis2=-1)).tobytes()
        assert got_r[0, 1, 1:].max() < sel.RESIDUAL_FLOOR

    def test_ledger_charges_gram_schmidt_cost_per_basis(self):
        v = unit_seed(8, 3)
        _, rebuilds, failures = basis_block(v[np.newaxis], [6], range(3))
        assert rebuilds == {} and failures == {}
        for l in range(3):
            per_basis = OpLedger()
            gram_schmidt_extend(v, sel.stream(6, l), per_basis)
            assert sel._basis_charge(8) == (per_basis.complex_macs, per_basis.divisions)
            assert per_basis.comparisons == 0


class ScriptedStream:
    """Generator stand-in that returns ``prefix`` first, then draws of ``rest``.

    Values come out in draw order whatever the requested shapes, so the
    block draw and the column-by-column draw see the same numbers.
    """

    def __init__(self, prefix, rest):
        self.buffer = np.asarray(prefix, dtype=float).ravel()
        self.rest = rest

    def standard_normal(self, size):
        n = int(np.prod(size))
        head, self.buffer = self.buffer[:n], self.buffer[n:]
        tail = self.rest.standard_normal(n - head.size) if n > head.size else []
        return np.concatenate([head, tail]).reshape(size)


class ZeroStream:
    def standard_normal(self, size):
        return np.zeros(size)


def script_bases(monkeypatch, script):
    """Feed basis l the draws of ``script(seed, l)``, or its own where that is None.

    A chunk keys its bases' streams at once through ``sel._stream_seeds``, each
    block draws its bases, of one or more trials, through
    ``sel._stacked_normals`` on their hashed states, and a Gram-Schmidt
    fallback opens its basis afresh through ``sel.stream(seed, l)``; all
    three are patched. The draw stub knows a stream's (seed, l) by its
    hashed state, which the key stub records. ``script`` is called on every
    opening, so a scripted basis starts its script again in each. Calls of
    ``sel.stream`` with another key, such as ``random``'s ``stream(seed)``,
    pass through.
    """
    real_seeds, real_normals, real_stream = sel._stream_seeds, sel._stacked_normals, sel.stream
    keys = {}

    def keyed_seeds(rng_seeds, indices):
        seeds = real_seeds(rng_seeds, indices)
        states = seeding._pcg64_states(seeds).reshape(4, -1).T
        for state, key in zip(states, itertools.product(rng_seeds, indices)):
            keys[state.tobytes()] = key
        return seeds

    def scripted_normals(states, shape):
        z = real_normals(states, shape)
        for row, state in zip(z.reshape(-1, *shape), states.reshape(4, -1).T):
            scripted = script(*keys[state.tobytes()])
            if scripted is not None:
                row[...] = scripted.standard_normal(shape)
        return z

    def scripted_stream(seed, *key):
        scripted = script(seed, *key) if len(key) == 1 else None
        return real_stream(seed, *key) if scripted is None else scripted

    monkeypatch.setattr(sel, "_stream_seeds", keyed_seeds)
    monkeypatch.setattr(sel, "_stacked_normals", scripted_normals)
    monkeypatch.setattr(sel, "stream", scripted_stream)


def dependent_prefix(v, j, rng):
    """Draws whose column j is a combination of the seed and columns 1..j-1."""
    columns = [
        rng.standard_normal(v.size) + 1j * rng.standard_normal(v.size) for _ in range(j - 1)
    ]
    columns.append(3.0 * v + sum(columns))
    return np.concatenate([np.concatenate([c.real, c.imag]) for c in columns])


class TestRedrawGuard:
    @pytest.mark.parametrize("j", [1, 2, 5])
    def test_dependent_draw_takes_gram_schmidt_fallback(self, monkeypatch, fixed_blocks, j):
        m, u, l_bad = 8, 40, 3
        h = generate_iid_rayleigh(m, u, stream(4600, j))
        norms = np.linalg.norm(h, axis=0)
        v = h[:, np.argmax(norms)] / norms.max()
        prefix = dependent_prefix(v, j, stream(4601, j))
        real_stream = sel.stream
        opened = collections.Counter()

        def script(seed, l):
            opened[l] += 1
            return ScriptedStream(prefix, real_stream(seed, l)) if l == l_bad else None

        script_bases(monkeypatch, script)
        rebuilds = []
        real_extend = sel.gram_schmidt_extend

        def counting_extend(*args):
            rebuilds.append(args)
            return real_extend(*args)

        monkeypatch.setattr(sel, "gram_schmidt_extend", counting_extend)
        cfg = ssus_cfg(m, 2 * BLOCK, 0.3, 11)
        ss_us(h, cfg, N0, OpLedger())
        # One rebuild, on a second stream of basis l_bad and of no other: the
        # block draw opens each basis once, the fallback opens l_bad again.
        assert len(rebuilds) == 1
        assert opened == {l: 1 + (l == l_bad) for l in range(cfg.num_bases)}
        assert_same_as_reference(h, cfg)

        # The fallback redrew: its ledger holds more than the no-redraw cost.
        led = OpLedger()
        real_extend(v, sel.stream(cfg.rng_seed, l_bad), led)
        clean = OpLedger()
        real_extend(v, real_stream(cfg.rng_seed, l_bad), clean)
        assert led.complex_macs > clean.complex_macs

    def test_exhausted_redraws_raise(self, monkeypatch):
        script_bases(monkeypatch, lambda seed, l: ZeroStream())
        h = generate_iid_rayleigh(4, 10, stream(4700))
        with pytest.raises(BasisConstructionError, match=f"after {MAX_REDRAWS} redraws"):
            ss_us(h, ssus_cfg(4, 3, 0.3, 0), N0, OpLedger())

    def test_exhausted_redraws_become_a_cell_error(self, monkeypatch):
        script_bases(monkeypatch, lambda seed, l: ZeroStream())
        cfg = ExperimentConfig(
            m_values=(4,),
            u_values=(10,),
            p0_dbm_values=(-90.0,),
            algorithms=("ssus", "sus", "random"),
            ssus_num_bases=(3,),
            trials=1,
        )
        instances = algo_instances(cfg)
        report = run_trial(cfg, grid_points(cfg)[0], instances, 0)
        ssus_cell, sus_cell, random_cell = (report.cells[i] for i in instances)
        assert "redraws" in ssus_cell.error
        assert ssus_cell.selected == () and math.isnan(ssus_cell.se)
        # ``random`` draws from ``sel.stream(seed)``, which the seam passes through.
        assert sus_cell.error is None and random_cell.error is None


def assert_variants_match_lone_calls(h, k_max, rng_seed, variants):
    """One shared call against one ``ss_us`` call per variant, field by field."""
    [shared] = sel._ss_us_trials(*checked(h[np.newaxis]), k_max, [rng_seed], N0, variants)
    assert len(shared) == len(variants)
    for (l, alpha), (got, got_ledger) in zip(variants, shared):
        cfg = SelectionConfig(
            Algorithm.SSUS, k_max=k_max, num_bases=l, alpha=alpha, rng_seed=rng_seed
        )
        want_ledger = OpLedger()
        want = ss_us(h, cfg, N0, want_ledger)
        assert got.selected == want.selected
        assert got.matched_direction == want.matched_direction
        assert got.winning_basis == want.winning_basis
        assert got_ledger == want_ledger
        assert np.array(got.weights).tobytes() == np.array(want.weights).tobytes()
        assert np.float64(got.mean_metric).tobytes() == np.float64(want.mean_metric).tobytes()
    return shared


# (M, U, k_max): k_max below M, M = 2, and the early returns at U = 1 and at
# n_dirs = min(k_max, M) <= 1 among them.
SHARED_GRID = [
    (1, 6, 1),
    (2, 10, 2),
    (2, 40, 2),
    (3, 7, 2),
    (4, 1, 4),
    (4, 20, 4),
    (4, 20, 3),
    (5, 2, 5),
    (8, 30, 1),
    (8, 50, 4),
    (8, 100, 8),
    (12, 60, 12),
    (16, 30, 9),
    (16, 100, 16),
]
# Every L on both sides of the edges of fixed blocks, two alphas at each,
# and duplicate (L, alpha) pairs, Ls and alphas.
SHARED_VARIANTS = [(l, a) for l in (1, 7, 8, 9, 17, 100) for a in (0.3, 0.6)] + [
    (9, 0.3),
    (1, 0.6),
    (100, 0.6),
    (17, 0.45),
]


@pytest.mark.parametrize("m, u, k_max", SHARED_GRID)
def test_shared_variants_equal_lone_calls(fixed_blocks, m, u, k_max):
    for seed in range(2):
        h = generate_iid_rayleigh(m, u, stream(4800, m, u, k_max, seed))
        shared = assert_variants_match_lone_calls(h, k_max, 60 + seed, SHARED_VARIANTS)
        if m > 2 and u > 1 and min(k_max, m) > 1:
            # Some longer run wins at a basis a shorter one never built.
            assert len({result.winning_basis for result, _ in shared}) > 1


def test_shared_fallback_charges_only_variants_beyond_it(monkeypatch):
    m, u, l_bad, rng_seed = 8, 40, 3, 11
    h = generate_iid_rayleigh(m, u, stream(4900))
    norms = np.linalg.norm(h, axis=0)
    v = h[:, np.argmax(norms)] / norms.max()
    variants = [(2, 0.3), (3, 0.3), (4, 0.3), (3, 0.6), (9, 0.6), (17, 0.3)]
    [clean] = sel._ss_us_trials(*checked(h[np.newaxis]), m, [rng_seed], N0, variants)

    real_stream = sel.stream
    prefix = dependent_prefix(v, 2, stream(4901))
    script_bases(
        monkeypatch,
        lambda seed, l: ScriptedStream(prefix, real_stream(seed, l)) if l == l_bad else None,
    )
    scripted = assert_variants_match_lone_calls(h, m, rng_seed, variants)

    # What the fallback charges beyond a build without redraws.
    fallback, plain = OpLedger(), OpLedger()
    gram_schmidt_extend(v, sel.stream(rng_seed, l_bad), fallback)
    gram_schmidt_extend(v, real_stream(rng_seed, l_bad), plain)
    assert fallback.complex_macs > plain.complex_macs
    for (l, _), (_, clean_ledger), (_, ledger) in zip(variants, clean, scripted):
        if l <= l_bad:
            assert ledger == clean_ledger
        else:
            # The rebuilt basis may match differently, so only the
            # construction charges are compared.
            assert ledger.complex_macs - clean_ledger.complex_macs == (
                fallback.complex_macs - plain.complex_macs
            )
            assert ledger.divisions - clean_ledger.divisions == (
                fallback.divisions - plain.divisions
            )


def test_failed_basis_fails_only_the_variants_that_reach_it(monkeypatch):
    cfg = ExperimentConfig(
        m_values=(4,),
        u_values=(10,),
        p0_dbm_values=(-90.0,),
        algorithms=("ssus", "sus"),
        ssus_num_bases=(2, 5),
        trials=1,
    )
    instances = algo_instances(cfg)
    short, long, sus_inst = instances
    assert (short.num_bases, long.num_bases) == (2, 5)
    point = grid_points(cfg)[0]
    clean = run_trial(cfg, point, instances, 0)

    script_bases(monkeypatch, lambda seed, l: ZeroStream() if l == 3 else None)
    report = run_trial(cfg, point, instances, 0)

    def untimed(cell):
        return dataclasses.replace(cell, wall_ns=0)

    ledger = OpLedger()
    select_seed = derive_seed(cfg.master_seed, point.index, 0, harness._ROLE_SELECT)
    lone = ss_us(
        generate_iid_rayleigh(
            point.m, point.u, stream(cfg.master_seed, point.index, 0, harness._ROLE_CHANNEL)
        ),
        ssus_cfg(point.m, 2, short.alpha, select_seed),
        point.n0,
        ledger,
    )
    assert report.cells[short].error is None
    assert report.cells[short].selected == lone.selected
    assert report.cells[short].macs == ledger.complex_macs
    assert untimed(report.cells[short]) == untimed(clean.cells[short])
    failed = report.cells[long]
    assert "redraws" in failed.error
    assert failed.selected == () and math.isnan(failed.se)
    assert untimed(report.cells[sus_inst]) == untimed(clean.cells[sus_inst])


@pytest.mark.parametrize("l_bad", [0, BLOCK - 1, BLOCK, 2 * BLOCK - 1])
def test_exhausted_redraws_at_block_edges_equal_lone_calls(monkeypatch, fixed_blocks, l_bad):
    script_bases(monkeypatch, lambda seed, l: ZeroStream() if l == l_bad else None)
    variants = [(l, a) for l in (1, 7, 8, 9, 16, 17) for a in (0.3, 0.6)]
    for m, u in ((4, 20), (8, 30)):
        h = generate_iid_rayleigh(m, u, stream(5000, m, l_bad))
        [shared] = sel._ss_us_trials(*checked(h[np.newaxis]), m, [70 + l_bad], N0, variants)
        for (l, alpha), (got, got_ledger) in zip(variants, shared):
            cfg = ssus_cfg(m, l, alpha, 70 + l_bad)
            want_ledger = OpLedger()
            try:
                want = ss_us(h, cfg, N0, want_ledger)
            except BasisConstructionError as exc:
                want = exc
            assert isinstance(want, BasisConstructionError) == (l > l_bad)
            assert type(got) is type(want)
            assert got_ledger == want_ledger
            if l <= l_bad:
                assert got.selected == want.selected
                assert got.matched_direction == want.matched_direction
                assert got.winning_basis == want.winning_basis
                assert got.weights == want.weights and got.mean_metric == want.mean_metric
                assert_same_as_reference(h, cfg)
            else:
                # The reference charges every basis before the failing one,
                # then what the failing rebuild charged before it raised.
                reference_ledger = OpLedger()
                with pytest.raises(BasisConstructionError):
                    reference_ss_us(h, cfg, N0, reference_ledger)
                assert got_ledger == reference_ledger


@pytest.mark.parametrize(
    "m, n_cand, n_steps",
    [(2, 9, 1), (4, 9, 3), (4, 99, 3), (8, 19, 7), (8, 99, 7), (16, 19, 15), (16, 99, 15),
     (64, 999, 63)],
)
def test_block_fills_the_budget_with_its_largest_stack(m, n_cand, n_steps):
    # A basis needs its correlations or the QR's 8 M^2 floats, whichever is more.
    per_basis = max(n_cand * n_steps, 8 * m * m)
    size = sel._bases_per_block(m, n_cand, n_steps)
    assert size >= 1
    assert size == 1 or size * per_basis <= sel._BLOCK_BUDGET
    assert (size + 1) * per_basis > sel._BLOCK_BUDGET


def test_block_sizes_of_the_committed_workloads():
    # L = 10 at the paper's M and U (and the oracle's M = 4, U = 10) is one
    # block; L = 100 at U = 100 is one block at M = 8 and three at M = 16.
    for m, u in ((4, 10), (4, 20), (4, 100), (8, 20), (8, 100), (16, 100)):
        assert sel._bases_per_block(m, u - 1, m - 1) >= 10
    assert sel._bases_per_block(8, 99, 7) >= 100
    assert math.ceil(100 / sel._bases_per_block(16, 99, 15)) == 3


def outcome_key(outcome, ledger):
    """Everything a variant returns, with floats as bytes."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome), ledger
    return (
        outcome.selected,
        outcome.matched_direction,
        outcome.winning_basis,
        np.array(outcome.weights).tobytes(),
        np.float64(outcome.mean_metric).tobytes(),
        ledger,
    )


@pytest.mark.parametrize("m, u, k_max", [(2, 10, 2), (4, 20, 3), (8, 100, 8), (16, 30, 9)])
@pytest.mark.parametrize("l_bad", [None, 5])
def test_block_size_does_not_change_the_answer(monkeypatch, m, u, k_max, l_bad):
    if l_bad is not None:
        script_bases(monkeypatch, lambda seed, l: ZeroStream() if l == l_bad else None)
    variants = [(1, 0.3), (4, 0.6), (5, 0.3), (6, 0.45), (11, 0.3), (23, 0.6)]
    h = generate_iid_rayleigh(m, u, stream(5100, m, u, k_max))
    [trial] = sel._ss_us_trials(*checked(h[np.newaxis]), k_max, [80], N0, variants)
    want = [outcome_key(*v) for v in trial]
    # An exhausted rebuild at basis l_bad fails exactly the variants with L > l_bad.
    assert [len(key) == 3 for key in want] == [
        l_bad is not None and l > l_bad for l, _ in variants
    ]
    for size in (1, 3, 23):
        set_block_size(monkeypatch, size)
        [trial] = sel._ss_us_trials(*checked(h[np.newaxis]), k_max, [80], N0, variants)
        got = [outcome_key(*v) for v in trial]
        assert got == want


@pytest.mark.parametrize("m, u, k_max", [(2, 10, 2), (4, 10, 4), (8, 30, 5), (16, 100, 16)])
def test_chunk_does_not_change_the_answer(monkeypatch, m, u, k_max):
    """Each trial of a chunk gets what a lone call on its channel gets.

    Whatever the chunk and block sizes: blocks of whole trials (the
    default, and 23 bases, which hold two trials' 11 bases) and blocks of
    part of one trial's bases (1 and 3). Trial 2 exhausts its redraws at
    basis 5 and fails alone.
    """
    n_trials = 7
    hs, norms = checked(
        [generate_iid_rayleigh(m, u, stream(5500, m, u, t)) for t in range(n_trials)]
    )
    seeds = [90 + t for t in range(n_trials)]
    script_bases(monkeypatch, lambda seed, l: ZeroStream() if (seed, l) == (92, 5) else None)
    variants = [(1, 0.3), (4, 0.6), (6, 0.45), (11, 0.3)]
    want = []
    for h, seed in zip(hs, seeds):
        [trial] = sel._ss_us_trials(*checked(h[np.newaxis]), k_max, [seed], N0, variants)
        want.append([outcome_key(*v) for v in trial])
    assert [len(key) for key in want[2]] == [6, 6, 3, 3]
    for block in (None, 1, 3, 23):
        if block is not None:
            set_block_size(monkeypatch, block)
        for size in (1, 3, n_trials):
            got = []
            for lo in range(0, n_trials, size):
                part = slice(lo, lo + size)
                chunk = sel._ss_us_trials(hs[part], norms[part], k_max, seeds[part], N0, variants)
                got += [[outcome_key(*v) for v in trial] for trial in chunk]
            assert got == want, (block, size)


def lone_outcomes(h, k_max, rng_seed, variants):
    """``outcome_key`` of one ``ss_us`` call per variant on the channel ``h``."""
    keys = []
    for l, alpha in variants:
        ledger = OpLedger()
        try:
            result = ss_us(h, ssus_cfg(h.shape[0], l, alpha, rng_seed, k_max), N0, ledger)
        except BasisConstructionError as exc:
            result = exc
        keys.append(outcome_key(result, ledger))
    return keys


# (bases per block, trials per block row, block rows hashed at once): a
# block of part of one trial's 6 bases, of one trial's bases, of two
# trials' and of every trial's, and the size that ``_bases_per_block`` gives,
# each with the streams hashed a row at a time or as the budget allows.
ROWS = [
    (block, per_row, hash_rows)
    for block, per_row in [(1, 1), (3, 1), (6, 1), (12, 2), (30, 5)]
    for hash_rows in (1, None)
] + [(None, 5, None)]


@pytest.mark.parametrize("block, per_row, hash_rows", ROWS)
def test_chunk_equals_lone_calls_across_rows(monkeypatch, block, per_row, hash_rows):
    """Each trial of a chunk gets what lone ``ss_us`` calls get.

    Whatever the blocks, the trials that share them and the trials whose
    streams are hashed together: ``hash_rows`` 1 hashes one block row at a
    time, None as many as the budget allows. Trial 1, the last of the first
    row of two, exhausts its redraws at basis 2, and trial 2, the first of
    the next row, at basis 5, its last; each fails only the variants that
    reach that basis.
    """
    m, u, k_max, n_trials = 8, 30, 5, 5
    variants = [(1, 0.3), (4, 0.6), (6, 0.45), (3, 0.3), (6, 0.6)]
    bad = {(101, 2), (102, 5)}
    script_bases(monkeypatch, lambda seed, l: ZeroStream() if (seed, l) in bad else None)
    hs, norms = checked(
        [generate_iid_rayleigh(m, u, stream(5600, m, u, t)) for t in range(n_trials)]
    )
    seeds = [100 + t for t in range(n_trials)]
    want = [lone_outcomes(h, k_max, seed, variants) for h, seed in zip(hs, seeds)]
    assert [len(key) == 3 for key in want[1]] == [False, True, True, True, True]
    assert [len(key) == 3 for key in want[2]] == [False, False, True, False, True]
    if block is not None:
        set_block_size(monkeypatch, block)
    if hash_rows is not None:
        # Each stream takes 4 words, and a piece fills an eighth of the budget.
        monkeypatch.setattr(sel, "_BLOCK_BUDGET", 32 * per_row * 6 * hash_rows)
    assert min(n_trials, max(1, sel._bases_per_block(m, u - 1, k_max - 1) // 6)) == per_row
    chunk = sel._ss_us_trials(hs, norms, k_max, seeds, N0, variants)
    assert [[outcome_key(*v) for v in trial] for trial in chunk] == want


def test_correlations_equal_the_unchunked_product(monkeypatch):
    m, u, n_dirs, n_bases = 8, 40, 6, 13
    hs = np.stack([generate_iid_rayleigh(m, u, stream(5200, t)) for t in range(3)])
    h_cand_t = np.ascontiguousarray(hs[:, :, 1:].conj().swapaxes(1, 2))
    norms = np.linalg.norm(hs[:, :, 1:], axis=1)
    v = np.stack([unit_seed(m, 4 + t) for t in range(3)])
    directions = basis_block(v, [9, 10, 11], range(n_bases))[0][..., 1:n_dirs]
    want = np.stack(
        [
            np.clip(np.abs(h_cand_t[t] @ directions[t]) / norms[t, :, np.newaxis], 0.0, 1.0)
            for t in range(3)
        ]
    )
    assert sel._correlations(h_cand_t, directions, norms).tobytes() == want.tobytes()
    # Budgets this small form the products of one basis, of part of a
    # trial's bases, and of the bases of two trials.
    for step in (1, 5, 26):
        monkeypatch.setattr(sel, "_BLOCK_BUDGET", 8 * (u - 1) * (n_dirs - 1) * step)
        assert sel._correlations(h_cand_t, directions, norms).tobytes() == want.tobytes()


def test_match_block_leaves_corr_unchanged():
    m, u, n_bases = 8, 60, 9
    h = generate_iid_rayleigh(m, u, stream(5300))
    norms = np.linalg.norm(h, axis=0)
    rates = np.log2(1.0 + norms**2 / N0)
    directions = basis_block(unit_seed(m, 5)[np.newaxis], [12], range(n_bases))[0][..., 1:]
    corr = sel._correlations(
        h[np.newaxis, :, 1:].conj().swapaxes(1, 2), directions, norms[np.newaxis, 1:]
    ).reshape(n_bases, u - 1, m - 1)
    cand_rates, seed_rates = np.tile(rates[1:], (n_bases, 1)), np.full(n_bases, rates[0])
    before = corr.copy()
    rows = {alpha: sel._match_block(corr, cand_rates, seed_rates, alpha) for alpha in (0.6, 0.3)}
    assert corr.tobytes() == before.tobytes()
    for alpha, got in rows.items():
        want = sel._match_block(before.copy(), cand_rates, seed_rates, alpha)
        assert [column.tobytes() for column in got] == [column.tobytes() for column in want]
    # Both alphas matched something, and differently.
    picks = {alpha: got[1] for alpha, got in rows.items()}
    assert (picks[0.6] >= 0).any() and (picks[0.3] >= 0).any()
    assert not np.array_equal(picks[0.6], picks[0.3])


def match_loop(corr, cand_rates, seed_rate, alpha):
    """``_match_block`` on one (C, D) basis, a candidate and a step at a time."""
    n_cand, n_steps = corr.shape
    available = list(range(n_cand))
    picks, best, comparisons = [], [], 0
    for k in range(n_steps):
        comparisons += len(available)
        scores = [float(corr[c, k]) * float(cand_rates[c]) for c in available]
        if not scores:
            picks.append(-1)
            best.append(-math.inf)
            continue
        # index() finds the first maximum, the lowest candidate left.
        top = max(scores)
        c = available[scores.index(top)]
        best.append(top)
        if corr[c, k] >= alpha:
            picks.append(c)
            available.remove(c)
        else:
            picks.append(-1)
    weights = [seed_rate, *(w for c, w in zip(picks, best) if c >= 0)]
    return math.fsum(weights) / len(weights), picks, best, comparisons


def assert_match_block_equals_loop(corr, cand_rates, seed_rates, alpha):
    means, picks, best, comparisons = sel._match_block(corr, cand_rates, seed_rates, alpha)
    for b in range(len(corr)):
        want = match_loop(corr[b], cand_rates[b], float(seed_rates[b]), alpha)
        got = (float(means[b]), picks[b].tolist(), best[b].tolist(), int(comparisons[b]))
        assert got == want, b
    return picks, best


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.6])
def test_match_block_breaks_exact_ties_toward_the_lowest_candidate(alpha):
    # Every candidate has a twin at the next index, as a repeated channel
    # column gives: the same correlations and rate, so the first step of
    # each basis ties.
    n_bases, n_users, n_steps = 40, 12, 7
    rng = stream(5310)
    twins = np.repeat(np.arange(n_users), 2)
    corr = rng.uniform(size=(n_bases, n_users, n_steps))[:, twins]
    cand_rates = np.tile(rng.uniform(1.0, 5.0, size=n_users)[twins], (n_bases, 1))
    seed_rates = np.full(n_bases, 6.0)
    picks, _ = assert_match_block_equals_loop(corr, cand_rates, seed_rates, alpha)
    first = picks[:, 0][picks[:, 0] >= 0]
    assert first.size > 0 and (first % 2 == 0).all()


def test_match_block_leaves_directions_unfilled_once_the_pool_runs_out():
    # U - 1 = 3 candidates for D = 7 directions: where the pool empties, the
    # later directions stay unfilled with best -inf; at alpha 0.6 some
    # directions also fail the threshold with candidates left.
    n_bases, n_cand, n_steps, alpha = 60, 3, 7, 0.6
    rng = stream(5320)
    corr = rng.uniform(size=(n_bases, n_cand, n_steps))
    cand_rates = rng.uniform(1.0, 5.0, size=(n_bases, n_cand))
    seed_rates = rng.uniform(5.0, 6.0, size=n_bases)
    picks, best = assert_match_block_equals_loop(corr, cand_rates, seed_rates, alpha)
    assert (best == -np.inf).any()
    assert ((picks < 0) & (best > -np.inf)).any()
    assert ((picks >= 0).sum(axis=1) == n_cand).any()


# Peak bytes that tracemalloc sees in one _ss_us_trials call on one trial at U = 100.
# With variants L 1/10/100: measured 0.73 MB at M = 16 (three blocks) and
# 0.94 MB at M = 8 (one block of 100 bases); blocks of 8 peaked at 0.51 and
# 0.24 MB. With L = 1,000 at three alphas, M = 16: measured 1.48 MB, where
# one Python tuple per basis and alpha peaked at 2.36 MB.
PEAK_CASES = [
    pytest.param(16, [(1, 0.45), (10, 0.45), (100, 0.45)], 0.8, id="16"),
    pytest.param(8, [(1, 0.45), (10, 0.45), (100, 0.45)], 1.0, id="8"),
    pytest.param(16, [(1000, 0.3), (1000, 0.45), (1000, 0.6)], 1.6, id="16-L1000-3alphas"),
]


@pytest.mark.parametrize("m, variants, bound_mb", PEAK_CASES)
def test_working_set_of_one_call_is_bounded(m, variants, bound_mb):
    hs, norms = checked(generate_iid_rayleigh(m, 100, stream(5400, m))[np.newaxis])
    sel._ss_us_trials(hs, norms, m, [3], N0, variants)
    tracemalloc.start()
    try:
        sel._ss_us_trials(hs, norms, m, [3], N0, variants)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


def test_working_set_of_a_chunk_is_bounded_by_the_budget():
    # What a chunk call of 64 trials holds beyond the outcomes it returns
    # stays within the bound of one trial's call (PEAK_CASES "16"): the
    # blocks, not the number of trials, set the working set.
    m, variants = 16, [(1, 0.45), (10, 0.45), (100, 0.45)]
    hs, norms = checked([generate_iid_rayleigh(m, 100, stream(5400, m, t)) for t in range(64)])
    seeds = list(range(64))
    sel._ss_us_trials(hs[:2], norms[:2], m, seeds[:2], N0, variants)
    tracemalloc.start()
    try:
        outcomes = sel._ss_us_trials(hs, norms, m, seeds, N0, variants)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(outcomes) == 64
    assert peak - kept <= 0.8e6


def test_qr_fallback_does_not_change_the_answer(monkeypatch):
    # Where numpy has no qr_r_raw, _qr calls np.linalg.qr: the same outcomes
    # and charges, and a 64-trial chunk at M = 16 within the same bound.
    m, variants = 16, [(1, 0.45), (10, 0.45), (100, 0.45)]
    hs, norms = checked([generate_iid_rayleigh(m, 100, stream(5400, m, t)) for t in range(64)])
    seeds = list(range(64))
    chunk = sel._ss_us_trials(hs, norms, m, seeds, N0, variants)
    want = [[outcome_key(*v) for v in trial] for trial in chunk]
    monkeypatch.setattr(sel, "_QR_R_RAW", None)
    tracemalloc.start()
    try:
        outcomes = sel._ss_us_trials(hs, norms, m, seeds, N0, variants)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [[outcome_key(*v) for v in trial] for trial in outcomes] == want
    assert peak - kept <= 0.8e6


def test_working_set_of_a_chunk_at_m8_is_bounded_by_one_call():
    # As above at M = 8, where one block holds a trial's 100 bases; the
    # bound is PEAK_CASES "8", that of one trial's call.
    [bound_mb] = [case.values[2] for case in PEAK_CASES if case.id == "8"]
    m, variants = 8, [(1, 0.45), (10, 0.45), (100, 0.45)]
    hs, norms = checked([generate_iid_rayleigh(m, 100, stream(5400, m, t)) for t in range(64)])
    seeds = list(range(64))
    sel._ss_us_trials(hs[:2], norms[:2], m, seeds[:2], N0, variants)
    tracemalloc.start()
    try:
        outcomes = sel._ss_us_trials(hs, norms, m, seeds, N0, variants)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(outcomes) == 64
    assert peak - kept <= bound_mb * 1e6
