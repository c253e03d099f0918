import collections
import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mimosel.selectors as sel
from mimosel import harness
from mimosel.harness import (
    CSV_COLUMNS,
    AlgoInstance,
    ExperimentConfig,
    algo_instances,
    emit,
    grid_points,
    oracle_check,
    parse_config_text,
    run_monte_carlo,
    run_trial,
)
from mimosel.metrics import SingularSetError, sum_spectral_efficiency
from mimosel.numerics import OpLedger
from mimosel.seeding import derive_seed, stream
from mimosel.selectors import Algorithm
from test_ssus_blocks import ZeroStream, script_bases
from test_zf_kernel import assert_only_the_bad_trial_fails, drawn_beside_a_bad_channel


def tiny_config(**kw):
    defaults = dict(
        m_values=(4,),
        u_values=(10,),
        p0_dbm_values=(-90.0,),
        algorithms=("ssus", "sus"),
        ssus_num_bases=(2,),
        ssus_alpha=(0.45,),
        trials=5,
        master_seed=99,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfigParsing:
    def test_scalars_lists_comments(self):
        text = """
        # experiment
        trials = 12
        master_seed = 7   # inline comment
        grid.m = [4, 8]
        grid.p0_dbm = [-90, -95.5]
        link.bandwidth_hz = 20e6
        select.algorithms = [ssus, gzf]
        output.path = 'out#1.csv'  # a quoted '#' is literal
        timing = true
        """
        mapping = parse_config_text(text)
        assert mapping["trials"] == 12
        assert mapping["grid.m"] == [4, 8]
        assert mapping["grid.p0_dbm"] == [-90, -95.5]
        assert mapping["link.bandwidth_hz"] == 20e6
        assert mapping["select.algorithms"] == ["ssus", "gzf"]
        assert mapping["output.path"] == "out#1.csv"
        assert mapping["timing"] is True

    def test_rejects_garbage_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("not a key value pair")

    def test_rejects_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config_text("a = 1\na = 2")

    def test_unknown_key_rejected_by_config(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_mapping({"grid.q": [1]})

    def test_config_keys(self):
        assert sorted(CONFIG_KEYS) == sorted([
            "trials", "master_seed", "workers", "timing", "grid.m", "grid.u", "grid.p0_dbm",
            "link.bandwidth_hz", "link.noise_figure_db", "select.algorithms", "select.k_max",
            "ssus.l", "ssus.alpha", "sus.epsilon", "random.k", "output.path", "output.format",
        ])

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("trials = 3\ngrid.m = [4]\ngrid.u = [6]\ngrid.p0_dbm = [-90]\n")
        cfg = ExperimentConfig.from_file(path)
        assert cfg.trials == 3
        assert cfg.m_values == (4,)

    def test_missing_file_message_names_path(self):
        with pytest.raises(ValueError, match="no/such/file"):
            ExperimentConfig.from_file("no/such/file.cfg")


class TestConfigValidation:
    def test_k_max_must_fit_smallest_m(self):
        with pytest.raises(ValueError, match="k_max=6 exceeds"):
            tiny_config(k_max=6)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            tiny_config(algorithms=("ssus", "magic"))

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            tiny_config(u_values=())

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            tiny_config(ssus_alpha=(1.5,))

    def test_output_format(self):
        with pytest.raises(ValueError, match="format"):
            tiny_config(output_format="xml")

    @pytest.mark.parametrize(
        "kw",
        [
            dict(timing=1),
            dict(trials=True),
            dict(workers=2.0),
            dict(m_values=(4, "8")),
            dict(noise_figure_db=float("inf")),
            dict(bandwidth_hz=10**400),
            dict(output_path=5),
            dict(k_max=0),
        ],
    )
    def test_rejects_wrong_type_or_range(self, kw):
        with pytest.raises(ValueError):
            tiny_config(**kw)

    def test_values_take_the_declared_types(self):
        cfg = tiny_config(m_values=np.int64(4), p0_dbm_values=[-90], ssus_alpha=0.5,
                          bandwidth_hz=20_000_000)
        assert cfg.m_values == (4,) and type(cfg.m_values[0]) is int
        assert cfg.p0_dbm_values == (-90.0,) and type(cfg.p0_dbm_values[0]) is float
        assert cfg.ssus_alpha == (0.5,)
        assert type(cfg.bandwidth_hz) is float

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            tiny_config().trials = 3


CONFIG_KEYS = [f.metadata["key"] for f in dataclasses.fields(ExperimentConfig)]
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=1, max_value=8),
    st.floats(),
    st.floats(min_value=0.01, max_value=0.99),
    st.text(max_size=6),
    st.sampled_from(["ssus", "gzf", "csv", "json"]),
)
MAPPINGS = st.fixed_dictionaries(
    {}, optional={key: st.one_of(SCALARS, st.lists(SCALARS, max_size=3)) for key in CONFIG_KEYS}
)

# Right-hand sides of config lines, drawn from the characters the parser treats specially.
VALUE_TEXTS = st.text(alphabet=" []#,'\"=.-+e0123456789anift", max_size=12)


class TestConfigProperties:
    @settings(max_examples=150, deadline=None, database=None)
    @given(MAPPINGS)
    def test_from_mapping_returns_config_or_value_error(self, mapping):
        try:
            cfg = ExperimentConfig.from_mapping(mapping)
        except ValueError:
            return
        # converted values pass the same checks again
        assert dataclasses.replace(cfg) == cfg

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.sampled_from(CONFIG_KEYS), VALUE_TEXTS)
    def test_config_text_parses_or_raises_value_error(self, key, value):
        try:
            ExperimentConfig.from_mapping(parse_config_text(f"{key} = {value}"))
        except ValueError:
            pass


class TestGridExpansion:
    def test_order_and_ids(self):
        cfg = tiny_config(m_values=(4, 8), u_values=(10, 20), p0_dbm_values=(-90.0,))
        points = grid_points(cfg)
        assert [p.scenario_id for p in points] == [
            "m4_u10_p-90",
            "m4_u20_p-90",
            "m8_u10_p-90",
            "m8_u20_p-90",
        ]
        assert [p.index for p in points] == [0, 1, 2, 3]
        assert points[0].k_max == 4 and points[2].k_max == 8

    def test_instances_cross_product_in_order(self):
        cfg = tiny_config(
            algorithms=("ssus", "gzf"), ssus_num_bases=(1, 10), ssus_alpha=(0.35, 0.65)
        )
        instances = algo_instances(cfg)
        assert [(i.label, i.num_bases, i.alpha) for i in instances] == [
            ("ssus", 1, 0.35),
            ("ssus", 1, 0.65),
            ("ssus", 10, 0.35),
            ("ssus", 10, 0.65),
            ("gzf", None, None),
        ]


def strip_wall(report):
    return {
        inst: (cell.selected, cell.se, cell.macs, cell.divisions, cell.comparisons, cell.error)
        for inst, cell in report.cells.items()
    }


def drawn(cfg, point, indices, instances=()):
    """The (T, M, U) channel stack that a chunk of the trials ``indices``
    at ``point`` draws; without ``instances``, no selector runs."""
    return harness._draw_chunk(cfg, point, list(instances), indices)[0]


class TestRunTrial:
    def test_single_user_all_algorithms_agree(self):
        cfg = tiny_config(u_values=(1,), algorithms=("ssus", "sus", "gzf", "random"))
        point = grid_points(cfg)[0]
        report = run_trial(cfg, point, algo_instances(cfg), 0)
        ses = {cell.se for cell in report.cells.values()}
        assert all(cell.k_b == 1 for cell in report.cells.values())
        assert len(ses) == 1

    def test_deterministic_given_seeds(self):
        cfg = tiny_config()
        point = grid_points(cfg)[0]
        instances = algo_instances(cfg)
        a = run_trial(cfg, point, instances, 3)
        b = run_trial(cfg, point, instances, 3)
        assert np.array_equal(drawn(cfg, point, [3]), drawn(cfg, point, [3]))
        assert strip_wall(a) == strip_wall(b)

    def test_heuristics_bounded_by_oracle(self):
        cfg = tiny_config(
            u_values=(8,),
            algorithms=("ssus", "sus", "gzf", "mcore_plus", "random", "exhaustive"),
            ssus_num_bases=(10,),
        )
        point = grid_points(cfg)[0]
        instances = algo_instances(cfg)
        oracle = next(i for i in instances if i.algorithm is Algorithm.EXHAUSTIVE)
        for trial in range(5):
            report = run_trial(cfg, point, instances, trial)
            for inst, cell in report.cells.items():
                assert cell.se <= report.cells[oracle].se

    def test_trials_share_one_channel(self):
        # all algorithms in one trial run on the same matrix: a chunk draws
        # a single channel per trial, and drawing it for any subset of
        # algorithms reproduces it
        cfg = tiny_config()
        point = grid_points(cfg)[0]
        full = drawn(cfg, point, [0], algo_instances(cfg))
        only_sus = drawn(cfg, point, [0], [AlgoInstance(Algorithm.SUS)])
        assert np.array_equal(full, only_sus)


ALL_ALGORITHMS = ("ssus", "sus", "gzf", "mcore_plus", "random", "exhaustive")
# The chunk engines, as ``selectors._select_trials`` looks them up.
ENGINES = (
    "_ss_us_trials",
    "_sus_trials",
    "_gzf_trials",
    "_mcore_plus_trials",
    "_random_trials",
    "_exhaustive_trials",
)


class TestTrialChunks:
    """``_trial_chunk`` draws, selects and scores its trials a chunk at a time.

    The benchmark's span tracer replaces ``harness._trial_chunk`` and counts
    the calls of the module-level ``harness.run_trial``, one per trial. Each
    selector runs in one chunk-engine call per chunk. A trial's report must
    not depend on which trials share its chunk. Trial 3
    exhausts its redraws at basis 3, so its L = 5 cell fails and its L = 2
    cell does not; trial 5 has a non-finite channel, so all its cells fail;
    and trial 7 has a rank-1 channel, so ``random``'s four users fail the
    ``COND_LIMIT`` guard, in the same scoring call as trial 6's finite sets
    when the two trials share a chunk.
    """

    CFG = tiny_config(
        trials=8,
        algorithms=("ssus", "sus", "gzf", "mcore_plus", "random", "exhaustive"),
        ssus_num_bases=(2, 5),
    )

    @pytest.fixture
    def failing_trials(self, monkeypatch):
        cfg = self.CFG
        bad_seed = derive_seed(cfg.master_seed, 0, 3, harness._ROLE_SELECT)
        script_bases(
            monkeypatch, lambda seed, l: ZeroStream() if (seed, l) == (bad_seed, 3) else None
        )
        real_generate = harness.generate_iid_rayleigh
        nan_channel, rank_1_channel = (
            real_generate(4, 10, stream(cfg.master_seed, 0, t, harness._ROLE_CHANNEL))
            for t in (5, 7)
        )

        def generate(m, u, rng):
            h = real_generate(m, u, rng)
            if np.array_equal(h, nan_channel):
                h[0, 0] = np.nan
            if np.array_equal(h, rank_1_channel):
                h[...] = np.outer(h[:, 0], h[0, :])
            return h

        monkeypatch.setattr(harness, "generate_iid_rayleigh", generate)

    def run_chunks(self, monkeypatch, size):
        monkeypatch.setattr(harness, "_trials_per_chunk", lambda point: size)
        point = grid_points(self.CFG)[0]
        indices = list(range(self.CFG.trials))
        return harness._trial_chunk((self.CFG, point, algo_instances(self.CFG), indices))

    @staticmethod
    def key(report):
        """The report without wall times, with each SE as its bytes."""
        cells = {
            inst: dataclasses.replace(cell, se=np.float64(cell.se).tobytes(), wall_ns=0)
            for inst, cell in report.cells.items()
        }
        return report.trial_index, cells

    def test_run_trial_runs_once_per_trial(self, monkeypatch):
        calls = []
        real_run_trial = harness.run_trial

        def counting(cfg, point, instances, trial_index, *drawn):
            calls.append(trial_index)
            return real_run_trial(cfg, point, instances, trial_index, *drawn)

        monkeypatch.setattr(harness, "run_trial", counting)
        for size in (1, 3, self.CFG.trials):
            calls.clear()
            reports = self.run_chunks(monkeypatch, size)
            assert calls == list(range(self.CFG.trials))
            assert [r.trial_index for r in reports] == calls

    def test_each_engine_runs_once_per_chunk(self, monkeypatch, failing_trials):
        # Every selector, ``sus`` and ``random`` too, runs in one engine call
        # per chunk on the chunk's valid trials; trial 5's channel fails.
        calls = collections.defaultdict(list)
        for name in ENGINES:
            real = getattr(sel, name)

            def spy(stack, *args, name=name, real=real):
                calls[name].append(len(stack))
                return real(stack, *args)

            monkeypatch.setattr(sel, name, spy)
        # No cell runs through ``run_selection``.
        monkeypatch.setattr(harness, "run_selection", None)
        for size in (1, 3, self.CFG.trials):
            calls.clear()
            self.run_chunks(monkeypatch, size)
            valid = [
                sum(t != 5 for t in range(lo, min(lo + size, self.CFG.trials)))
                for lo in range(0, self.CFG.trials, size)
            ]
            assert dict(calls) == {name: [n for n in valid if n] for name in ENGINES}, size

    def test_lone_run_selection_equals_its_chunk_cell(self):
        # Every algorithm, each through ``selectors._select_trials``: a lone
        # ``run_selection`` on a trial's channel, with ``rng_seed`` the seed
        # of the algorithm's stream role in the chunk, gives the outcome and
        # ledger of that trial's cell. An algorithm with no engine fails
        # both, and so this test.
        cfg = tiny_config(
            algorithms=tuple(a.value for a in Algorithm), ssus_num_bases=(2, 5),
            ssus_alpha=(0.3, 0.6), sus_epsilon=0.4, k_max=3, random_k=2, trials=6,
        )
        point = grid_points(cfg)[0]
        instances = algo_instances(cfg)
        assert {inst.algorithm for inst in instances} == set(Algorithm)
        hs, chunk = harness._draw_chunk(cfg, point, instances, list(range(cfg.trials)))
        roles = {Algorithm.SSUS: harness._ROLE_SELECT, Algorithm.RANDOM: harness._ROLE_RANDOM}
        for t, (h, cells) in enumerate(zip(hs, chunk)):
            for inst, (outcome, ledger, _) in cells.items():
                assert not isinstance(outcome, Exception), (t, inst, outcome)
                role = roles.get(inst.algorithm)
                lone_cfg = sel.SelectionConfig(
                    inst.algorithm,
                    point.random_k if inst.algorithm is Algorithm.RANDOM else point.k_max,
                    num_bases=inst.num_bases or 1,
                    alpha=inst.alpha or 0.45,
                    sus_epsilon=cfg.sus_epsilon,
                    rng_seed=0 if role is None else derive_seed(cfg.master_seed, 0, t, role),
                )
                got = sel.run_selection(h, lone_cfg, point.n0, lone := OpLedger())
                assert (got, lone) == (outcome, ledger), (t, inst)

    def test_chunk_size_does_not_change_the_reports(self, monkeypatch, failing_trials):
        point = grid_points(self.CFG)[0]
        instances = algo_instances(self.CFG)
        want = [self.key(run_trial(self.CFG, point, instances, t)) for t in range(self.CFG.trials)]
        short, long = instances[:2]
        random = AlgoInstance(Algorithm.RANDOM)
        errors = {t: {i for i, cell in cells.items() if cell.error} for t, cells in want}
        assert errors == {t: set() for t in range(8)} | {
            3: {long}, 5: set(instances), 7: {random}
        }
        assert (short.num_bases, long.num_bases) == (2, 5)
        rank_1 = harness.generate_iid_rayleigh(
            4, 10, stream(self.CFG.master_seed, 0, 7, harness._ROLE_CHANNEL)
        )
        with pytest.raises(SingularSetError) as singular:
            sum_spectral_efficiency(rank_1[:, :4], point.n0, OpLedger())
        assert want[7][1][random].error == str(singular.value)
        # Each trial's channel, as a lone chunk draws it, NaN included.
        channels = [drawn(self.CFG, point, [t]).tobytes() for t in range(self.CFG.trials)]
        chunk_channels = []
        real_draw = harness._draw_chunk

        def draw(*args):
            hs, selections = real_draw(*args)
            chunk_channels.extend(h.tobytes() for h in hs)
            return hs, selections

        monkeypatch.setattr(harness, "_draw_chunk", draw)
        for size in (1, 3, self.CFG.trials):
            chunk_channels.clear()
            assert [self.key(r) for r in self.run_chunks(monkeypatch, size)] == want
            assert chunk_channels == channels

    def test_one_scoring_call_per_set_size_per_chunk(self, monkeypatch, failing_trials):
        # Per chunk: the sizes of its successful selections, their count,
        # and the (P, M, K) shape of each scoring call.
        chunks = []
        real_draw, real_rates = harness._draw_chunk, harness._zf_sum_rates

        def draw(*args):
            hs, selections = real_draw(*args)
            sets = [len(outcome.selected) for trial in selections
                    for outcome, _, _ in trial.values() if not isinstance(outcome, Exception)]
            chunks.append((set(sets), len(sets), []))
            return hs, selections

        def rates(stack, n0, ledger):
            chunks[-1][2].append(stack.shape)
            return real_rates(stack, n0, ledger)

        monkeypatch.setattr(harness, "_draw_chunk", draw)
        monkeypatch.setattr(harness, "_zf_sum_rates", rates)
        for size in (1, 3, self.CFG.trials):
            chunks.clear()
            self.run_chunks(monkeypatch, size)
            assert len(chunks) == -(-self.CFG.trials // size)
            for sizes, count, shapes in chunks:
                assert sorted(k for _, _, k in shapes) == sorted(sizes)
                assert sum(p for p, _, _ in shapes) == count

    def test_scoring_calls_stay_within_the_block_budget(self, monkeypatch):
        # At M = U = 6 a chunk holds 972 trials, and a final set of K = 6
        # is as large as a trial's channel, so the 20 ``ssus`` variants
        # give the chunk more K = 6 sets than fit in one call.
        cfg = tiny_config(
            m_values=(6,), u_values=(6,), algorithms=("ssus", "gzf"), trials=250,
            ssus_num_bases=(1, 2, 3, 4, 5), ssus_alpha=(0.2, 0.4, 0.6, 0.8),
        )
        point = grid_points(cfg)[0]
        instances = algo_instances(cfg)
        assert harness._trials_per_chunk(point) >= cfg.trials
        want = [self.key(run_trial(cfg, point, instances, t)) for t in range(cfg.trials)]
        shapes = []
        real_rates = harness._zf_sum_rates

        def rates(stack, n0, ledger):
            shapes.append(stack.shape)
            return real_rates(stack, n0, ledger)

        monkeypatch.setattr(harness, "_zf_sum_rates", rates)
        reports = harness._trial_chunk((cfg, point, instances, list(range(cfg.trials))))
        assert [self.key(r) for r in reports] == want
        sets, calls = collections.Counter(), collections.Counter()
        for p, m, k in shapes:
            assert 2 * p * m * k <= sel._BLOCK_BUDGET
            sets[k] += p
            calls[k] += 1
        assert calls[6] > 1
        for k, n in sets.items():
            assert calls[k] == -(-n // (sel._BLOCK_BUDGET // (2 * 6 * k)))

    def test_workers_do_not_change_the_output(self, failing_trials, capsys):
        outputs = []
        for workers in (1, 2):
            rows = run_monte_carlo(dataclasses.replace(self.CFG, workers=workers))
            outputs.append((emit(rows, "csv"), emit(rows, "json"), capsys.readouterr().err))
        assert outputs[0] == outputs[1]
        # Every row lost trial 5, L = 5 lost trial 3 too and random trial 7.
        assert outputs[0][2].count("\n") == 7
        assert "failed ssus (L=5, alpha=0.45) at m4_u10_p-90: 2 of 8 trials" in outputs[0][2]
        assert "failed random at m4_u10_p-90: 2 of 8 trials" in outputs[0][2]


def spoil(h, kind):
    """Make ``h`` a channel that ``_as_channel`` rejects, in the way ``kind`` names."""
    if kind == "nan":
        h[1, 3] = complex(np.nan, 0.0)
    elif kind == "inf":
        h[1, 3] = complex(0.0, -np.inf)
    elif kind == "overflow":
        h[:, 3] *= 1e160
    else:
        h[:, 3] *= 1e-170


class TestChannelCheck:
    """Each channel is checked once, where it enters: in ``_draw_chunk`` for
    the channels a chunk draws, in each lone selector call for its own."""

    @staticmethod
    def count_checks(monkeypatch):
        """The calls of ``_as_channel`` from now on, one entry each."""
        calls = []
        real = sel._as_channel

        def counting(h):
            calls.append(None)
            return real(h)

        monkeypatch.setattr(sel, "_as_channel", counting)
        monkeypatch.setattr(harness, "_as_channel", counting)
        return calls

    @pytest.mark.parametrize(
        "algorithms, per_trial",
        [
            # The draw checks each channel, and every selector runs as a
            # chunk engine on the checked stack.
            (ALL_ALGORITHMS, 1),
            (("ssus", "gzf", "mcore_plus", "exhaustive"), 1),
        ],
        ids=["oracle_small", "chunk_engines"],
    )
    def test_each_drawn_channel_is_checked_once(self, monkeypatch, algorithms, per_trial):
        # The benchmark's oracle_small grid: M = 4, U = 10, K_max = 4, L = 10.
        cfg = tiny_config(
            algorithms=algorithms, ssus_num_bases=(10,), k_max=4, trials=50, master_seed=1234
        )
        calls = self.count_checks(monkeypatch)
        run_monte_carlo(cfg)
        assert len(calls) == per_trial * cfg.trials

    @pytest.mark.parametrize(
        "call",
        [
            lambda h: sel.ss_us(h, sel.SelectionConfig(Algorithm.SSUS, 4, 10), 1.0, OpLedger()),
            lambda h: sel.gzf(h, 1.0, 4, OpLedger()),
            lambda h: sel.mcore_plus(h, 1.0, 4, OpLedger()),
            lambda h: sel.exhaustive_oracle(h, 1.0, 4, OpLedger()),
            lambda h: sel.sus(h, sel.SelectionConfig(Algorithm.SUS, 4), 1.0, OpLedger()),
            lambda h: sel.random_select(h, 4, stream(5800)),
        ],
        ids=["ss_us", "gzf", "mcore_plus", "exhaustive_oracle", "sus", "random_select"],
    )
    def test_a_lone_call_checks_its_channel_once(self, monkeypatch, call):
        h = harness.generate_iid_rayleigh(4, 10, stream(5700))
        calls = self.count_checks(monkeypatch)
        call(h)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("nan", "channel matrix contains a non-finite entry"),
            ("inf", "channel matrix contains a non-finite entry"),
            ("overflow", "channel matrix contains a column whose norm overflows"),
            ("underflow",
             "channel matrix contains an all-zero column, or one whose norm underflows"),
        ],
        ids=["nan", "inf", "overflow", "underflow"],
    )
    def test_bad_channel_fails_only_its_trial(self, monkeypatch, kind, message):
        # The bad channel is trial 2 of five. It fails every cell with the
        # check's error, and no selector sees it; the other trials get
        # their lone reports in every chunk.
        cfg = tiny_config(algorithms=ALL_ALGORITHMS, ssus_num_bases=(2, 5))
        point = grid_points(cfg)[0]
        instances = algo_instances(cfg)
        want = [TestTrialChunks.key(run_trial(cfg, point, instances, t)) for t in range(5)]
        real_generate = harness.generate_iid_rayleigh
        bad = real_generate(4, 10, stream(cfg.master_seed, 0, 2, harness._ROLE_CHANNEL))

        def generate(m, u, rng):
            h = real_generate(m, u, rng)
            if np.array_equal(h, bad):
                spoil(h, kind)
            return h

        monkeypatch.setattr(harness, "generate_iid_rayleigh", generate)
        for size in (1, 3, 5):
            monkeypatch.setattr(harness, "_trials_per_chunk", lambda point: size)
            reports = harness._trial_chunk((cfg, point, instances, list(range(5))))
            keys = [TestTrialChunks.key(report) for report in reports]
            assert keys[:2] + keys[3:] == want[:2] + want[3:], size
            cells = reports[2].cells
            assert list(cells) == instances
            for cell in cells.values():
                assert cell.error == message
                assert cell.selected == () and math.isnan(cell.se)
                assert (cell.macs, cell.divisions, cell.comparisons) == (0, 0, 0)

    def test_sus_fails_only_the_trial_with_a_bad_channel(self, monkeypatch):
        # As for ``gzf``: the NaN trial fails at the chunk draw, ``_sus_trials``
        # runs once on the four valid trials, and each gets its lone call's
        # selection and ledger.
        hs, n0, outcomes, seen = drawn_beside_a_bad_channel(monkeypatch, "sus", "_sus_trials")
        assert seen == [4]
        cfg = sel.SelectionConfig(Algorithm.SUS, 4, sus_epsilon=ExperimentConfig.sus_epsilon)
        assert_only_the_bad_trial_fails(
            hs, n0, outcomes, lambda h, n0, k_max, ledger: sel.sus(h, cfg, n0, ledger)
        )

    def test_random_fails_only_the_trial_with_a_bad_channel(self, monkeypatch):
        # Each valid trial draws the users of a lone call on its own stream.
        hs, n0, outcomes, seen = drawn_beside_a_bad_channel(
            monkeypatch, "random", "_random_trials"
        )
        assert seen == [4]
        assert [(str(outcome), ledger) for outcome, ledger in outcomes[2:3]] == [
            ("channel matrix contains a non-finite entry", OpLedger())
        ]
        for t in (0, 1, 3, 4):
            seed = derive_seed(ExperimentConfig.master_seed, 0, t, harness._ROLE_RANDOM)
            assert outcomes[t] == (sel.random_select(hs[t], 4, stream(seed)), OpLedger()), t


class TestChunkSeeding:
    """A chunk sets every stream it draws on one generator (``seeding._seeded``),
    and each draw equals that of the trial's own ``default_rng`` stream."""

    SEEDS = (0, 1, 1234, 2**32 - 1, 2**32, 2**64 - 1)

    def test_channel_stack_equals_the_lone_streams(self):
        for master_seed in self.SEEDS:
            cfg = tiny_config(
                m_values=(1, 4), u_values=(1, 10, 100), master_seed=master_seed, trials=40
            )
            for point in grid_points(cfg):
                indices = list(range(cfg.trials))
                hs, _ = harness._draw_chunk(cfg, point, [], indices)
                want = np.stack([
                    harness.generate_iid_rayleigh(
                        point.m, point.u,
                        stream(master_seed, point.index, t, harness._ROLE_CHANNEL),
                    )
                    for t in indices
                ])
                assert hs.tobytes() == want.tobytes(), (master_seed, point.index)

    def test_random_picks_equal_the_lone_streams(self):
        for master_seed in self.SEEDS:
            cfg = tiny_config(
                m_values=(2, 4), u_values=(3, 10), algorithms=("random",),
                master_seed=master_seed, trials=40,
            )
            [inst] = algo_instances(cfg)
            for point in grid_points(cfg):
                indices = list(range(cfg.trials))
                hs, chunk = harness._draw_chunk(cfg, point, [inst], indices)
                for t, (h, trial) in enumerate(zip(hs, chunk)):
                    seed = derive_seed(master_seed, point.index, t, harness._ROLE_RANDOM)
                    want = sel.random_select(h, point.random_k, stream(seed))
                    assert trial[inst][:2] == (want, OpLedger()), (master_seed, point.index, t)


class TestAggregation:
    def test_single_trial_equals_cell(self):
        cfg = tiny_config(trials=1)
        rows = run_monte_carlo(cfg)
        point = grid_points(cfg)[0]
        report = run_trial(cfg, point, algo_instances(cfg), 0)
        ssus_cell = report.cells[algo_instances(cfg)[0]]
        assert rows[0].mean_se == pytest.approx(ssus_cell.se, rel=1e-15)
        assert rows[0].stderr_se == 0.0
        assert rows[0].trials == 1

    def test_mean_recomputable_from_trials(self):
        cfg = tiny_config(trials=20)
        point = grid_points(cfg)[0]
        instances = algo_instances(cfg)
        reports = [run_trial(cfg, point, instances, t) for t in range(cfg.trials)]
        rows = run_monte_carlo(cfg)
        for idx, inst in enumerate(instances):
            ses = [r.cells[inst].se for r in reports]
            assert abs(rows[idx].mean_se - math.fsum(ses) / len(ses)) <= 1e-12

    def test_partition_invariance(self):
        cfg = tiny_config(trials=30)
        point = grid_points(cfg)[0]
        inst = algo_instances(cfg)[0]
        reports = [run_trial(cfg, point, [inst], t) for t in range(cfg.trials)]
        ses = [r.cells[inst].se for r in reports]
        whole = math.fsum(ses) / len(ses)
        for split in (7, 13, 22):
            part = (math.fsum(ses[:split]) + math.fsum(ses[split:])) / len(ses)
            assert abs(part - whole) <= 1e-12

    def test_worker_count_invariance(self):
        cfg1 = tiny_config(trials=12, workers=1, algorithms=("ssus", "gzf", "random"))
        cfg4 = tiny_config(trials=12, workers=4, algorithms=("ssus", "gzf", "random"))
        assert emit(run_monte_carlo(cfg1), "csv") == emit(run_monte_carlo(cfg4), "csv")

    @staticmethod
    def record_fan_outs(monkeypatch):
        """Stand in for ``harness._fan_out``: record each call's shares and
        run them in this process. Returns the list of recorded calls."""
        calls = []

        def fan_out(cfg, jobs, shares, cpus):
            # The sorted affinity mask that ``_run_trials`` read, if any.
            has_mask = hasattr(harness.os, "sched_getaffinity")
            assert cpus == (sorted(harness.os.sched_getaffinity(0)) if has_mask else [])
            calls.append([{p.scenario_id: idx for p, idx in share.items()} for share in shares])
            return [harness._run_share(cfg, jobs, share) for share in shares]

        monkeypatch.setattr(harness, "_fan_out", fan_out)
        return calls

    # Ids are "<cpu_count>-<expected>"; ``affinity`` None stands for an OS
    # without ``sched_getaffinity``.
    @pytest.mark.parametrize(
        "affinity, cpus, expected",
        [
            pytest.param({0, 1}, 2, 2, id="2-2"),
            pytest.param(set(range(64)), 64, 6, id="64-6"),
            pytest.param(None, None, 1, id="None-1"),
            pytest.param(None, 1, 1, id="1-1"),
            pytest.param({0}, 2, 1, id="pinned_to_one-2-1"),
            pytest.param(None, 64, 6, id="no_affinity-64-6"),
        ],
    )
    def test_pool_capped_at_trials_and_cpu_count(self, monkeypatch, affinity, cpus, expected):
        # ``expected`` shares after the caps; the first runs in this process,
        # and one share forks nothing. The CPUs are those of the affinity
        # mask where the OS has one, else the CPU count.
        calls = self.record_fan_outs(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(
                harness.os, "sched_getaffinity", lambda pid: affinity, raising=False
            )
        rows = run_monte_carlo(tiny_config(trials=6, workers=5000))
        assert [len(shares) for shares in calls] == [expected]
        if expected == 1:
            assert calls[0] == [{"m4_u10_p-90": list(range(6))}]
        assert emit(rows, "csv") == emit(run_monte_carlo(tiny_config(trials=6)), "csv")

    def test_one_pool_per_sweep(self, monkeypatch):
        calls = self.record_fan_outs(monkeypatch)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(
            harness.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
        )
        cfg = tiny_config(m_values=(4, 8), trials=5, workers=3)
        serial = emit(run_monte_carlo(dataclasses.replace(cfg, workers=1)), "csv")
        assert len(calls) == 1
        calls.clear()
        # Pieces of two trials: M = 8's (160, 160, 80 by M·U·trials) and
        # M = 4's (80, 80, 40) are dealt largest first, the second lap
        # backwards, and a share's pieces of one point join in index order.
        monkeypatch.setattr(harness, "_trials_per_chunk", lambda point: 2)
        rows = run_monte_carlo(cfg)
        assert calls == [
            [
                {"m8_u10_p-90": [0, 1], "m4_u10_p-90": [4]},
                {"m8_u10_p-90": [2, 3, 4]},
                {"m4_u10_p-90": [0, 1, 2, 3]},
            ]
        ]
        assert emit(rows, "csv") == serial
        # With fewer pieces than shares, each share takes every third trial.
        monkeypatch.setattr(harness, "_trials_per_chunk", lambda point: 5)
        rows = run_monte_carlo(cfg)
        strided = [[0, 3], [1, 4], [2]]
        assert calls[1] == [{"m4_u10_p-90": s, "m8_u10_p-90": s} for s in strided]
        assert emit(rows, "csv") == serial
        assert len(calls) == 2

    def test_shared_pool_output_matches_serial_with_skipped_cell(self, capsys):
        # mcore_plus is infeasible at M = U = 20, so one point runs only sus.
        kw = dict(m_values=(4, 20), u_values=(20,), algorithms=("mcore_plus", "sus"), trials=6)
        serial = emit(run_monte_carlo(tiny_config(workers=1, **kw)), "csv")
        serial_err = capsys.readouterr().err
        pooled = emit(run_monte_carlo(tiny_config(workers=2, **kw)), "csv")
        assert pooled == serial
        assert capsys.readouterr().err == serial_err
        assert serial_err.count("skipped mcore_plus") == 1


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def log_event(path, *event):
    """Append ``event``, tagged with this process's pid, to the JSON lines
    of ``path``, in one write, from whichever process calls it."""
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, (json.dumps([os.getpid(), *event]) + "\n").encode())
    finally:
        os.close(fd)


def logged_events(path, caller):
    """The events of ``log_event`` by process, in order, with ``caller``'s
    pid as "caller"."""
    events = collections.defaultdict(list)
    for line in path.read_text().splitlines() if path.exists() else ():
        pid, *event = json.loads(line)
        events["caller" if pid == caller else pid].append(tuple(event))
    return dict(events)


class TestFanOut:
    """``_fan_out`` forks a child for every share but the first, which this
    process runs, pins each share to its own CPU of the affinity mask, and
    leaves no child behind."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        """Stand in a mask of four CPUs. The sweep's pins to this mask may
        change this process's real one, which comes back after the test."""
        real_mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        real_pin = getattr(os, "sched_setaffinity", None)
        monkeypatch.setattr(
            harness.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False
        )
        yield
        if real_mask is not None and real_pin is not None:
            real_pin(0, real_mask)

    @pytest.fixture
    def placements(self, monkeypatch, tmp_path):
        """Stand in for ``sched_setaffinity`` and wrap ``_trial_chunk``: log
        each pin as ("pin", cpus) and each chunk as ("chunk", its trial
        indices), in whichever process makes it. Returns a function that
        gives the log so far by process, this one's as "caller"."""
        path, caller = tmp_path / "placements.jsonl", os.getpid()

        def pin(pid, cpus):
            assert pid == 0
            log_event(path, "pin", sorted(cpus))

        real_chunk = harness._trial_chunk

        def chunk(args):
            log_event(path, "chunk", list(args[3]))
            return real_chunk(args)

        monkeypatch.setattr(harness.os, "sched_setaffinity", pin, raising=False)
        monkeypatch.setattr(harness, "_trial_chunk", chunk)
        return lambda: logged_events(path, caller)

    @staticmethod
    def mc_bytes(tmp_path, workers):
        """The CSV bytes of ``mc`` at ``workers`` workers on a two-point grid."""
        from mimosel.cli import main

        path, out = tmp_path / "exp.cfg", tmp_path / f"rows-{workers}.csv"
        path.write_text("trials = 6\ngrid.m = [4, 8]\nselect.algorithms = [ssus, sus, random]\n")
        flags = ["--workers", str(workers), "--out", str(out)]
        assert main(["mc", "--config", str(path), *flags]) == 0
        return out.read_bytes()

    @staticmethod
    def fail_in(monkeypatch, where, raise_it):
        """Make ``_trial_chunk`` call ``raise_it`` in this process
        (``where`` "parent") or in a forked child ("child")."""
        parent = os.getpid()
        real_chunk = harness._trial_chunk

        def chunk(args):
            if (os.getpid() == parent) == (where == "parent"):
                raise_it()
            return real_chunk(args)

        monkeypatch.setattr(harness, "_trial_chunk", chunk)

    def test_sweep_leaves_no_child(self):
        rows = run_monte_carlo(tiny_config(m_values=(4, 8), trials=6, workers=4))
        assert [r.trials for r in rows] == [6] * 4
        assert_no_child_left()

    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
    def test_child_error_is_raised_here(self, monkeypatch, error):
        def raise_it():
            raise error("share broke")

        self.fail_in(monkeypatch, "child", raise_it)
        with pytest.raises(error) as caught:
            run_monte_carlo(tiny_config(m_values=(4, 8), trials=6, workers=3))
        assert type(caught.value) is error
        assert str(caught.value) == "share broke"
        assert "in raise_it" in str(caught.value.__cause__)
        assert_no_child_left()

    def test_child_error_is_one_error_line(self, monkeypatch, tmp_path, capsys):
        def raise_it():
            raise ValueError("share broke")

        self.fail_in(monkeypatch, "child", raise_it)
        path = tmp_path / "exp.cfg"
        path.write_text("trials = 4\nworkers = 2\ngrid.m = [4]\ngrid.u = [8, 12]\n")
        from mimosel.cli import main

        assert main(["mc", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: share broke\n"
        assert_no_child_left()

    def test_child_that_exits_without_trials(self, monkeypatch):
        self.fail_in(monkeypatch, "child", lambda: os._exit(3))
        with pytest.raises(RuntimeError, match="ended without sending its trials"):
            run_monte_carlo(tiny_config(m_values=(4, 8), trials=6, workers=2))
        assert_no_child_left()

    def test_parent_error_kills_and_reaps_the_children(self, monkeypatch, placements):
        def raise_it():
            raise KeyError("parent broke")

        self.fail_in(monkeypatch, "parent", raise_it)
        with pytest.raises(KeyError, match="parent broke"):
            run_monte_carlo(tiny_config(m_values=(4, 8), trials=6, workers=4))
        assert_no_child_left()
        # Pinned to the first CPU for its share, which raised, then given
        # back its whole mask.
        assert placements()["caller"] == [("pin", [0]), ("pin", [0, 1, 2, 3])]

    def test_each_share_runs_pinned_to_its_own_cpu(self, placements):
        # One point of four trials in four shares: share i runs trial i.
        rows = run_monte_carlo(tiny_config(trials=4, workers=4))
        assert [r.trials for r in rows] == [4, 4]
        assert_no_child_left()
        log = placements()
        assert log.pop("caller") == [("pin", [0]), ("chunk", [0]), ("pin", [0, 1, 2, 3])]
        assert sorted(log.values()) == [[("pin", [i]), ("chunk", [i])] for i in (1, 2, 3)]

    def test_one_share_pins_nothing(self, placements):
        run_monte_carlo(tiny_config(trials=4, workers=1))
        assert placements() == {"caller": [("chunk", [0, 1, 2, 3])]}

    def test_refused_pins_change_no_byte(self, monkeypatch, tmp_path):
        serial = self.mc_bytes(tmp_path, 1)

        def refuse(pid, cpus):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(harness.os, "sched_setaffinity", refuse, raising=False)
        assert self.mc_bytes(tmp_path, 4) == serial
        assert_no_child_left()

    def test_without_affinity_calls_nothing_is_pinned(self, monkeypatch, tmp_path):
        serial = self.mc_bytes(tmp_path, 1)
        # A pin would raise ``AttributeError``, in this process or a child.
        monkeypatch.delattr(harness.os, "sched_setaffinity", raising=False)
        assert self.mc_bytes(tmp_path, 4) == serial
        assert_no_child_left()

    def test_without_fork_the_run_is_serial(self, monkeypatch):
        cfg = tiny_config(m_values=(4, 8), trials=6, workers=4)
        serial = emit(run_monte_carlo(dataclasses.replace(cfg, workers=1)), "csv")
        monkeypatch.delattr(harness.os, "fork")
        calls = []
        real_chunk = harness._trial_chunk

        def chunk(args):
            calls.append((args[1].scenario_id, args[3]))
            return real_chunk(args)

        monkeypatch.setattr(harness, "_trial_chunk", chunk)
        assert emit(run_monte_carlo(cfg), "csv") == serial
        # One in-process call per point with all its trials, as at one worker.
        assert sorted(calls) == [("m4_u10_p-90", list(range(6))), ("m8_u10_p-90", list(range(6)))]

    # Grids of 1, 2, 3 and 5 points of uneven size, at the real chunk size
    # (one piece per point) and at two trials per chunk (several pieces).
    @pytest.mark.parametrize("chunk", [None, 2])
    @pytest.mark.parametrize(
        "grid",
        [
            "grid.m = [4]\ngrid.u = [10]",
            "grid.m = [4]\ngrid.u = [6, 30]",
            "grid.m = [2, 4, 8]\ngrid.u = [12]\nselect.k_max = 2",
            "grid.m = [4]\ngrid.u = [5, 9, 14, 30, 60]",
        ],
        ids=["1", "2", "3", "5"],
    )
    def test_mc_bytes_equal_at_one_to_four_workers(self, monkeypatch, tmp_path, grid, chunk):
        if chunk is not None:
            monkeypatch.setattr(harness, "_trials_per_chunk", lambda point: chunk)
        path = tmp_path / "exp.cfg"
        path.write_text(
            f"trials = 7\n{grid}\nselect.algorithms = [ssus, sus, gzf, mcore_plus, random]\n"
        )
        from mimosel.cli import main

        outputs = []
        for workers in (1, 2, 3, 4):
            out = tmp_path / f"rows-{workers}.csv"
            flags = ["--workers", str(workers), "--out", str(out)]
            assert main(["mc", "--config", str(path), *flags]) == 0
            outputs.append(out.read_bytes())
        assert outputs[1:] == outputs[:1] * 3
        assert_no_child_left()


@pytest.mark.skipif(
    not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="needs fork and an affinity mask of two CPUs or more",
)
def test_forked_share_runs_on_its_own_cpu(monkeypatch, tmp_path):
    # On the real mask: the forked share sees one CPU, not the caller's,
    # and the caller gets its whole mask back after the sweep.
    cfg = tiny_config(trials=4, workers=2)
    serial = emit(run_monte_carlo(dataclasses.replace(cfg, workers=1)), "csv")
    before = os.sched_getaffinity(0)
    cpus = sorted(before)
    path, caller = tmp_path / "masks.jsonl", os.getpid()
    real_chunk = harness._trial_chunk

    def chunk(args):
        log_event(path, sorted(os.sched_getaffinity(0)))
        return real_chunk(args)

    monkeypatch.setattr(harness, "_trial_chunk", chunk)
    assert emit(run_monte_carlo(cfg), "csv") == serial
    assert os.sched_getaffinity(0) == before
    assert_no_child_left()
    log = logged_events(path, caller)
    assert log.pop("caller") == [(cpus[:1],)]
    assert list(log.values()) == [[(cpus[1:2],)]]


class TestSkippedCells:
    def test_mcore_skipped_beyond_subset_cap(self, capsys):
        # K_max = M = 20: all 2^20 - 1 subsets of the 20 shortlisted users.
        kw = dict(m_values=(20,), u_values=(20,), algorithms=("mcore_plus", "sus"), trials=2)
        rows = run_monte_carlo(tiny_config(**kw))
        mcore_row = next(r for r in rows if r.algorithm == "mcore_plus")
        assert mcore_row.trials == 0
        assert "mcore_plus search space" in mcore_row.skip_reason
        assert mcore_row.mean_se is None
        sus_row = next(r for r in rows if r.algorithm == "sus")
        assert sus_row.trials == 2
        assert "skipped mcore_plus" in capsys.readouterr().err

    def test_exhaustive_skipped_on_large_pool(self):
        cfg = tiny_config(m_values=(8,), u_values=(100,), algorithms=("exhaustive",), trials=1)
        rows = run_monte_carlo(cfg)
        assert rows[0].trials == 0
        assert "exceeds cap" in rows[0].skip_reason

    def test_random_skipped_when_k_too_large(self):
        cfg = tiny_config(u_values=(3,), algorithms=("random",), random_k=5, trials=1)
        rows = run_monte_carlo(cfg)
        assert rows[0].trials == 0
        assert "min(M, U)" in rows[0].skip_reason


class TestFailedTrials:
    """Trials that raise are counted on stderr, one line per row that lost any."""

    def failing_run(self, monkeypatch, capsys, bad_trials):
        cfg = tiny_config(trials=3)
        bad_seeds = {derive_seed(cfg.master_seed, 0, t, harness._ROLE_SELECT) for t in bad_trials}
        script_bases(monkeypatch, lambda seed, l: ZeroStream() if seed in bad_seeds else None)
        report = run_trial(cfg, grid_points(cfg)[0], algo_instances(cfg), min(bad_trials))
        first_error = report.cells[algo_instances(cfg)[0]].error
        rows = run_monte_carlo(cfg)
        return rows, capsys.readouterr().err, first_error

    def test_row_that_lost_some_trials(self, monkeypatch, capsys):
        rows, err, first_error = self.failing_run(monkeypatch, capsys, [1])
        assert "redraws" in first_error
        assert err == (
            f"failed ssus (L=2, alpha=0.45) at m4_u10_p-90: 1 of 3 trials ({first_error})\n"
        )
        assert [r.trials for r in rows] == [2, 3]

    def test_row_that_lost_every_trial(self, monkeypatch, capsys):
        rows, err, first_error = self.failing_run(monkeypatch, capsys, [0, 1, 2])
        assert err == (
            f"failed ssus (L=2, alpha=0.45) at m4_u10_p-90: 3 of 3 trials ({first_error})\n"
        )
        assert rows[0].trials == 0 and rows[0].skip_reason == "all trials failed"
        assert emit(rows, "csv").splitlines()[1].split(",")[8] == "0"

    def test_line_names_the_variant_that_lost_trials(self, monkeypatch, capsys):
        # Basis 3 cannot be built, so only L = 5 of ssus.l = [2, 5] fails.
        script_bases(monkeypatch, lambda seed, l: ZeroStream() if l == 3 else None)
        rows = run_monte_carlo(tiny_config(ssus_num_bases=(2, 5), trials=3))
        assert [(r.num_bases, r.trials) for r in rows] == [(2, 3), (5, 0), (None, 3)]
        err = capsys.readouterr().err
        assert err.startswith("failed ssus (L=5, alpha=0.45) at m4_u10_p-90: 3 of 3 trials (")
        assert err.count("\n") == 1 and "redraws" in err

    def test_non_positive_noise_fails_every_cell(self):
        # Every selector fails in its chunk engine's call, with the text of
        # a lone call.
        cfg = tiny_config(algorithms=("ssus", "sus", "gzf", "mcore_plus", "random", "exhaustive"))
        point = dataclasses.replace(grid_points(cfg)[0], n0=0.0)
        report = run_trial(cfg, point, algo_instances(cfg), 0)
        assert len(report.cells) == 6
        for cell in report.cells.values():
            assert cell.error == "n0 must be positive, got 0.0"
            assert cell.selected == () and math.isnan(cell.se)

    def test_clean_run_keeps_stderr_empty(self, capsys):
        run_monte_carlo(tiny_config(trials=3))
        assert capsys.readouterr().err == ""


class TestEmission:
    def test_csv_shape_and_header(self):
        cfg = tiny_config(trials=2)
        text = emit(run_monte_carlo(cfg), "csv")
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2  # one scenario x two algorithms

    def test_csv_round_trip_precision(self):
        cfg = tiny_config(trials=3)
        rows = run_monte_carlo(cfg)
        lines = emit(rows, "csv").strip().split("\n")
        header = lines[0].split(",")
        parsed = dict(zip(header, lines[1].split(",")))
        assert float(parsed["mean_se"]) == pytest.approx(rows[0].mean_se, rel=1e-11)
        assert int(parsed["trials"]) == rows[0].trials
        assert parsed["algorithm"] == rows[0].algorithm

    def test_json_mirrors_schema(self):
        cfg = tiny_config(trials=2)
        rows = run_monte_carlo(cfg)
        payload = json.loads(emit(rows, "json"))
        assert [set(entry) for entry in payload] == [set(CSV_COLUMNS)] * len(rows)
        assert payload[0]["mean_se"] == pytest.approx(rows[0].mean_se, rel=1e-11)
        assert payload[1]["L"] is None  # sus row

    def test_writes_file(self, tmp_path):
        cfg = tiny_config(trials=1)
        out = tmp_path / "rows.csv"
        text = emit(run_monte_carlo(cfg), "csv", out)
        assert out.read_text() == text

    def test_unwritable_path_names_path(self):
        cfg = tiny_config(trials=1)
        with pytest.raises(ValueError, match="no/such/dir"):
            emit(run_monte_carlo(cfg), "csv", "no/such/dir/out.csv")

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="csv or json"):
            emit([], "xml")

    def test_wall_time_zeroed_without_timing(self):
        cfg = tiny_config(trials=2)
        rows = run_monte_carlo(cfg)
        assert all(r.mean_wall_us == 0.0 for r in rows)
        timed = run_monte_carlo(tiny_config(trials=2, timing=True))
        assert all(r.mean_wall_us > 0.0 for r in timed)


class TestRegressionAnchors:
    def test_random_selection_baseline_level(self):
        # Frozen from the first calibration run on this seed: the random
        # lower bound at M=4, U=20 and a 6 dB nominal SNR.
        cfg = ExperimentConfig(
            m_values=(4,),
            u_values=(20,),
            p0_dbm_values=(-90.0,),
            algorithms=("random",),
            trials=1000,
            master_seed=808,
        )
        row = run_monte_carlo(cfg)[0]
        assert row.mean_se > 0.0
        assert row.stderr_se > 0.0
        assert row.mean_se == pytest.approx(7.73381193564288, rel=1e-9)
        assert row.stderr_se == pytest.approx(0.10425237719325177, rel=1e-9)


class TestOracleCheck:
    def test_no_violations_and_sane_ratios(self):
        rows = oracle_check(m=4, u=8, trials=20, master_seed=5)
        assert {r["algorithm"] for r in rows} >= {"ssus", "sus", "gzf", "random"}
        for row in rows:
            assert row["violations"] == 0
            assert 0.0 < row["mean_ratio"] <= 1.0

    def test_rejects_infeasible_oracle(self):
        with pytest.raises(ValueError, match="infeasible"):
            oracle_check(m=8, u=100, trials=1)

    def test_oracle_failures_are_reported(self, monkeypatch, capsys):
        # The harness runs the oracle through its chunk engine.
        real_oracle = sel._exhaustive_trials
        trials = []

        def oracle_failing_on_trial_1(hs, n0, k_max):
            outcomes = real_oracle(hs, n0, k_max)
            for i in range(len(hs)):
                trials.append(None)
                if len(trials) == 2:
                    outcomes[i] = (ValueError("oracle broke"), OpLedger())
            return outcomes

        monkeypatch.setattr(sel, "_exhaustive_trials", oracle_failing_on_trial_1)
        rows = oracle_check(m=4, u=6, trials=5)
        assert len(trials) == 5
        assert {row["trials"] for row in rows} == {4}
        err = capsys.readouterr().err
        assert err == "failed exhaustive at m4_u6_p-90: 1 of 5 trials (oracle broke)\n"

    def test_oracle_with_no_trial_left_is_named(self, monkeypatch):
        # Every heuristic trial succeeds; the oracle is what has no trial.
        def broken_oracle(hs, n0, k_max):
            raise ValueError("oracle broke")

        monkeypatch.setattr(sel, "_exhaustive_trials", broken_oracle)
        with pytest.raises(ValueError, match="^every trial of exhaustive failed: oracle broke$"):
            oracle_check(m=4, u=6, trials=3)
