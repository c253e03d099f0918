"""Literal pins of the output schemas, the range-rule messages and the link-budget rule.

The column lists and the rule phrases are each declared once and derived
everywhere else, so these tests spell out, as literal strings, what the
derivations must reproduce byte for byte.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from mimosel import harness
from mimosel.channel import LinkBudget
from mimosel.cli import main
from mimosel.harness import ExperimentConfig, emit, run_monte_carlo
from mimosel.metrics import sum_spectral_efficiency
from mimosel.numerics import OpLedger
from mimosel.seeding import stream
from mimosel.selectors import (
    Algorithm,
    SelectionConfig,
    exhaustive_oracle,
    gzf,
    mcore_plus,
    random_select,
    ss_us,
)
from test_selectors import select_trials
from test_zf_kernel import zf_sum_rate_batch

MC_COLUMNS = [
    "scenario_id", "algorithm", "M", "U", "K_max", "L", "alpha", "p0_dbm", "trials",
    "mean_se", "stderr_se", "mean_kb", "mean_macs", "mean_wall_us",
]
MC_HEADER = (
    "scenario_id,algorithm,M,U,K_max,L,alpha,p0_dbm,trials,"
    "mean_se,stderr_se,mean_kb,mean_macs,mean_wall_us"
)
COST_HEADER = "method,u,m,k,l,cost,relative_to_sus"
ORACLE_HEADER = "algorithm,m,u,k_max,trials,mean_ratio,min_ratio,violations"


@pytest.fixture(scope="module")
def mc_rows():
    cfg = ExperimentConfig(
        m_values=(2,), u_values=(3,), p0_dbm_values=(-90.0,), algorithms=("ssus", "sus"),
        ssus_num_bases=(1,), trials=1,
    )
    return run_monte_carlo(cfg)


class TestTableSchemas:
    def test_mc_csv_header(self, mc_rows):
        assert emit(mc_rows, "csv").split("\n")[0] == MC_HEADER

    def test_mc_json_keys(self, mc_rows):
        payload = json.loads(emit(mc_rows, "json"))
        assert [list(entry) for entry in payload] == [MC_COLUMNS] * len(mc_rows)

    def test_mc_columns_read_their_fields(self, mc_rows):
        [entry, _] = json.loads(emit(mc_rows, "json"))
        row = mc_rows[0]
        assert (entry["M"], entry["U"], entry["K_max"], entry["L"]) == (2, 3, 2, 1)
        assert (entry["scenario_id"], entry["algorithm"]) == ("m2_u3_p-90", "ssus")
        assert (entry["alpha"], entry["p0_dbm"], entry["trials"]) == (0.45, -90.0, 1)
        assert entry["mean_kb"] == row.mean_kb and entry["mean_macs"] == row.mean_macs

    @pytest.mark.parametrize(
        "argv, header",
        [
            (["cost", "--m", "2"], COST_HEADER),
            (["oracle-check", "--m", "2", "--u", "3", "--trials", "1", "--l", "1"], ORACLE_HEADER),
        ],
        ids=["cost", "oracle-check"],
    )
    def test_cost_and_oracle_check_headers(self, capsys, argv, header):
        assert main(argv) == 0
        assert capsys.readouterr().out.split("\n")[0] == header
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [list(entry) for entry in payload] == [header.split(",")] * len(payload)


def raises(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


H = np.array([[1.0, 0.5j, 0.2], [0.3, 1.0, -0.4j]])


class TestRuleMessages:
    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(m_values=(0,)), "grid.m must be >= 1, got 0"),
            (dict(u_values=(3, 0)), "grid.u must be >= 1, got 0"),
            (dict(ssus_num_bases=(0,)), "ssus.l must be >= 1, got 0"),
            (dict(k_max=0), "select.k_max must be >= 1, got 0"),
            (dict(random_k=-2), "random.k must be >= 1, got -2"),
            (dict(trials=0), "trials must be >= 1, got 0"),
            (dict(workers=0), "workers must be >= 1, got 0"),
            (dict(ssus_alpha=(1.5,)), "ssus.alpha must lie in (0, 1), got 1.5"),
            (dict(sus_epsilon=0), "sus.epsilon must lie in (0, 1), got 0.0"),
            (dict(bandwidth_hz=-1), "link.bandwidth_hz must be positive, got -1.0"),
            (dict(output_format="xml"), "output.format must be csv or json, got 'xml'"),
            (
                dict(algorithms=("warp",)),
                "select.algorithms names an unknown algorithm (choose from ssus, sus, gzf, "
                "mcore_plus, random, exhaustive), got 'warp'",
            ),
            (
                dict(p0_dbm_values=(-80.0, -90.5, -90.5000001)),
                "grid.p0_dbm values -90.5 and -90.5000001 both print as p-90.5 in scenario ids",
            ),
        ],
    )
    def test_config_settings(self, kw, message):
        raises(lambda: ExperimentConfig(**kw), message)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cost", "--u", "0"], "error: argument --u: value must be >= 1, got 0\n"),
            (["cost", "--m", "4,0"], "error: argument --m: value must be >= 1, got 0\n"),
            (["oracle-check", "--alpha", "1"],
             "error: argument --alpha: value must lie in (0, 1), got 1.0\n"),
            (["oracle-check", "--seed", "-1"],
             "error: argument --seed: value must lie in [0, 2**64), got -1\n"),
            (["oracle-check", "--seed", str(2**64)],
             f"error: argument --seed: value must lie in [0, 2**64), got {2**64}\n"),
        ],
    )
    def test_cli_flags(self, capsys, argv, message):
        with pytest.raises(SystemExit):
            main(argv)
        assert capsys.readouterr().err == message

    # A seed is an integer that a uint64 holds; at the edges of that range
    # a seed used to wrap (2**64 ran as 0, -1 as 2**64 - 1), and a float
    # rng_seed ran as its integer part.
    BAD_SEEDS = [
        (2**64, f"must lie in [0, 2**64), got {2**64}"),
        (-1, "must lie in [0, 2**64), got -1"),
        (1.5, "must be an integer, got 1.5"),
        (True, "must be an integer, got True"),
        ("7", "must be an integer, got '7'"),
    ]

    @pytest.mark.parametrize("seed, phrase", BAD_SEEDS)
    def test_master_seed(self, seed, phrase):
        raises(lambda: ExperimentConfig(master_seed=seed), f"master_seed {phrase}")
        raises(lambda: harness.oracle_check(trials=1, master_seed=seed), f"master_seed {phrase}")

    @pytest.mark.parametrize("seed, phrase", BAD_SEEDS)
    def test_rng_seed(self, seed, phrase):
        raises(lambda: SelectionConfig(Algorithm.SSUS, 2, rng_seed=seed), f"rng_seed {phrase}")

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int8(3)])
    def test_seeds_at_the_edges_are_accepted(self, seed):
        assert ExperimentConfig(master_seed=seed).master_seed == seed
        cfg = SelectionConfig(Algorithm.SSUS, 2, num_bases=2, rng_seed=seed)
        ledger, want = OpLedger(), OpLedger()
        as_int = dataclasses.replace(cfg, rng_seed=int(seed))
        assert ss_us(H, cfg, 0.25, ledger) == ss_us(H, as_int, 0.25, want)
        assert ledger == want

    @pytest.mark.parametrize(
        "line, flag, value",
        [
            ("master_seed = 18446744073709551616", [], 2**64),
            ("master_seed = -1", [], -1),
            ("master_seed = 5", ["--seed", "-1"], -1),
            ("master_seed = 5", ["--seed", str(2**64)], 2**64),
        ],
    )
    def test_mc_seed_is_one_error_line(self, capsys, tmp_path, line, flag, value):
        path = tmp_path / "exp.cfg"
        path.write_text(f"trials = 1\ngrid.m = [2]\ngrid.u = [3]\n{line}\n", encoding="utf-8")
        assert main(["mc", "--config", str(path), *flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: master_seed must lie in [0, 2**64), got {value}\n"

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(k_max=0), "k_max must be >= 1, got 0"),
            (dict(k_max=2, num_bases=0), "num_bases must be >= 1, got 0"),
            (dict(k_max=2, alpha=1.0), "alpha must lie in (0, 1), got 1.0"),
            (dict(k_max=2, sus_epsilon=-0.5), "sus_epsilon must lie in (0, 1), got -0.5"),
            (dict(k_max=math.nan), "k_max must be >= 1, got nan"),
            (dict(k_max=2, num_bases=math.nan), "num_bases must be >= 1, got nan"),
            (dict(k_max=2.5), "k_max must be an integer, got 2.5"),
            (dict(k_max=True), "k_max must be an integer, got True"),
            (dict(k_max="3"), "k_max must be an integer, got '3'"),
            (dict(k_max=2, num_bases=2.5), "num_bases must be an integer, got 2.5"),
            (dict(k_max=2, num_bases=False), "num_bases must be an integer, got False"),
        ],
    )
    def test_selection_config(self, kw, message):
        raises(lambda: SelectionConfig(Algorithm.SUS, **kw), message)

    @pytest.mark.parametrize("selector", [gzf, mcore_plus, exhaustive_oracle])
    @pytest.mark.parametrize("k_max", [0, math.nan])
    def test_selector_k_max(self, selector, k_max):
        raises(lambda: selector(H, 0.25, k_max, OpLedger()), f"k_max must be >= 1, got {k_max}")

    @pytest.mark.parametrize("k", [0, math.nan])
    def test_random_k(self, k):
        raises(lambda: random_select(H, k, stream(1)), f"k must be >= 1, got {k}")

    @pytest.mark.parametrize("selector", [gzf, mcore_plus, exhaustive_oracle])
    @pytest.mark.parametrize("k_max", [2.5, "3", True, np.float64(2.0)])
    def test_selector_k_max_is_an_integer(self, selector, k_max):
        raises(
            lambda: selector(H, 0.25, k_max, OpLedger()),
            f"k_max must be an integer, got {k_max!r}",
        )

    @pytest.mark.parametrize("k", [2.5, "3", True])
    def test_random_k_is_an_integer(self, k):
        raises(lambda: random_select(H, k, stream(1)), f"k must be an integer, got {k!r}")

    def test_numpy_integer_counts_are_accepted(self):
        k = np.int64(2)
        assert SelectionConfig(Algorithm.SSUS, k_max=k, num_bases=np.int32(3)).k_max == 2
        for selector in (gzf, mcore_plus, exhaustive_oracle):
            assert selector(H, 0.25, k, OpLedger()) == selector(H, 0.25, 2, OpLedger())
        assert random_select(H, k, stream(1)) == random_select(H, 2, stream(1))

    @pytest.mark.parametrize("selector", [gzf, mcore_plus, exhaustive_oracle])
    @pytest.mark.parametrize("k_max", [0, 2.5])
    def test_lone_call_names_a_bad_channel_first(self, selector, k_max):
        # The channel is checked before k_max and n0, which are bad too.
        h = H.copy()
        h[1, 2] = np.nan
        raises(
            lambda: selector(h, -1.0, k_max, OpLedger()),
            "channel matrix contains a non-finite entry",
        )

    @pytest.mark.parametrize("bandwidth", [0.0, -3, math.nan])
    def test_link_budget_bandwidth(self, bandwidth):
        raises(
            lambda: LinkBudget(-90.0, bandwidth_hz=bandwidth),
            f"bandwidth_hz must be positive, got {bandwidth}",
        )

    @pytest.mark.parametrize("n0", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize(
        "score",
        [
            lambda n0: sum_spectral_efficiency(H[:, :2], n0, OpLedger()),
            lambda n0: zf_sum_rate_batch(H, [[0, 2]], n0, OpLedger()),
            lambda n0: gzf(H, n0, 2, OpLedger()),
            lambda n0: mcore_plus(H, n0, 2, OpLedger()),
            lambda n0: exhaustive_oracle(H, n0, 2, OpLedger()),
            lambda n0: ss_us(H, SelectionConfig(Algorithm.SSUS, k_max=2), n0, OpLedger()),
            lambda n0: select_trials(Algorithm.SSUS, H[np.newaxis], n0, 2, [0], [(1, 0.45)]),
        ],
        ids=["sum_se", "kernel", "gzf", "mcore_plus", "exhaustive", "ss_us", "ss_us_trials"],
    )
    def test_noise_power(self, score, n0):
        raises(lambda: score(n0), f"n0 must be positive, got {n0}")

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: SelectionConfig(Algorithm.SSUS, 2, alpha="0.5"),
             "alpha must be a real number, got '0.5'"),
            (lambda: gzf(np.eye(2), "1", 2, OpLedger()), "n0 must be a real number, got '1'"),
            (lambda: gzf(np.eye(2), True, 2, OpLedger()), "n0 must be a real number, got True"),
            (lambda: SelectionConfig(Algorithm.SUS, 2, sus_epsilon=False),
             "sus_epsilon must be a real number, got False"),
            (lambda: LinkBudget(-90.0, bandwidth_hz="20e6"),
             "bandwidth_hz must be a real number, got '20e6'"),
            (lambda: sum_spectral_efficiency(H[:, :2], 1j, OpLedger()),
             "n0 must be a real number, got 1j"),
        ],
        ids=["alpha-str", "n0-str", "n0-bool", "epsilon-bool", "bandwidth-str", "n0-complex"],
    )
    def test_real_scalars_must_be_real_numbers(self, call, message):
        raises(call, message)

    def test_numpy_real_scalars_are_accepted(self):
        ledger, want = OpLedger(), OpLedger()
        assert gzf(H, np.float64(0.25), 2, ledger) == gzf(H, 0.25, 2, want)
        assert ledger == want
        assert SelectionConfig(Algorithm.SSUS, 2, alpha=np.float32(0.5)).alpha == np.float32(0.5)


class TestLinkBudgetRule:
    """A link budget whose SNR leaves +-300 dB is one error line, before any trial."""

    @pytest.mark.parametrize(
        "line, settings, snr",
        [
            ("grid.p0_dbm = [1e308]", "grid.p0_dbm=1e+308, link.bandwidth_hz=20000000.0", "1e+308"),
            ("grid.p0_dbm = [-1e308]", "grid.p0_dbm=-1e+308, link.bandwidth_hz=20000000.0",
             "-1e+308"),
            ("link.bandwidth_hz = 1e-300", "grid.p0_dbm=-90.0, link.bandwidth_hz=1e-300", "3079"),
        ],
        ids=["p0_1e308", "p0_minus_1e308", "bandwidth_1e-300"],
    )
    def test_float64_breaking_budget_is_one_error_line(
        self, tmp_path, capsys, monkeypatch, line, settings, snr
    ):
        monkeypatch.setattr(harness, "_run_trials", lambda *a: pytest.fail("trials ran"))
        path = tmp_path / "budget.cfg"
        path.write_text(f"trials = 1\ngrid.m = [2]\ngrid.u = [3]\n{line}\n")
        assert main(["mc", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {settings} and link.noise_figure_db=5.0 give an SNR of {snr} dB, "
            "outside [-300, 300] dB\n"
        )

    def test_budget_within_300_db_is_accepted(self):
        # The default budget puts the noise at -95.99 dBm.
        ExperimentConfig(p0_dbm_values=(204.01, -395.98))


def test_oracle_check_gives_every_heuristic_a_row(capsys):
    assert main(["oracle-check", "--m", "13", "--u", "3", "--trials", "1", "--l", "1"]) == 0
    captured = capsys.readouterr()
    assert [line.split(",")[0] for line in captured.out.split()[1:]] == [
        "ssus", "sus", "gzf", "mcore_plus", "random",
    ]
    assert captured.err == ""
