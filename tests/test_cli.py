import json
import re

import pytest

from mimosel import harness
from mimosel.cli import main
from mimosel.complexity import CostQuery, relative_cost
from mimosel.harness import oracle_check
from mimosel.seeding import derive_seed
from mimosel.selectors import Algorithm
from test_ssus_blocks import ZeroStream, script_bases

CONFIG = """
trials = 4
master_seed = 11
grid.m = [4]
grid.u = [8]
grid.p0_dbm = [-90]
select.algorithms = [ssus, gzf]
ssus.l = [2]
ssus.alpha = [0.45]
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG)
    return str(path)


class TestMcCommand:
    def test_writes_csv(self, config_path, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["mc", "--config", config_path, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("scenario_id,algorithm")
        assert len(lines) == 3

    def test_stdout_default(self, config_path, capsys):
        assert main(["mc", "--config", config_path]) == 0
        assert "m4_u8_p-90,ssus" in capsys.readouterr().out

    def test_json_format(self, config_path, capsys):
        assert main(["mc", "--config", config_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["algorithm"] == "ssus"

    def test_seed_override_changes_output(self, config_path, capsys):
        main(["mc", "--config", config_path])
        base = capsys.readouterr().out
        main(["mc", "--config", config_path, "--seed", "999"])
        reseeded = capsys.readouterr().out
        assert base != reseeded
        main(["mc", "--config", config_path])
        assert capsys.readouterr().out == base

    def test_workers_flag_preserves_bytes(self, config_path, capsys):
        main(["mc", "--config", config_path, "--trials", "8"])
        w1 = capsys.readouterr().out
        main(["mc", "--config", config_path, "--trials", "8", "--workers", "3"])
        assert capsys.readouterr().out == w1

    def test_missing_config_single_error_line(self, capsys):
        assert main(["mc", "--config", "missing.cfg"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "missing.cfg" in err

    def test_bad_config_value(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("select.algorithms = [warp]\n")
        assert main(["mc", "--config", str(path)]) == 1
        assert "unknown algorithm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, flags",
        [
            ("grid.m = [4.5]", []),
            ("trials = 2.7", []),
            ("grid.u = [ssus]", []),
            ("select.k_max = 2.5", []),
            ("link.noise_figure_db = abc", []),
            ("trials = true", []),
            ("ssus.l = [2.5]", []),
            ("workers = 2.5", []),
            ("grid.p0_dbm = [nan]", []),
            ("link.bandwidth_hz = inf", []),
            ("timing = 1", []),
            (None, ["--trials", "2.7"]),
            (None, ["--workers", "0"]),
            (None, ["--seed", "abc"]),
            (None, ["--format", "xml"]),
        ],
    )
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, line, flags):
        lines = CONFIG.strip().split("\n")
        if line is not None:
            key = line.split("=")[0].strip()
            lines = [x for x in lines if x.split("=")[0].strip() != key] + [line]
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "rows.csv"
        assert main(["mc", "--config", str(path), "--out", str(out)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("grid.m = [4, 4]", "grid.m lists 4 twice"),
            ("grid.u = [8, 6, 8]", "grid.u lists 8 twice"),
            ("grid.p0_dbm = [-90, -90.0]", "grid.p0_dbm lists -90.0 twice"),
            # Distinct values whose scenario ids would be the same.
            (
                "grid.p0_dbm = [-90.5, -90.5000001]",
                "grid.p0_dbm values -90.5 and -90.5000001 both print as p-90.5 in scenario ids",
            ),
            ("select.algorithms = [ssus, gzf, ssus]", "select.algorithms lists ssus twice"),
            ("ssus.l = [2, 2]", "ssus.l lists 2 twice"),
            ("ssus.alpha = [0.45, 0.3, 0.45]", "ssus.alpha lists 0.45 twice"),
        ],
    )
    def test_list_value_given_twice_is_one_error_line(self, tmp_path, capsys, line, message):
        key = line.split("=")[0].strip()
        lines = [x for x in CONFIG.strip().split("\n") if x.split("=")[0].strip() != key]
        path = tmp_path / "twice.cfg"
        path.write_text("\n".join(lines + [line]) + "\n")
        out = tmp_path / "rows.csv"
        assert main(["mc", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_hash_in_quoted_output_path(self, config_path, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with open(config_path, "a") as fh:
            fh.write('output.path = "a#b.csv"  # comment\n')
        assert main(["mc", "--config", config_path]) == 0
        assert (tmp_path / "a#b.csv").read_text().startswith("scenario_id,")
        assert not (tmp_path / '"a').exists()


class TestSweepCommand:
    """Grid overrides of ``mc`` from the command line."""

    def test_grid_override(self, config_path, capsys):
        assert main(["mc", "--config", config_path, "--l", "1,2", "--u", "6"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert len(lines) == 4  # header + ssus L=1, ssus L=2, gzf
        assert "m4_u6_p-90" in lines[1]

    def test_negative_values_after_a_flag(self, config_path, capsys):
        # A comma list of negative powers is the flag's value, as with "=".
        assert main(["mc", "--config", config_path, "--p0=-90,-95"]) == 0
        joined = capsys.readouterr()
        assert main(["mc", "--config", config_path, "--p0", "-90,-95"]) == 0
        assert capsys.readouterr() == joined
        assert "m4_u8_p-95" in joined.out and joined.err == ""
        # A negative seed is read as the value of --seed, then refused.
        assert main(["mc", "--config", config_path, "--seed=-3"]) == 1
        seeded = capsys.readouterr()
        assert seeded.err == "error: master_seed must lie in [0, 2**64), got -3\n"
        assert main(["mc", "--config", config_path, "--seed", "-3"]) == 1
        assert capsys.readouterr() == seeded

    def test_alpha_override_validated(self, config_path, capsys):
        assert main(["mc", "--config", config_path, "--alpha", "2.0"]) == 1
        assert "alpha" in capsys.readouterr().err


class TestCostCommand:
    def test_table_contents(self, capsys):
        assert main(["cost", "--m", "4,8", "--u", "100", "--k-mode", "full"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "method,u,m,k,l,cost,relative_to_sus"
        rows = [line.split(",") for line in lines[1:]]
        by_key = {(r[0], r[2]): r for r in rows}
        assert by_key[("sus", "8")][5] == "23200"
        assert by_key[("ssus", "8")][5] == "6912"
        assert float(by_key[("sus", "4")][6]) == 1.0

    def test_json_output(self, capsys):
        assert main(["cost", "--m", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["method"] == "sus"

    def test_writes_file(self, tmp_path):
        out = tmp_path / "cost.csv"
        assert main(["cost", "--m", "4", "--out", str(out)]) == 0
        assert out.read_text().startswith("method,")


class TestOracleCheckCommand:
    def test_clean_run(self, capsys):
        assert main(["oracle-check", "--m", "4", "--u", "6", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("algorithm,m,u,k_max,trials,mean_ratio,min_ratio,violations")
        for line in out.strip().split("\n")[1:]:
            assert line.split(",")[-1] == "0"

    def test_infeasible_instance_errors(self, capsys):
        assert main(["oracle-check", "--m", "8", "--u", "100", "--trials", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_heuristic_with_no_trial_left_is_one_error_line(self, monkeypatch, capsys, fmt):
        # Every ssus trial runs out of basis redraws, so it has no ratio.
        script_bases(monkeypatch, lambda seed, l: ZeroStream())
        argv = ["oracle-check", "--m", "4", "--u", "6", "--trials", "3", "--format", fmt]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: every trial of ssus failed: ")
        assert captured.err.count("\n") == 1 and "redraws" in captured.err

    def test_failed_trials_are_reported(self, monkeypatch, capsys):
        # Trial 2 of ssus runs out of basis redraws; the other four compare.
        # At M = 13 too every heuristic has a row, and nothing is skipped.
        bad_seed = derive_seed(1234, 0, 2, harness._ROLE_SELECT)
        script_bases(monkeypatch, lambda seed, l: ZeroStream() if seed == bad_seed else None)
        rows = ("ssus", "sus", "gzf", "mcore_plus", "random")
        for m in (4, 13):
            assert main(["oracle-check", "--m", str(m), "--u", "6", "--trials", "5"]) == 0
            captured = capsys.readouterr()
            trials = {line.split(",")[0]: line.split(",")[4] for line in captured.out.split()[1:]}
            assert trials == {name: "4" if name == "ssus" else "5" for name in rows}
            assert re.fullmatch(
                rf"failed ssus \(L=10, alpha=0\.45\) at m{m}_u6_p-90: 1 of 5 trials "
                r"\(.*redraws.*\)\n",
                captured.err,
            )


# CSV of ``cost`` and ``oracle-check`` as the commands wrote it before they
# shared the table writer of ``mc``; it must not change by a byte.
COST_ARGV = ["cost", "--m", "4,8", "--k-mode", "full"]
COST_CSV = """\
method,u,m,k,l,cost,relative_to_sus
sus,100,4,4,1,2800,1
gzf,100,4,4,1,9358,3.34214285714
mcore_plus,100,4,4,1,1008,0.36
ssus,100,4,4,1,1664,0.594285714286
sus,100,8,8,1,23200,1
gzf,100,8,8,1,180252,7.76948275862
mcore_plus,100,8,8,1,60704,2.61655172414
ssus,100,8,8,1,6912,0.297931034483
"""
ORACLE_ARGV = ["oracle-check", "--m", "4", "--u", "6", "--trials", "5"]
ORACLE_CSV = """\
algorithm,m,u,k_max,trials,mean_ratio,min_ratio,violations
ssus,4,6,4,5,0.926738726723,0.845805416236,0
sus,4,6,4,5,0.732455189802,0.607556212399,0
gzf,4,6,4,5,0.99136490536,0.956824526802,0
mcore_plus,4,6,4,5,0.963214408299,0.920260090265,0
random,4,6,4,5,0.691280490102,0.444391787602,0
"""


def cost_rows():
    methods = (Algorithm.SUS, Algorithm.GZF, Algorithm.MCORE_PLUS, Algorithm.SSUS)
    return relative_cost([CostQuery(a, u=100, m=m, k=m) for m in (4, 8) for a in methods])


class TestTables:
    @pytest.mark.parametrize(
        "argv, golden",
        [(COST_ARGV, COST_CSV), (ORACLE_ARGV, ORACLE_CSV)],
        ids=["cost", "oracle-check"],
    )
    def test_csv_is_unchanged(self, capsys, argv, golden):
        assert main(argv) == 0
        assert capsys.readouterr().out == golden

    @pytest.mark.parametrize(
        "argv, rows",
        [(COST_ARGV, cost_rows), (ORACLE_ARGV, lambda: oracle_check(m=4, u=6, trials=5))],
        ids=["cost", "oracle-check"],
    )
    def test_json_numbers_carry_12_significant_digits(self, capsys, argv, rows):
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        full = rows()
        assert [list(entry) for entry in payload] == [list(row) for row in full]
        rounded = 0
        for entry, row in zip(payload, full):
            for key, value in row.items():
                if isinstance(value, float):
                    assert entry[key] == float(f"{value:.12g}")
                    rounded += entry[key] != value
                else:
                    assert entry[key] == value and type(entry[key]) is type(value)
        assert rounded > 0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["cost", "--m", "abc"], "--m"),
        (["cost", "--m", "4,x"], "--m"),
        (["cost", "--u", "2.5"], "--u"),
        (["cost", "--format", "xml"], "--format"),
        (["oracle-check", "--m", "x"], "--m"),
        (["oracle-check", "--u", "0"], "--u"),
        (["oracle-check", "--trials", "-3"], "--trials"),
        (["oracle-check", "--alpha", "2"], "--alpha"),
        (["oracle-check", "--seed", "abc"], "--seed"),
        (["oracle-check", "--m", "4", "--k-max", "6"], "--k-max"),
    ],
)
def test_bad_flag_value_is_one_error_line_naming_the_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag in captured.err
    assert "Traceback" not in captured.err and "usage:" not in captured.err


class TestParserBasics:
    def test_unknown_subcommand_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code != 0

    def test_mc_requires_config(self):
        with pytest.raises(SystemExit) as exc:
            main(["mc"])
        assert exc.value.code != 0
