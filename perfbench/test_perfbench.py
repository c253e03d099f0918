"""Checks of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q

Each case runs ``run.py`` in a subprocess, mostly at a tiny trial count, so
the whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ("--seconds", "0.5", "--trials", "2")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result_of(lines):
    return json.loads(lines[-1])


def digest_of(lines):
    fields = next(line for line in lines if line.startswith("digest ")).split()
    return fields[fields.index("sha256") + 1], fields[fields.index("reference") + 1]


def assert_metrics(lines, spec_metrics):
    result = result_of(lines)
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {tuple(line.split()[1::2]) for line in lines if line.startswith("metric ")}
    assert printed == set(expected.items())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    code, lines = bench("--workload", workload, "--trace", "0", *TINY)
    result = result_of(lines)
    assert code == 0 and result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert_metrics(lines, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        code, lines = bench("--workload", workload, "--trace", "1", *TINY)
        assert code == 0 and result_of(lines)["correct"]
        assert_metrics(lines, SPEC["per_layer"])
        metrics = result_of(lines)["metrics"]
        counts.append({name: m["value"] for name, m in metrics.items()
                       if name.endswith((".calls", ".macs_per_call"))})
    assert counts[0] == counts[1]
    assert counts[0]["harness.run_trial.calls"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_matches_reference_digest(workload):
    code, lines = bench("--workload", workload, "--trace", "0", "--seconds", "0.5")
    assert digest_of(lines)[1] == "match"
    assert code == 0 and result_of(lines)["correct"]


def copy_benchmark(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def test_perturbed_reference_digest_is_a_failure(tmp_path):
    workload = "oracle_small"
    _, lines = bench("--workload", workload, "--trace", "0", *TINY)
    digest, _ = digest_of(lines)
    copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for sha, should_pass in ((digest, True), (digest[:-1] + "0123"[digest[-1] == "0"], False)):
        reference = tmp_path / "perfbench" / "reference.json"
        reference.write_text(json.dumps({workload: {"seed": 1234, "trials": 2, "sha256": sha}}))
        code, lines = bench("--workload", workload, "--trace", "0", *TINY, cwd=tmp_path)
        assert result_of(lines)["correct"] is should_pass
        assert (code == 0) is should_pass
        assert digest_of(lines)[1] == ("match" if should_pass else "mismatch")


def test_fails_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    code, lines = bench("--workload", WORKLOADS[0], "--trace", "0", *TINY, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
