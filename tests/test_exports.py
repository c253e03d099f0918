"""Every name a module exports exists, so ``import *`` cannot break."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize(
    "module", ["channel", "complexity", "harness", "metrics", "numerics", "selectors"]
)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"mimosel.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from mimosel.{module} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


def test_selectors_exports_are_pinned():
    # A public selector name is added or removed only on purpose.
    assert importlib.import_module("mimosel.selectors").__all__ == [
        "Algorithm",
        "SelectionConfig",
        "SelectionResult",
        "ss_us",
        "sus",
        "gzf",
        "mcore_plus",
        "random_select",
        "exhaustive_oracle",
        "run_selection",
        "infeasible_reason",
        "EXHAUSTIVE_SUBSET_CAP",
        "MCORE_MAX_ANTENNAS",
    ]


def test_package_star_import():
    namespace = {}
    exec("from mimosel import *", namespace)
    assert {"ss_us", "emit", "zf_post_snr", "OpLedger", "LinkBudget"} <= set(namespace)


def test_benchmark_hooks_resolve():
    """Every package name the benchmark wraps or replaces still exists.

    ``perfbench/tracer.py`` wraps the names in its ``TARGETS`` and
    ``harness._trial_chunk``; ``perfbench/child.py`` times
    ``cli.run_monte_carlo``. A rename would break ``--trace 1`` runs.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooks = [(module, attr) for module, attr, _ in tracer.TARGETS]
    hooks += [("harness", "_trial_chunk"), ("cli", "run_monte_carlo")]
    missing = [
        f"{module}.{attr}"
        for module, attr in hooks
        if not callable(getattr(importlib.import_module(f"mimosel.{module}"), attr, None))
    ]
    assert tracer.TARGETS and missing == []


def test_cli_import_loads_no_pool_and_no_json():
    """``import mimosel.cli`` loads neither a process pool nor ``json``.

    Every ``mc`` run pays for what the import loads; the fan-out forks with
    ``os`` and ``pickle``, which numpy loads already, and ``json`` is
    imported only where JSON is written.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, numpy; before = set(sys.modules); import mimosel.cli; "
        "print(sorted({'json', 'multiprocessing', 'concurrent.futures.process'} "
        "& (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
