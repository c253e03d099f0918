"""Every name a module exports exists, so ``import *`` cannot break."""

import importlib
import importlib.util
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
        "ss_us_trials",
        "sus",
        "gzf",
        "gzf_trials",
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
