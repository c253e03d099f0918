"""Every name a module exports exists, so ``import *`` cannot break."""

import importlib

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


def test_package_star_import():
    namespace = {}
    exec("from mimosel import *", namespace)
    assert {"ss_us", "emit", "zf_post_snr", "OpLedger", "LinkBudget"} <= set(namespace)
