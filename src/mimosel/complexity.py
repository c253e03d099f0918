"""Closed-form operation-count models for the selection algorithms.

The models count the dominant complex multiply-accumulates of each method
in their exact summation form (no big-O truncation), so they can be
compared numerically and reconciled against instrumented runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import OpLedger
from .selectors import Algorithm

__all__ = [
    "CostQuery",
    "ReconcileReport",
    "model_cost",
    "relative_cost",
    "reconcile_ledger",
    "RECONCILE_BOUNDS",
]

#: A measured/model ratio outside these bounds is flagged as suspicious.
RECONCILE_BOUNDS = (0.1, 10.0)

_MODELED = (Algorithm.SUS, Algorithm.GZF, Algorithm.MCORE_PLUS, Algorithm.SSUS)


@dataclass(frozen=True)
class CostQuery:
    """Parameters of one cost-model evaluation."""

    method: Algorithm
    u: int
    m: int
    k: int
    l: int = 1

    def __post_init__(self):
        if self.method not in _MODELED:
            raise ValueError(f"no cost model for algorithm {self.method.value!r}")
        if not 1 <= self.k <= self.m:
            raise ValueError(f"require 1 <= K <= M, got K={self.k}, M={self.m}")
        if self.u < self.k:
            raise ValueError(f"require U >= K, got U={self.u}, K={self.k}")
        if self.l < 1:
            raise ValueError(f"require L >= 1, got L={self.l}")


@dataclass(frozen=True)
class ReconcileReport:
    """Measured ledger MACs against the model for the same instance."""

    method: Algorithm
    measured: int
    modeled: int
    ratio: float
    within_bounds: bool


def model_cost(query: CostQuery) -> int:
    """Exact operation count of the method's cost model (arbitrary precision)."""
    u, m, k, l = int(query.u), int(query.m), int(query.k), int(query.l)
    if query.method is Algorithm.SUS:
        return u * m + sum(u * m * i for i in range(1, k))
    if query.method is Algorithm.GZF:
        return u * m + sum((u - i) * (m * i**2 + i**3) for i in range(1, k))
    if query.method is Algorithm.MCORE_PLUS:
        return (
            u * m
            + m**3
            + sum(math.comb(m, i) * (m * i**2 + i**3) for i in range(1, k + 1))
        )
    if query.method is Algorithm.SSUS:
        return u * m + l * (m**3 + u * m * (m - 1))
    raise ValueError(f"no cost model for algorithm {query.method.value!r}")


def relative_cost(queries: list[CostQuery]) -> list[dict]:
    """Each query's cost normalized by the SUS cost at the same (U, M, K).

    Raises if any (U, M, K) combination lacks a SUS reference entry.
    """
    sus_cost = {
        (q.u, q.m, q.k): model_cost(q) for q in queries if q.method is Algorithm.SUS
    }
    rows = []
    for q in queries:
        key = (q.u, q.m, q.k)
        if key not in sus_cost:
            raise ValueError(
                f"no SUS reference for (U={q.u}, M={q.m}, K={q.k}) in the query list"
            )
        cost = model_cost(q)
        rows.append(
            {
                "method": q.method.value,
                "u": q.u,
                "m": q.m,
                "k": q.k,
                "l": q.l,
                "cost": cost,
                "relative_to_sus": cost / sus_cost[key],
            }
        )
    return rows


def reconcile_ledger(query: CostQuery, ledger: OpLedger) -> ReconcileReport:
    """Compare an instrumented run's MAC count with the closed-form model."""
    modeled = model_cost(query)
    measured = ledger.complex_macs
    ratio = measured / modeled if modeled else math.inf
    lo, hi = RECONCILE_BOUNDS
    return ReconcileReport(
        method=query.method,
        measured=measured,
        modeled=modeled,
        ratio=ratio,
        within_bounds=lo <= ratio <= hi,
    )
