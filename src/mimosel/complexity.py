"""Closed-form operation-count models for the selection algorithms.

The models count the dominant complex multiply-accumulates of each method
in their exact summation form (no big-O truncation), so they can be
compared numerically with the op ledgers of instrumented runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .selectors import Algorithm

__all__ = [
    "CostQuery",
    "model_cost",
    "relative_cost",
]

#: Selectors with a cost model, in the row order of ``mimosel cost``.
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


#: Keys of a ``relative_cost`` row, in the column order of ``mimosel cost``.
_COST_COLUMNS = ("method", "u", "m", "k", "l", "cost", "relative_to_sus")


def relative_cost(queries: list[CostQuery]) -> list[dict]:
    """Each query's cost normalized by the SUS cost at the same (U, M, K).

    A row holds the ``_COST_COLUMNS``. Raises if any (U, M, K) combination
    lacks a SUS reference entry.
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
        values = (q.method.value, q.u, q.m, q.k, q.l, cost, cost / sus_cost[key])
        rows.append(dict(zip(_COST_COLUMNS, values, strict=True)))
    return rows

