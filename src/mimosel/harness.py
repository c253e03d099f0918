"""Monte Carlo evaluation harness: grid sweeps, aggregation, and emission.

One trial draws a single channel matrix (from a seed derived from the
master seed, grid point, and trial index) and runs every configured
algorithm on that identical matrix, so comparisons are paired. Trials run
in chunks: a chunk draws each of its trials' channels from that trial's own
stream, all the streams set on one generator (``seeding._seeded``), and
checks each channel once, where it enters (a trial whose channel fails the
check fails every cell with that error, and no selector sees it). On the
stack of the valid channels and their column norms it then makes one
``selectors._select_trials`` call per algorithm it needs, which runs that
algorithm's chunk engine on every trial at once: for ``ssus`` it builds
every trial's bases once and matches every variant, charging each variant
what it would cost alone, and for ``random`` it draws every trial's users
from its own stream on one generator. The chunk scores the final sets of
all its trials with one ZF kernel call per set size, and ``run_trial``
builds each trial's report. A chunk holds as many trials as their channel
stack fits in ``_BLOCK_BUDGET``, and a trial's results do not depend on
which trials share its chunk.

With n > 1 workers the sweep runs as n shares: this process runs one and
forks n - 1 children, one per other share, each of which sends back its
pickled reports through a pipe. Each share runs pinned to its own CPU of
this process's affinity mask, which this process gets back afterwards.
Each point's trials are cut into pieces at the chunk boundaries, and the
pieces are dealt to the shares largest first by M·U·trials, the direction
reversing on each lap; with fewer pieces than shares, each share takes a
strided slice of every point's trials instead.
A platform that cannot fork runs the sweep in this process. Results are
post-sorted by trial index before aggregation, which makes the output
invariant to worker count.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import pickle
import re
import sys
import time
import typing
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

# The benchmark's span tracer also wraps ``generate_iid_rayleigh`` by this name.
from .channel import LinkBudget, generate_iid_rayleigh, noise_power, noise_power_dbm
from .channel import _AT_LEAST_1, _POSITIVE, _UNIT_OPEN, _require
from .metrics import _ill_conditioned, _zf_sum_rates
# Scores no cell any more; the benchmark's span tracer wraps it by this name.
from .metrics import sum_spectral_efficiency
from .numerics import OpLedger
from .seeding import _pcg64_states, _seeded, derive_seed
# Draws no stream any more; the benchmark's span tracer wraps it by this name.
from .seeding import stream
from .selectors import _BLOCK_BUDGET, Algorithm, _as_channel, _select_trials, infeasible_reason
# Runs no cell any more; the benchmark's span tracer wraps it by this name.
from .selectors import run_selection

__all__ = [
    "ExperimentConfig",
    "AlgoInstance",
    "GridPoint",
    "CellResult",
    "TrialReport",
    "AggregateRow",
    "parse_config_text",
    "parse_value",
    "grid_points",
    "algo_instances",
    "run_trial",
    "run_monte_carlo",
    "oracle_check",
    "table_text",
    "emit",
    "write_text",
    "CSV_COLUMNS",
]

# Stream roles, mixed into per-trial seeds so channel generation, basis
# draws, and random selection never share a stream.
_ROLE_CHANNEL = 0
_ROLE_SELECT = 1
_ROLE_RANDOM = 2

#: The SNR p0_dbm - noise_power_dbm of every grid point must lie within this
#: many dB of 0, so that the normalized noise power and the rates stay
#: finite and nonzero in float64.
_SNR_LIMIT_DB = 300.0

_ALGORITHM_NAMES = tuple(a.value for a in Algorithm)


def _setting(key: str, default, check=None):
    """Field of the config setting named ``key`` in config files.

    The element type, and whether the setting is a list or optional, come
    from the field's annotation. ``check`` is an optional (predicate, rule)
    pair: the range test of one converted element and the phrase naming it
    in the error.
    """
    return field(default=default, metadata={"key": key, "check": check})


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment grid, per-algorithm tunables, and run controls.

    Construction converts and checks every setting, so an instance is always
    valid: int settings take integers only, float settings finite numbers,
    bool settings true or false, list settings a non-empty list or a scalar
    with no value listed twice. No two ``grid.p0_dbm`` values may print as
    one scenario id. The link budget must put the SNR of every
    ``grid.p0_dbm`` within ``_SNR_LIMIT_DB`` of 0 dB.
    """

    m_values: tuple[int, ...] = _setting("grid.m", (4, 8), _AT_LEAST_1)
    u_values: tuple[int, ...] = _setting("grid.u", (20, 50, 100), _AT_LEAST_1)
    p0_dbm_values: tuple[float, ...] = _setting("grid.p0_dbm", (-90.0, -95.0))
    bandwidth_hz: float = _setting("link.bandwidth_hz", 20e6, _POSITIVE)
    noise_figure_db: float = _setting("link.noise_figure_db", 5.0)
    algorithms: tuple[str, ...] = _setting(
        "select.algorithms",
        ("ssus", "sus", "gzf", "random"),
        (
            lambda v: v in _ALGORITHM_NAMES,
            f"names an unknown algorithm (choose from {', '.join(_ALGORITHM_NAMES)})",
        ),
    )
    ssus_num_bases: tuple[int, ...] = _setting("ssus.l", (10,), _AT_LEAST_1)
    ssus_alpha: tuple[float, ...] = _setting("ssus.alpha", (0.45,), _UNIT_OPEN)
    sus_epsilon: float = _setting("sus.epsilon", 0.3, _UNIT_OPEN)
    k_max: int | None = _setting("select.k_max", None, _AT_LEAST_1)
    random_k: int | None = _setting("random.k", None, _AT_LEAST_1)
    trials: int = _setting("trials", 1000, _AT_LEAST_1)
    master_seed: int = _setting("master_seed", 1234)
    workers: int = _setting("workers", 1, _AT_LEAST_1)
    timing: bool = _setting("timing", False)
    output_path: str | None = _setting("output.path", None)
    output_format: str = _setting(
        "output.format", "csv", (lambda v: v in ("csv", "json"), "must be csv or json")
    )

    def __post_init__(self):
        for f in fields(self):
            key = f.metadata["key"]
            kind, many, optional = _SHAPES[f.name]
            value = getattr(self, f.name)
            if optional and value is None:
                continue
            if many:
                items = value if isinstance(value, (list, tuple)) else (value,)
                if not items:
                    raise ValueError(f"{key} must be non-empty")
                value = tuple(_typed(key, kind, f.metadata["check"], v) for v in items)
                twice = next((v for i, v in enumerate(value) if v in value[:i]), None)
                if twice is not None:
                    raise ValueError(f"{key} lists {twice} twice")
            else:
                value = _typed(key, kind, f.metadata["check"], value)
            object.__setattr__(self, f.name, value)
        if self.k_max is not None:
            bad = [m for m in self.m_values if self.k_max > m]
            if bad:
                raise ValueError(
                    f"select.k_max={self.k_max} exceeds antenna count for M in {bad}"
                )
        tags: dict[str, float] = {}
        for p0 in self.p0_dbm_values:
            first = tags.setdefault(_p0_tag(p0), p0)
            if first != p0:
                raise ValueError(
                    f"grid.p0_dbm values {first} and {p0} both print as {_p0_tag(p0)} "
                    "in scenario ids"
                )
        noise_dbm = float(noise_power_dbm(LinkBudget(0.0, self.bandwidth_hz, self.noise_figure_db)))
        for p0 in self.p0_dbm_values:
            snr = p0 - noise_dbm
            if not -_SNR_LIMIT_DB <= snr <= _SNR_LIMIT_DB:
                raise ValueError(
                    f"grid.p0_dbm={p0}, link.bandwidth_hz={self.bandwidth_hz} and "
                    f"link.noise_figure_db={self.noise_figure_db} give an SNR of "
                    f"{snr:.6g} dB, outside [-{_SNR_LIMIT_DB:g}, {_SNR_LIMIT_DB:g}] dB"
                )

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """Build a config from values keyed as in config files."""
        names = {f.metadata["key"]: f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - set(names))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**{names[key]: value for key, value in mapping.items()})

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        """Build a config from a file; ``overrides`` replace its values by key."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read config file {path}: {exc}") from exc
        return cls.from_mapping({**parse_config_text(text), **(overrides or {})})


def _shape(annotation) -> tuple[type, bool, bool]:
    """(element type, is a list, is optional) of a setting's annotation."""
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) is tuple:
        return args[0], True, False
    if type(None) in args:
        return args[0], False, True
    return annotation, False, False


_SHAPES = {
    name: _shape(annotation)
    for name, annotation in typing.get_type_hints(ExperimentConfig).items()
}
_TYPE_RULES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _typed(key: str, kind: type, check, value):
    """``value`` converted to ``kind``, after the type and range checks of ``key``."""
    if kind in (bool, str):
        ok = isinstance(value, kind)
    elif isinstance(value, bool):
        ok = False
    elif kind is int:
        ok = isinstance(value, numbers.Integral)
    else:
        try:
            ok = isinstance(value, numbers.Real) and math.isfinite(value)
        except OverflowError:
            ok = False
    if not ok:
        raise ValueError(f"{key} must be {_TYPE_RULES[kind]}, got {value!r}")
    value = kind(value)
    if check is not None:
        _require(key, value, check)
    return value


# The part of a line before its comment: a ``#`` inside quotes is literal,
# and an unpaired quote is an ordinary character.
_BEFORE_COMMENT = re.compile(r"""(?:[^#'"]|'[^']*'|"[^"]*"|['"])*""")


def parse_value(token: str):
    """Parse one config value: a scalar or a bracketed, comma-separated list."""
    token = token.strip()
    if token.startswith("[") and token.endswith("]"):
        inner = token[1:-1].strip()
        return [_parse_scalar(t) for t in inner.split(",")] if inner else []
    return _parse_scalar(token)


def _parse_scalar(token: str):
    token = token.strip()
    if token.startswith(("'", '"')) and token.endswith(token[0]) and len(token) >= 2:
        return token[1:-1]
    low = token.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def parse_config_text(text: str) -> dict:
    """Parse the flat ``key = value`` config format into a mapping.

    Keys use dotted section names; values are scalars (int, float, bool,
    bare or quoted string) or comma-separated lists in square brackets.
    ``#`` outside quotes starts a comment.
    """
    mapping: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _BEFORE_COMMENT.match(raw).group().strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ValueError(f"config line {lineno}: empty key or value in {raw!r}")
        if key in mapping:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        mapping[key] = parse_value(value)
    return mapping


@dataclass(frozen=True)
class AlgoInstance:
    """One algorithm variant evaluated at every grid point."""

    algorithm: Algorithm
    num_bases: int | None = None
    alpha: float | None = None

    @property
    def label(self) -> str:
        return self.algorithm.value


@dataclass(frozen=True)
class GridPoint:
    """One (M, U, P0) scenario with its resolved tunables."""

    index: int
    m: int
    u: int
    p0_dbm: float
    k_max: int
    random_k: int
    n0: float
    scenario_id: str


@dataclass(frozen=True)
class CellResult:
    """Outcome of one algorithm on one trial."""

    selected: tuple[int, ...]
    se: float
    macs: int
    divisions: int
    comparisons: int
    wall_ns: int
    error: str | None = None

    @property
    def k_b(self) -> int:
        return len(self.selected)


@dataclass(frozen=True)
class TrialReport:
    trial_index: int
    scenario_id: str
    cells: dict[AlgoInstance, CellResult] = field(default_factory=dict)


def _column(name: str, default=MISSING):
    """Field of the output column ``name`` of ``mc``."""
    return field(default=default, metadata={"column": name})


@dataclass(frozen=True)
class AggregateRow:
    """One output row: an algorithm variant aggregated at one grid point.

    Every field but ``skip_reason`` is the output column named in its
    metadata, and the fields come in column order.
    """

    scenario_id: str = _column("scenario_id")
    algorithm: str = _column("algorithm")
    m: int = _column("M")
    u: int = _column("U")
    k_max: int = _column("K_max")
    num_bases: int | None = _column("L")
    alpha: float | None = _column("alpha")
    p0_dbm: float = _column("p0_dbm")
    trials: int = _column("trials", 0)
    mean_se: float | None = _column("mean_se", None)
    stderr_se: float | None = _column("stderr_se", None)
    mean_kb: float | None = _column("mean_kb", None)
    mean_macs: float | None = _column("mean_macs", None)
    mean_wall_us: float | None = _column("mean_wall_us", None)
    skip_reason: str | None = None


# Output column -> field of ``AggregateRow``, in column order.
_COLUMN_FIELDS = {
    f.metadata["column"]: f.name for f in fields(AggregateRow) if "column" in f.metadata
}
CSV_COLUMNS = tuple(_COLUMN_FIELDS)


def _p0_tag(p0: float) -> str:
    """The P0 part of a scenario id; ``ExperimentConfig`` keeps it unique."""
    return f"p{p0:g}"


def grid_points(cfg: ExperimentConfig) -> list[GridPoint]:
    """Expand the scenario grid in declaration order (M outer, then U, P0)."""
    points = []
    index = 0
    for m in cfg.m_values:
        for u in cfg.u_values:
            for p0 in cfg.p0_dbm_values:
                k_max = cfg.k_max if cfg.k_max is not None else m
                random_k = cfg.random_k if cfg.random_k is not None else min(k_max, u)
                n0 = noise_power(
                    LinkBudget(
                        p0_dbm=p0,
                        bandwidth_hz=cfg.bandwidth_hz,
                        noise_figure_db=cfg.noise_figure_db,
                    )
                )
                points.append(
                    GridPoint(
                        index=index,
                        m=m,
                        u=u,
                        p0_dbm=float(p0),
                        k_max=k_max,
                        random_k=random_k,
                        n0=n0,
                        scenario_id=f"m{m}_u{u}_{_p0_tag(p0)}",
                    )
                )
                index += 1
    return points


def algo_instances(cfg: ExperimentConfig) -> list[AlgoInstance]:
    """Expand configured algorithms into concrete variants, in config order."""
    instances = []
    for name in cfg.algorithms:
        algo = Algorithm(name)
        if algo is Algorithm.SSUS:
            for l in cfg.ssus_num_bases:
                for a in cfg.ssus_alpha:
                    instances.append(AlgoInstance(algo, num_bases=int(l), alpha=float(a)))
        else:
            instances.append(AlgoInstance(algo))
    return instances


def _set_size(point: GridPoint, algorithm: Algorithm) -> int:
    """K at ``point``: the subset size of ``random``, every other selector's ``k_max``."""
    return point.random_k if algorithm is Algorithm.RANDOM else point.k_max


def _infeasible_reason(point: GridPoint, inst: AlgoInstance) -> str | None:
    """Why ``inst`` cannot run at ``point`` with K = ``_set_size``, or None."""
    return infeasible_reason(inst.algorithm, point.m, point.u, _set_size(point, inst.algorithm))


def run_trial(
    cfg: ExperimentConfig,
    point: GridPoint,
    instances: list[AlgoInstance],
    trial_index: int,
    cells: dict[AlgoInstance, CellResult] | None = None,
) -> TrialReport:
    """Run every algorithm variant on one freshly drawn channel matrix.

    ``cells`` is this trial's entry of ``_scored_chunk`` for the chunk it
    belongs to, selected and scored with the rest of the chunk. Without
    it, the trial is drawn, selected and scored as a chunk of its own.
    """
    if cells is None:
        [cells] = _scored_chunk(cfg, point, instances, [trial_index])
    return TrialReport(trial_index=trial_index, scenario_id=point.scenario_id, cells=cells)


def _scored_chunk(
    cfg: ExperimentConfig, point: GridPoint, instances, indices
) -> list[dict[AlgoInstance, CellResult]]:
    """Cells of each trial of ``indices``, drawn, selected and scored as one chunk."""
    hs, selections = _draw_chunk(cfg, point, instances, indices)
    return _score_chunk(hs, point.n0, selections)


def _draw_chunk(cfg: ExperimentConfig, point: GridPoint, instances, indices) -> tuple:
    """Channels and selections of the trials ``indices``, drawn as one chunk.

    Each trial's channel is drawn from its own stream, as in a lone trial,
    the chunk's streams set on one generator by ``seeding._seeded``, and is
    checked here, once: a channel that ``_as_channel`` rejects fails every
    cell of its trial with that error. The valid channels go, with their
    column norms, to one ``selectors._select_trials`` call per algorithm
    that ``instances`` need, with all that algorithm's variants; ``ssus``
    and ``random`` get each trial's seed of their own stream role. Returns
    the (T, M, U) channel stack and, per trial, a map of each variant, in
    ``instances`` order, to its (outcome, ledger, wall ns): the outcome is a
    result or the error the selection raised, and the wall time of a call
    is split evenly across the trials and then across the variants it ran.
    """
    hs = np.empty((len(indices), point.m, point.u), dtype=np.complex128)
    # Per trial, each variant's entry in ``instances`` order, filled in below.
    chunk = [dict.fromkeys(instances) for _ in indices]
    valid, norms = [], []
    channel_seeds = [derive_seed(cfg.master_seed, point.index, t, _ROLE_CHANNEL) for t in indices]
    for i, (h, rng) in enumerate(zip(hs, _seeded(_pcg64_states(channel_seeds)))):
        h[...] = generate_iid_rayleigh(point.m, point.u, rng)
        try:
            norms.append(_as_channel(h)[1])
        except ValueError as exc:
            chunk[i] = {inst: (exc, OpLedger(), 0) for inst in instances}
        else:
            valid.append(i)
    if not valid:
        return hs, chunk
    # The valid stack is ``hs`` itself unless some channel failed.
    checked = hs if len(valid) == len(hs) else hs[valid]
    norms = np.array(norms)

    roles = {Algorithm.SSUS: _ROLE_SELECT, Algorithm.RANDOM: _ROLE_RANDOM}
    for algorithm in Algorithm:
        insts = [i for i in instances if i.algorithm is algorithm]
        if not insts:
            continue
        role = roles.get(algorithm)
        seeds = None if role is None else [
            derive_seed(cfg.master_seed, point.index, indices[i], role) for i in valid
        ]
        variants = [(i.num_bases, i.alpha) for i in insts]
        k = _set_size(point, algorithm)
        start = time.perf_counter_ns()
        try:
            outcomes = _select_trials(
                algorithm, checked, norms, point.n0, k, seeds, variants, cfg.sus_epsilon
            )
        except ValueError as exc:
            outcomes = [[(exc, OpLedger())] * len(insts)] * len(valid)
        share_ns = (time.perf_counter_ns() - start) // (len(valid) * len(insts))
        for i, trial in zip(valid, outcomes):
            chunk[i].update((inst, (*pair, share_ns)) for inst, pair in zip(insts, trial))
    return hs, chunk


def _score_chunk(hs, n0: float, selections: list[dict]) -> list[dict[AlgoInstance, CellResult]]:
    """Cells of each trial of a chunk: ``hs`` and ``selections`` of ``_draw_chunk``.

    Evaluation of the final sets is measurement, not selection: it goes to
    a throwaway ledger so MAC counts stay comparable with the selection
    cost models. The final sets of every trial that have size K are
    gathered, columns in sorted order, into one (P, M, K) stack and scored
    by one ``_zf_sum_rates`` call, so every algorithm's set is scored bit
    for bit like the oracle's enumeration of the same subset. A stack of
    more than ``_BLOCK_BUDGET`` float64 elements is scored in calls of at
    most that many; a set's score does not depend on its call. Each cell's
    wall time adds an even share of its call. A set the kernel scores
    minus infinity fails its cell with the ``SingularSetError`` that
    ``sum_spectral_efficiency`` raises for it, and a ``ValueError`` from
    the kernel fails every cell of its call.
    """
    m = hs.shape[1]
    by_size: dict[int, list[tuple[int, AlgoInstance]]] = {}
    for t, trial in enumerate(selections):
        for inst, (outcome, _, _) in trial.items():
            if not isinstance(outcome, Exception):
                by_size.setdefault(len(outcome.selected), []).append((t, inst))
    scores = {}
    for k, keys in by_size.items():
        per_call = max(1, _BLOCK_BUDGET // (2 * m * k))
        for lo in range(0, len(keys), per_call):
            part = keys[lo : lo + per_call]
            start = time.perf_counter_ns()
            trials = np.array([t for t, _ in part])
            sets = np.array([sorted(selections[t][inst][0].selected) for t, inst in part])
            # One contiguous (M, K) matrix per set, as ``_set_stack`` builds them.
            stack = hs[trials[:, None, None], np.arange(m)[:, None], sets[:, None, :]]
            try:
                rates = [
                    rate if rate > -math.inf else _ill_conditioned(m, k)
                    for rate in _zf_sum_rates(stack, n0, OpLedger()).tolist()
                ]
            except ValueError as exc:
                rates = [exc] * len(part)
            share_ns = (time.perf_counter_ns() - start) // len(part)
            scores.update((key, (rate, share_ns)) for key, rate in zip(part, rates))

    chunk_cells = []
    for t, trial in enumerate(selections):
        cells = {}
        for inst, (outcome, ledger, wall_ns) in trial.items():
            # A selection that failed keeps its error and scores nothing.
            se, score_ns = scores.get((t, inst), (outcome, 0))
            failed = isinstance(se, Exception)
            cells[inst] = CellResult(
                selected=() if failed else outcome.selected,
                se=float("nan") if failed else se,
                macs=ledger.complex_macs,
                divisions=ledger.divisions,
                comparisons=ledger.comparisons,
                wall_ns=wall_ns + score_ns,
                error=str(se) if failed else None,
            )
        chunk_cells.append(cells)
    return chunk_cells


def _trials_per_chunk(point: GridPoint) -> int:
    """Trials per chunk at ``point``: as many as fit their channel stack in
    ``_BLOCK_BUDGET`` float64 elements, and at least one."""
    return max(1, _BLOCK_BUDGET // (2 * point.m * point.u))


def _trial_chunk(args) -> list[TrialReport]:
    """Reports of the trials ``indices`` at ``point``, in index order.

    The trials are drawn, selected and scored ``_trials_per_chunk`` at a
    time by ``_scored_chunk``, and ``run_trial`` runs once per trial.
    """
    cfg, point, instances, indices = args
    size = _trials_per_chunk(point)
    reports = []
    for lo in range(0, len(indices), size):
        chunk = indices[lo : lo + size]
        scored = _scored_chunk(cfg, point, instances, chunk)
        reports += [run_trial(cfg, point, instances, t, c) for t, c in zip(chunk, scored)]
    return reports


def _run_trials(
    cfg: ExperimentConfig, jobs: dict[GridPoint, list[AlgoInstance]]
) -> dict[GridPoint, list[TrialReport]]:
    """Reports of every trial at each grid point of ``jobs``, by trial index.

    The sweep runs as ``cfg.workers`` shares, capped by the trial count and
    the count of CPUs this process may run on, and at one where the
    platform cannot fork. The CPUs are those of this process's affinity
    mask, read once here, or the CPU count where the OS has no mask.
    ``_shares`` deals the trials, and ``_fan_out`` runs the first share in
    this process and forks one child for each other share, each share
    pinned to its own CPU of the mask. With one share, each point's trials
    run through one ``_trial_chunk`` call in this process, nothing is
    forked and nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    # With no feasible point there is nothing to share.
    forks = bool(jobs) and hasattr(os, "fork")
    n_workers = min(cfg.workers, cfg.trials, len(cpus) or os.cpu_count() or 1) if forks else 1
    reports: dict[GridPoint, list[TrialReport]] = {point: [] for point in jobs}
    for share in _fan_out(cfg, jobs, _shares(jobs, cfg.trials, n_workers), cpus):
        for point, batch in share.items():
            reports[point] += batch
    for point_reports in reports.values():
        point_reports.sort(key=lambda r: r.trial_index)
    return reports


def _shares(jobs: dict, trials: int, n: int) -> list[dict[GridPoint, list[int]]]:
    """The trial indices of each point of ``jobs`` that each of ``n`` shares runs.

    Each point's trials are cut into pieces at the ``_trials_per_chunk``
    boundaries that ``_trial_chunk`` uses, so that no engine call is
    smaller than in one process. The pieces are dealt largest first by
    M·U·trials, one to each share in turn, the direction reversing on each
    lap. A share's pieces of one point come in index order, the short last
    piece after the whole ones, so they chunk as they were cut. With fewer
    pieces than shares, share i takes trials i, i + n, ... of every point.
    """
    indices = list(range(trials))
    pieces = [
        (point, indices[lo : lo + size])
        for point in jobs
        for size in (_trials_per_chunk(point),)
        for lo in range(0, trials, size)
    ]
    if len(pieces) < n:
        return [{point: indices[i::n] for point in jobs} for i in range(n)]
    # A stable sort: the whole pieces of a point keep their index order.
    pieces.sort(key=lambda piece: piece[0].m * piece[0].u * len(piece[1]), reverse=True)
    shares: list[dict[GridPoint, list[int]]] = [{} for _ in range(n)]
    for rank, (point, piece) in enumerate(pieces):
        lap, seat = divmod(rank, n)
        shares[seat if lap % 2 == 0 else n - 1 - seat].setdefault(point, []).extend(piece)
    return shares


def _run_share(cfg: ExperimentConfig, jobs: dict, share: dict) -> dict:
    """Reports of the trials of ``share`` at each of its points, one
    ``_trial_chunk`` call per point.

    ``_trial_chunk`` is looked up as a module global on every call: the
    benchmark's span tracer replaces it to write each forked child's spans.
    """
    return {point: _trial_chunk((cfg, point, jobs[point], idx)) for point, idx in share.items()}


def _fan_out(cfg: ExperimentConfig, jobs: dict, shares: list[dict], cpus: list[int]) -> list[dict]:
    """``_run_share`` of every share of ``shares``, in share order.

    This process forks one child for each share but the first, each with
    its own pipe, then runs the first share itself, reads every pipe and
    reaps every child. A child sends back its pickled reports, or the
    exception its share raised, which is raised here, with the child's
    traceback as its cause, once every child is reaped. If this process
    fails first, it kills and reaps the children left.

    ``cpus`` is the sorted affinity mask of this process, with at least one
    CPU per share, or empty where the OS has no mask. With more than one
    share, share i runs pinned to ``cpus[i]`` (see ``_pin``): on a host
    whose kernel does not balance load, a forked child would stay on this
    process's CPU and the shares would take turns on it. This process pins
    itself for its own share and gets its whole mask back before it
    returns or raises.
    """
    pipes, pids = [], []
    spread = len(shares) > 1
    if spread:
        # numpy loads this at a share's first draw. Loaded before the forks,
        # it is loaded once, not once in every process, OpenSSL with it.
        import numpy.random  # noqa: F401
    try:
        for i, share in enumerate(shares[1:], 1):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(cfg, jobs, share, write_end, cpus[i : i + 1])
            finally:
                os.close(write_end)
            pids.append(pid)
        if spread:
            _pin(cpus[:1])
        results = [_run_share(cfg, jobs, shares[0])]
        sent = []
        for pipe in pipes:
            sent.append(pipe.read())
            os.waitpid(pids[0], 0)
            del pids[0]
    finally:
        if spread:
            _pin(cpus)
        for pipe in pipes:
            pipe.close()
        if pids:
            import signal  # only on failure, so that a sweep does not load it

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for data in sent:
        if not data:
            raise RuntimeError("a worker process ended without sending its trials")
        value, trace = pickle.loads(data)
        if trace is not None:
            raise value from RuntimeError(f"raised in a worker process:\n{trace}")
        results.append(value)
    return results


def _child(
    cfg: ExperimentConfig, jobs: dict, share: dict, write_end: int, cpus: list[int]
) -> typing.NoReturn:
    """In a forked child: pin this process to ``cpus``, run ``share``, send
    the pickled pair (reports, None), or (exception, its formatted
    traceback), through ``write_end`` and exit, never returning."""
    status = 1
    try:
        try:
            _pin(cpus)
            outcome = (_run_share(cfg, jobs, share), None)
        except Exception as exc:
            import traceback  # only on failure

            outcome = (exc, traceback.format_exc())
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _pin(cpus: list[int]) -> None:
    """Run this process on ``cpus`` only. Where ``cpus`` is empty, the OS has
    no affinity call or it refuses this one, the process runs where it did:
    placement changes no output."""
    if cpus and hasattr(os, "sched_setaffinity"):
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)


def _row(point: GridPoint, inst: AlgoInstance, **stats) -> AggregateRow:
    """Row of ``inst`` at ``point``; without ``stats`` it has zero trials."""
    return AggregateRow(
        scenario_id=point.scenario_id,
        algorithm=inst.label,
        m=point.m,
        u=point.u,
        k_max=point.k_max,
        num_bases=inst.num_bases,
        alpha=inst.alpha,
        p0_dbm=point.p0_dbm,
        **stats,
    )


def _aggregate(
    point: GridPoint,
    inst: AlgoInstance,
    reports: list[TrialReport],
    timing: bool,
) -> AggregateRow:
    cells = [r.cells[inst] for r in reports if r.cells[inst].error is None]
    n = len(cells)
    if n == 0:
        return _row(point, inst, skip_reason="all trials failed")
    mean_se = math.fsum(c.se for c in cells) / n
    if n > 1:
        var = math.fsum((c.se - mean_se) ** 2 for c in cells) / (n - 1)
        stderr = math.sqrt(var / n)
    else:
        stderr = 0.0
    mean_kb = math.fsum(c.k_b for c in cells) / n
    mean_macs = math.fsum(c.macs for c in cells) / n
    mean_wall_us = (
        math.fsum(c.wall_ns for c in cells) / n / 1000.0 if timing else 0.0
    )
    return _row(
        point,
        inst,
        trials=n,
        mean_se=mean_se,
        stderr_se=stderr,
        mean_kb=mean_kb,
        mean_macs=mean_macs,
        mean_wall_us=mean_wall_us,
    )


def _sweep(cfg: ExperimentConfig) -> tuple[dict, dict[GridPoint, list[TrialReport]]]:
    """Run every feasible (grid point, variant) pair of ``cfg``.

    Returns the infeasibility reason (None if feasible) of every pair, keyed
    by (point, variant) in grid and then variant order, and the reports of
    ``_run_trials`` at each point where some variant is feasible.
    """
    instances = algo_instances(cfg)
    points = grid_points(cfg)
    reasons = {(p, i): _infeasible_reason(p, i) for p in points for i in instances}
    feasible = {p: [i for i in instances if reasons[p, i] is None] for p in points}
    return reasons, _run_trials(cfg, {p: insts for p, insts in feasible.items() if insts})


def _log_sweep(reasons: dict, reports: dict, trials: int) -> None:
    """Log each pair of a ``_sweep`` that needs it to stderr, in pair order.

    An infeasible pair logs why it was skipped; a feasible pair that lost
    trials to errors logs how many of ``trials`` and the first error, an
    ``ssus`` variant being named with its L and alpha.
    """
    for (point, inst), reason in reasons.items():
        if reason is not None:
            print(f"skipped {inst.label} at {point.scenario_id}: {reason}", file=sys.stderr)
            continue
        errors = [r.cells[inst].error for r in reports[point] if r.cells[inst].error is not None]
        if errors:
            name = inst.label
            if inst.num_bases is not None:
                name += f" (L={inst.num_bases}, alpha={inst.alpha})"
            lost = f"{len(errors)} of {trials} trials ({errors[0]})"
            print(f"failed {name} at {point.scenario_id}: {lost}", file=sys.stderr)


def run_monte_carlo(cfg: ExperimentConfig) -> list[AggregateRow]:
    """Cross the grid with every algorithm variant, one aggregate row each.

    Infeasible cells (for example the exhaustive oracle on a too-large
    pool) become skipped rows with zero trials; the reason is logged to
    stderr and kept on the row object. A row that lost trials to errors
    logs how many and the first error to stderr.
    """
    reasons, reports = _sweep(cfg)
    _log_sweep(reasons, reports, cfg.trials)
    return [
        _aggregate(p, i, reports[p], cfg.timing) if r is None else _row(p, i, skip_reason=r)
        for (p, i), r in reasons.items()
    ]


#: Keys of an ``oracle_check`` row, in the column order of ``oracle-check``.
_ORACLE_COLUMNS = (
    "algorithm", "m", "u", "k_max", "trials", "mean_ratio", "min_ratio", "violations",
)


def oracle_check(
    m: int = 4,
    u: int = 8,
    trials: int = 50,
    master_seed: int = 1234,
    k_max: int | None = None,
    num_bases: int = 10,
    alpha: float = 0.45,
) -> list[dict]:
    """Compare every feasible heuristic with the exhaustive oracle.

    Returns one row per algorithm, keyed by ``_ORACLE_COLUMNS``, with the
    paired mean and minimum SE ratio against the oracle and the count of
    bound violations (which should always be zero: the oracle maximizes the
    same metric). A trial that failed for the heuristic or the oracle is
    left out of the pairs. As in ``run_monte_carlo``, every algorithm that
    lost trials, the oracle included, logs them to stderr. Where the oracle
    is feasible every heuristic is, as no other search is larger. Raises
    ``ValueError`` naming the first error instead when the oracle, or else
    some heuristic, has no trial left to compare, since the ratios would be
    undefined.
    """
    cfg = ExperimentConfig(
        m_values=(m,),
        u_values=(u,),
        p0_dbm_values=(-90.0,),
        algorithms=_ALGORITHM_NAMES,
        ssus_num_bases=(num_bases,),
        ssus_alpha=(alpha,),
        k_max=k_max,
        trials=trials,
        master_seed=master_seed,
    )
    [point] = grid_points(cfg)
    oracle_inst = AlgoInstance(Algorithm.EXHAUSTIVE)
    reason = _infeasible_reason(point, oracle_inst)
    if reason is not None:
        raise ValueError(f"oracle infeasible at M={m}, U={u}, K_max={point.k_max}: {reason}")
    reasons, reports = _sweep(cfg)
    oracle_errors = [report.cells[oracle_inst].error for report in reports[point]]
    if None not in oracle_errors:
        raise ValueError(f"every trial of {oracle_inst.label} failed: {oracle_errors[0]}")
    rows = []
    for _, inst in reasons:
        if inst == oracle_inst:
            continue
        ratios = []
        violations = 0
        for report in reports[point]:
            cell = report.cells[inst]
            oracle = report.cells[oracle_inst]
            if cell.error is not None or oracle.error is not None:
                continue
            ratios.append(cell.se / oracle.se)
            if cell.se > oracle.se:
                violations += 1
        if not ratios:
            cells = (c for r in reports[point] for c in (r.cells[inst], r.cells[oracle_inst]))
            first = next(c.error for c in cells if c.error is not None)
            raise ValueError(f"every trial of {inst.label} failed: {first}")
        mean_ratio = math.fsum(ratios) / len(ratios)
        values = (inst.label, m, u, point.k_max, len(ratios), mean_ratio, min(ratios), violations)
        rows.append(dict(zip(_ORACLE_COLUMNS, values, strict=True)))
    _log_sweep(reasons, reports, trials)
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def table_text(records: list[dict], columns, fmt: str) -> str:
    """``records`` as CSV or JSON text with the keys ``columns``.

    Strings pass through, and numbers carry 12 significant digits in both
    formats.
    """
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(r[c]) for c in columns) for r in records]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        import json  # only here, so that CSV runs do not load it

        def jsonable(value):
            if value is None or isinstance(value, (str, int)):
                return value
            return float(_fmt(value))

        payload = [{c: jsonable(r[c]) for c in columns} for r in records]
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"output format must be csv or json, got {fmt!r}")


def emit(rows: list[AggregateRow], fmt: str = "csv", path=None) -> str:
    """Serialize rows to CSV or JSON; write to ``path`` when given.

    Returns the serialized text either way.
    """
    records = [{column: getattr(r, name) for column, name in _COLUMN_FIELDS.items()} for r in rows]
    text = table_text(records, CSV_COLUMNS, fmt)
    if path is not None:
        write_text(text, path)
    return text


def write_text(text: str, path) -> None:
    """Write ``text`` to ``path``; a failure is a ValueError naming the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output file {path}: {exc}") from exc
