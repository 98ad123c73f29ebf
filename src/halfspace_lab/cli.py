"""Command-line experiment runner.

Four modes: ``learn`` runs the full pipeline on one scenario, ``sweep``
cross-products scenario fields from a JSON file, ``lowerbound`` runs the
pool-based lab statistics, and ``selftest`` is a smoke run of the learn
and query-game paths.  The product is CSV on disk (or stdout):
identical (scenario, seed) reruns produce byte-identical output.
Wall-clock time goes to stderr only, never into the CSV.

Exit codes: 0 ok, 1 usage error, 2 budget exceeded, 3 selftest failure.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import itertools
import json
import os
import sys
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from .geometry import Halfspace, threshold_for_bias
from .learner import LearnerConfig, RunReport, learn
from .lowerbound import (
    GreedyDirection,
    OracleAided,
    Pool,
    RandomOrder,
    near_isometry_stat,
    negative_capture_prob,
    play_query_game,
)
from .oracles import (
    BoundaryBand,
    CleanLabels,
    LabelSource,
    MembershipOracle,
    RandomFlip,
    SmallClassOracle,
)
from .refinement import check_fields
from .rng import substream
from .selftest import run_selftest

__all__ = ["main", "run_scenario", "Scenario", "CSV_SCHEMA", "LEARN_HEADER"]

# bump when the column set changes; every row carries it
CSV_SCHEMA = "halfspace-lab-csv-1"

LOWERBOUND_HEADER = ["schema", "scenario", "stat", "value"]

_MODES = ("learn", "sweep", "lowerbound", "selftest")


class UsageError(ValueError):
    """Bad flag combination or unparseable config value."""


@dataclass(frozen=True)
class Scenario:
    """One run's inputs.  The fields after ``mode`` are the CLI's flags,
    the sweep's fields and the learn CSV's scenario columns, with these
    defaults; the annotations are the types they accept."""

    mode: str
    dim: int = 10
    tstar: float | None = field(default=None, metadata={"help": "target threshold"})
    bias: float | None = field(
        default=None, metadata={"help": "target minority mass (excludes --tstar)"}
    )
    noise: str = field(default="clean", metadata={"help": "clean | rcn:<rate> | band:<width>"})
    epsilon: float = 0.05
    delta: float = 0.1
    seed: int = 0
    small_class_oracle: bool = False
    budget: int | None = field(default=None, metadata={"help": "membership-query cap"})
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        try:
            check_fields(self)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if self.mode not in _MODES:
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.tstar is not None and self.bias is not None:
            raise UsageError("--tstar and --bias are mutually exclusive")
        if self.dim < 1:
            raise UsageError("--dim must be a positive integer")
        if not (0.0 < self.epsilon < 1.0):
            raise UsageError("--epsilon must lie in (0, 1)")
        if not (0.0 < self.delta < 1.0):
            raise UsageError("--delta must lie in (0, 1)")
        if self.bias is not None and not (0.0 < self.bias < 1.0):
            raise UsageError("--bias must lie in (0, 1)")
        if self.budget is not None and self.budget < 1:
            raise UsageError("--budget must be a positive integer")

    @property
    def threshold(self) -> float:
        if self.bias is not None:
            return threshold_for_bias(self.bias)
        return self.tstar if self.tstar is not None else 1.0

    def echo(self) -> str:
        """Compact deterministic one-field summary of the scenario."""
        parts = [
            f"mode={self.mode}",
            f"d={self.dim}",
            f"t={_fmt(self.threshold)}",
            f"noise={self.noise}",
            f"eps={_fmt(self.epsilon)}",
            f"delta={_fmt(self.delta)}",
            f"seed={self.seed}",
        ]
        if self.small_class_oracle:
            parts.append("small_class=1")
        if self.budget is not None:
            parts.append(f"budget={self.budget}")
        for k in sorted(self.overrides):
            parts.append(f"{k}={_fmt(self.overrides[k])}")
        return ";".join(parts)


# the fields a sweep may vary, each also a --flag and a learn CSV column
_SWEEP_FIELDS = [f.name for f in dataclasses.fields(Scenario) if f.name not in ("mode", "overrides")]
_REPORT_COLUMNS = [
    "verdict",
    "err_estimate",
    "err_se",
    "total_queries",
    "queries_bias",
    "queries_init",
    "queries_refine",
    "queries_tournament",
    "small_class_draws",
    "rounds",
]
LEARN_HEADER = (
    ["schema", "scenario", "mode"]
    + [{"small_class_oracle": "small_class"}.get(name, name) for name in _SWEEP_FIELDS]
    + _REPORT_COLUMNS
)


def _fmt(x) -> str:
    """Deterministic scalar formatting for CSV cells."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.10g}"
    return str(x)


def make_label_source(spec: str, target: Halfspace) -> LabelSource:
    """Parse ``clean`` | ``rcn:<rate>`` | ``band:<half-width>``."""
    if spec == "clean":
        return CleanLabels(target)
    kind, _, arg = spec.partition(":")
    cls = {"rcn": RandomFlip, "band": BoundaryBand}.get(kind)
    if cls is None:
        raise UsageError(f"unknown noise spec {spec!r} (use clean | rcn:<rate> | band:<width>)")
    try:
        return cls(target, float(arg))
    except ValueError as exc:
        raise UsageError(f"noise spec {spec!r}: {exc}") from None


def _parse_override_value(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        out[key] = _parse_override_value(value)
    return out


def _settable(cfg, prefix: str = ""):
    """The config's field paths: a field holding a stage config gives
    its fields under ``<field>.``."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            yield from _settable(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


def _apply_overrides(cfg, overrides: dict):
    """Return ``cfg`` with the --set values: a dotted key
    (``refine.c_stop``) goes to the stage config held in the field
    before the dot, a bare key to ``cfg`` itself.  Keys that name a
    scenario field, any key that is not a field path of ``cfg`` and
    values the config rejects are usage errors."""
    known = [key for key in _settable(cfg) if key not in _SWEEP_FIELDS]
    stages, top = {}, {}
    for key, value in overrides.items():
        if key in _SWEEP_FIELDS:
            flag = "--" + key.replace("_", "-")
            raise UsageError(f"{key} is set by {flag} (or a sweep field), not by --set")
        if key not in known:
            raise UsageError(f"unknown --set key {key!r} (use {', '.join(known)})")
        head, dot, tail = key.partition(".")
        if dot:
            stages.setdefault(head, {})[tail] = value
        else:
            top[key] = value
    try:
        nested = {name: dataclasses.replace(getattr(cfg, name), **kv) for name, kv in stages.items()}
        return dataclasses.replace(cfg, **nested, **top)
    except ValueError as exc:
        raise UsageError(f"config override: {exc}") from None


def build_target(scenario: Scenario) -> Halfspace:
    rng = substream(scenario.seed, "target")
    w = rng.standard_normal(scenario.dim)
    return Halfspace(w / np.linalg.norm(w), scenario.threshold)


def prepare_learn(scenario: Scenario) -> tuple[LabelSource, LearnerConfig]:
    """One learn scenario's label source and config.  A bad noise spec or
    override raises UsageError here, so a sweep can check every cell
    before it runs any."""
    source = make_label_source(scenario.noise, build_target(scenario))
    cfg = _apply_overrides(
        LearnerConfig(epsilon=scenario.epsilon, delta=scenario.delta), scenario.overrides
    )
    return source, cfg


def run_learn_scenario(
    scenario: Scenario, source: LabelSource, cfg: LearnerConfig
) -> tuple[list[str], RunReport]:
    oracle = MembershipOracle(source, scenario.seed, budget=scenario.budget)
    small_class = (
        SmallClassOracle(source, scenario.seed) if scenario.small_class_oracle else None
    )
    report = learn(oracle, cfg, small_class)
    row = [CSV_SCHEMA, scenario.echo(), scenario.mode]
    row += [_fmt(getattr(scenario, name)) for name in _SWEEP_FIELDS]
    row += [_fmt(getattr(report, name)) for name in _REPORT_COLUMNS]
    return row, report


_STRATEGIES = {
    "random": lambda rng: RandomOrder(rng),
    "greedy": lambda rng: GreedyDirection(rng),
    "oracle": lambda rng: OracleAided(),
}


@dataclass(frozen=True)
class LowerboundConfig:
    """The lowerbound mode's --set keys: positive integer counts and the
    reveal game's strategy."""

    m: int = 2000
    k: int = 10
    tuples: int = 500
    trials: int = 20000
    game_negatives: int = 1
    # None means m
    game_budget: int | None = None
    strategy: str = "random"

    def __post_init__(self):
        check_fields(self, positive=True)
        if self.k > self.m:
            raise ValueError(f"k={self.k} exceeds the pool size m={self.m}")
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r} (use random | greedy | oracle)")


def run_lowerbound_scenario(scenario: Scenario) -> list[list[str]]:
    """Pool statistics for one seed: near-isometry, capture probability,
    and the query game for the configured strategy.  The pool and the
    near-isometry tuples share one stream; the capture estimate and the
    strategy draw from their own, so no count moves another's draws."""
    cfg = _apply_overrides(LowerboundConfig(), scenario.overrides)
    t = scenario.threshold
    rng = substream(scenario.seed, "lowerbound")
    points = rng.standard_normal((cfg.m, scenario.dim))
    target = build_target(scenario)
    pool = Pool(points, target)

    iso = near_isometry_stat(points, min(cfg.k, scenario.dim), cfg.tuples, rng)
    capture = negative_capture_prob(
        points[:cfg.k], t, cfg.trials, substream(scenario.seed, "lowerbound", "capture")
    )
    strategy = _STRATEGIES[cfg.strategy](substream(scenario.seed, "lowerbound", "game"))
    found, used = play_query_game(pool, strategy, cfg.game_negatives, cfg.game_budget or cfg.m)

    echo = scenario.echo()
    stats = [
        ("near_isometry_stat", iso),
        ("negative_capture_prob", capture),
        ("game_negatives_found", found),
        ("game_queries_used", used),
    ]
    return [[CSV_SCHEMA, echo, name, _fmt(value)] for name, value in stats]


def expand_sweep(spec: dict) -> list[dict]:
    """Cross-product of any listed fields, in fixed field order, so the
    output row order is deterministic regardless of execution order."""
    if not isinstance(spec, dict) or not isinstance(spec.get("set", {}), dict):
        raise UsageError('a sweep spec maps scenario fields to values or lists, and "set" to overrides')
    unknown = set(spec) - set(_SWEEP_FIELDS) - {"set"}
    if unknown:
        raise UsageError(f"unknown sweep fields: {sorted(unknown)}")
    axes = [
        [(name, v) for v in (spec[name] if isinstance(spec[name], list) else [spec[name]])]
        for name in _SWEEP_FIELDS
        if name in spec
    ]
    return [dict(combo) for combo in itertools.product(*axes)]


def _write_csv(rows: list[list[str]], header: list[str], out_path: str | None) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def run_scenario(scenario: Scenario, out_path: str | None = None, sweep_spec: dict | None = None) -> int:
    """Execute one scenario (or sweep) and write its CSV; returns the exit code."""
    t0 = time.monotonic()
    code = 0
    if scenario.mode == "selftest":
        code = 0 if run_selftest(lambda line: print(line, file=sys.stderr)) else 3
    elif scenario.mode == "lowerbound":
        _write_csv(run_lowerbound_scenario(scenario), LOWERBOUND_HEADER, out_path)
    else:
        scenarios = [scenario]
        if scenario.mode == "sweep":
            cells = expand_sweep(sweep_spec)
            overrides = {**scenario.overrides, **sweep_spec.get("set", {})}
            scenarios = [Scenario(mode="learn", overrides=overrides, **cell) for cell in cells]
        prepared = [(s, *prepare_learn(s)) for s in scenarios]
        runs = [run_learn_scenario(*cell) for cell in prepared]
        _write_csv([row for row, _ in runs], LEARN_HEADER, out_path)
        if any(report.verdict == "budget" for _, report in runs):
            code = 2
    wall_ms = 1000.0 * (time.monotonic() - t0)
    print(f"wall_ms={wall_ms:.1f}", file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    # flags the user leaves out stay out of the namespace, so Scenario's
    # defaults apply
    parser = _Parser(
        prog="halfspace-lab",
        description="Membership-query halfspace learning experiments.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--mode", required=True, choices=_MODES)
    hints = typing.get_type_hints(Scenario)
    for f in dataclasses.fields(Scenario):
        if f.name not in _SWEEP_FIELDS:
            continue
        flag = "--" + f.name.replace("_", "-")
        (kind,) = [t for t in typing.get_args(hints[f.name]) or (hints[f.name],) if t is not type(None)]
        if kind is bool:
            parser.add_argument(flag, action="store_true", help=f.metadata.get("help"))
        else:
            parser.add_argument(flag, type=kind, help=f.metadata.get("help"))
    parser.add_argument("--sweep-file", help="JSON sweep spec (sweep mode)")
    parser.add_argument("--out", help="CSV output path (default stdout)")
    parser.add_argument("--set", dest="overrides", action="append",
                        metavar="KEY=VALUE", help="config override (repeatable)")
    return parser


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot take the CSV before any scenario
    runs, rather than after the run it would have held."""
    if os.path.isdir(path):
        raise UsageError(f"--out {path!r} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise UsageError(f"--out {path!r}: no directory {parent!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    out_path = args.pop("out", None)
    sweep_file = args.pop("sweep_file", None)
    try:
        scenario = Scenario(overrides=parse_overrides(args.pop("overrides", [])), **args)
        if (scenario.mode == "sweep") != (sweep_file is not None):
            raise UsageError("sweep mode needs --sweep-file, and no other mode takes one")
        flags = ", ".join(sorted("--" + name.replace("_", "-") for name in args if name != "mode"))
        if scenario.mode == "sweep" and flags:
            raise UsageError(f"sweep mode takes scenario fields from its file, not from {flags}")
        if out_path is not None:
            _check_out(out_path)
        sweep_spec = None
        if sweep_file is not None:
            with open(sweep_file) as fh:
                try:
                    sweep_spec = json.load(fh)
                except ValueError as exc:
                    raise UsageError(f"sweep file {sweep_file!r}: {exc}") from None
        return run_scenario(scenario, out_path, sweep_spec)
    except (UsageError, OSError) as exc:
        print(f"halfspace-lab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
