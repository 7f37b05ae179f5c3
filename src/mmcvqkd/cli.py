"""Command-line front end: single evaluations, loss sweeps, optimization, verification.

``SETTINGS`` declares each setting once: the defaults, the environment and
config parsers, the subcommand flags and the choice and finiteness checks
derive from it. ``SweepRecord`` declares each output field once: the CSV
header, writer and parser and the JSON writer follow its fields in order.

Configuration precedence: CLI flags > MMCVQKD_* environment variables >
--config JSON file > built-in defaults. Numeric output uses 17 significant
digits so files round-trip bit-exactly; identical configuration yields
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

from .channel import (
    DEFAULT_ATTENUATION_DB_PER_KM,
    DEFAULT_DETECTOR_EFFICIENCY,
    DEFAULT_DETECTOR_NOISE,
    DEFAULT_EXCESS_NOISE,
    ChannelParams,
    DetectorParams,
)
from .keyrate import DEFAULT_RECONCILIATION_EFFICIENCY, RateParams, total_rate
from .operations import NonGaussianOpSpec, OpKind, apply_to_supermodes
from .optimize import DEFAULT_GRID_POINTS, OptimizationProblem, check_bound_squeezing, optimize
from .source import DEFAULT_DECAY, DEFAULT_K_MAX, MAX_K_MAX, Scenario, SourceParams, make_spectrum
from .verification import run_all_checks

ENV_PREFIX = "MMCVQKD_"
# A loss range may expand to at most this many points. A range beyond it is a
# mistyped step, and building its list would exhaust memory before any output.
MAX_LOSS_POINTS = 100_000
# A sweep forks all of its workers at the first submit, each a copy of the
# process (about 30 MB before it solves). This is far above the core count of
# any machine this runs on, where extra workers only wait; a mistyped 100000
# would exhaust memory or process ids before any output.
MAX_WORKERS = 256

_RUN_COMMANDS = ("point", "sweep", "optimize")


class Setting(NamedTuple):
    """One setting: flag ``--key`` (underscores as dashes), variable MMCVQKD_KEY, config key."""

    type: type
    default: object
    help: str | None = None
    choices: tuple[str, ...] | None = None
    commands: tuple[str, ...] = _RUN_COMMANDS


SETTINGS = {
    "scenario": Setting(str, "single", choices=tuple(scenario.value for scenario in Scenario)),
    "decay": Setting(float, DEFAULT_DECAY, "exp-scenario decay constant"),
    "kmax": Setting(int, DEFAULT_K_MAX, "number of supermodes"),
    "ksel": Setting(int, 1, "supermodes receiving the operation"),
    "op": Setting(str, "none", choices=tuple(kind.value for kind in OpKind)),
    "memory": Setting(
        bool, True, "heralding into a quantum memory (success probability not charged)"
    ),
    "clamp": Setting(bool, True, "discard loss-making supermodes in the total"),
    "loss_db": Setting(str, "10", "channel loss in dB: single value or A:B:STEP"),
    "eps": Setting(float, DEFAULT_EXCESS_NOISE, "excess noise (input-referred)"),
    "nu": Setting(float, DEFAULT_DETECTOR_NOISE, "detector thermal noise variance"),
    "eta_d": Setting(float, DEFAULT_DETECTOR_EFFICIENCY, "detection efficiency"),
    "eta_r": Setting(float, DEFAULT_RECONCILIATION_EFFICIENCY, "reconciliation efficiency"),
    "attenuation": Setting(float, DEFAULT_ATTENUATION_DB_PER_KM, "fiber attenuation dB/km"),
    "out": Setting(str, "", "output path (default stdout)"),
    "format": Setting(str, "csv", choices=("csv", "json")),
    "workers": Setting(int, 1, "parallel sweep workers", commands=("sweep",)),
    "grid_points": Setting(
        int, DEFAULT_GRID_POINTS, "coarse grid points per optimization axis",
        commands=("sweep", "optimize"),
    ),
    # 0 means "use the scenario default"
    "g_max": Setting(float, 0.0, "gain upper bound", commands=("sweep", "optimize")),
    "gain": Setting(float, 1.0, "PDC gain G (fixed)", commands=("point",)),
    "t": Setting(str, "", "comma-separated transmissivities, one per ksel", commands=("point",)),
}


class UsageError(Exception):
    """Invalid configuration; reported with the offending field, exit code 2."""


@dataclass
class SweepRecord:
    """One output record; its fields, in order, are the CSV columns and the JSON keys."""

    loss_db: float
    eta_e: float
    distance_km: float
    scenario: str
    op: str
    k_sel: int
    memory: bool
    best_G: float
    best_T: tuple[float, ...]
    total_rate: float
    per_mode_rates: tuple[float, ...]
    per_mode_probs: tuple[float, ...]
    evaluations: int


def _fmt(value: float) -> str:
    return f"{value:.17g}"


# (write, read) of a CSV cell for each SweepRecord field annotation; the
# tuple-valued fields are ';'-joined.
_CSV_CODECS = {
    "float": (_fmt, float),
    "int": (str, int),
    "str": (str, str),
    "bool": (lambda value: "true" if value else "false", lambda text: text == "true"),
    "tuple[float, ...]": (
        lambda values: ";".join(_fmt(v) for v in values),
        lambda text: tuple(float(v) for v in text.split(";") if v),
    ),
}
_CSV_COLUMNS = [(field.name, *_CSV_CODECS[field.type]) for field in fields(SweepRecord)]


def _parse_bool(text: str, name: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"{name}: cannot parse boolean value {text!r}")


def _from_env(key: str, text: str) -> object:
    """Parse an environment value with the field's parser, naming the variable on failure."""
    name = ENV_PREFIX + key.upper()
    parser = SETTINGS[key].type
    if parser is bool:
        return _parse_bool(text, name)
    try:
        return parser(text)
    except ValueError as exc:
        raise UsageError(f"{name}: cannot parse {text!r} as {parser.__name__}") from exc


# JSON types a config file may use for each parser: no coercion, so a quoted
# number or a truthy string fails by name instead of being misread.
_CONFIG_TYPES = {
    bool: ("boolean", (bool,)),
    int: ("integer", (int,)),
    float: ("number", (int, float)),
    str: ("string", (str,)),
}


def _from_config(key: str, value: object) -> object:
    """Type-check a config-file value against the field's parser."""
    parser = SETTINGS[key].type
    type_name, accepted = _CONFIG_TYPES[parser]
    # bool is a subclass of int: true must not pass for a number, nor 1 for a boolean.
    if isinstance(value, bool) != (parser is bool) or not isinstance(value, accepted):
        raise UsageError(f"config: {key} must be a JSON {type_name}, got {json.dumps(value)}")
    return parser(value)


def build_settings(args: argparse.Namespace) -> dict:
    """Layer defaults, config file, environment and explicit flags.

    Only the settings that ``args.command`` takes are layered: a config key
    or variable of another subcommand is ignored, an unknown config key fails.
    """
    settings = {
        key: setting.default for key, setting in SETTINGS.items() if args.command in setting.commands
    }
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"config: cannot read {config_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"config: {config_path} must hold a JSON object")
        for key, value in loaded.items():
            if key not in SETTINGS:
                raise UsageError(f"config: unknown field {key!r}")
            if key in settings:
                settings[key] = _from_config(key, value)
    for key in settings:
        env_value = os.environ.get(ENV_PREFIX + key.upper())
        if env_value is not None:
            settings[key] = _from_env(key, env_value)
    for key in settings:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    return settings


def _parse_loss_values(text: str) -> list[float]:
    """"A:B:STEP" sweeps inclusively from A to B; a bare number is one point."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise UsageError(f"loss-db: expected A:B:STEP, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"loss-db: {exc}") from exc
    if len(values) == 1:
        if not math.isfinite(values[0]):
            raise UsageError(f"loss-db: must be finite, got {values[0]}")
        return values
    start, stop, step = values
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"loss-db: range bounds and step must be finite, got {text!r}")
    if step <= 0.0:
        raise UsageError(f"loss-db: step must be positive, got {step}")
    if stop < start:
        raise UsageError(f"loss-db: empty range {text!r}")
    # Counted before any list is built; overflows to inf for extreme bounds.
    span = (stop - start) / step + 1e-9
    if not span < MAX_LOSS_POINTS:
        raise UsageError(f"loss-db: {text!r} exceeds MAX_LOSS_POINTS = {MAX_LOSS_POINTS} points")
    count = math.floor(span) + 1
    return [start + i * step for i in range(count)]


def _losses(settings: dict, command: str) -> list[float]:
    """The run's losses, once every setting that needs no domain object is checked."""
    for key, value in settings.items():
        setting = SETTINGS[key]
        if setting.choices is not None and value not in setting.choices:
            raise UsageError(f"{key}: must be one of {', '.join(setting.choices)}, got {value!r}")
        if setting.type is float and not math.isfinite(value):
            raise UsageError(f"{key}: must be finite, got {value}")
    if not 1 <= settings["kmax"] <= MAX_K_MAX:
        raise UsageError(f"kmax: must be in [1, MAX_K_MAX = {MAX_K_MAX}], got {settings['kmax']}")
    if settings["op"] != "none" and not 1 <= settings["ksel"] <= settings["kmax"]:
        raise UsageError(f"ksel: must be in [1, kmax={settings['kmax']}], got {settings['ksel']}")
    if settings.get("workers", 1) < 1:
        raise UsageError(f"workers: must be >= 1, got {settings['workers']}")
    if settings.get("workers", 1) > MAX_WORKERS:
        raise UsageError(f"workers: must be <= MAX_WORKERS = {MAX_WORKERS}, got {settings['workers']}")
    if settings["attenuation"] <= 0.0:
        raise UsageError(f"attenuation: must be > 0 dB/km, got {settings['attenuation']}")
    losses = _parse_loss_values(settings["loss_db"])
    if command != "sweep" and len(losses) != 1:
        raise UsageError(f"loss-db: {command} expects a single loss value, not a range")
    if not math.isfinite(max(losses) / settings["attenuation"]):
        raise UsageError(
            f"attenuation: {settings['attenuation']} dB/km puts {max(losses)} dB at an infinite distance"
        )
    return losses


def _named(key: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with ``key:`` put before the text of a
    ``ValueError`` it raises, so that the message names the setting."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(f"{key}: {exc}") from exc


def _spectrum(settings: dict):
    return _named("decay", make_spectrum, settings["scenario"], settings["kmax"], settings["decay"])


def _channel(settings: dict, loss_db: float) -> ChannelParams:
    # The loss is checked with the default excess noise, so that each error
    # names the one setting it is about.
    eta_e = _named("loss-db", ChannelParams.from_loss_db, loss_db).eta_e
    return _named("eps", ChannelParams, eta_e, settings["eps"])


def _detector(settings: dict) -> DetectorParams:
    # eta_d is checked first on its own, so the second call fails only on nu.
    _named("eta_d", DetectorParams, eta_d=settings["eta_d"])
    return _named("nu", DetectorParams, eta_d=settings["eta_d"], nu=settings["nu"])


def _rate_params(settings: dict) -> RateParams:
    return RateParams(eta_r=settings["eta_r"], memory=settings["memory"])


def _parse_t_list(settings: dict) -> tuple[float, ...]:
    text = settings["t"].strip()
    if not text:
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"t: {exc}") from exc


def _record(
    settings: dict, loss: float, gain: float, t_values: tuple[float, ...], evaluations: int
) -> SweepRecord:
    """Evaluate (gain, t_values) on the dense scalar path and build the output record."""
    channel = _channel(settings, loss)
    source = SourceParams(gain=gain, spectrum=_spectrum(settings))
    op_kind = OpKind(settings["op"])
    specs = [_named("t", NonGaussianOpSpec, op_kind, t) for t in t_values]
    outcomes = apply_to_supermodes(specs, source)
    result = total_rate(
        outcomes, channel, _detector(settings), _rate_params(settings), clamp=settings["clamp"]
    )
    return SweepRecord(
        loss_db=loss,
        eta_e=channel.eta_e,
        distance_km=loss / settings["attenuation"],
        scenario=settings["scenario"],
        op=settings["op"],
        k_sel=len(t_values),  # one T per operated supermode
        memory=settings["memory"],
        best_G=gain,
        best_T=t_values,
        total_rate=result.total,
        per_mode_rates=result.per_mode_rates,
        per_mode_probs=result.per_mode_probs,
        evaluations=evaluations,
    )


def cmd_point(settings: dict, loss: float) -> list[SweepRecord]:
    t_values = _parse_t_list(settings)
    k_sel = settings["ksel"]
    if settings["op"] == "none":
        if t_values:
            raise UsageError("t: transmissivities given but op is none")
    elif len(t_values) != k_sel:
        raise UsageError(f"t: expected {k_sel} transmissivities for ksel={k_sel}, got {len(t_values)}")
    check_bound_squeezing("gain", settings["gain"], _spectrum(settings))
    return [_record(settings, loss, settings["gain"], t_values, evaluations=1)]


def _solve(
    settings: dict, loss: float, problem: OptimizationProblem, trace: list | None = None
) -> SweepRecord:
    """The optimum's record; its refinement trace is appended to ``trace`` if given."""
    opt = optimize(problem)
    if trace is not None:
        trace.extend({"params": list(params), "rate": rate} for params, rate in opt.trace)
    return _record(settings, loss, opt.best_g, opt.best_t, opt.evaluations)


def cmd_sweep(settings: dict, losses: list[float], trace: list | None = None) -> list[SweepRecord]:
    """The optimum's record at each loss; ``optimize`` is the one-loss case.

    Every problem is built, so every setting is checked, before the first solve
    or fork. The problems share one spectrum, detector and rate parameters.
    A serial run appends its refinement trace to ``trace`` if given.
    """
    channels = [_channel(settings, loss) for loss in losses]
    shared = dict(
        spectrum=_spectrum(settings),
        op_kind=OpKind(settings["op"]),
        k_sel=settings["ksel"],
        detector=_detector(settings),
        rate=_rate_params(settings),
        clamp=settings["clamp"],
        grid_points=settings["grid_points"],
        g_max=settings["g_max"] or None,
    )
    problems = [OptimizationProblem(channel=channel, **shared) for channel in channels]
    workers = min(settings.get("workers", 1), len(problems))
    if workers > 1:
        # pool.map keeps the order of ``losses``, which ascend. The pool forks
        # every worker at once, so it gets no more than there are losses.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_solve, [settings] * len(losses), losses, problems))
    return [_solve(settings, loss, problem, trace) for loss, problem in zip(losses, problems)]


def records_to_csv(records: list[SweepRecord]) -> str:
    lines = [",".join(name for name, _, _ in _CSV_COLUMNS)]
    for record in records:
        lines.append(",".join(write(getattr(record, name)) for name, write, _ in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def records_to_json(records: list[SweepRecord]) -> str:
    return json.dumps([asdict(record) for record in records], indent=2) + "\n"


def _read_cell(name: str, write, read, cell: str, row: int) -> object:
    """``read(cell)``, accepting exactly the cells that ``write`` writes."""
    try:
        value = read(cell)
    except ValueError:
        pass
    else:
        if write(value) == cell:
            return value
    raise ValueError(f"CSV row {row}, column {name}: {cell!r} is not a cell records_to_csv writes")


def parse_csv_records(text: str) -> list[SweepRecord]:
    """Inverse of ``records_to_csv``; numeric columns round-trip bit-exactly."""
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0].split(",") != [name for name, _, _ in _CSV_COLUMNS]:
        raise ValueError("unrecognized CSV header")
    records = []
    for row, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(_CSV_COLUMNS):
            raise ValueError(f"CSV row {row}: expected {len(_CSV_COLUMNS)} cells, got {len(cells)}")
        values = (_read_cell(*column, cell, row) for column, cell in zip(_CSV_COLUMNS, cells))
        records.append(SweepRecord(*values))
    return records


def cmd_verify() -> int:
    results = run_all_checks()
    for result in results:
        print(result.report_line())
    failures = [result for result in results if not result.passed]
    if failures:
        names = ", ".join(result.name for result in failures)
        print(f"FAILED checks: {names}", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _check_writable(path: str) -> None:
    """Raise OSError now, before any computation, if ``path`` cannot be written.

    Opening for append leaves an existing file's contents as they are; a file
    the check creates is removed again.
    """
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _add_setting_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """One flag per setting that ``command`` takes; unset flags stay None."""
    for key, setting in SETTINGS.items():
        if command not in setting.commands:
            continue
        flag = "--" + key.replace("_", "-")
        if setting.type is bool:
            parser.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction,
                                default=None, help=setting.help)
        else:
            parser.add_argument(flag, dest=key, type=setting.type, choices=setting.choices,
                                default=None, help=setting.help)
    parser.add_argument("--config", default=None, help="JSON config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmcvqkd",
        description="Multi-mode CV-QKD key rates with heralded non-Gaussian operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in zip(_RUN_COMMANDS, (
        "evaluate one fully specified configuration",
        "optimized key rate over a loss range",
        "optimize G and T at a single loss",
    )):
        _add_setting_flags(sub.add_parser(command, help=text), command)
    sub.choices["optimize"].add_argument(
        "--trace", default=None, help="write the refinement trace (params, rate) to this JSON file"
    )

    sub.add_parser("verify", help="run the closed-form vs oracle cross-checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":  # a check that raises is a defect, not a usage error
        return cmd_verify()
    try:
        settings = build_settings(args)
        losses = _losses(settings, args.command)
        trace_path = getattr(args, "trace", None)
        for path in (settings["out"], trace_path):
            if path:
                _check_writable(path)
        out_path = settings["out"]
        if out_path and trace_path and os.path.realpath(out_path) == os.path.realpath(trace_path):
            raise UsageError(f"out and trace: {out_path!r} and {trace_path!r} are the same file")
        trace = [] if trace_path else None
        if args.command == "point":
            records = cmd_point(settings, losses[0])
        else:
            records = cmd_sweep(settings, losses, trace)
        text = records_to_csv(records) if settings["format"] == "csv" else records_to_json(records)
        # Written only now, so a run that fails leaves its output files as they were.
        if trace_path:
            payload = {"evaluations": records[0].evaluations, "refinement_trace": trace}
            _write(trace_path, json.dumps(payload, indent=2) + "\n")
        if settings["out"]:
            _write(settings["out"], text)
        else:
            sys.stdout.write(text)
    except (UsageError, ValueError) as exc:  # ValueError: domain validation (gain, T, ...)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
