"""Command-line front end: single evaluations, loss sweeps, optimization, verification.

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
from dataclasses import dataclass

from .channel import (
    DEFAULT_ATTENUATION_DB_PER_KM,
    ChannelParams,
    DetectorParams,
)
from .keyrate import RateParams, total_rate
from .operations import NonGaussianOpSpec, OpKind, apply_to_supermodes
from .optimize import OptimizationProblem, check_bound_squeezing, optimize
from .source import SourceParams, make_spectrum
from .verification import run_all_checks

ENV_PREFIX = "MMCVQKD_"

DEFAULTS = {
    "scenario": "single",
    "decay": 2.0,
    "kmax": 5,
    "ksel": 1,
    "op": "none",
    "memory": True,
    "clamp": True,
    "loss_db": "10",
    "eps": 0.1,
    "nu": 1.1,
    "eta_d": 0.68,
    "eta_r": 0.95,
    "gain": 1.0,
    "t": "",
    "out": "",
    "format": "csv",
    "workers": 1,
    "attenuation": DEFAULT_ATTENUATION_DB_PER_KM,
    "grid_points": 25,
    "g_max": 0.0,  # 0 means "use the scenario default"
}

_PARSERS = {
    "scenario": str,
    "decay": float,
    "kmax": int,
    "ksel": int,
    "op": str,
    "memory": None,  # bool, special-cased
    "clamp": None,
    "loss_db": str,
    "eps": float,
    "nu": float,
    "eta_d": float,
    "eta_r": float,
    "gain": float,
    "t": str,
    "out": str,
    "format": str,
    "workers": int,
    "attenuation": float,
    "grid_points": int,
    "g_max": float,
}

RECORD_FIELDS = (
    "loss_db",
    "eta_e",
    "distance_km",
    "scenario",
    "op",
    "k_sel",
    "memory",
    "best_G",
    "best_T",
    "total_rate",
    "per_mode_rates",
    "per_mode_probs",
    "evaluations",
)


class UsageError(Exception):
    """Invalid configuration; reported with the offending field, exit code 2."""


@dataclass
class SweepRecord:
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
    parser = _PARSERS[key]
    if parser is None:
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
    parser = _PARSERS[key] or bool
    type_name, accepted = _CONFIG_TYPES[parser]
    # bool is a subclass of int: true must not pass for a number, nor 1 for a boolean.
    if isinstance(value, bool) != (parser is bool) or not isinstance(value, accepted):
        raise UsageError(f"config: {key} must be a JSON {type_name}, got {json.dumps(value)}")
    return parser(value)


def build_settings(args: argparse.Namespace) -> dict:
    """Layer defaults, config file, environment and explicit flags."""
    settings = dict(DEFAULTS)
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
            if key not in settings:
                raise UsageError(f"config: unknown field {key!r}")
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
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"loss-db: expected A:B:STEP, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise UsageError(f"loss-db: {exc}") from exc
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise UsageError(f"loss-db: range bounds and step must be finite, got {text!r}")
        if step <= 0.0:
            raise UsageError(f"loss-db: step must be positive, got {step}")
        if stop < start:
            raise UsageError(f"loss-db: empty range {text!r}")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(count)]
    try:
        return [float(text)]
    except ValueError as exc:
        raise UsageError(f"loss-db: {exc}") from exc


def _validated(settings: dict) -> dict:
    if settings["scenario"] not in ("single", "exp", "uniform"):
        raise UsageError(f"scenario: unknown scenario {settings['scenario']!r}")
    try:
        OpKind(settings["op"])
    except ValueError as exc:
        raise UsageError(f"op: {exc}") from exc
    if settings["kmax"] < 1:
        raise UsageError(f"kmax: must be >= 1, got {settings['kmax']}")
    if settings["op"] != "none" and not 1 <= settings["ksel"] <= settings["kmax"]:
        raise UsageError(f"ksel: must be in [1, kmax={settings['kmax']}], got {settings['ksel']}")
    if settings["format"] not in ("csv", "json"):
        raise UsageError(f"format: must be csv or json, got {settings['format']!r}")
    if settings["workers"] < 1:
        raise UsageError(f"workers: must be >= 1, got {settings['workers']}")
    for key, parser in _PARSERS.items():
        if parser is float and not math.isfinite(settings[key]):
            raise UsageError(f"{key}: must be finite, got {settings[key]}")
    if settings["attenuation"] <= 0.0:
        raise UsageError(f"attenuation: must be > 0 dB/km, got {settings['attenuation']}")
    return settings


def _spectrum(settings: dict):
    return make_spectrum(settings["scenario"], settings["kmax"], settings["decay"])


def _channel(settings: dict, loss_db: float) -> ChannelParams:
    return ChannelParams.from_loss_db(loss_db, epsilon=settings["eps"])


def _detector(settings: dict) -> DetectorParams:
    return DetectorParams(eta_d=settings["eta_d"], nu=settings["nu"])


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


def cmd_point(settings: dict) -> list[SweepRecord]:
    losses = _parse_loss_values(settings["loss_db"])
    if len(losses) != 1:
        raise UsageError("loss-db: point expects a single loss value, not a range")
    loss = losses[0]
    op_kind = OpKind(settings["op"])
    k_sel = settings["ksel"] if op_kind is not OpKind.NONE else 0
    t_values = _parse_t_list(settings)
    if op_kind is OpKind.NONE:
        if t_values:
            raise UsageError("t: transmissivities given but op is none")
    elif len(t_values) != k_sel:
        raise UsageError(f"t: expected {k_sel} transmissivities for ksel={k_sel}, got {len(t_values)}")
    spectrum = _spectrum(settings)
    check_bound_squeezing("gain", settings["gain"], spectrum)
    source = SourceParams(gain=settings["gain"], spectrum=spectrum)
    specs = [NonGaussianOpSpec(op_kind, t) for t in t_values]
    outcomes = apply_to_supermodes(specs, source)
    result = total_rate(
        outcomes, _channel(settings, loss), _detector(settings), _rate_params(settings),
        clamp=settings["clamp"],
    )
    record = SweepRecord(
        loss_db=loss,
        eta_e=_channel(settings, loss).eta_e,
        distance_km=loss / settings["attenuation"],
        scenario=settings["scenario"],
        op=op_kind.value,
        k_sel=k_sel,
        memory=settings["memory"],
        best_G=settings["gain"],
        best_T=t_values,
        total_rate=result.total,
        per_mode_rates=result.per_mode_rates,
        per_mode_probs=result.per_mode_probs,
        evaluations=1,
    )
    return [record]


def _optimize_at_loss(settings: dict, loss: float, trace_path: str | None = None) -> SweepRecord:
    op_kind = OpKind(settings["op"])
    k_sel = settings["ksel"] if op_kind is not OpKind.NONE else 0
    spectrum = _spectrum(settings)
    problem = OptimizationProblem(
        spectrum=spectrum,
        op_kind=op_kind,
        k_sel=k_sel,
        channel=_channel(settings, loss),
        detector=_detector(settings),
        rate=_rate_params(settings),
        clamp=settings["clamp"],
        grid_points=settings["grid_points"],
        g_max=settings["g_max"] or None,
        keep_trace=trace_path is not None,
    )
    opt = optimize(problem)
    if trace_path is not None:
        payload = {
            "evaluations": opt.evaluations,
            "refinement_trace": [
                {"params": list(params), "rate": rate} for params, rate in (opt.trace or ())
            ],
        }
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    source = SourceParams(gain=opt.best_g, spectrum=spectrum)
    specs = [NonGaussianOpSpec(op_kind, t) for t in opt.best_t]
    outcomes = apply_to_supermodes(specs, source)
    result = total_rate(
        outcomes, problem.channel, problem.detector, problem.rate, clamp=settings["clamp"]
    )
    return SweepRecord(
        loss_db=loss,
        eta_e=problem.channel.eta_e,
        distance_km=loss / settings["attenuation"],
        scenario=settings["scenario"],
        op=op_kind.value,
        k_sel=k_sel,
        memory=settings["memory"],
        best_G=opt.best_g,
        best_T=opt.best_t,
        total_rate=result.total,
        per_mode_rates=result.per_mode_rates,
        per_mode_probs=result.per_mode_probs,
        evaluations=opt.evaluations,
    )


def _sweep_worker(payload: tuple[dict, float]) -> SweepRecord:
    settings, loss = payload
    return _optimize_at_loss(settings, loss)


def cmd_sweep(settings: dict) -> list[SweepRecord]:
    losses = _parse_loss_values(settings["loss_db"])
    if settings["workers"] > 1 and len(losses) > 1:
        with ProcessPoolExecutor(max_workers=settings["workers"]) as pool:
            records = list(pool.map(_sweep_worker, [(settings, loss) for loss in losses]))
    else:
        records = [_optimize_at_loss(settings, loss) for loss in losses]
    records.sort(key=lambda record: record.loss_db)
    return records


def cmd_optimize(settings: dict, trace_path: str | None = None) -> list[SweepRecord]:
    losses = _parse_loss_values(settings["loss_db"])
    if len(losses) != 1:
        raise UsageError("loss-db: optimize expects a single loss value, not a range")
    return [_optimize_at_loss(settings, losses[0], trace_path=trace_path)]


def records_to_csv(records: list[SweepRecord]) -> str:
    lines = [",".join(RECORD_FIELDS)]
    for record in records:
        lines.append(
            ",".join(
                (
                    _fmt(record.loss_db),
                    _fmt(record.eta_e),
                    _fmt(record.distance_km),
                    record.scenario,
                    record.op,
                    str(record.k_sel),
                    "true" if record.memory else "false",
                    _fmt(record.best_G),
                    ";".join(_fmt(t) for t in record.best_T),
                    _fmt(record.total_rate),
                    ";".join(_fmt(r) for r in record.per_mode_rates),
                    ";".join(_fmt(p) for p in record.per_mode_probs),
                    str(record.evaluations),
                )
            )
        )
    return "\n".join(lines) + "\n"


def records_to_json(records: list[SweepRecord]) -> str:
    payload = []
    for record in records:
        payload.append(
            {
                "loss_db": record.loss_db,
                "eta_e": record.eta_e,
                "distance_km": record.distance_km,
                "scenario": record.scenario,
                "op": record.op,
                "k_sel": record.k_sel,
                "memory": record.memory,
                "best_G": record.best_G,
                "best_T": list(record.best_T),
                "total_rate": record.total_rate,
                "per_mode_rates": list(record.per_mode_rates),
                "per_mode_probs": list(record.per_mode_probs),
                "evaluations": record.evaluations,
            }
        )
    return json.dumps(payload, indent=2) + "\n"


def parse_csv_records(text: str) -> list[SweepRecord]:
    """Inverse of ``records_to_csv``; numeric columns round-trip bit-exactly."""
    lines = [line for line in text.splitlines() if line]
    if not lines or tuple(lines[0].split(",")) != RECORD_FIELDS:
        raise ValueError("unrecognized CSV header")
    records = []
    for line in lines[1:]:
        cols = line.split(",")
        records.append(
            SweepRecord(
                loss_db=float(cols[0]),
                eta_e=float(cols[1]),
                distance_km=float(cols[2]),
                scenario=cols[3],
                op=cols[4],
                k_sel=int(cols[5]),
                memory=cols[6] == "true",
                best_G=float(cols[7]),
                best_T=tuple(float(v) for v in cols[8].split(";") if v),
                total_rate=float(cols[9]),
                per_mode_rates=tuple(float(v) for v in cols[10].split(";") if v),
                per_mode_probs=tuple(float(v) for v in cols[11].split(";") if v),
                evaluations=int(cols[12]),
            )
        )
    return records


def _emit(records: list[SweepRecord], settings: dict, out_handle) -> None:
    text = records_to_csv(records) if settings["format"] == "csv" else records_to_json(records)
    out_handle.write(text)


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all_checks(
        cm_tol=args.tol_cm, prob_tol=args.tol_prob, mi_tol=args.tol_mi
    )
    for result in results:
        print(result.report_line())
    failures = [result for result in results if not result.passed]
    if failures:
        names = ", ".join(result.name for result in failures)
        print(f"FAILED checks: {names}", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", choices=("single", "exp", "uniform"), default=None)
    parser.add_argument("--decay", type=float, default=None, help="exp-scenario decay constant")
    parser.add_argument("--kmax", type=int, default=None, help="number of supermodes")
    parser.add_argument("--ksel", type=int, default=None, help="supermodes receiving the operation")
    parser.add_argument("--op", choices=[k.value for k in OpKind], default=None)
    parser.add_argument("--memory", action=argparse.BooleanOptionalAction, default=None,
                        help="heralding into a quantum memory (success probability not charged)")
    parser.add_argument("--clamp", action=argparse.BooleanOptionalAction, default=None,
                        help="discard loss-making supermodes in the total")
    parser.add_argument("--loss-db", dest="loss_db", default=None,
                        help="channel loss in dB: single value or A:B:STEP")
    parser.add_argument("--eps", type=float, default=None, help="excess noise (input-referred)")
    parser.add_argument("--nu", type=float, default=None, help="detector thermal noise variance")
    parser.add_argument("--eta-d", dest="eta_d", type=float, default=None, help="detection efficiency")
    parser.add_argument("--eta-r", dest="eta_r", type=float, default=None, help="reconciliation efficiency")
    parser.add_argument("--attenuation", type=float, default=None, help="fiber attenuation dB/km")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--workers", type=int, default=None, help="parallel sweep workers")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--grid-points", dest="grid_points", type=int, default=None,
                        help="coarse grid points per optimization axis")
    parser.add_argument("--g-max", dest="g_max", type=float, default=None, help="gain upper bound")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmcvqkd",
        description="Multi-mode CV-QKD key rates with heralded non-Gaussian operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="evaluate one fully specified configuration")
    _add_common_flags(point)
    point.add_argument("--gain", type=float, default=None, help="PDC gain G (fixed)")
    point.add_argument("--t", default=None, help="comma-separated transmissivities, one per ksel")

    sweep = sub.add_parser("sweep", help="optimized key rate over a loss range")
    _add_common_flags(sweep)

    opt = sub.add_parser("optimize", help="optimize G and T at a single loss")
    _add_common_flags(opt)
    opt.add_argument("--trace", default=None,
                     help="write the refinement trace (params, rate) to this JSON file")

    verify = sub.add_parser("verify", help="run the closed-form vs oracle cross-checks")
    verify.add_argument("--tol-cm", type=float, default=1e-6, help="CM entry tolerance")
    verify.add_argument("--tol-prob", type=float, default=1e-8, help="probability tolerance")
    verify.add_argument("--tol-mi", type=float, default=1e-12, help="mutual-information tolerance")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    try:
        settings = _validated(build_settings(args))
        out_path = settings["out"]
        out_handle = None
        if out_path:
            # Fail on unwritable paths before any computation.
            out_handle = open(out_path, "w", encoding="utf-8", newline="")
        try:
            if args.command == "point":
                records = cmd_point(settings)
            elif args.command == "sweep":
                records = cmd_sweep(settings)
            else:
                records = cmd_optimize(settings, trace_path=getattr(args, "trace", None))
            _emit(records, settings, out_handle if out_handle else sys.stdout)
        finally:
            if out_handle:
                out_handle.close()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # domain validation (transmissivity, gain, ...)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
