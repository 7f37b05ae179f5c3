"""Spans around the calls into each layer of mmcvqkd, recorded from outside it.

The package's modules import their collaborators by name, so each function is
wrapped where its caller looks it up: ``mmcvqkd.optimize.total_rate_batch``,
not ``mmcvqkd.keyrate.total_rate_batch``. ``numpy.linalg.eigvals`` is wrapped
only as ``mmcvqkd.keyrate`` sees it, through a copy of the numpy namespace.
Spans live in memory; ``layer_metrics`` reduces them and ``dump`` writes them.
"""

from __future__ import annotations

import importlib
import json
import os
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from mmcvqkd import channel, cli, fock, keyrate, operations

optimize_module = importlib.import_module("mmcvqkd.optimize")


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "note")

    def __init__(self, name: str, op: int, parent: int | None):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0
        self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _out_bytes(args, result):
    argv = args[0]
    return os.path.getsize(argv[argv.index("--out") + 1])


def _batch_size_and_max(args, result):
    return len(args[2]), float(np.max(result))


# (module, attribute, span name, note taken from (args, result) after the call)
LAYER_PATCHES = (
    (cli, "main", "cli.main", _out_bytes),
    (cli, "optimize", "optimize.optimize", lambda args, result: result.best_rate),
    (cli, "total_rate", "keyrate.total_rate", None),
    (cli, "apply_to_supermodes", "operations.apply_to_supermodes", None),
    (optimize_module, "optimize", "optimize.optimize", lambda args, result: result.best_rate),
    (optimize_module, "total_rate_batch", "keyrate.total_rate_batch", _batch_size_and_max),
    (keyrate, "heralded_entries", "operations.heralded_entries", None),
    (keyrate, "subchannel_rates_batch", "keyrate.subchannel_rates_batch",
     lambda args, result: int(np.size(args[0]))),
    (keyrate, "build_pipeline", "channel.build_pipeline", None),
    (keyrate, "mutual_information", "keyrate.mutual_information", None),
    (keyrate, "holevo_bound", "keyrate.holevo_bound", None),
    (keyrate, "symplectic_eigenvalues", "gaussian.symplectic_eigenvalues", None),
    (operations, "heralded_entries", "operations.heralded_entries", None),
    (channel, "build_pipeline", "channel.build_pipeline", None),
    (fock, "build_tmsv", "fock.build_tmsv", None),
    (fock, "herald", "fock.herald", lambda args, result: args[0].amplitudes.shape[1] - 1),
)


class Tracer:
    """Patches the layer boundaries while installed; records only while ``recording``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note=None):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = Span(name, self.op, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if note is not None:
                span.note = note(args, result)
            return result

        return traced

    def _patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        for module, attr, name, note in LAYER_PATCHES:
            self._patch(module, attr, self._wrap(name, getattr(module, attr), note))
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(np.linalg.__dict__)
        linalg.eigvals = self._wrap("keyrate.eigvals", np.linalg.eigvals)
        numpy_view = types.ModuleType("numpy")
        numpy_view.__dict__.update(np.__dict__)
        numpy_view.linalg = linalg
        self._patch(keyrate, "np", numpy_view)

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def call(self, op: int, name: str, fn, *args):
        """Run ``fn(*args)`` as the root span of operation ``op``."""
        self.op = op
        self.recording = True
        try:
            return self._wrap(name, fn)(*args)
        finally:
            self.recording = False

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "op", "parent", "start", "end"],
                 "spans": [[s.name, s.op, s.parent, s.start, s.end] for s in self.spans]},
                handle, separators=(",", ":"),
            )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Calls are sequential on one thread, so children never overlap and the
    covered time is the sum of their durations.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span], counted_ops: set[int], traced_ops: int) -> dict[str, float]:
    """Per-layer metrics: exact counts over ``counted_ops`` (the deterministic
    prefix) and seconds per operation averaged over all ``traced_ops``."""
    own = self_times(spans)
    parent_name = [spans[s.parent].name if s.parent is not None else None for s in spans]
    per_op: dict[str, float] = defaultdict(float)
    counts: Counter[str] = Counter()
    sub_points = sub_points_s = 0.0
    n1_calls, n1_s = 0, 0.0
    cutoffs: list[int] = []
    grid_best: dict[int, float] = {}
    gains: list[float] = []
    for i, s in enumerate(spans):
        counted = s.op in counted_ops
        if counted:
            counts[s.name] += 1
        per_op[s.name] += s.duration
        if s.name in ("optimize.optimize", "keyrate.total_rate_batch", "cli.main"):
            per_op[s.name + ".self"] += own[i]
        if s.name == "keyrate.total_rate_batch" and parent_name[i] == "optimize.optimize":
            size, best = s.note
            phase = "grid" if size > 1 else "refine"
            per_op[f"optimize.{phase}"] += s.duration
            if counted:
                counts[f"optimize.{phase}.points"] += size
            if size > 1:
                grid_best[s.parent] = max(best, grid_best.get(s.parent, -np.inf))
        elif s.name == "keyrate.subchannel_rates_batch":
            if s.note > 1:
                sub_points += s.note
                sub_points_s += s.duration
            else:
                n1_calls += 1
                n1_s += s.duration
        elif s.name == "fock.herald" and counted:
            cutoffs.append(s.note)
        elif s.name == "cli.main" and counted:
            counts["cli.output_bytes"] += s.note
    for i, s in enumerate(spans):
        if s.name == "optimize.optimize" and s.op in counted_ops and grid_best.get(i, 0.0) > 0.0:
            gains.append((s.note - grid_best[i]) / grid_best[i])

    def seconds(key):
        return per_op[key] / max(traced_ops, 1)

    return {
        "optimize.grid.points": counts["optimize.grid.points"],
        "optimize.grid.s": seconds("optimize.grid"),
        "keyrate.subchannel_rates_batch.points_per_s": sub_points / sub_points_s if sub_points_s else 0.0,
        "keyrate.eigvals.s": seconds("keyrate.eigvals"),
        "optimize.refine.calls": counts["optimize.refine.points"],
        "optimize.refine.s": seconds("optimize.refine"),
        "keyrate.subchannel_rates_batch.n1_call_us": 1e6 * n1_s / n1_calls if n1_calls else 0.0,
        "optimize.self_s": seconds("optimize.optimize.self"),
        "optimize.refine.gain_rel": float(np.mean(gains)) if gains else 0.0,
        "keyrate.total_rate.calls": counts["keyrate.total_rate"],
        "keyrate.total_rate.s": seconds("keyrate.total_rate"),
        "cli.main.self_s": seconds("cli.main.self"),
        "cli.output_bytes": counts["cli.output_bytes"],
        "operations.heralded_entries.calls": counts["operations.heralded_entries"],
        "operations.heralded_entries.s": seconds("operations.heralded_entries"),
        "keyrate.total_rate_batch.self_s": seconds("keyrate.total_rate_batch.self"),
        "fock.herald.calls": counts["fock.herald"],
        "fock.herald.s": seconds("fock.herald"),
        "fock.build_tmsv.s": seconds("fock.build_tmsv"),
        "fock.cutoff.mean": float(np.mean(cutoffs)) if cutoffs else 0.0,
        "channel.build_pipeline.s": seconds("channel.build_pipeline"),
        "gaussian.symplectic_eigenvalues.s": seconds("gaussian.symplectic_eigenvalues"),
        "keyrate.holevo_bound.s": seconds("keyrate.holevo_bound"),
    }
