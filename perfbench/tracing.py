"""Spans around bitraj's public functions, recorded from outside the package.

``Tracer.install()`` replaces each function named in ``TRACED`` with a wrapper
on every ``bitraj.*`` module that binds it, so a call made across modules
(``coarse`` -> ``engine.chain_probability``) is caught as well as a call made
by the benchmark.  A span records its name, start, end, parent span and op id;
spans stay in memory until ``dump`` writes them out at the end of a run.

Only spans opened on the benchmark's own thread while an op is running are
recorded; everything else passes straight through to the original function.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter

import numpy as np

LAYERS = (
    "core", "engine", "coarse", "composite", "phenomena", "master", "lab", "serialize", "cli",
)

#: Public functions timed per layer; ``Class.method`` entries wrap a method.
TRACED = {
    "core": ("propagator", "heisenberg_projectors"),
    "engine": (
        "biprob_table", "property_report", "marginalize_pair", "chain_probability",
        "BiProbTable.to_csv",
    ),
    "coarse": (
        "quantum_coarse_prob", "faux_coarse_prob", "pairwise_decompose", "interference_term",
    ),
    "composite": ("factorization_delta", "co_interference"),
    "phenomena": ("markov_delta", "zeno_scan", "zeno_rate", "uncertainty_matrix"),
    "master": ("dynamical_map_bitraj", "dynamical_map_exact", "classical_diagnostic"),
    "lab": (
        "sample_sequences", "empirical_distribution", "reconstruct_interference",
        "estimate_uncertainty",
    ),
    "serialize": ("canonical_digest",),
    "cli": ("main",),
}

OP_SPAN = "bench.op"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """In-memory span store plus the per-op counters the layer metrics need."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.failed: Counter = Counter()
        self.counters: Counter = Counter()
        self.q_bytes_max = 0
        self.distinct: set[tuple] = set()  # (op, system, t, t0) of propagator calls
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(-1 if self.op_id is None else self.op_id)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def current(self) -> int:
        """Index of the innermost open span."""
        return self._stack[-1]

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        return self.open(OP_SPAN)

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.op_id = None

    def recording(self) -> bool:
        return self.op_id is not None and threading.get_ident() == self._thread

    def graft(self, blob: dict, parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        offset = len(self.starts)
        for name, start, end, par in zip(
            blob["names"], blob["starts"], blob["ends"], blob["parents"]
        ):
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent if par < 0 else par + offset)
            self.ops.append(self.ops[parent])
        self.failed.update(blob["failed"])
        self.counters.update(blob["counters"])
        self.q_bytes_max = max(self.q_bytes_max, blob["q_bytes_max"])

    # -- wrapping ----------------------------------------------------------

    def _note(self, name: str, args, kwargs, result) -> None:
        if name == "core.propagator":
            system = _arg(args, kwargs, 0, "system")
            t, t0 = _arg(args, kwargs, 1, "t"), _arg(args, kwargs, 2, "t0", 0.0)
            self.distinct.add((self.op_id, id(system), float(t), float(t0)))
        elif name == "engine.biprob_table":
            n, d = result.n_sequences, result.system.dim
            self.q_bytes_max = max(self.q_bytes_max, 16 * n * n)
            self.counters["engine.biprob_table.gram_flops"] += 8 * n * n * d * d
        elif name == "lab.sample_sequences":
            self.counters["lab.sample_sequences.trials"] += int(_arg(args, kwargs, 2, "n_samples"))
            self.counters["lab.observed_cells"] += len(result.counts)

    def _wrap(self, name: str, fn, guarded: tuple):
        tracer = self
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except guarded as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.failed[layer] += 1
                raise
            finally:
                tracer.close(idx)
            tracer._note(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``TRACED`` wherever a bitraj module binds it."""
        engine = importlib.import_module("bitraj.engine")
        guarded = (engine.ConsistencyError, engine.TableSizeError)
        for layer, funcs in TRACED.items():
            home = importlib.import_module(f"bitraj.{layer}")
            for func in funcs:
                name = f"{layer}.{func}"
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._installed.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig, guarded))
                    continue
                orig = getattr(home, func)
                wrapper = self._wrap(name, orig, guarded)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "bitraj" or mod_name.startswith("bitraj.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._installed.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def blob(self) -> dict:
        """Spans and counters as plain JSON data (what a child process hands back)."""
        counters = dict(self.counters)
        counters["core.propagator.distinct"] = counters.get("core.propagator.distinct", 0) + len(
            self.distinct
        )
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "ops": self.ops,
            "failed": dict(self.failed),
            "counters": counters,
            "q_bytes_max": self.q_bytes_max,
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.blob(), fh)


def self_times(tracer: Tracer) -> tuple[np.ndarray, np.ndarray]:
    """Per-span duration and self time (duration minus direct-child coverage)."""
    dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    parents = np.asarray(tracer.parents, dtype=np.int64)
    covered = np.zeros(len(dur) + 1)
    np.add.at(covered, parents, dur)  # index -1 lands in the spare last slot
    return dur, dur - covered[:-1]


def layer_metrics(tracer: Tracer, cli_startup: list[float]) -> dict[str, float]:
    """Per-layer metrics, averaged per op; failure counts are run totals."""
    blob = tracer.blob()
    dur, self_t = self_times(tracer)
    names = np.asarray(tracer.names)
    is_op = names == OP_SPAN
    n_ops = max(int(is_op.sum()), 1)
    out: dict[str, float] = {}
    for layer, funcs in TRACED.items():
        in_layer = np.char.startswith(names, layer + ".")
        out[f"{layer}.self_s"] = float(self_t[in_layer].sum()) / n_ops
        out[f"{layer}.failed"] = float(blob["failed"].get(layer, 0))
        for func in funcs:
            sel = names == f"{layer}.{func}"
            out[f"{layer}.{func}.calls"] = float(sel.sum()) / n_ops
            out[f"{layer}.{func}.self_s"] = float(self_t[sel].sum()) / n_ops
    counters = blob["counters"]
    calls = out["core.propagator.calls"] * n_ops
    out["core.propagator.distinct_ratio"] = (
        counters.get("core.propagator.distinct", 0) / calls if calls else 0.0
    )
    out["engine.biprob_table.q_bytes"] = float(blob["q_bytes_max"])
    out["engine.biprob_table.gram_flops"] = counters.get("engine.biprob_table.gram_flops", 0) / n_ops
    trials = counters.get("lab.sample_sequences.trials", 0)
    cells = counters.get("lab.observed_cells", 0)
    out["lab.sample_sequences.trials"] = trials / n_ops
    out["lab.trials_per_cell"] = trials / cells if cells else 0.0
    out["cli.startup_s"] = float(np.mean(cli_startup)) if cli_startup else 0.0
    out["trace.ops"] = float(is_op.sum())
    out["trace.op_wall_s"] = float(dur[is_op].sum()) / n_ops
    out["trace.uncovered_s"] = float(self_t[is_op].sum()) / n_ops
    return out
