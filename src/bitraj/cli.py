"""Config-driven command-line runner.

One JSON config file describes the system, the measuring devices, the
schedule and the command to run; the runner validates it strictly (unknown
keys are rejected, bad entries are reported with JSON-pointer locations),
executes the requested computation, and writes a machine-readable
``report.json`` plus per-command CSV artifacts into the output directory.

Exit codes: 0 — every asserted check held; 1 — a check failed (the report
records which); 2 — the config was rejected or a size/dimension guard fired.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from .coarse import (
    CoarseSchedule,
    Resolution,
    faux_coarse_prob,
    interference_term,
    pairwise_decompose,
    quantum_coarse_prob,
)
from .composite import (
    CompositeSpec,
    Coupling,
    _check_tandem,
    co_interference,
    compose,
    factorization_delta,
)
from .core import Device, State, SystemSpec, _env_cap, device_from_hermitian, validate_device
from .engine import (
    BiSequence,
    ConsistencyError,
    Schedule,
    TableSizeError,
    _max_hermitianity,
    biprob_table,
    chain_probabilities,
    property_report,
)
from .lab import empirical_distribution, estimate_uncertainty, sample_sequences
from .master import (
    OpenSpec,
    classical_diagnostic,
    dynamical_map_bitraj,
    dynamical_map_exact,
)
from .phenomena import (
    InitSpec,
    init_metric,
    markov_delta,
    uncertainty_csv,
    uncertainty_matrix,
    zeno_scan,
)
from .serialize import canonical_digest, label_from_json, matrix_from_json, matrix_to_json

__all__ = ["main"]

REPORT_SCHEMA_VERSION = 1

VERBS = (
    "table",
    "verify",
    "coarse",
    "compose",
    "markov",
    "zeno",
    "uncertainty",
    "map-compare",
    "sample",
    "classical",
)

DEFAULT_TOLERANCES = {
    "normalization": 1e-8,
    "biconsistency": 1e-10,
    "causality": 1e-12,
    "hermitianity": 1e-10,
    "gram_min": -1e-10,
    "diagonal_negativity": 1e-10,
    "pairwise": 1e-9,
    "interference_routes": 1e-10,
    "factorization": 1e-9,
    "markov": 1e-10,
    "uncertainty_stochastic": 1e-10,
    "map_tp": 1e-8,
    "map_choi_min": -1e-9,
    "map_residual_slack": 1e-12,
    "map_cross_check": 1e-10,
    "classical_consistency": 1e-9,
    "classical_threshold": 1e-8,
}


class CliError(Exception):
    """Fatal configuration or guard problem; carries the process exit code."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


# --------------------------------------------------------------------------
# config shape

# A shape is a leaf name from ``_LEAVES``; ``[item, min_len, max_len]`` for an
# array (``max_len`` None: unbounded); or a dict of key -> shape for an object,
# where a key ending in ``?`` is optional and any key not listed is rejected.
_LABEL = "a label (string, number or boolean)"
_VERB = "one of " + ", ".join(VERBS)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _integer(x) -> bool:
    return _number(x) and (isinstance(x, int) or x.is_integer())


_LEAVES = {
    "a number": _number,
    "a number >= 0": lambda x: _number(x) and not x < 0,
    "an integer >= 0": lambda x: _integer(x) and not x < 0,
    "an integer >= 1": lambda x: _integer(x) and not x < 1,
    "a string": lambda x: isinstance(x, str),
    "a boolean": lambda x: isinstance(x, bool),
    _LABEL: lambda x: isinstance(x, (str, int, float)),
    "schema version 1": lambda x: _number(x) and x == 1,
    _VERB: lambda x: isinstance(x, str) and x in VERBS,
}
_MATRIX = [[["a number", 2, 2], 1, None], 1, None]  # rows of [re, im] pairs
_LABELS = [_LABEL, 1, None]
_SYSTEM = {"dim": "an integer >= 1", "hamiltonian": _MATRIX, "label?": "a string"}
_DEVICE = {
    "name": "a string",
    "observable?": _MATRIX,
    "outcomes?": _LABELS,
    "projectors?": [_MATRIX, 1, None],
}
_DEVICES = [_DEVICE, 1, None]
_RESOLUTION = {"blocks": [_LABELS, 1, None], "labels?": [_LABEL, 0, None]}
_SCHEDULE = {
    "entries": [{"time": "a number", "device": "a string", "resolution?": _RESOLUTION}, 1, None]
}
_INIT = {
    "density?": _MATRIX,
    "maximally_mixed?": "a boolean",
    "weights?": [{"device": "a string", "outcome": _LABEL, "weight": "a number"}, 1, None],
    "time?": "a number",
}
_FACTOR = {"system": _SYSTEM, "devices": _DEVICES, "schedule": _SCHEDULE, "init?": _INIT}
_BI = {"plus": _LABELS, "minus": _LABELS}
_CONFIG_SHAPE = {
    "schema_version": "schema version 1",
    "command": _VERB,
    "system": _SYSTEM,
    "devices?": _DEVICES,
    "schedule?": _SCHEDULE,
    "init?": _INIT,
    "composite?": {
        "a": _FACTOR,
        "b": _FACTOR,
        "couplings?": [{"op_a": _MATRIX, "op_b": _MATRIX, "strength?": "a number"}, 0, None],
    },
    "environment?": _SYSTEM,
    "couplings?": [
        {"op_system": _MATRIX, "op_environment": _MATRIX, "strength?": "a number"}, 0, None
    ],
    "env_init?": {"density": _MATRIX},
    "params?": {
        "T?": "a number",
        "n_list?": ["an integer >= 1", 1, None],
        "slices?": ["an integer >= 1", 1, None],
        "t?": "a number",
        "dt?": "a number >= 0",
        "n_samples?": "an integer >= 1",
        "seed?": "an integer >= 0",
        "outcome?": _LABEL,
        "outcomes?": [_LABEL, 0, None],
        "position?": "an integer >= 0",
        "pair?": [_LABEL, 2, 2],
        "times?": ["a number", 2, None],
        "device?": "a string",
        "device_k?": "a string",
        "device_l?": "a string",
        "threshold?": "a number",
        "cross_check?": "a boolean",
        "bi_a?": _BI,
        "bi_b?": _BI,
    },
    "tolerances?": {key + "?": "a number" for key in DEFAULT_TOLERANCES},
}


def _shape_errors(value: Any, shape: Any, ptr: str) -> Iterator[str]:
    """Yield ``<pointer>: <problem>`` for every place ``value`` breaks ``shape``."""
    at = ptr or "/"
    if isinstance(shape, str):
        if not _LEAVES[shape](value):
            yield f"{at}: expected {shape}, got {value!r}"
    elif isinstance(shape, list):
        item, lo, hi = shape
        if not isinstance(value, list):
            yield f"{at}: expected an array, got {value!r}"
            return
        if len(value) < lo or (hi is not None and len(value) > hi):
            want = f"at least {lo}" if hi is None else f"{lo}" if lo == hi else f"{lo} to {hi}"
            yield f"{at}: expected {want} items, got {len(value)}"
        for i, v in enumerate(value):
            yield from _shape_errors(v, item, f"{ptr}/{i}")
    elif not isinstance(value, dict):
        yield f"{at}: expected an object, got {value!r}"
    else:
        fields = {key.rstrip("?"): (key.endswith("?"), sub) for key, sub in shape.items()}
        for key, (optional, sub) in fields.items():
            if key in value:
                yield from _shape_errors(value[key], sub, f"{ptr}/{key}")
            elif not optional:
                yield f"{at}: missing required key {key!r}"
        for key in value:
            if key not in fields:
                yield f"{at}: unknown key {key!r}"


def _with_ints(value: Any, shape: Any) -> Any:
    """A copy of valid ``value`` with every integer leaf made an ``int`` (``2.0`` -> ``2``)."""
    if isinstance(shape, str):
        return int(value) if shape.startswith("an integer") else value
    if isinstance(shape, list):
        return [_with_ints(v, shape[0]) for v in value]
    fields = {key.rstrip("?"): sub for key, sub in shape.items()}
    return {key: _with_ints(v, fields[key]) for key, v in value.items()}


def _validate_schema(cfg: Any) -> dict:
    """Reject ``cfg`` unless it fits ``_CONFIG_SHAPE``; returns it with integer leaves as ints."""
    errors = [f"config error at {e}" for e in _shape_errors(cfg, _CONFIG_SHAPE, "")]
    if errors:
        raise CliError("\n".join(errors))
    return _with_ints(cfg, _CONFIG_SHAPE)


# --------------------------------------------------------------------------
# builders

def _matrix(obj, where: str) -> np.ndarray:
    try:
        return matrix_from_json(obj, where)
    except ValueError as exc:
        raise CliError(f"config error at {where}: {exc}") from None


def _build_system(obj: dict, where: str, allow_large: bool = False) -> SystemSpec:
    h = _matrix(obj["hamiltonian"], where + "/hamiltonian")
    if h.shape != (obj["dim"], obj["dim"]):
        raise CliError(
            f"config error at {where}/hamiltonian: shape {h.shape} does not "
            f"match dim {obj['dim']}"
        )
    try:
        return SystemSpec(
            dim=obj["dim"],
            hamiltonian=h,
            label=obj.get("label", "H"),
            allow_large=allow_large,
        )
    except ValueError as exc:
        raise CliError(f"config error at {where}: {exc}") from None


def _build_devices(items: list[dict], dim: int, where: str) -> dict[str, Device]:
    devices: dict[str, Device] = {}
    for i, obj in enumerate(items):
        ptr = f"{where}/{i}"
        name = obj["name"]
        if name in devices:
            raise CliError(f"config error at {ptr}/name: duplicate device {name!r}")
        has_obs = "observable" in obj
        has_proj = "projectors" in obj
        if has_obs == has_proj:
            raise CliError(
                f"config error at {ptr}: give exactly one of 'observable' or "
                f"'outcomes'+'projectors'"
            )
        try:
            if has_obs:
                dev = device_from_hermitian(_matrix(obj["observable"], ptr + "/observable"), name=name)
            else:
                if "outcomes" not in obj:
                    raise CliError(
                        f"config error at {ptr}: 'projectors' requires 'outcomes'"
                    )
                outcomes = tuple(label_from_json(o) for o in obj["outcomes"])
                projs = tuple(
                    _matrix(p, f"{ptr}/projectors/{j}")
                    for j, p in enumerate(obj["projectors"])
                )
                if len(outcomes) != len(projs):
                    raise CliError(
                        f"config error at {ptr}: {len(outcomes)} outcomes vs "
                        f"{len(projs)} projectors"
                    )
                dev = Device(name=name, outcomes=outcomes, projectors=projs)
                validate_device(dev)
        except ValueError as exc:
            raise CliError(f"config error at {ptr}: {exc}") from None
        if dev.dim != dim:
            raise CliError(
                f"config error at {ptr}: device dimension {dev.dim} does not "
                f"match the system dimension {dim}"
            )
        devices[name] = dev
    return devices


def _build_resolution(obj: dict, device: Device, where: str) -> Resolution:
    blocks = tuple(tuple(label_from_json(f) for f in b) for b in obj["blocks"])
    if "labels" in obj:
        labels = tuple(label_from_json(l) for l in obj["labels"])
        if len(labels) != len(blocks):
            raise CliError(
                f"config error at {where}: {len(labels)} labels for "
                f"{len(blocks)} blocks"
            )
    else:
        labels = tuple(
            b[0] if len(b) == 1 else "|".join(str(f) for f in b) for b in blocks
        )
    try:
        return Resolution(device, blocks, labels)
    except ValueError as exc:
        raise CliError(f"config error at {where}: {exc}") from None


def _build_init(
    obj: dict | None,
    system: SystemSpec,
    devices: dict[str, Device],
    t_first: float,
    strict_times: bool,
    where: str = "/init",
) -> State:
    if strict_times:
        default_time = 0.0 if t_first > 0 else t_first - 1.0
    else:
        default_time = min(0.0, t_first)
    if obj is None:
        obj = {"maximally_mixed": True}
    time = float(obj.get("time", default_time))
    forms = [k for k in ("density", "weights", "maximally_mixed") if k in obj]
    if len(forms) != 1:
        raise CliError(
            f"config error at {where}: give exactly one of 'density', "
            f"'weights' or 'maximally_mixed'"
        )
    try:
        if "density" in obj:
            return State(_matrix(obj["density"], where + "/density"), time_tag=time)
        if "weights" in obj:
            return init_metric(_build_init_spec(obj, devices, where, default_time), system)
        return State(np.eye(system.dim) / system.dim, time_tag=time)
    except ValueError as exc:
        raise CliError(f"config error at {where}: {exc}") from None


def _build_coarse_schedule(
    obj: dict,
    devices: dict[str, Device],
    init: State,
    where: str = "/schedule",
) -> CoarseSchedule:
    entries = []
    for i, e in enumerate(obj["entries"]):
        ptr = f"{where}/entries/{i}"
        dev = devices.get(e["device"])
        if dev is None:
            raise CliError(f"config error at {ptr}/device: unknown device {e['device']!r}")
        res = None
        if "resolution" in e:
            res = _build_resolution(e["resolution"], dev, ptr + "/resolution")
        entries.append((float(e["time"]), dev, res))
    try:
        return CoarseSchedule(entries=tuple(entries), init=init)
    except ValueError as exc:
        raise CliError(f"config error at {where}: {exc}") from None


def _as_plain_schedule(cs: CoarseSchedule, where: str = "/schedule") -> Schedule:
    """Fold resolutions into coarse devices; requires strictly increasing times."""
    try:
        return Schedule(entries=tuple(zip(cs.times, cs.devices)), init=cs.init)
    except ValueError as exc:
        raise CliError(f"config error at {where}: {exc}") from None


def _build_init_spec(
    obj: dict | None,
    devices: dict[str, Device],
    where: str = "/init",
    default_time: float = 0.0,
) -> InitSpec:
    """The ``weights`` form of an init section as weighted readout events."""
    if obj is None or "weights" not in obj:
        raise CliError(
            f"config error at {where}: this command needs an initialization "
            f"given as weighted readout events ('weights')"
        )
    entries = []
    for j, w in enumerate(obj["weights"]):
        dev = devices.get(w["device"])
        if dev is None:
            raise CliError(
                f"config error at {where}/weights/{j}/device: unknown device "
                f"{w['device']!r}"
            )
        entries.append((dev, label_from_json(w["outcome"]), float(w["weight"])))
    try:
        return InitSpec(entries=tuple(entries), time=float(obj.get("time", default_time)))
    except ValueError as exc:
        raise CliError(f"config error at {where}: {exc}") from None


def _couplings(items: list[dict], key_a: str, key_b: str, where: str) -> tuple[Coupling, ...]:
    """Product couplings whose two operators sit under ``key_a`` and ``key_b``."""
    return tuple(
        Coupling(
            op_a=_matrix(c[key_a], f"{where}/{i}/{key_a}"),
            op_b=_matrix(c[key_b], f"{where}/{i}/{key_b}"),
            strength=float(c.get("strength", 1.0)),
        )
        for i, c in enumerate(items)
    )


def _require_param(params: dict, key: str, verb: str):
    if key not in params:
        raise CliError(f"config error at /params/{key}: required by the {verb} command")
    return params[key]


def _device_param(params: dict, key: str, devices: dict[str, Device], verb: str) -> Device:
    name = _require_param(params, key, verb)
    dev = devices.get(name)
    if dev is None:
        raise CliError(f"config error at /params/{key}: unknown device {name!r}")
    return dev


# --------------------------------------------------------------------------
# checks

def _check(name: str, value: float, bound: float, comparator: str) -> dict:
    value = float(value)
    if comparator == "<=":
        ok = value <= bound
    elif comparator == ">=":
        ok = value >= bound
    else:
        raise ValueError(f"unknown comparator {comparator!r}")
    if math.isnan(value):
        ok = False
    return {
        "name": name,
        "value": value,
        "bound": float(bound),
        "comparator": comparator,
        "pass": bool(ok),
    }


def _checks_csv(checks: list[dict]) -> str:
    lines = ["name,value,bound,comparator,pass"]
    for c in checks:
        lines.append(
            f"{c['name']},{c['value']:.17g},{c['bound']:.17g},"
            f"{c['comparator']},{c['pass']}"
        )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# execution context and verbs

@dataclass
class _Context:
    cfg: dict
    tolerances: dict
    force_large: bool
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    @property
    def params(self) -> dict:
        return self.cfg.get("params", {})

    def tol(self, key: str) -> float:
        return float(self.tolerances[key])

    def need_system(self) -> SystemSpec:
        return _build_system(self.cfg["system"], "/system")

    def need_devices(self, system: SystemSpec) -> dict[str, Device]:
        if "devices" not in self.cfg:
            raise CliError("config error at /devices: required by this command")
        return _build_devices(self.cfg["devices"], system.dim, "/devices")

    def need_coarse_schedule(self, system: SystemSpec, devices: dict[str, Device]) -> CoarseSchedule:
        if "schedule" not in self.cfg:
            raise CliError("config error at /schedule: required by this command")
        entries = self.cfg["schedule"]["entries"]
        t_first = float(entries[0]["time"])
        init = _build_init(self.cfg.get("init"), system, devices, t_first, strict_times=False)
        return _build_coarse_schedule(self.cfg["schedule"], devices, init)

    def need_plain_schedule(self, system: SystemSpec, devices: dict[str, Device]) -> Schedule:
        if "schedule" not in self.cfg:
            raise CliError("config error at /schedule: required by this command")
        entries = self.cfg["schedule"]["entries"]
        t_first = float(entries[0]["time"])
        init = _build_init(self.cfg.get("init"), system, devices, t_first, strict_times=True)
        cs = _build_coarse_schedule(self.cfg["schedule"], devices, init)
        return _as_plain_schedule(cs)


def _cmd_table(ctx: _Context) -> None:
    system = ctx.need_system()
    devices = ctx.need_devices(system)
    schedule = ctx.need_plain_schedule(system, devices)
    table = biprob_table(system, schedule, force_large=ctx.force_large)
    m = table.matrix
    ctx.results.update(
        {
            "n_sequences": table.n_sequences,
            "l1_norm": float(np.abs(m).sum()),
            "normalization_error": abs(complex(m.sum()) - 1.0),
            "schedule_digest": table.schedule_digest,
            "table_digest": table.digest,
        }
    )
    ctx.checks.append(_check("hermitianity", _max_hermitianity(m), ctx.tol("hermitianity"), "<="))
    ctx.artifacts["table.csv"] = table.to_csv()


def _cmd_verify(ctx: _Context) -> None:
    system = ctx.need_system()
    devices = ctx.need_devices(system)
    schedule = ctx.need_plain_schedule(system, devices)
    table = biprob_table(system, schedule, force_large=ctx.force_large)
    rep = property_report(table)
    ctx.results.update(rep.as_dict())
    ctx.results["schedule_digest"] = table.schedule_digest
    ctx.results["table_digest"] = table.digest
    ctx.checks.extend(
        [
            _check("normalization", rep.normalization_error, ctx.tol("normalization"), "<="),
            _check("biconsistency", rep.max_biconsistency_error, ctx.tol("biconsistency"), "<="),
            _check("causality", rep.max_causality_violation, ctx.tol("causality"), "<="),
            _check("hermitianity", rep.max_hermitianity_error, ctx.tol("hermitianity"), "<="),
            _check("gram_min_eigenvalue", rep.min_gram_eigenvalue, ctx.tol("gram_min"), ">="),
            _check(
                "diagonal_negativity",
                rep.max_diagonal_negativity,
                ctx.tol("diagonal_negativity"),
                "<=",
            ),
        ]
    )
    ctx.artifacts["properties.csv"] = _checks_csv(ctx.checks)


def _cmd_coarse(ctx: _Context) -> None:
    system = ctx.need_system()
    devices = ctx.need_devices(system)
    cs = ctx.need_coarse_schedule(system, devices)
    outcomes = tuple(
        label_from_json(o) for o in _require_param(ctx.params, "outcomes", "coarse")
    )
    if len(outcomes) != len(cs):
        raise CliError(
            f"config error at /params/outcomes: {len(outcomes)} readouts for a "
            f"schedule of {len(cs)} entries"
        )
    quantum = quantum_coarse_prob(system, cs, outcomes)
    faux = faux_coarse_prob(system, cs, outcomes)
    ctx.results.update(
        {
            "quantum": quantum,
            "faux": faux,
            "interference_total": quantum - faux,
        }
    )
    try:
        dec = pairwise_decompose(system, cs, outcomes)
        ctx.results["recurrence"] = {
            "value": dec.recurrence_value,
            "direct": dec.direct_value,
            "terminal_readouts": dec.term_count,
        }
        ctx.checks.append(
            _check(
                "pairwise_recurrence",
                abs(dec.recurrence_value - dec.direct_value),
                ctx.tol("pairwise"),
                "<=",
            )
        )
    except ValueError as exc:
        ctx.results["recurrence"] = {"skipped": str(exc)}

    if "pair" in ctx.params and "position" in ctx.params:
        position = ctx.params["position"]
        pair = tuple(label_from_json(x) for x in ctx.params["pair"])
        fine = _as_plain_schedule(
            CoarseSchedule(
                entries=tuple((t, dev, None) for t, dev, _ in cs.entries),
                init=cs.init,
            )
        )
        term = interference_term(system, fine, position, pair, outcomes)
        ctx.results["pair_interference"] = {
            "from_biprob": term.from_biprob,
            "from_probabilities": term.from_probabilities,
        }
        ctx.checks.append(
            _check(
                "interference_routes",
                abs(term.from_biprob - term.from_probabilities),
                ctx.tol("interference_routes"),
                "<=",
            )
        )
    ctx.artifacts["coarse.csv"] = (
        "quantum,faux,interference_total\n"
        f"{quantum:.17g},{faux:.17g},{quantum - faux:.17g}\n"
    )


def _build_factor(obj: dict, where: str) -> tuple[SystemSpec, dict[str, Device], Schedule]:
    system = _build_system(obj["system"], where + "/system")
    devices = _build_devices(obj["devices"], system.dim, where + "/devices")
    entries = obj["schedule"]["entries"]
    t_first = float(entries[0]["time"])
    init = _build_init(
        obj.get("init"), system, devices, t_first, strict_times=True, where=where + "/init"
    )
    cs = _build_coarse_schedule(obj["schedule"], devices, init, where + "/schedule")
    return system, devices, _as_plain_schedule(cs, where + "/schedule")


def _cmd_compose(ctx: _Context) -> None:
    if "composite" not in ctx.cfg:
        raise CliError("config error at /composite: required by the compose command")
    comp = ctx.cfg["composite"]
    sys_a, _, sched_a = _build_factor(comp["a"], "/composite/a")
    sys_b, _, sched_b = _build_factor(comp["b"], "/composite/b")
    try:
        _check_tandem(sched_a, sched_b)
    except ValueError as exc:
        raise CliError(f"config error at /composite/b/schedule/entries: {exc}") from None
    couplings = _couplings(comp.get("couplings", []), "op_a", "op_b", "/composite/couplings")
    try:
        compose(CompositeSpec(sys_a, sys_b, couplings))
    except ValueError as exc:
        raise CliError(f"config error at /composite: {exc}") from None
    delta = factorization_delta(sys_a, sys_b, sched_a, sched_b, couplings=couplings)
    ctx.results["factorization_delta"] = delta
    ctx.results["coupled"] = bool(couplings)
    if not couplings:
        ctx.checks.append(_check("factorization", delta, ctx.tol("factorization"), "<="))

    if "bi_a" in ctx.params and "bi_b" in ctx.params:
        if couplings:
            raise CliError(
                "config error at /params/bi_a: co-interference is defined for "
                "uncoupled factors only"
            )
        bi_a = BiSequence(
            tuple(label_from_json(x) for x in ctx.params["bi_a"]["plus"]),
            tuple(label_from_json(x) for x in ctx.params["bi_a"]["minus"]),
        )
        bi_b = BiSequence(
            tuple(label_from_json(x) for x in ctx.params["bi_b"]["plus"]),
            tuple(label_from_json(x) for x in ctx.params["bi_b"]["minus"]),
        )
        phi = co_interference(sys_a, sys_b, sched_a, sched_b, bi_a, bi_b)
        ctx.results["co_interference"] = phi
    ctx.artifacts["compose.csv"] = (
        "factorization_delta,coupled\n" f"{delta:.17g},{bool(couplings)}\n"
    )


def _cmd_markov(ctx: _Context) -> None:
    system = ctx.need_system()
    devices = ctx.need_devices(system)
    device = _device_param(ctx.params, "device", devices, "markov")
    times = [float(t) for t in _require_param(ctx.params, "times", "markov")]
    init = _build_init_spec(ctx.cfg.get("init"), devices)
    rep = markov_delta(system, device, times, init)
    ctx.results.update(
        {"delta": rep.delta, "excluded": rep.excluded, "checked": rep.checked}
    )
    fine = device.is_fine_grained()
    ctx.results["fine_grained"] = fine
    if fine:
        ctx.checks.append(_check("markov_factorization", rep.delta, ctx.tol("markov"), "<="))
    ctx.artifacts["markov.csv"] = (
        "delta,excluded,checked,fine_grained\n"
        f"{rep.delta:.17g},{rep.excluded},{rep.checked},{fine}\n"
    )


def _cmd_zeno(ctx: _Context) -> None:
    system = ctx.need_system()
    devices = ctx.need_devices(system)
    device = _device_param(ctx.params, "device", devices, "zeno")
    outcome = label_from_json(_require_param(ctx.params, "outcome", "zeno"))
    total_time = float(_require_param(ctx.params, "T", "zeno"))
    n_list = _require_param(ctx.params, "n_list", "zeno")
    series = zeno_scan(system, device, outcome, total_time, n_list)
    ctx.results.update(
        {
            "rate": series.rate,
            "n_values": list(series.n_values),
            "survival": list(series.survival),
        }
    )
    ctx.artifacts["zeno.csv"] = series.to_csv()


def _cmd_uncertainty(ctx: _Context) -> None:
    system = ctx.need_system()
    devices = ctx.need_devices(system)
    dev_k = _device_param(ctx.params, "device_k", devices, "uncertainty")
    dev_l = _device_param(ctx.params, "device_l", devices, "uncertainty")
    t = float(ctx.params.get("t", 0.0))
    exact = uncertainty_matrix(system, dev_k, dev_l, t)
    row_gap = float(np.abs(exact.sum(axis=0) - 1.0).max())
    col_gap = float(np.abs(exact.sum(axis=1) - 1.0).max())
    ctx.results["exact_matrix"] = matrix_to_json(exact.astype(complex))
    ctx.checks.append(
        _check(
            "doubly_stochastic",
            max(row_gap, col_gap),
            ctx.tol("uncertainty_stochastic"),
            "<=",
        )
    )
    ctx.artifacts["uncertainty.csv"] = uncertainty_csv(dev_k, dev_l, exact)

    if "n_samples" in ctx.params:
        est = estimate_uncertainty(
            system,
            dev_k,
            dev_l,
            t,
            float(ctx.params.get("dt", 0.0)),
            ctx.params["n_samples"],
            ctx.params.get("seed", 0),
        )
        ctx.results["empirical"] = {
            "matrix": [
                [None if math.isnan(x) else float(x) for x in row]
                for row in est.matrix
            ],
            "excluded": [str(l) for l in est.excluded],
            "exchange_error": est.exchange_error,
            "exact_delta": est.exact_delta,
            "dt": est.dt,
            "n_samples": est.n_samples,
        }


def _cmd_map_compare(ctx: _Context) -> None:
    system = ctx.need_system()
    if "environment" not in ctx.cfg:
        raise CliError("config error at /environment: required by the map-compare command")
    if "env_init" not in ctx.cfg:
        raise CliError("config error at /env_init: required by the map-compare command")
    environment = _build_system(ctx.cfg["environment"], "/environment")
    couplings = _couplings(
        ctx.cfg.get("couplings", []), "op_system", "op_environment", "/couplings"
    )
    try:
        env_state = State(_matrix(ctx.cfg["env_init"]["density"], "/env_init/density"))
        spec = OpenSpec(
            system=system,
            environment=environment,
            couplings=couplings,
            env_state=env_state,
        )
    except ValueError as exc:
        raise CliError(f"config error: {exc}") from None
    t = float(_require_param(ctx.params, "t", "map-compare"))
    slices = sorted(_require_param(ctx.params, "slices", "map-compare"))

    try:
        exact = dynamical_map_exact(spec, t)
    except ValueError as exc:  # the joint dimension is over the cap
        raise CliError(f"config error at /environment: {exc}") from None
    rows = []
    maps = [dynamical_map_bitraj(spec, t, n) for n in slices]
    for n, bt in zip(slices, maps):
        residual = float(np.abs(bt.matrix - exact.matrix).max())
        tp_err = bt.trace_preservation_error()
        choi_min = bt.min_choi_eigenvalue()
        rows.append(
            {"slices": n, "residual": residual, "tp_error": tp_err, "choi_min": choi_min}
        )
        ctx.checks.append(_check(f"tp_error_slices_{n}", tp_err, ctx.tol("map_tp"), "<="))
        ctx.checks.append(
            _check(f"choi_min_slices_{n}", choi_min, ctx.tol("map_choi_min"), ">=")
        )
    ctx.results["slices"] = rows
    ctx.results["exact_tp_error"] = exact.trace_preservation_error()
    if len(rows) >= 2:
        ctx.checks.append(
            _check(
                "residual_refinement",
                rows[-1]["residual"] - rows[0]["residual"],
                ctx.tol("map_residual_slack"),
                "<=",
            )
        )
    if ctx.params.get("cross_check", False):
        enum = dynamical_map_bitraj(spec, t, slices[0], via_enumeration=True)
        gap = float(np.abs(enum.matrix - maps[0].matrix).max())
        ctx.results["enumeration_gap"] = gap
        ctx.checks.append(
            _check("enumeration_vs_transfer", gap, ctx.tol("map_cross_check"), "<=")
        )
    ctx.artifacts["map_compare.csv"] = (
        "slices,residual,tp_error,choi_min\n"
        + "".join(
            f"{r['slices']},{r['residual']:.17g},{r['tp_error']:.17g},{r['choi_min']:.17g}\n"
            for r in rows
        )
    )


def _cmd_sample(ctx: _Context) -> None:
    system = ctx.need_system()
    devices = ctx.need_devices(system)
    cs = ctx.need_coarse_schedule(system, devices)
    n_samples = _require_param(ctx.params, "n_samples", "sample")
    seed = ctx.params.get("seed", 0)
    run = sample_sequences(system, cs, n_samples, seed)
    dist = empirical_distribution(run)
    ctx.results.update(
        {
            "n_samples": run.n_samples,
            "seed": run.seed,
            "observed_cells": len(run.counts),
            "schedule_digest": run.schedule_digest,
        }
    )

    if math.prod(dev.n_outcomes for dev in cs.devices) <= 4096:
        worst_zero = 0.0
        within = 0
        total_checked = 0
        steps = [(t, dev.projectors) for t, dev in zip(cs.times, cs.devices)]
        probs = chain_probabilities(system, cs.init, steps)
        cells = itertools.product(*(dev.outcomes for dev in cs.devices))
        for seq, p in zip(cells, probs.tolist()):
            p_hat = dist.probabilities.get(seq, 0.0)
            if p <= 1e-300 and p_hat > 0.0:
                worst_zero = max(worst_zero, p_hat)
            sigma = math.sqrt(max(p * (1.0 - p), 0.0) / run.n_samples)
            if p > 1e-300:
                total_checked += 1
                if abs(p_hat - p) <= 4.0 * max(sigma, 1e-12):
                    within += 1
        ctx.results["fraction_within_4sigma"] = (
            within / total_checked if total_checked else 1.0
        )
        ctx.checks.append(
            _check("zero_probability_cells_hit", worst_zero, 0.0, "<=")
        )
    ctx.artifacts["samples.csv"] = run.to_csv()
    ctx.artifacts["run.json"] = json.dumps(run.to_json(), indent=2) + "\n"


def _cmd_classical(ctx: _Context) -> None:
    system = ctx.need_system()
    devices = ctx.need_devices(system)
    schedule = ctx.need_plain_schedule(system, devices)
    table = biprob_table(system, schedule, force_large=ctx.force_large)
    threshold = float(ctx.params.get("threshold", ctx.tol("classical_threshold")))
    diag = classical_diagnostic(table, threshold=threshold)
    ctx.results.update(
        {
            "offdiag_mass": diag.offdiag_mass,
            "threshold": diag.threshold,
            "surrogate_returned": diag.surrogate is not None,
            "consistency_error": diag.consistency_error,
        }
    )
    if diag.surrogate is not None:
        ctx.checks.append(
            _check(
                "kolmogorov_consistency",
                diag.consistency_error,
                ctx.tol("classical_consistency"),
                "<=",
            )
        )
    ctx.artifacts["classical.csv"] = diag.to_csv()


_COMMANDS = {
    "table": _cmd_table,
    "verify": _cmd_verify,
    "coarse": _cmd_coarse,
    "compose": _cmd_compose,
    "markov": _cmd_markov,
    "zeno": _cmd_zeno,
    "uncertainty": _cmd_uncertainty,
    "map-compare": _cmd_map_compare,
    "sample": _cmd_sample,
    "classical": _cmd_classical,
}


# --------------------------------------------------------------------------
# entry point

def _json_ready(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bitraj",
        description="Multi-time measurement statistics from a JSON experiment config.",
    )
    parser.add_argument("verb", choices=VERBS, help="command to run")
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    parser.add_argument(
        "--force-large",
        action="store_true",
        help="lift the table-size guard for table-building commands",
    )
    args = parser.parse_args(argv)

    try:
        for name in ("BITRAJ_MAX_TABLE", "BITRAJ_MAX_DIM"):
            try:
                _env_cap(name)
            except ValueError as exc:
                raise CliError(str(exc)) from None
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise CliError(f"config is not valid JSON: {exc}") from None

        written, cfg = cfg, _validate_schema(cfg)
        if cfg["command"] != args.verb:
            raise CliError(
                f"config error at /command: config says {cfg['command']!r} but the "
                f"command line asked for {args.verb!r}"
            )

        tolerances = dict(DEFAULT_TOLERANCES)
        tolerances.update(cfg.get("tolerances", {}))

        ctx = _Context(cfg=cfg, tolerances=tolerances, force_large=bool(args.force_large))
        try:
            _COMMANDS[args.verb](ctx)
        except TableSizeError as exc:
            raise CliError(
                json.dumps(
                    {
                        "error": "table-size-guard",
                        "requested_entries": exc.requested,
                        "limit": exc.limit,
                        "hint": "raise BITRAJ_MAX_TABLE or pass --force-large where supported",
                    }
                )
            ) from None
        except ConsistencyError as exc:
            ctx.checks.append(
                {
                    "name": "internal_consistency",
                    "value": None,
                    "bound": None,
                    "comparator": "<=",
                    "pass": False,
                    "message": str(exc),
                }
            )

        ok = all(c["pass"] for c in ctx.checks)
        report = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "command": args.verb,
            "config_digest": canonical_digest(written),
            "tolerances": tolerances,
            "results": _json_ready(ctx.results),
            "checks": _json_ready(ctx.checks),
            "ok": ok,
        }
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        for name, text in ctx.artifacts.items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0 if ok else 1
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
