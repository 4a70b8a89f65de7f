"""Config-driven command-line runner.

One JSON config file describes the system, the measuring devices, the
schedule and the command to run; the runner validates it strictly against
the keys that command reads (any other key is rejected, bad entries are
reported with JSON-pointer locations),
executes the requested computation, and writes a machine-readable
``report.json`` plus per-command CSV artifacts into the output directory.

Exit codes: 0 — every asserted check held; 1 — a check failed (the report
records which); 2 — the config was rejected or a size/dimension guard fired.
"""

from __future__ import annotations

import argparse
import contextlib
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
    _block_label,
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
from .core import Device, State, SystemSpec, _env_cap, device_from_hermitian
from .engine import (
    BiSequence,
    ConsistencyError,
    Schedule,
    TableSizeError,
    _abs_sum,
    _max_hermitianity,
    biprob_table,
    chain_probabilities,
    property_report,
)
from .lab import _check_seed, empirical_distribution, estimate_uncertainty, sample_sequences
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

# every check's default bound, all echoed in report.json; ``classical_threshold``
# is the default of the classical verb's ``params.threshold``
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
    """Fatal configuration, usage or guard problem: the process exits 2."""


@contextlib.contextmanager
def _config_error(where: str) -> Iterator[None]:
    """Re-raise a ``ValueError`` of the body as ``config error at <where>: <message>``."""
    try:
        yield
    except ValueError as exc:
        raise CliError(f"config error at {where}: {exc}") from None


# --------------------------------------------------------------------------
# config shape

# A shape is a leaf name from ``_LEAVES``; ``[item, min_len, max_len]`` for an
# array (``max_len`` None: unbounded); or a dict of key -> shape for an object,
# where a key ending in ``?`` is optional and any key not listed is rejected.
_LABEL = "a label (string, number or boolean)"


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
}
_MATRIX = [[["a number", 2, 2], 1, None], 1, None]  # rows of [re, im] pairs
_LABELS = [_LABEL, 1, None]
_SYSTEM = {"dim": "an integer >= 1", "hamiltonian": _MATRIX}
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
_WEIGHTS = [{"device": "a string", "outcome": _LABEL, "weight": "a number"}, 1, None]
_INIT = {
    "density?": _MATRIX,
    "maximally_mixed?": "a boolean",
    "weights?": _WEIGHTS,
    "time?": "a number",
}
_FACTOR = {"system": _SYSTEM, "devices": _DEVICES, "schedule": _SCHEDULE, "init?": _INIT}
_BI = {"plus": _LABELS, "minus": _LABELS}

# verb -> (the top-level blocks it reads, the ``params`` keys it reads, the
# ``tolerances`` keys it reads); a block or ``params`` key without ``?`` is
# required, every ``tolerances`` key is optional.  The compose verb reads no
# top-level ``system``, but its configs have always carried one, so it stays
# required.
_VERB_KEYS = {
    "table": (_FACTOR, {}, ("hermitianity",)),
    "verify": (
        _FACTOR,
        {},
        (
            "normalization",
            "biconsistency",
            "causality",
            "hermitianity",
            "gram_min",
            "diagonal_negativity",
        ),
    ),
    "coarse": (
        _FACTOR,
        {"outcomes": [_LABEL, 0, None], "pair?": [_LABEL, 2, 2], "position?": "an integer >= 0"},
        ("pairwise", "interference_routes"),
    ),
    "compose": (
        {
            "system": _SYSTEM,
            "composite": {
                "a": _FACTOR,
                "b": _FACTOR,
                "couplings?": [
                    {"op_a": _MATRIX, "op_b": _MATRIX, "strength?": "a number"}, 0, None
                ],
            },
        },
        {"bi_a?": _BI, "bi_b?": _BI},
        ("factorization",),
    ),
    "markov": (
        {
            "system": _SYSTEM,
            "devices": _DEVICES,
            "init": {"weights": _WEIGHTS, "time?": "a number"},
        },
        {"device": "a string", "times": ["a number", 2, None]},
        ("markov",),
    ),
    "zeno": (
        {"system": _SYSTEM, "devices": _DEVICES},
        {
            "device": "a string",
            "outcome": _LABEL,
            "T": "a number",
            "n_list": ["an integer >= 1", 1, None],
        },
        (),
    ),
    "uncertainty": (
        {"system": _SYSTEM, "devices": _DEVICES},
        {
            "device_k": "a string",
            "device_l": "a string",
            "t?": "a number",
            "dt?": "a number >= 0",
            "n_samples?": "an integer >= 1",
            "seed?": "an integer >= 0",
        },
        ("uncertainty_stochastic",),
    ),
    "map-compare": (
        {
            "system": _SYSTEM,
            "environment": _SYSTEM,
            "couplings?": [
                {"op_system": _MATRIX, "op_environment": _MATRIX, "strength?": "a number"}, 0, None
            ],
            "env_init": {"density": _MATRIX},
        },
        {"t": "a number", "slices": ["an integer >= 1", 1, None], "cross_check?": "a boolean"},
        ("map_tp", "map_choi_min", "map_residual_slack", "map_cross_check"),
    ),
    "sample": (_FACTOR, {"n_samples": "an integer >= 1", "seed?": "an integer >= 0"}, ()),
    "classical": (_FACTOR, {"threshold?": "a number"}, ("classical_consistency",)),
}
VERBS = tuple(_VERB_KEYS)


def _config_shape(verb: str, blocks: dict, params: dict, tolerances: tuple) -> dict:
    """The whole config shape of ``verb``, with a new ``command`` leaf that admits only ``verb``."""
    command = f"{verb!r}, the verb on the command line"
    _LEAVES[command] = lambda x: x == verb
    params_key = "params?" if all(key.endswith("?") for key in params) else "params"
    return {
        "schema_version": "schema version 1",
        "command": command,
        **blocks,
        params_key: params,
        "tolerances?": {key + "?": "a number" for key in tolerances},
    }


_CONFIG_SHAPES = {verb: _config_shape(verb, *keys) for verb, keys in _VERB_KEYS.items()}


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


def _validate_schema(cfg: Any, verb: str) -> dict:
    """Reject ``cfg`` unless it fits ``verb``'s shape; returns it with integer leaves as ints."""
    shape = _CONFIG_SHAPES[verb]
    errors = [f"config error at {e}" for e in _shape_errors(cfg, shape, "")]
    if errors:
        raise CliError("\n".join(errors))
    return _with_ints(cfg, shape)


# --------------------------------------------------------------------------
# builders

def _matrix(obj, where: str) -> np.ndarray:
    with _config_error(where):
        return matrix_from_json(obj, where)


def _operator(obj, where: str, dim: int) -> np.ndarray:
    """A ``dim`` x ``dim`` matrix of the config at ``where``."""
    m = _matrix(obj, where)
    if m.shape != (dim, dim):
        raise CliError(f"config error at {where}: shape {m.shape} does not match dim {dim}")
    return m


def _build_system(obj: dict, where: str) -> SystemSpec:
    h = _operator(obj["hamiltonian"], where + "/hamiltonian", obj["dim"])
    with _config_error(where):
        return SystemSpec(dim=obj["dim"], hamiltonian=h)


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
        with _config_error(ptr):
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
        labels = tuple(_block_label(b) for b in blocks)
    with _config_error(where):
        return Resolution(device, blocks, labels)


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
    with _config_error(where):
        if "density" in obj:
            return State(_matrix(obj["density"], where + "/density"), time_tag=time)
        if "weights" in obj:
            return init_metric(_build_init_spec(obj, devices, where, default_time), system)
        return State(np.eye(system.dim) / system.dim, time_tag=time)


def _build_experiment(
    obj: dict, plain: bool, where: str = ""
) -> tuple[SystemSpec, Schedule | CoarseSchedule]:
    """The system and the schedule, with its init, of ``obj``: a config or a composite factor.

    ``plain`` folds each resolution into a coarse device and gives a ``Schedule``,
    which needs strictly increasing times; otherwise the result is a
    ``CoarseSchedule``.
    """
    system = _build_system(obj["system"], where + "/system")
    devices = _build_devices(obj["devices"], system.dim, where + "/devices")
    items = obj["schedule"]["entries"]
    t_first = float(items[0]["time"])
    init = _build_init(obj.get("init"), system, devices, t_first, plain, where + "/init")
    where += "/schedule"
    entries = []
    for i, e in enumerate(items):
        ptr = f"{where}/entries/{i}"
        dev = devices.get(e["device"])
        if dev is None:
            raise CliError(f"config error at {ptr}/device: unknown device {e['device']!r}")
        res = None
        if "resolution" in e:
            res = _build_resolution(e["resolution"], dev, ptr + "/resolution")
        entries.append((float(e["time"]), dev, res))
    with _config_error(where):
        cs = CoarseSchedule(entries=tuple(entries), init=init)
        if plain:
            return system, Schedule(entries=tuple(zip(cs.times, cs.devices)), init=init)
        return system, cs


def _build_init_spec(
    obj: dict,
    devices: dict[str, Device],
    where: str = "/init",
    default_time: float = 0.0,
) -> InitSpec:
    """The ``weights`` form of an init section as weighted readout events."""
    entries = []
    for j, w in enumerate(obj["weights"]):
        dev = devices.get(w["device"])
        if dev is None:
            raise CliError(
                f"config error at {where}/weights/{j}/device: unknown device "
                f"{w['device']!r}"
            )
        entries.append((dev, label_from_json(w["outcome"]), float(w["weight"])))
    with _config_error(where):
        return InitSpec(entries=tuple(entries), time=float(obj.get("time", default_time)))


def _couplings(
    items: list[dict], key_a: str, key_b: str, where: str, dims: tuple[int, int]
) -> tuple[Coupling, ...]:
    """Product couplings: operators of dimensions ``dims`` under ``key_a`` and ``key_b``."""
    return tuple(
        Coupling(
            op_a=_operator(c[key_a], f"{where}/{i}/{key_a}", dims[0]),
            op_b=_operator(c[key_b], f"{where}/{i}/{key_b}", dims[1]),
            strength=float(c.get("strength", 1.0)),
        )
        for i, c in enumerate(items)
    )


def _seed_param(params: dict, runs: int = 1) -> int:
    """The run seed; ``runs`` sampling runs use it and the ``runs - 1`` seeds after it."""
    seed = params.get("seed", 0)
    with _config_error("/params/seed"):
        _check_seed(seed, runs)
    return seed


def _partner(params: dict, key: str, partner: str) -> None:
    """Reject ``params[key]`` when ``params[partner]``, without which it is not read, is missing."""
    if key in params and partner not in params:
        raise CliError(
            f"config error at /params/{key}: {key!r} is read only together with "
            f"{partner!r}, which is missing"
        )


def _device_param(params: dict, key: str, devices: dict[str, Device]) -> Device:
    name = params[key]
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
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    @property
    def params(self) -> dict:
        return self.cfg.get("params", {})

    def tol(self, key: str) -> float:
        return float(self.tolerances[key])


def _cmd_table(ctx: _Context) -> None:
    system, schedule = _build_experiment(ctx.cfg, plain=True)
    table = biprob_table(system, schedule)
    m = table.matrix
    ctx.results.update(
        {
            "n_sequences": table.n_sequences,
            "l1_norm": _abs_sum(m),
            "normalization_error": abs(complex(m.sum()) - 1.0),
            "schedule_digest": table.schedule_digest,
            "table_digest": table.digest,
        }
    )
    ctx.checks.append(_check("hermitianity", _max_hermitianity(m), ctx.tol("hermitianity"), "<="))
    ctx.artifacts["table.csv"] = table.to_csv()


def _cmd_verify(ctx: _Context) -> None:
    system, schedule = _build_experiment(ctx.cfg, plain=True)
    table = biprob_table(system, schedule)
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
    _partner(ctx.params, "pair", "position")
    _partner(ctx.params, "position", "pair")
    system, cs = _build_experiment(ctx.cfg, plain=False)
    outcomes = tuple(label_from_json(o) for o in ctx.params["outcomes"])
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
    except TableSizeError as exc:
        ctx.results["recurrence"] = {"skipped": str(exc)}

    if "pair" in ctx.params:
        position = ctx.params["position"]
        pair = tuple(label_from_json(x) for x in ctx.params["pair"])
        with _config_error("/schedule"):
            fine = Schedule(entries=tuple((t, dev) for t, dev, _ in cs.entries), init=cs.init)
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


def _cmd_compose(ctx: _Context) -> None:
    _partner(ctx.params, "bi_a", "bi_b")
    _partner(ctx.params, "bi_b", "bi_a")
    comp = ctx.cfg["composite"]
    sys_a, sched_a = _build_experiment(comp["a"], plain=True, where="/composite/a")
    sys_b, sched_b = _build_experiment(comp["b"], plain=True, where="/composite/b")
    with _config_error("/composite/b/schedule/entries"):
        _check_tandem(sched_a, sched_b)
    couplings = _couplings(
        comp.get("couplings", []), "op_a", "op_b", "/composite/couplings", (sys_a.dim, sys_b.dim)
    )
    with _config_error("/composite"):
        compose(CompositeSpec(sys_a, sys_b, couplings))
    delta = factorization_delta(sys_a, sys_b, sched_a, sched_b, couplings=couplings)
    ctx.results["factorization_delta"] = delta
    ctx.results["coupled"] = bool(couplings)
    if not couplings:
        ctx.checks.append(_check("factorization", delta, ctx.tol("factorization"), "<="))

    if "bi_a" in ctx.params:
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
    system = _build_system(ctx.cfg["system"], "/system")
    devices = _build_devices(ctx.cfg["devices"], system.dim, "/devices")
    device = _device_param(ctx.params, "device", devices)
    times = [float(t) for t in ctx.params["times"]]
    init = _build_init_spec(ctx.cfg["init"], devices)
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
    system = _build_system(ctx.cfg["system"], "/system")
    devices = _build_devices(ctx.cfg["devices"], system.dim, "/devices")
    device = _device_param(ctx.params, "device", devices)
    outcome = label_from_json(ctx.params["outcome"])
    series = zeno_scan(system, device, outcome, float(ctx.params["T"]), ctx.params["n_list"])
    ctx.results.update(
        {
            "rate": series.rate,
            "n_values": list(series.n_values),
            "survival": list(series.survival),
        }
    )
    ctx.artifacts["zeno.csv"] = series.to_csv()


def _cmd_uncertainty(ctx: _Context) -> None:
    _partner(ctx.params, "dt", "n_samples")
    system = _build_system(ctx.cfg["system"], "/system")
    devices = _build_devices(ctx.cfg["devices"], system.dim, "/devices")
    dev_k = _device_param(ctx.params, "device_k", devices)
    dev_l = _device_param(ctx.params, "device_l", devices)
    seed = _seed_param(ctx.params, runs=2)  # the role-swapped run uses seed + 1
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
            seed,
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
    system = _build_system(ctx.cfg["system"], "/system")
    environment = _build_system(ctx.cfg["environment"], "/environment")
    couplings = _couplings(
        ctx.cfg.get("couplings", []),
        "op_system",
        "op_environment",
        "/couplings",
        (system.dim, environment.dim),
    )
    rho_env = _operator(ctx.cfg["env_init"]["density"], "/env_init/density", environment.dim)
    with _config_error("/env_init/density"):
        env_state = State(rho_env)
    with _config_error("/couplings"):  # a coupling operator that is not Hermitian
        spec = OpenSpec(
            system=system,
            environment=environment,
            couplings=couplings,
            env_state=env_state,
        )
    t = float(ctx.params["t"])
    slices = sorted(ctx.params["slices"])

    with _config_error("/environment"):  # the joint dimension is over the cap
        exact = dynamical_map_exact(spec, t)
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
    system, cs = _build_experiment(ctx.cfg, plain=False)
    run = sample_sequences(system, cs, ctx.params["n_samples"], _seed_param(ctx.params))
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
    system, schedule = _build_experiment(ctx.cfg, plain=True)
    table = biprob_table(system, schedule)
    threshold = float(ctx.params.get("threshold", DEFAULT_TOLERANCES["classical_threshold"]))
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

        written, cfg = cfg, _validate_schema(cfg, args.verb)

        tolerances = dict(DEFAULT_TOLERANCES)
        tolerances.update(cfg.get("tolerances", {}))

        ctx = _Context(cfg=cfg, tolerances=tolerances)
        try:
            _COMMANDS[args.verb](ctx)
        except TableSizeError as exc:
            raise CliError(
                json.dumps(
                    {
                        "error": "table-size-guard",
                        "requested_entries": exc.requested,
                        "limit": exc.limit,
                        "hint": "raise BITRAJ_MAX_TABLE",
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
        return 2


if __name__ == "__main__":
    sys.exit(main())
