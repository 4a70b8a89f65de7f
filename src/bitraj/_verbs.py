"""The command-line verbs: build a config's objects, compute, fill the report.

``bitraj.cli`` reads a config and checks its shape without NumPy; it imports
this module only for a config that passed, and ``run`` does the rest.  Every
verb builds its config with the four modules imported here.  The others
(``composite``, ``phenomena``, ``master``, ``lab``) are imported inside the
functions that use them, so a verb loads only its own layers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .cli import _VERB_KEYS, DEFAULT_TOLERANCES, CliError, _check, _config_error
from .coarse import (
    CoarseSchedule,
    Resolution,
    _block_label,
    faux_coarse_prob,
    interference_term,
    pairwise_decompose,
    quantum_coarse_prob,
)
from .core import Device, Label, State, SystemSpec, _env_cap, _system_eig, propagator
from .core import _check_times, device_from_hermitian
from .engine import (
    BiSequence,
    ConsistencyError,
    Schedule,
    TableSizeError,
    _mass,
    _max_hermitianity,
    biprob_table,
    chain_probabilities,
    property_report,
)
from .serialize import csv_text, label_from_json, matrix_from_json, matrix_to_json

if TYPE_CHECKING:
    from .composite import Coupling
    from .phenomena import InitSpec


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
        system = SystemSpec(dim=obj["dim"], hamiltonian=h)
    with _config_error(where + "/hamiltonian"):  # an eigensolve that fails or overflows
        _system_eig(system)
    return system


def _check_time(system: SystemSpec, t: float, after: float | None, where: str) -> None:
    """Reject the time at ``where`` when it breaks the time rule after ``after`` (the time
    before it, the init time for a first time, None for a lone time) or a phase ``t * w``
    of its propagator leaves float range."""
    with _config_error(where):
        _check_times("schedule", (t,) if after is None else (after, t))
        propagator(system, t)


def _build_devices(cfg: dict, where: str = "") -> tuple[SystemSpec, dict[str, Device]]:
    """The system of ``cfg``, a config or a composite factor, and its devices by name."""
    system = _build_system(cfg["system"], where + "/system")
    devices: dict[str, Device] = {}
    for i, obj in enumerate(cfg["devices"]):
        ptr = f"{where}/devices/{i}"
        name = obj["name"]
        if name in devices:
            raise CliError(f"config error at {ptr}/name: duplicate device {name!r}")
        with _config_error(ptr):  # the shape walk let through one form, whole
            if "observable" in obj:
                dev = device_from_hermitian(_matrix(obj["observable"], ptr + "/observable"), name=name)
            else:
                outcomes = tuple(label_from_json(o) for o in obj["outcomes"])
                projs = tuple(
                    _matrix(p, f"{ptr}/projectors/{j}")
                    for j, p in enumerate(obj["projectors"])
                )
                dev = Device(name=name, outcomes=outcomes, projectors=projs)
        if dev.dim != system.dim:
            raise CliError(
                f"config error at {ptr}: device dimension {dev.dim} does not "
                f"match the system dimension {system.dim}"
            )
        devices[name] = dev
    return system, devices


def _build_resolution(obj: dict, device: Device, where: str) -> Resolution:
    blocks = tuple(tuple(label_from_json(f) for f in b) for b in obj["blocks"])
    if "labels" in obj:
        labels = tuple(label_from_json(l) for l in obj["labels"])
    else:
        labels = tuple(_block_label(b) for b in blocks)
    with _config_error(where):
        return Resolution(device, blocks, labels)


def _build_init(
    obj: dict | None,
    system: SystemSpec,
    devices: dict[str, Device],
    t_first: float,
    where: str = "/init",
) -> State:
    default_time = min(0.0, t_first)
    if obj is None:
        obj = {"maximally_mixed": True}
    time = float(obj.get("time", default_time))
    with _config_error(where):  # the shape walk let through one form
        if "density" in obj:
            return State(_matrix(obj["density"], where + "/density"), time_tag=time)
        if "weights" in obj:
            from .phenomena import init_metric

            return init_metric(_build_init_spec(obj, devices, where, default_time), system)
        return State(np.eye(system.dim) / system.dim, time_tag=time)


def _build_experiment(obj: dict, where: str = "") -> tuple[SystemSpec, CoarseSchedule]:
    """The system and the schedule, with its init, of ``obj``: a config or a composite factor.

    A verb that reads no resolution takes the folded ``Schedule``, ``cs.schedule``.
    """
    system, devices = _build_devices(obj, where)
    items = obj["schedule"]["entries"]
    times = [float(e["time"]) for e in items]
    init = _build_init(obj.get("init"), system, devices, times[0], where + "/init")
    where += "/schedule"
    entries = []
    for i, (e, after, t) in enumerate(zip(items, [init.time_tag] + times, times)):
        ptr = f"{where}/entries/{i}"
        dev = _device(devices, e["device"], ptr + "/device")
        res = None
        if "resolution" in e:
            res = _build_resolution(e["resolution"], dev, ptr + "/resolution")
        _check_time(system, t, after, ptr + "/time")
        entries.append((t, dev, res))
    with _config_error(where):
        return system, CoarseSchedule(entries=tuple(entries), init=init)


def _build_init_spec(
    obj: dict,
    devices: dict[str, Device],
    where: str = "/init",
    default_time: float = 0.0,
) -> InitSpec:
    """The ``weights`` form of an init section as weighted readout events."""
    from .phenomena import InitSpec

    entries = []
    for j, w in enumerate(obj["weights"]):
        dev = _device(devices, w["device"], f"{where}/weights/{j}/device")
        outcome = _outcome(dev, w["outcome"], f"{where}/weights/{j}/outcome")
        entries.append((dev, outcome, float(w["weight"])))
    with _config_error(where):
        return InitSpec(entries=tuple(entries), time=float(obj.get("time", default_time)))


def _couplings(
    items: list[dict], key_a: str, key_b: str, where: str, dims: tuple[int, int]
) -> tuple[Coupling, ...]:
    """Product couplings: operators of dimensions ``dims`` under ``key_a`` and ``key_b``."""
    from .composite import Coupling

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
    from .lab import _check_seed

    seed = params.get("seed", 0)
    with _config_error("/params/seed"):
        _check_seed(seed, runs)
    return seed


def _device(devices: dict[str, Device], name: str, where: str) -> Device:
    """The device called ``name``, which the config names at ``where``."""
    dev = devices.get(name)
    if dev is None:
        raise CliError(f"config error at {where}: unknown device {name!r}")
    return dev


def _outcome(dev: Device, raw, where: str) -> Label:
    """The config label ``raw`` at ``where``, which must be an outcome of ``dev``."""
    label = label_from_json(raw)
    try:
        dev.outcome_index(label)
    except KeyError as exc:
        raise CliError(f"config error at {where}: {exc.args[0]}") from None
    return label


def _readouts(devices: tuple[Device, ...], raw: list, where: str) -> tuple[Label, ...]:
    """The config labels ``raw`` at ``where``: one outcome of each device of a schedule."""
    if len(raw) != len(devices):
        raise CliError(
            f"config error at {where}: {len(raw)} readouts for a schedule of "
            f"{len(devices)} entries"
        )
    return tuple(_outcome(dev, x, f"{where}/{i}") for i, (dev, x) in enumerate(zip(devices, raw)))


# --------------------------------------------------------------------------
# execution context and verbs

@dataclass
class _Context:
    verb: str
    cfg: dict
    tolerances: dict
    results: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)  # file name -> text, or a writer of the open file

    @property
    def params(self) -> dict:
        return self.cfg.get("params", {})

    def check(self, key: str, value: float, *name_args) -> bool:
        """Record the check that tolerance ``key`` bounds, its declared name filled with
        ``name_args``; whether it passed."""
        name, comparator = _VERB_KEYS[self.verb][2][key]
        self.checks.append(_check(name.format(*name_args), value, self.tolerances[key], comparator))
        return self.checks[-1]["pass"]


def _cmd_table(ctx: _Context) -> None:
    system, cs = _build_experiment(ctx.cfg)
    table = biprob_table(system, cs.schedule)
    m = table.matrix
    ctx.results.update(
        {
            "n_sequences": table.n_sequences,
            "l1_norm": _mass(m),
            "normalization_error": abs(complex(m.sum()) - 1.0),
            "schedule_digest": table.schedule_digest,
            "table_digest": table.digest,
        }
    )
    ctx.check("hermitianity", _max_hermitianity(m))
    ctx.artifacts["table.csv"] = table.write_csv


def _cmd_verify(ctx: _Context) -> None:
    system, cs = _build_experiment(ctx.cfg)
    table = biprob_table(system, cs.schedule)
    rep = property_report(table)
    ctx.results.update(rep.as_dict())
    ctx.results["schedule_digest"] = table.schedule_digest
    ctx.results["table_digest"] = table.digest
    ctx.check("normalization", rep.normalization_error)
    ctx.check("biconsistency", rep.max_biconsistency_error)
    ctx.check("causality", rep.max_causality_violation)
    ctx.check("hermitianity", rep.max_hermitianity_error)
    ctx.check("gram_min", rep.min_gram_eigenvalue)
    ctx.check("diagonal_negativity", rep.max_diagonal_negativity)
    ctx.artifacts["properties.csv"] = csv_text(
        "name,value,bound,comparator,pass", (c.values() for c in ctx.checks)
    )


def _cmd_coarse(ctx: _Context) -> None:
    system, cs = _build_experiment(ctx.cfg)
    outcomes = _readouts(cs.devices, ctx.params["outcomes"], "/params/outcomes")
    try:  # the recurrence evaluates the direct chain too, so ``quantum`` reads it there
        dec = pairwise_decompose(system, cs, outcomes)
        quantum = dec.direct_value
        recurrence = {
            "value": dec.recurrence_value,
            "direct": dec.direct_value,
            "terminal_readouts": dec.term_count,
        }
    except TableSizeError as exc:
        dec, quantum = None, quantum_coarse_prob(system, cs, outcomes)
        recurrence = {"skipped": str(exc)}
    faux = faux_coarse_prob(system, cs, outcomes)
    ctx.results.update(
        {
            "quantum": quantum,
            "faux": faux,
            "interference_total": quantum - faux,
            "recurrence": recurrence,
        }
    )
    if dec is not None:
        ctx.check("pairwise", abs(dec.recurrence_value - dec.direct_value))

    if "pair" in ctx.params:
        position = ctx.params["position"]
        # the pair's own entry is read fine, every other entry as the schedule reads it
        entries = tuple(
            (t, fine if i == position else dev)
            for i, ((t, fine, _), dev) in enumerate(zip(cs.entries, cs.devices))
        )
        mixed = Schedule(entries=entries, init=cs.init)
        if position >= len(cs):
            raise CliError(
                f"config error at /params/position: position {position} is past the "
                f"schedule's last entry {len(cs) - 1}"
            )
        at, raw = mixed.devices[position], ctx.params["pair"]
        pair = tuple(_outcome(at, f, f"/params/pair/{i}") for i, f in enumerate(raw))
        with _config_error("/params/pair/1"):  # a pair that names one label twice
            term = interference_term(system, mixed, position, pair, outcomes)
        ctx.results["pair_interference"] = {
            "from_biprob": term.from_biprob,
            "from_probabilities": term.from_probabilities,
        }
        ctx.check("interference_routes", abs(term.from_biprob - term.from_probabilities))
    ctx.artifacts["coarse.csv"] = csv_text(
        "quantum,faux,interference_total", [(quantum, faux, quantum - faux)]
    )


def _cmd_compose(ctx: _Context) -> None:
    from .composite import CompositeSpec, _check_tandem, co_interference, compose
    from .composite import factorization_delta, product_state

    comp = ctx.cfg["composite"]
    sys_a, cs_a = _build_experiment(comp["a"], "/composite/a")
    sys_b, cs_b = _build_experiment(comp["b"], "/composite/b")
    sched_a, sched_b = cs_a.schedule, cs_b.schedule
    with _config_error("/composite/b/schedule/entries"):
        _check_tandem(sched_a, sched_b)
    # the factors start from one product state, so their init times must agree
    b_time = "time" in comp["b"].get("init", {})
    with _config_error(f"/composite/{'b' if b_time else 'a'}/init/time"):
        product_state(cs_a.init, cs_b.init)
    couplings = _couplings(
        comp.get("couplings", []), "op_a", "op_b", "/composite/couplings", (sys_a.dim, sys_b.dim)
    )
    with _config_error("/composite"):
        joint = compose(CompositeSpec(sys_a, sys_b, couplings))
        _system_eig(joint)
    # a strong coupling can push a phase of the joint evolution past float range
    for i, t in enumerate(sched_a.times):
        _check_time(joint, t, None, f"/composite/a/schedule/entries/{i}/time")
    delta = factorization_delta(sys_a, sys_b, sched_a, sched_b, couplings=couplings)
    ctx.results["factorization_delta"] = delta
    ctx.results["coupled"] = bool(couplings)
    if not couplings:
        ctx.check("factorization", delta)

    if "bi_a" in ctx.params:
        if couplings:
            raise CliError(
                "config error at /params/bi_a: co-interference is defined for "
                "uncoupled factors only"
            )
        bi_a = BiSequence(
            _readouts(sched_a.devices, ctx.params["bi_a"]["plus"], "/params/bi_a/plus"),
            _readouts(sched_a.devices, ctx.params["bi_a"]["minus"], "/params/bi_a/minus"),
        )
        bi_b = BiSequence(
            _readouts(sched_b.devices, ctx.params["bi_b"]["plus"], "/params/bi_b/plus"),
            _readouts(sched_b.devices, ctx.params["bi_b"]["minus"], "/params/bi_b/minus"),
        )
        phi = co_interference(sys_a, sys_b, sched_a, sched_b, bi_a, bi_b)
        ctx.results["co_interference"] = phi
    ctx.artifacts["compose.csv"] = csv_text(
        "factorization_delta,coupled", [(delta, bool(couplings))]
    )


def _cmd_markov(ctx: _Context) -> None:
    from .phenomena import markov_delta

    system, devices = _build_devices(ctx.cfg)
    device = _device(devices, ctx.params["device"], "/params/device")
    times = [float(t) for t in ctx.params["times"]]
    init = _build_init_spec(ctx.cfg["init"], devices, default_time=min(0.0, times[0]))
    _check_time(system, init.time, None, "/init/time")
    for i, (after, t) in enumerate(zip([init.time] + times, times)):
        _check_time(system, t, after, f"/params/times/{i}")
    rep = markov_delta(system, device, times, init)
    ctx.results.update(
        {"delta": rep.delta, "excluded": rep.excluded, "checked": rep.checked}
    )
    fine = device.is_fine_grained()
    ctx.results["fine_grained"] = fine
    if fine:
        ctx.check("markov", rep.delta)
    ctx.artifacts["markov.csv"] = csv_text(
        "delta,excluded,checked,fine_grained", [(rep.delta, rep.excluded, rep.checked, fine)]
    )


def _cmd_zeno(ctx: _Context) -> None:
    from .phenomena import _rate_scale, zeno_scan

    system, devices = _build_devices(ctx.cfg)
    device = _device(devices, ctx.params["device"], "/params/device")
    outcome = _outcome(device, ctx.params["outcome"], "/params/outcome")
    total = float(ctx.params["T"])
    _check_time(system, total, None, "/params/T")
    with _config_error("/system/hamiltonian"):  # a norm too large for the rate's self-checks
        _rate_scale(system)
    with _config_error("/params/outcome"):  # an outcome of rank two or more
        series = zeno_scan(system, device, outcome, total, ctx.params["n_list"])
    ctx.results.update(
        {
            "rate": series.rate,
            "n_values": list(series.n_values),
            "survival": list(series.survival),
        }
    )
    ctx.artifacts["zeno.csv"] = series.to_csv()


def _cmd_uncertainty(ctx: _Context) -> None:
    from .lab import estimate_uncertainty
    from .phenomena import uncertainty_csv, uncertainty_matrix

    system, devices = _build_devices(ctx.cfg)
    dev_k = _device(devices, ctx.params["device_k"], "/params/device_k")
    dev_l = _device(devices, ctx.params["device_l"], "/params/device_l")
    for key, dev in (("device_k", dev_k), ("device_l", dev_l)):  # one basis column per outcome
        if not dev.is_fine_grained():
            raise CliError(
                f"config error at /params/{key}: device {dev.name!r} is not perfectly fine-grained"
            )
    seed = _seed_param(ctx.params, runs=2)  # the role-swapped run uses seed + 1
    t = float(ctx.params.get("t", 0.0))
    _check_time(system, t, None, "/params/t")
    exact = uncertainty_matrix(system, dev_k, dev_l, t)
    row_gap = float(np.abs(exact.sum(axis=0) - 1.0).max())
    col_gap = float(np.abs(exact.sum(axis=1) - 1.0).max())
    ctx.results["exact_matrix"] = matrix_to_json(exact.astype(complex))
    ctx.check("uncertainty_stochastic", max(row_gap, col_gap))
    ctx.artifacts["uncertainty.csv"] = uncertainty_csv(dev_k, dev_l, exact)

    if "n_samples" in ctx.params:
        dt = float(ctx.params.get("dt", 0.0))
        with _config_error("/params/dt"):  # t + dt past float range: an infinite time
            est = estimate_uncertainty(system, dev_k, dev_l, t, dt, ctx.params["n_samples"], seed)
        ctx.results["empirical"] = {
            "matrix": est.matrix.tolist(),
            "excluded": [str(l) for l in est.excluded],
            "exchange_error": est.exchange_error,
            "exact_delta": est.exact_delta,
            "dt": est.dt,
            "n_samples": est.n_samples,
        }


def _cmd_map_compare(ctx: _Context) -> None:
    from .master import OpenSpec, _env_blocks, dynamical_map_bitraj, dynamical_map_exact

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
        _system_eig(spec.joint)
    _check_time(spec.joint, t, None, "/params/t")
    with _config_error("/environment"):  # a map that fails its trace-preservation check
        exact = dynamical_map_exact(spec, t)
    with _config_error("/couplings"):  # environment coupling observables that do not commute
        _env_blocks(spec)
    rows = []
    maps = [dynamical_map_bitraj(spec, t, n) for n in slices]
    for n, bt in zip(slices, maps):
        residual = float(np.abs(bt.matrix - exact.matrix).max())
        tp_err = bt.trace_preservation_error()
        choi_min = bt.min_choi_eigenvalue()
        rows.append(
            {"slices": n, "residual": residual, "tp_error": tp_err, "choi_min": choi_min}
        )
        ctx.check("map_tp", tp_err, n)
        ctx.check("map_choi_min", choi_min, n)
    ctx.results["slices"] = rows
    ctx.results["exact_tp_error"] = exact.trace_preservation_error()
    if len(rows) >= 2:
        ctx.check("map_residual_slack", rows[-1]["residual"] - rows[0]["residual"])
    if ctx.params.get("cross_check", False):
        enum = dynamical_map_bitraj(spec, t, slices[0], via_enumeration=True)
        gap = float(np.abs(enum.matrix - maps[0].matrix).max())
        ctx.results["enumeration_gap"] = gap
        ctx.check("map_cross_check", gap)
    ctx.artifacts["map_compare.csv"] = csv_text(
        "slices,residual,tp_error,choi_min", (r.values() for r in rows)
    )


def _cmd_sample(ctx: _Context) -> None:
    from .lab import sample_sequences

    system, cs = _build_experiment(ctx.cfg)
    run = sample_sequences(system, cs.schedule, ctx.params["n_samples"], _seed_param(ctx.params))
    ctx.results.update(
        {
            "n_samples": run.n_samples,
            "seed": run.seed,
            "observed_cells": len(run.counts),
            "schedule_digest": run.schedule_digest,
        }
    )

    # coverage: every cell's exact probability against its sampled frequency
    steps = [(t, dev.projectors) for t, dev in zip(cs.times, cs.devices)]
    try:
        p = chain_probabilities(system, cs.init, steps)
    except TableSizeError as exc:
        ctx.results["coverage_skipped"] = str(exc)
    else:
        shape = [dev.n_outcomes for dev in cs.devices]
        seqs = [[dev.outcome_index(f) for dev, f in zip(cs.devices, seq)] for seq in run.counts]
        p_hat = np.zeros(len(p))
        p_hat[np.ravel_multi_index(np.array(seqs).T, shape)] = list(run.counts.values())
        p_hat /= run.n_samples
        possible = p > 1e-300
        sigma = np.sqrt(np.maximum(p * (1.0 - p), 0.0) / run.n_samples)
        within = np.abs(p_hat - p) <= 4.0 * np.maximum(sigma, 1e-12)
        checked = int(possible.sum())
        ctx.results["fraction_within_4sigma"] = (
            int((within & possible).sum()) / checked if checked else 1.0
        )
        worst_zero = float(p_hat[p <= 1e-300].max(initial=0.0))
        ctx.checks.append(_check("zero_probability_cells_hit", worst_zero, 0.0, "<="))
    ctx.artifacts["samples.csv"] = run.to_csv()
    ctx.artifacts["run.json"] = json.dumps(run.to_json(), indent=2) + "\n"


def _cmd_classical(ctx: _Context) -> None:
    from .master import classical_diagnostic

    system, cs = _build_experiment(ctx.cfg)
    table = biprob_table(system, cs.schedule)
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
    consistent = False  # without a surrogate there is nothing to be consistent
    if diag.surrogate is not None:
        consistent = ctx.check("classical_consistency", diag.consistency_error)
    ctx.artifacts["classical.csv"] = csv_text(
        "offdiag_mass,threshold,consistent", [(diag.offdiag_mass, diag.threshold, consistent)]
    )


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


def run(verb: str, cfg: dict, tolerances: dict) -> _Context:
    """Run ``verb`` on a config that passed its shape walk; the context holds what it found.

    ``CliError`` for a malformed size cap, a config the verb cannot use or a
    table past the size guard; a failed self-check becomes a failed
    ``internal_consistency`` check.
    """
    for name in ("BITRAJ_MAX_TABLE", "BITRAJ_MAX_DIM"):
        try:
            _env_cap(name)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    ctx = _Context(verb, cfg, tolerances)
    try:
        _COMMANDS[verb](ctx)
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
        check = _check("internal_consistency", exc.gap, exc.bound, "<=")
        ctx.checks.append(dict(check, message=str(exc)))
    return ctx
