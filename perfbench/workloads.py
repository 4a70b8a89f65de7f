"""The three benchmark workloads: seeded inputs, one op per call, checks.

Each workload is a closed loop driven by ``run.py``: one client, and the next
op starts when the previous one returns.  A workload exposes

- ``setup()``: seeded input generation plus a warm-up op (timed as set-up);
- ``cycle``: the op keys, run in this order round and round;
- ``run(key, k, tracer)``: op number ``k`` (the timed part), returning the
  work it did and a payload for the checks;
- ``check(key, k, payload)``: the op's correctness failures (untimed);
- ``finish()``: run-level checks made after the timed loop (untimed);
- ``details()``: input digests and counts digests for the result file.

bitraj is always reached through its module attributes at call time, so the
wrappers the tracer installs are the functions the ops call.
"""

from __future__ import annotations

import compileall
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import bitraj
from bitraj import lab, phenomena
from bitraj.serialize import canonical_digest, matrix_to_json as _mat

import gate

CHILD = Path(__file__).resolve().parent / "cli_child.py"


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def random_hermitian(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_basis(rng, dim: int) -> np.ndarray:
    return np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]


def basis_device(basis: np.ndarray, name: str) -> bitraj.Device:
    """Fine readout in the columns of ``basis``; outcome k of device "A" is "a<k>"."""
    dim = basis.shape[0]
    outcomes = tuple(f"{name.lower()}{k}" for k in range(dim))
    projs = tuple(np.outer(basis[:, k], basis[:, k].conj()) for k in range(dim))
    return bitraj.Device(name=name, outcomes=outcomes, projectors=projs)


def random_density(rng, dim: int) -> np.ndarray:
    """Full-rank mixed state: random eigenbasis, Dirichlet weights kept off zero."""
    w = 0.5 * rng.dirichlet(np.ones(dim)) + 0.5 / dim
    u = random_basis(rng, dim)
    return (u * w) @ u.conj().T


def increasing_times(rng, n: int, lo: float = 0.1, hi: float = 1.0) -> list[float]:
    return [float(t) for t in np.cumsum(rng.uniform(lo, hi, size=n))]


def child_env() -> dict:
    """Environment for child interpreters: this checkout's ``src`` first on the path."""
    src = str(Path(bitraj.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def _digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def counts_digest(run) -> str:
    """Digest of one sampling run's counts (stable across runs of one commit and seed)."""
    return canonical_digest(run.to_json()["counts"])


# ---------------------------------------------------------------------------
# verify-large


class VerifyLarge:
    """``biprob_table`` + ``property_report`` on random schedules of three shapes."""

    SHAPES = ((2, 11), (3, 7), (4, 5))  # (dim, entries): N = 2048, 2187, 1024
    TINY_SHAPES = ((2, 4), (3, 3), (4, 2))
    N_DEVICES = 3
    DIRECT_SAMPLES = 16

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.shapes = self.TINY_SHAPES if tiny else self.SHAPES
        self.cycle = [f"{d}x{n}" for d, n in self.shapes]
        self.import_module = "bitraj"

    def setup(self) -> None:
        self.inputs = {}
        for i, (d, n) in enumerate(self.shapes):
            rng = _rng(self.seed, 1, i)
            system = bitraj.SystemSpec(dim=d, hamiltonian=random_hermitian(rng, d))
            devices = [
                basis_device(random_basis(rng, d), f"D{j}") for j in range(self.N_DEVICES)
            ]
            init = bitraj.State(random_density(rng, d), time_tag=0.0)
            self.inputs[f"{d}x{n}"] = (system, devices, init, n)
        self.run(self.cycle[-1], -1)

    def schedule(self, key: str, k: int) -> bitraj.Schedule:
        system, devices, init, n = self.inputs[key]
        rng = _rng(self.seed, 2, k + 1)
        times = increasing_times(rng, n)
        picks = rng.integers(len(devices), size=n)
        return bitraj.Schedule(
            entries=tuple((t, devices[j]) for t, j in zip(times, picks)), init=init
        )

    def run(self, key: str, k: int, tracer=None):
        system = self.inputs[key][0]
        table = bitraj.biprob_table(system, self.schedule(key, k))
        report = bitraj.property_report(table)
        return table.n_sequences**2, (table, report)

    def check(self, key: str, k: int, payload) -> list[str]:
        table, report = payload
        rng = _rng(self.seed, 3, k + 1)
        codes = rng.integers(table.n_sequences, size=(self.DIRECT_SAMPLES, 2))
        return gate.check_verify(report, table, codes)

    def finish(self) -> dict[str, list[str]]:
        return {}

    def details(self) -> dict:
        return {
            "input_digest": _digest_arrays(
                *(
                    a
                    for system, devices, init, n in self.inputs.values()
                    for a in [system.hamiltonian, init.density]
                    + [p for dev in devices for p in dev.projectors]
                )
            ),
            "work_unit": "table entries (N^2)",
        }


# ---------------------------------------------------------------------------
# lab-replay

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_UP = np.diag([1.0, 0.0]).astype(complex)
_DEVZ = bitraj.Device(name="Z", outcomes=("u", "d"), projectors=(_UP, np.eye(2) - _UP))
_PX = 0.5 * (np.eye(2) + _SX)
_DEVX = bitraj.Device(name="X", outcomes=("+", "-"), projectors=(_PX, np.eye(2) - _PX))


class LabReplay:
    """The acceptance criterion-15 replay plus a wide qutrit schedule.

    Narrow shape: the ZX qubit schedule and its X-pair-merged coarse twin at
    1e5 trials each, with the acceptance suite's sampling seeds (21, 22), so
    the reconstructed interference is the acceptance criterion's own number.
    Wide shape: one random 5-entry qutrit schedule drawn from the seed (243
    cells, about 41 trials per cell per op), sampled with seeds drawn from the
    seed.  The wide ops get a little more time per cycle than the narrow pair
    (about 14 s against 9 s here).
    """

    NARROW_TRIALS = 100_000
    WIDE_TRIALS = 10_000
    #: Wide ops per cycle.  A run then checks at least 13 x 243 = 3159 cells,
    #: so the pooled 0.999 coverage gate tolerates 3 misses, and a correct
    #: sampler fails it in about 0.05 % of runs.
    WIDE_OPS = 13
    WIDE_ENTRIES = 5
    #: Smallest expected count per wide cell, so the 4-sigma gate's normal
    #: approximation holds for every cell.
    MIN_EXPECTED_COUNT = 20.0
    INVARIANCE_TRIALS = 5_000

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        if tiny:
            self.narrow_trials, self.wide_trials, self.wide_entries, wide_ops = 10_000, 2_000, 3, 2
        else:
            self.narrow_trials, self.wide_trials = self.NARROW_TRIALS, self.WIDE_TRIALS
            self.wide_entries, wide_ops = self.WIDE_ENTRIES, self.WIDE_OPS
        # Wide ops first: a run that stops mid-cycle then holds more wide
        # cells, which the pooled coverage gate needs to be robust.
        self.cycle = ["wide"] * wide_ops + ["fine", "coarse"]
        self.import_module = "bitraj"
        self.coverage = gate.Coverage()
        self.digests: list[tuple[int, str, str]] = []
        self.nproc = len(os.sched_getaffinity(0))

    def _wide_schedule(self) -> tuple[bitraj.SystemSpec, bitraj.CoarseSchedule]:
        """Random qutrit schedule: a random basis and its Fourier partner, alternating.

        Draws are repeated (deterministically) until every cell's expected
        count at ``wide_trials`` reaches ``MIN_EXPECTED_COUNT``.
        """
        rng = _rng(self.seed, 4)
        init = bitraj.State(np.eye(3) / 3, time_tag=0.0)
        best = None
        for _ in range(200):
            system = bitraj.SystemSpec(dim=3, hamiltonian=random_hermitian(rng, 3, 0.5))
            dev_a = basis_device(random_basis(rng, 3), "A")
            dev_b = bitraj.mub_partner(dev_a)
            devs = [dev_a, dev_b]
            times = increasing_times(rng, self.wide_entries, 0.05, 0.3)
            cs = bitraj.CoarseSchedule(
                entries=tuple((t, devs[j % 2], None) for j, t in enumerate(times)), init=init
            )
            p_min = gate.exact_cells(system, cs)[1].min()
            if best is None or p_min > best[0]:
                best = (p_min, system, cs)
            if p_min * self.wide_trials >= self.MIN_EXPECTED_COUNT:
                break
        return best[1], best[2]

    def setup(self) -> None:
        self.narrow_system = bitraj.SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))
        up = bitraj.State(_UP, time_tag=0.0)
        self.fine_cs = bitraj.CoarseSchedule(
            entries=((1.0, _DEVX, None), (2.0, _DEVZ, None)), init=up
        )
        res = lab.pair_resolution(_DEVX, ("+", "-"))
        self.coarse_cs = bitraj.CoarseSchedule(
            entries=((1.0, _DEVX, res), (2.0, _DEVZ, None)), init=up
        )
        self.wide_system, self.wide_cs = self._wide_schedule()
        bitraj.sample_sequences(self.narrow_system, self.fine_cs, 1000, seed=0)
        bitraj.sample_sequences(self.wide_system, self.wide_cs, 1000, seed=0)
        self.fine_dist = None

    def _target(self, key: str, k: int):
        if key == "fine":
            return self.narrow_system, self.fine_cs, self.narrow_trials, 21
        if key == "coarse":
            return self.narrow_system, self.coarse_cs, self.narrow_trials, 22
        sample_seed = int(_rng(self.seed, 5, k).integers(2**31))
        return self.wide_system, self.wide_cs, self.wide_trials, sample_seed

    def run(self, key: str, k: int, tracer=None):
        system, cs, n, sample_seed = self._target(key, k)
        run = bitraj.sample_sequences(system, cs, n, seed=sample_seed)
        dist = bitraj.empirical_distribution(run)
        estimate = None
        if key == "fine":
            self.fine_dist = dist
        elif key == "coarse":
            estimate = bitraj.reconstruct_interference(
                self.fine_dist, dist, 0, ("+", "-"), context=("u",)
            )
        return n, (run, dist, estimate)

    def check(self, key: str, k: int, payload) -> list[str]:
        run, dist, estimate = payload
        system, cs, n, sample_seed = self._target(key, k)
        self.digests.append((k, key, counts_digest(run)))
        failures = self.coverage.add(system, cs, run, dist, op=k)
        if estimate is not None:
            failures += gate.check_interference(estimate)
        return failures

    def finish(self) -> dict[str, list[str]]:
        invariance = []
        for system, cs in ((self.narrow_system, self.fine_cs), (self.wide_system, self.wide_cs)):
            runs = [
                bitraj.sample_sequences(system, cs, self.INVARIANCE_TRIALS, seed=self.seed, workers=w)
                for w in (1, self.nproc)
            ]
            if runs[0].counts != runs[1].counts:
                invariance.append(f"counts differ between workers=1 and workers={self.nproc}")
        return {"coverage_4sigma": self.coverage.verdict(), "worker_invariance": invariance}

    def details(self) -> dict:
        return {
            "input_digest": _digest_arrays(
                self.wide_system.hamiltonian,
                np.array([t for t, _, _ in self.wide_cs.entries]),
                *(p for _, dev, _ in self.wide_cs.entries for p in dev.projectors),
            ),
            "work_unit": "sampled trials",
            "counts_digests": self.digests,
            "coverage": self.coverage.summary(),
        }


# ---------------------------------------------------------------------------
# cli-verbs


def _dev_json(dev: bitraj.Device) -> dict:
    return {
        "name": dev.name,
        "outcomes": list(dev.outcomes),
        "projectors": [_mat(p) for p in dev.projectors],
    }


def _base(verb: str, system: bitraj.SystemSpec, devices=(), schedule=None, init=None) -> dict:
    cfg = {
        "schema_version": 1,
        "command": verb,
        "system": {"dim": system.dim, "hamiltonian": _mat(system.hamiltonian)},
    }
    if devices:
        cfg["devices"] = [_dev_json(d) for d in devices]
    if schedule is not None:
        cfg["schedule"] = {"entries": schedule}
    if init is not None:
        cfg["init"] = {"density": _mat(init.density), "time": init.time_tag}
    return cfg


def cli_configs(seed: int, tiny: bool = False) -> dict:
    """One config per op key, with the library calls that give its expected results.

    Returns ``{key: (verb, config, expected)}`` where ``expected()`` computes,
    in process, the key results the CLI's ``report.json`` must reproduce.
    """
    out = {}
    State, SystemSpec = bitraj.State, bitraj.SystemSpec

    # verify: the README example
    sz = np.diag([1.0, -1.0])
    zero2 = np.zeros((2, 2))
    readme = {
        "schema_version": 1,
        "command": "verify",
        "system": {"dim": 2, "hamiltonian": _mat(zero2)},
        "devices": [
            {"name": "Z", "observable": _mat(sz)},
            {"name": "X", "observable": _mat(_SX)},
        ],
        "schedule": {"entries": [{"time": 1.0, "device": "X"}, {"time": 2.0, "device": "Z"}]},
    }

    def verify_expected():
        devz = bitraj.device_from_hermitian(sz, name="Z")
        devx = bitraj.device_from_hermitian(_SX, name="X")
        sched = bitraj.Schedule(
            entries=((1.0, devx), (2.0, devz)), init=State(np.eye(2) / 2, time_tag=0.0)
        )
        table = bitraj.biprob_table(SystemSpec(dim=2, hamiltonian=zero2), sched)
        return {"results": bitraj.property_report(table).as_dict()}

    out["verify"] = ("verify", readme, verify_expected)

    # table: a qubit schedule of 8 entries (N = 256)
    rng = _rng(seed, 10)
    n_table = 4 if tiny else 8
    sys_t = SystemSpec(dim=2, hamiltonian=random_hermitian(rng, 2))
    devs_t = [basis_device(random_basis(rng, 2), n) for n in ("A", "B")]
    init_t = State(random_density(rng, 2), time_tag=0.0)
    picks = rng.integers(2, size=n_table)
    times_t = increasing_times(rng, n_table)
    entries_t = [{"time": t, "device": devs_t[j].name} for t, j in zip(times_t, picks)]

    def table_expected():
        sched = bitraj.Schedule(
            entries=tuple((t, devs_t[j]) for t, j in zip(times_t, picks)), init=init_t
        )
        table = bitraj.biprob_table(sys_t, sched)
        m = table.matrix
        return {
            "results": {
                "n_sequences": table.n_sequences,
                "l1_norm": float(np.abs(m).sum()),
            },
            "table": table,
        }

    out["table"] = ("table", _base("table", sys_t, devs_t, entries_t, init_t), table_expected)

    # coarse: a qutrit schedule with a 3-outcome block, plus pair/position
    rng = _rng(seed, 11)
    sys_c = SystemSpec(dim=3, hamiltonian=random_hermitian(rng, 3))
    dev_a = basis_device(random_basis(rng, 3), "A")
    dev_b = basis_device(random_basis(rng, 3), "B")
    init_c = State(random_density(rng, 3), time_tag=0.0)
    times_c = increasing_times(rng, 3)
    block = {"blocks": [list(dev_a.outcomes)], "labels": ["any"]}
    entries_c = [
        {"time": times_c[0], "device": "A", "resolution": block},
        {"time": times_c[1], "device": "B"},
        {"time": times_c[2], "device": "A"},
    ]
    outcomes_c = ["any", dev_b.outcomes[int(rng.integers(3))], dev_a.outcomes[int(rng.integers(3))]]
    cfg_c = _base("coarse", sys_c, [dev_a, dev_b], entries_c, init_c)
    cfg_c["params"] = {"outcomes": outcomes_c, "pair": ["a0", "a1"], "position": 0}

    def coarse_expected():
        res = bitraj.Resolution(dev_a, (tuple(dev_a.outcomes),), ("any",))
        cs = bitraj.CoarseSchedule(
            entries=((times_c[0], dev_a, res), (times_c[1], dev_b, None), (times_c[2], dev_a, None)),
            init=init_c,
        )
        fine = bitraj.Schedule(
            entries=((times_c[0], dev_a), (times_c[1], dev_b), (times_c[2], dev_a)), init=init_c
        )
        term = bitraj.interference_term(sys_c, fine, 0, ("a0", "a1"), outcomes_c)
        return {
            "results": {
                "quantum": bitraj.quantum_coarse_prob(sys_c, cs, outcomes_c),
                "faux": bitraj.faux_coarse_prob(sys_c, cs, outcomes_c),
                "pair_interference": {"from_biprob": term.from_biprob},
            }
        }

    out["coarse"] = ("coarse", cfg_c, coarse_expected)

    # compose: uncoupled (with bi_a/bi_b) and coupled
    rng = _rng(seed, 12)
    times_f = increasing_times(rng, 2)  # tandem readouts share their times
    factors = []
    for _ in range(2):
        sys_f = SystemSpec(dim=2, hamiltonian=random_hermitian(rng, 2))
        devs_f = [basis_device(random_basis(rng, 2), n) for n in ("A", "B")]
        init_f = State(random_density(rng, 2), time_tag=0.0)
        factors.append((sys_f, devs_f, init_f, times_f))

    def factor_json(f):
        sys_f, devs_f, init_f, times_f = f
        cfg = _base("compose", sys_f, devs_f, [
            {"time": times_f[0], "device": "A"}, {"time": times_f[1], "device": "B"}
        ], init_f)
        return {k: cfg[k] for k in ("system", "devices", "schedule", "init")}

    def factor_schedule(f):
        sys_f, devs_f, init_f, times_f = f
        return bitraj.Schedule(
            entries=((times_f[0], devs_f[0]), (times_f[1], devs_f[1])), init=init_f
        )

    op_a, op_b = random_hermitian(rng, 2), random_hermitian(rng, 2)
    strength = float(rng.uniform(0.2, 0.8))
    bi = {"plus": ["a0", "b1"], "minus": ["a1", "b1"]}
    for key, coupled in (("compose-uncoupled", False), ("compose-coupled", True)):
        cfg = {
            "schema_version": 1,
            "command": "compose",
            "system": {"dim": 2, "hamiltonian": _mat(zero2)},
            "composite": {"a": factor_json(factors[0]), "b": factor_json(factors[1])},
        }
        if coupled:
            cfg["composite"]["couplings"] = [
                {"op_a": _mat(op_a), "op_b": _mat(op_b), "strength": strength}
            ]
        else:
            cfg["params"] = {"bi_a": bi, "bi_b": bi}

        def compose_expected(coupled=coupled):
            sa, sb = factor_schedule(factors[0]), factor_schedule(factors[1])
            couplings = (bitraj.Coupling(op_a=op_a, op_b=op_b, strength=strength),) if coupled else ()
            res = {
                "factorization_delta": bitraj.factorization_delta(
                    factors[0][0], factors[1][0], sa, sb, couplings=couplings
                )
            }
            if not coupled:
                b = bitraj.BiSequence(tuple(bi["plus"]), tuple(bi["minus"]))
                res["co_interference"] = bitraj.co_interference(
                    factors[0][0], factors[1][0], sa, sb, b, b
                )
            return {"results": res}

        out[key] = ("compose", cfg, compose_expected)

    # markov: a qubit at 12 times with a weights init
    rng = _rng(seed, 13)
    n_markov = 5 if tiny else 12
    sys_m = SystemSpec(dim=2, hamiltonian=random_hermitian(rng, 2))
    dev_m = basis_device(random_basis(rng, 2), "M")
    w0 = float(rng.uniform(0.2, 0.8))
    times_m = increasing_times(rng, n_markov)
    cfg_m = _base("markov", sys_m, [dev_m])
    cfg_m["init"] = {
        "weights": [
            {"device": "M", "outcome": "m0", "weight": w0},
            {"device": "M", "outcome": "m1", "weight": 1.0 - w0},
        ],
        "time": 0.0,
    }
    cfg_m["params"] = {"device": "M", "times": times_m}

    def markov_expected():
        init = phenomena.InitSpec(entries=((dev_m, "m0", w0), (dev_m, "m1", 1.0 - w0)), time=0.0)
        rep = bitraj.markov_delta(sys_m, dev_m, times_m, init)
        return {"results": {"delta": rep.delta, "checked": rep.checked, "excluded": rep.excluded}}

    out["markov"] = ("markov", cfg_m, markov_expected)

    # zeno: n_list up to 400
    rng = _rng(seed, 14)
    sys_z = SystemSpec(dim=2, hamiltonian=random_hermitian(rng, 2))
    dev_z = basis_device(random_basis(rng, 2), "M")
    total_z = float(rng.uniform(0.5, 2.0))
    n_list = [1, 10, 40] if tiny else [1, 10, 100, 400]
    cfg_z = _base("zeno", sys_z, [dev_z])
    cfg_z["params"] = {"device": "M", "outcome": "m0", "T": total_z, "n_list": n_list}

    def zeno_expected():
        series = bitraj.zeno_scan(sys_z, dev_z, "m0", total_z, n_list)
        return {"results": {"survival": list(series.survival), "rate": series.rate}}

    out["zeno"] = ("zeno", cfg_z, zeno_expected)

    # uncertainty: qutrit Fourier-partner devices, sampled estimate
    rng = _rng(seed, 15)
    sys_u = SystemSpec(dim=3, hamiltonian=random_hermitian(rng, 3))
    dev_k = basis_device(random_basis(rng, 3), "K")
    partner = bitraj.mub_partner(dev_k)
    dev_l = bitraj.Device(name="L", outcomes=partner.outcomes, projectors=partner.projectors)
    t_u = float(rng.uniform(0.0, 1.0))
    n_unc = 200 if tiny else 2000
    seed_u = int(rng.integers(2**31))
    cfg_u = _base("uncertainty", sys_u, [dev_k, dev_l])
    cfg_u["params"] = {
        "device_k": "K", "device_l": "L", "t": t_u, "n_samples": n_unc, "seed": seed_u,
    }

    def uncertainty_expected():
        exact = bitraj.uncertainty_matrix(sys_u, dev_k, dev_l, t_u)
        est = bitraj.estimate_uncertainty(sys_u, dev_k, dev_l, t_u, 0.0, n_unc, seed_u)
        return {
            "results": {
                "exact_matrix": _mat(exact),
                "empirical": {"exchange_error": est.exchange_error, "n_samples": n_unc},
            }
        }

    out["uncertainty"] = ("uncertainty", cfg_u, uncertainty_expected)

    # map-compare: a qubit with a qubit environment, slices 1-16, cross_check
    rng = _rng(seed, 16)
    sys_o = SystemSpec(dim=2, hamiltonian=random_hermitian(rng, 2))
    sys_e = SystemSpec(dim=2, hamiltonian=random_hermitian(rng, 2))
    c_sys, c_env = random_hermitian(rng, 2), random_hermitian(rng, 2)
    c_strength = float(rng.uniform(0.2, 0.8))
    env_rho = random_density(rng, 2)
    t_map = float(rng.uniform(0.5, 1.5))
    slices = [1, 2, 4] if tiny else list(range(1, 17))
    cfg_mc = {
        "schema_version": 1,
        "command": "map-compare",
        "system": {"dim": 2, "hamiltonian": _mat(sys_o.hamiltonian)},
        "environment": {"dim": 2, "hamiltonian": _mat(sys_e.hamiltonian)},
        "couplings": [{"op_system": _mat(c_sys), "op_environment": _mat(c_env), "strength": c_strength}],
        "env_init": {"density": _mat(env_rho)},
        "params": {"t": t_map, "slices": slices, "cross_check": True},
    }

    def map_expected():
        spec = bitraj.OpenSpec(
            system=sys_o,
            environment=sys_e,
            couplings=(bitraj.Coupling(op_a=c_sys, op_b=c_env, strength=c_strength),),
            env_state=State(env_rho),
        )
        exact = bitraj.dynamical_map_exact(spec, t_map)
        rows = []
        for n in slices:
            approx = bitraj.dynamical_map_bitraj(spec, t_map, n)
            rows.append({"residual": float(np.abs(approx.matrix - exact.matrix).max())})
        return {"results": {"slices": rows}}

    out["map-compare"] = ("map-compare", cfg_mc, map_expected)

    # sample: a 3-entry coarse qutrit schedule, about 5k trials
    rng = _rng(seed, 17)
    sys_s = SystemSpec(dim=3, hamiltonian=random_hermitian(rng, 3))
    dev_sa = basis_device(random_basis(rng, 3), "A")
    dev_sb = basis_device(random_basis(rng, 3), "B")
    init_s = State(random_density(rng, 3), time_tag=0.0)
    times_s = increasing_times(rng, 3)
    n_sample = 500 if tiny else 5000
    seed_s = int(rng.integers(2**31))
    pair_block = {"blocks": [["b0", "b1"], ["b2"]], "labels": ["b01", "b2"]}
    cfg_s = _base("sample", sys_s, [dev_sa, dev_sb], [
        {"time": times_s[0], "device": "A"},
        {"time": times_s[1], "device": "B", "resolution": pair_block},
        {"time": times_s[2], "device": "A"},
    ], init_s)
    cfg_s["params"] = {"n_samples": n_sample, "seed": seed_s}

    def sample_expected():
        res = bitraj.Resolution(dev_sb, (("b0", "b1"), ("b2",)), ("b01", "b2"))
        cs = bitraj.CoarseSchedule(
            entries=((times_s[0], dev_sa, None), (times_s[1], dev_sb, res), (times_s[2], dev_sa, None)),
            init=init_s,
        )
        run = bitraj.sample_sequences(sys_s, cs, n_sample, seed_s)
        return {
            "results": {"n_samples": n_sample, "observed_cells": len(run.counts)},
            "counts": counts_digest(run),
        }

    out["sample"] = ("sample", cfg_s, sample_expected)

    # classical: commuting devices (diagonal Hamiltonian and readouts)
    rng = _rng(seed, 18)
    h_diag = np.diag(rng.normal(size=3)).astype(complex)
    sys_k = SystemSpec(dim=3, hamiltonian=h_diag)
    dev_kz = basis_device(np.eye(3, dtype=complex), "Z")
    init_k = State(random_density(rng, 3), time_tag=0.0)
    times_k = increasing_times(rng, 3)
    cfg_k = _base("classical", sys_k, [dev_kz], [{"time": t, "device": "Z"} for t in times_k], init_k)

    def classical_expected():
        sched = bitraj.Schedule(entries=tuple((t, dev_kz) for t in times_k), init=init_k)
        diag = bitraj.classical_diagnostic(bitraj.biprob_table(sys_k, sched))
        return {
            "results": {
                "offdiag_mass": diag.offdiag_mass,
                "surrogate_returned": diag.surrogate is not None,
            }
        }

    out["classical"] = ("classical", cfg_k, classical_expected)
    return out


class CliVerbs:
    """One ``python -m bitraj.cli <verb>`` subprocess per op, cycling all verbs."""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.workdir = Path(workdir)
        self.import_module = "bitraj.cli"
        self.env = child_env()
        self.reports: list[tuple[str, int, dict | None, list[str]]] = []
        self.startup: list[float] = []
        self.exit_nonzero = 0

    def setup(self) -> None:
        compileall.compile_dir(str(Path(bitraj.__file__).resolve().parent), quiet=1)
        self.configs = cli_configs(self.seed, self.tiny)
        self.cycle = list(self.configs)
        cfg_dir = self.workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for key, (verb, cfg, _) in self.configs.items():
            path = cfg_dir / f"{key}.json"
            path.write_text(json.dumps(cfg))
            self.paths[key] = path
        self.run("verify", -1)

    def run(self, key: str, k: int, tracer=None):
        verb = self.configs[key][0]
        out_dir = self.workdir / "ops" / key
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "report.json"
        if report_path.exists():
            report_path.unlink()
        argv = [verb, "--config", str(self.paths[key]), "--out", str(out_dir)]
        if tracer is None:
            cmd = [sys.executable, "-m", "bitraj.cli", *argv]
        else:
            spans = out_dir / "spans.json"
            cmd = [sys.executable, str(CHILD), "--spans", str(spans), *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=150)
        wall = time.perf_counter() - t0
        if tracer is not None and spans.exists():
            blob = json.loads(spans.read_text())
            spans.unlink()
            tracer.graft(blob, parent=tracer.current())
            main_wall = sum(
                end - start
                for start, end, parent in zip(blob["starts"], blob["ends"], blob["parents"])
                if parent < 0
            )
            self.startup.append(wall - main_wall)
        report = json.loads(report_path.read_text()) if report_path.exists() else None
        return 1, (proc.returncode, proc.stderr, report, out_dir)

    def check(self, key: str, k: int, payload) -> list[str]:
        code, stderr, report, out_dir = payload
        if code != 0:
            self.exit_nonzero += 1
        failures = gate.check_cli_exit(code, report, stderr)
        if not failures and key == "table":
            failures += gate.check_table_csv(out_dir / "table.csv", report)
        self.reports.append((key, k, report, failures))
        return failures

    def finish(self) -> dict[str, list[str]]:
        """Compare each op's key results with the in-process library values,
        then delete the ops' artifacts."""
        expected = {}
        mismatches = []
        for key, k, report, failures in self.reports:
            if report is None or failures:
                continue
            problems = []
            if key not in expected:
                # Artifacts are rewritten by every op of a key (same config),
                # so the files are checked once.
                expected[key] = exp = self.configs[key][2]()
                out_dir = self.workdir / "ops" / key
                if key == "table":
                    problems += gate.check_table_entries(out_dir / "table.csv", exp["table"])
                if key == "sample":
                    run_json = json.loads((out_dir / "run.json").read_text())
                    if canonical_digest(run_json["counts"]) != exp["counts"]:
                        problems.append("counts differ from the in-process run")
            problems += gate.compare_results(report["results"], expected[key]["results"])
            mismatches += [f"{key} op {k}: {p}" for p in problems]
        shutil.rmtree(self.workdir / "ops", ignore_errors=True)  # table.csv alone is ~8 MB
        return {"library_agreement": mismatches}

    def details(self) -> dict:
        return {
            "input_digest": canonical_digest({k: cfg for k, (v, cfg, _) in self.configs.items()}),
            "work_unit": "CLI invocations",
            "exit_nonzero": self.exit_nonzero,
        }
