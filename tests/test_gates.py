"""Every tolerance gate of the library fails on a NaN route value.

Each case makes one value that a gate compares NaN, by patching a route the
gate reads or by handing it an input object that yields NaN where the route
computes, and requires the gate's own error.  The ``match`` pins the gate's
leading text, so an error raised further on does not count.  The two
lower-bound guards (``lab._Nodes.add`` and ``conditional_prob``) are driven
the same way.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from bitraj import coarse, composite, core, engine, lab, master, phenomena
from bitraj.core import Device, State, SystemSpec
from bitraj.engine import ConsistencyError, Schedule, biprob_table

NAN = float("nan")
SX = np.array([[0, 1], [1, 0]], dtype=complex)
UP = np.diag([1.0, 0.0]).astype(complex)
DN = np.diag([0.0, 1.0]).astype(complex)
PX = 0.5 * (np.eye(2) + SX)
DEVZ = Device(name="Z", outcomes=("u", "d"), projectors=(UP, DN))
DEVX = Device(name="X", outcomes=("+", "-"), projectors=(PX, np.eye(2) - PX))
RABI = SystemSpec(dim=2, hamiltonian=0.5 * SX)
ZX = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=State(UP))


class _NanProduct(np.ndarray):
    """A projector whose product with itself (``square``) or with another one reads NaN."""

    square = True

    def __matmul__(self, other):
        if (other is self) == self.square:
            return np.full(self.shape, np.nan, dtype=complex)
        return np.asarray(self) @ np.asarray(other)


def _nan_products(*projs, square):
    """Views of ``projs`` whose products read NaN: each with itself, or with the others."""
    out = []
    for p in projs:
        view = p.view(_NanProduct)
        view.square = square
        out.append(view)
    return tuple(out)


def _device(projectors):
    """A device as ``validate_device`` reads one (outcomes 0, 1, ...), left unvalidated."""
    outcomes = tuple(range(len(projectors)))
    return SimpleNamespace(name="n", outcomes=outcomes, projectors=projectors)


def _numpy(linalg=None, **functions):
    """numpy as a module reads it, with ``functions`` (and ``linalg`` ones) replaced."""
    np_linalg = SimpleNamespace(**{**vars(np.linalg), **(linalg or {})})
    return SimpleNamespace(**{**vars(np), **functions, "linalg": np_linalg})


class _Times(tuple):
    """A schedule as far as ``_check_tandem`` reads one: its length and its times."""

    @property
    def times(self):
        return self


ZX_TABLE = biprob_table(RABI, ZX)
COARSE_ZX = coarse.CoarseSchedule(
    entries=((1.0, DEVX, coarse.Resolution.full(DEVX)), (2.0, DEVZ, None)), init=State(UP)
)
BI = engine.BiSequence.diagonal(("+", "u"))
NAN_TRACE = _numpy(trace=lambda a: complex(NAN))

# (id, error, leading text of the gate's message, [(module, name, patched value)], call)
CASES = [
    ("core-check-hermitian", ValueError, "hamiltonian is not Hermitian", [],
     lambda: core._check_hermitian(np.full((2, 2), NAN), "hamiltonian")),
    ("core-projector-hermitian", ValueError, "projector 0 is not Hermitian", [],
     lambda: core.validate_device(_device((np.full((1, 1), NAN, dtype=complex),)))),
    ("core-projector-idempotent", ValueError, "projector 0 is not idempotent", [],
     lambda: core.validate_device(_device(_nan_products(np.eye(1), square=True)))),
    ("core-projectors-orthogonal", ValueError, "projectors 0 and 1 are not orthogonal", [],
     lambda: core.validate_device(_device(_nan_products(UP, DN, square=False)))),
    ("core-projectors-complete", ValueError, "projectors do not sum to the identity",
     [(core, "np", _numpy(eye=lambda d: np.full((d, d), NAN)))],
     lambda: core.validate_device(_device((UP, DN)))),
    ("core-state-trace", ValueError, "density matrix trace", [(core, "np", NAN_TRACE)],
     lambda: State(UP)),
    ("core-state-negative", ValueError, "negative eigenvalue",
     [(core, "np", _numpy(linalg={"eigvalsh": lambda a: np.array([NAN])}))],
     lambda: State(UP)),
    ("engine-gudder-trace", ValueError, "table trace", [(engine, "np", NAN_TRACE)],
     lambda: engine.gudder_metric(ZX_TABLE)),
    ("engine-uniform-bound", ValueError, "exceeds the analytic bound",
     [(engine, "_mass", lambda m: NAN)],
     lambda: engine.uniform_bound_check(RABI, DEVZ, 1.0, 2)),
    ("coarse-interference-routes", ConsistencyError, "interference routes disagree",
     [(coarse, "biprob", lambda *a: complex(NAN))],
     lambda: coarse.interference_term(RABI, ZX, 0, ("+", "-"), ("+", "u"))),
    ("coarse-pairwise-recurrence", ConsistencyError, "pairwise recurrence",
     [(coarse, "chain_probability", lambda *a: NAN)],
     lambda: coarse.pairwise_decompose(RABI, COARSE_ZX, ("any", "u"))),
    ("composite-time-tags", ValueError, "time tags differ", [],
     lambda: composite.product_state(State(UP), SimpleNamespace(time_tag=NAN, density=UP))),
    ("composite-tandem-times", ValueError, "tandem schedules must share times", [],
     lambda: composite._check_tandem(_Times([1.0]), _Times([NAN]))),
    ("composite-co-interference", ConsistencyError, "co-interference",
     [(composite, "biprob", lambda *a: complex(NAN))],
     lambda: composite.co_interference(RABI, RABI, ZX, ZX, BI, BI)),
    ("master-coordinate-unitary", ValueError, "coordinate basis", [],
     lambda: master.CoordTau(time=0.0, basis=np.full((2, 2), NAN))),
    ("master-couplings-commute", ValueError, "do not commute", [],
     lambda: master._env_blocks(SimpleNamespace(
         environment=SimpleNamespace(dim=2),
         couplings=(SimpleNamespace(op_b=np.full((2, 2), NAN)), SimpleNamespace(op_b=SX)),
     ))),
    ("master-moment-routes", ConsistencyError, "moment routes disagree",
     [(master, "_heisenberg", lambda system, ops, t: tuple(np.full_like(x, NAN) for x in ops))],
     lambda: master.two_time_commutator(RABI, SX, UP, 1.0, 0.5, State(UP))),
    ("phenomena-init-weights", ValueError, "initialization weights sum to", [],
     lambda: phenomena.InitSpec(entries=((DEVZ, "u", NAN),))),
    ("phenomena-zeno-scan-rank", ValueError, "survival scans need a rank-one readout",
     [(phenomena, "np", NAN_TRACE)],
     lambda: phenomena.zeno_scan(RABI, DEVZ, "u", 1.0, [1, 2])),
    ("phenomena-zeno-rate-rank", ValueError, "decay rate is defined for rank-one",
     [(phenomena, "np", NAN_TRACE)],
     lambda: phenomena.zeno_rate(RABI, DEVZ, "u", 0.0)),
    ("phenomena-zeno-linear", ConsistencyError, "survival linear term",
     [(phenomena, "chain_probability", lambda *a: NAN)],
     lambda: phenomena.zeno_rate(RABI, DEVZ, "u", 0.0)),
    ("phenomena-zeno-variance", ConsistencyError, "finite-difference rate",
     [(phenomena, "np", _numpy(linalg={
         "eigh": lambda a: (np.linalg.eigvalsh(a), np.full(a.shape, NAN, dtype=complex))}))],
     lambda: phenomena.zeno_rate(RABI, DEVZ, "u", 0.0)),
    ("phenomena-overlap-drift", ConsistencyError, "overlap matrix drifted",
     [(phenomena, "propagator", lambda system, t: np.full((2, 2), NAN, dtype=complex))],
     lambda: phenomena.uncertainty_matrix(RABI, DEVZ, DEVX, 0.0)),
    # the two lower-bound guards
    ("lab-born-weights", ConsistencyError, "vanished",
     [(lab, "_TABLES", lab._TableMemo()), (lab, "_born", lambda projs, rho: np.full(2, NAN))],
     lambda: lab._run_trials(UP, [np.stack([UP, DN])], seed=0, n_samples=4)),
    ("phenomena-conditioning-event", ValueError, "conditioning on a null event",
     [(phenomena, "chain_probabilities", lambda *a: np.full(2, NAN))],
     lambda: phenomena.conditional_prob(RABI, ZX, ("+",), "u")),
]


@pytest.mark.parametrize(
    "error, match, patches, call", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_a_nan_route_value_fails_the_gate(monkeypatch, error, match, patches, call):
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    with pytest.raises(error, match=match):
        call()


def test_a_consistency_error_carries_its_gap_and_bound():
    with pytest.raises(ConsistencyError) as info:
        core._within("routes disagree", 3e-10, 1e-10, ConsistencyError)
    assert (info.value.gap, info.value.bound) == (3e-10, 1e-10)
    assert str(info.value) == "routes disagree (gap 3e-10, bound 1e-10)"
    core._within("routes agree", 1e-10, 1e-10, ConsistencyError)  # the bound itself passes
