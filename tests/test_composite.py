import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitraj import (
    BiSequence,
    CompositeSpec,
    Coupling,
    Device,
    Schedule,
    State,
    SystemSpec,
    co_interference,
    compose,
    factorization_delta,
    identical_relations_check,
    interference_term,
    product_state,
)
from bitraj.engine import ConsistencyError

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
UP = np.diag([1.0, 0.0]).astype(complex)
DN = np.diag([0.0, 1.0]).astype(complex)
PX = 0.5 * (np.eye(2) + SX)
PY = 0.5 * (np.eye(2) + SY)

DEVZ = Device(name="Z", outcomes=("u", "d"), projectors=(UP, DN))
DEVX = Device(name="X", outcomes=("+", "-"), projectors=(PX, np.eye(2) - PX))
DEVY = Device(name="Y", outcomes=("+i", "-i"), projectors=(PY, np.eye(2) - PY))

UP_STATE = State(UP, time_tag=0.0)
PLUS_STATE = State(PX, time_tag=0.0)

SYS_A = SystemSpec(dim=2, hamiltonian=0.5 * SZ)
SYS_B = SystemSpec(dim=2, hamiltonian=0.3 * SX)
SCHED_A = Schedule(entries=((0.6, DEVX), (1.4, DEVZ)), init=UP_STATE)
SCHED_B = Schedule(entries=((0.6, DEVZ), (1.4, DEVX)), init=PLUS_STATE)


def test_compose_joint_hamiltonian():
    spec = CompositeSpec(factor_a=SYS_A, factor_b=SYS_B, couplings=())
    joint = compose(spec)
    assert joint.dim == 4
    expected = np.kron(0.5 * SZ, np.eye(2)) + np.kron(np.eye(2), 0.3 * SX)
    assert np.abs(joint.hamiltonian - expected).max() < 1e-14


def test_compose_with_coupling():
    spec = CompositeSpec(
        factor_a=SYS_A,
        factor_b=SYS_B,
        couplings=(Coupling(op_a=SX, op_b=SX, strength=0.8),),
    )
    joint = compose(spec)
    expected = (
        np.kron(0.5 * SZ, np.eye(2))
        + np.kron(np.eye(2), 0.3 * SX)
        + 0.8 * np.kron(SX, SX)
    )
    assert np.abs(joint.hamiltonian - expected).max() < 1e-14


def test_compose_rejects_non_hermitian_coupling():
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    spec = CompositeSpec(
        factor_a=SYS_A, factor_b=SYS_B, couplings=(Coupling(op_a=lower, op_b=SX),)
    )
    with pytest.raises(ValueError):
        compose(spec)


def test_product_state():
    joint = product_state(UP_STATE, PLUS_STATE)
    assert joint.dim == 4
    assert np.abs(joint.density - np.kron(UP, PX)).max() < 1e-14


def test_uncoupled_factorization():
    delta = factorization_delta(SYS_A, SYS_B, SCHED_A, SCHED_B)
    assert delta <= 1e-9


def test_coupled_factorization_breaks():
    # pinned regression: sigma_x x sigma_x coupling at strength 0.8 moves the
    # joint table far from the product
    delta = factorization_delta(
        SYS_A, SYS_B, SCHED_A, SCHED_B, couplings=(Coupling(op_a=SX, op_b=SX, strength=0.8),)
    )
    assert delta > 1e-2
    assert delta == pytest.approx(0.1024218687575291, rel=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_factorization_random_uncoupled(seed):
    rng = np.random.default_rng(400 + seed)

    def rand_sys(dim, s):
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return SystemSpec(dim=dim, hamiltonian=0.5 * (h + h.conj().T))

    def rand_dev(dim, name):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        v = np.linalg.qr(a)[0]
        projs = tuple(np.outer(v[:, k], v[:, k].conj()) for k in range(dim))
        return Device(name=name, outcomes=tuple(range(dim)), projectors=projs)

    da, db = 2, 3
    sa = rand_sys(da, seed)
    sb = rand_sys(db, seed)
    t = sorted(rng.uniform(0.2, 2.0, size=2))
    sched_a = Schedule(
        entries=((t[0], rand_dev(da, "A0")), (t[1], rand_dev(da, "A1"))),
        init=State(np.eye(da) / da),
    )
    sched_b = Schedule(
        entries=((t[0], rand_dev(db, "B0")), (t[1], rand_dev(db, "B1"))),
        init=State(np.eye(db) / db),
    )
    assert factorization_delta(sa, sb, sched_a, sched_b) <= 1e-9


# ---------------------------------------------------------------------------
# co-interference: for independent subsystems the joint interference differs
# from the product of subsystem interferences by -Im(Q_A) Im(Q_B).  On the
# free-qubit X,Y schedule each factor has Q = i/4, so phi = -1/16.

XY_SYSTEM = SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))
XY_SCHED = Schedule(entries=((1.0, DEVX), (2.0, DEVY)), init=UP_STATE)
XY_BI = BiSequence(("+", "-i"), ("-", "-i"))


def test_co_interference_is_minus_sixteenth():
    phi = co_interference(XY_SYSTEM, XY_SYSTEM, XY_SCHED, XY_SCHED, XY_BI, XY_BI)
    assert phi == pytest.approx(-1.0 / 16.0, abs=1e-12)


def test_co_interference_rejects_couplings():
    with pytest.raises(ValueError, match="independent"):
        co_interference(
            XY_SYSTEM,
            XY_SYSTEM,
            XY_SCHED,
            XY_SCHED,
            XY_BI,
            XY_BI,
            couplings=(Coupling(op_a=SX, op_b=SX),),
        )


def test_identical_relations_xy():
    rep = identical_relations_check(
        XY_SYSTEM, XY_SCHED, 0, ("+", "-"), ("+", "-"), ("+", "-i")
    )
    assert rep.phi_ab == pytest.approx(-1.0 / 16.0, abs=1e-12)
    assert rep.nonpositive
    assert rep.antisymmetry_error <= 1e-12
    assert rep.sqrt_identity_error <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_identical_relations_random(seed):
    rng = np.random.default_rng(500 + seed)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    system = SystemSpec(dim=2, hamiltonian=0.5 * (h + h.conj().T))

    def rand_dev(name, s):
        a = np.random.default_rng(s).normal(size=(2, 2)) + 1j * np.random.default_rng(
            s + 1
        ).normal(size=(2, 2))
        v = np.linalg.qr(a)[0]
        projs = tuple(np.outer(v[:, k], v[:, k].conj()) for k in range(2))
        return Device(name=name, outcomes=("0", "1"), projectors=projs)

    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    sched = Schedule(
        entries=((0.5, rand_dev("D0", 600 + seed)), (1.3, rand_dev("D1", 700 + seed))),
        init=State(np.outer(psi, psi.conj())),
    )
    rep = identical_relations_check(system, sched, 0, ("0", "1"), ("0", "1"), ("0", "1"))
    assert rep.nonpositive
    assert rep.antisymmetry_error <= 1e-10
    assert rep.sqrt_identity_error <= 1e-10


# ---------------------------------------------------------------------------
# the fixed 1e-10 route gates across Hamiltonian scales


@st.composite
def tandem_cases(draw):
    """Two independent systems measured at shared times.

    Dimension 2-4 each, 2-3 entries, random bases, full-rank states and
    ||H||_2 from 1e-2 to 1e3; one bi-sequence per system.
    """
    n = draw(st.integers(2, 3))
    dims = draw(st.lists(st.integers(2, 4), min_size=2, max_size=2))
    log_scale = draw(st.floats(-2.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    times = np.cumsum(rng.uniform(0.1, 1.0, size=n))
    parts = []
    for dim in dims:
        h = gaussian(dim, dim)
        h = h + h.conj().T
        system = SystemSpec(dim=dim, hamiltonian=h * 10.0**log_scale / np.linalg.norm(h, 2))
        a = gaussian(dim, dim)
        init = State(a @ a.conj().T / np.trace(a @ a.conj().T).real)
        entries = []
        for j, t in enumerate(times):
            v = np.linalg.qr(gaussian(dim, dim))[0]
            projs = tuple(np.outer(v[:, k], v[:, k].conj()) for k in range(dim))
            dev = Device(name=f"D{j}", outcomes=tuple(range(dim)), projectors=projs)
            entries.append((float(t), dev))
        bi = BiSequence(*(tuple(int(f) for f in rng.integers(0, dim, size=n)) for _ in range(2)))
        parts.append((system, Schedule(entries=tuple(entries), init=init), bi))
    return parts


@settings(max_examples=40)
@given(tandem_cases())
def test_fixed_route_gates_hold_across_hamiltonian_scales(case):
    # both routes compare values bounded by 1 in magnitude (probabilities and
    # bi-probabilities), so their round-off does not grow with ||H||; neither
    # call may raise ConsistencyError
    for system, sched, bi in case:
        for pos, f in enumerate(bi.plus):
            pair = (f, (f + 1) % system.dim)
            interference_term(system, sched, pos, pair, bi.plus)
    (sys_a, sched_a, bi_a), (sys_b, sched_b, bi_b) = case
    co_interference(sys_a, sys_b, sched_a, sched_b, bi_a, bi_b)
