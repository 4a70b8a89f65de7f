import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitraj import (
    CoordTau,
    Coupling,
    Device,
    OpenSpec,
    Schedule,
    State,
    Superoperator,
    SystemSpec,
    biprob_table,
    classical_diagnostic,
    dynamical_map_bitraj,
    dynamical_map_exact,
    gellmann_generators,
    observable_restriction_delta,
    system_biprob,
    two_time_commutator,
)
from bitraj.master import CommutatorMoment, _env_blocks, piecewise_propagator

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
UP = np.diag([1.0, 0.0]).astype(complex)
DN = np.diag([0.0, 1.0]).astype(complex)
PX = 0.5 * (np.eye(2) + SX)

DEVZ = Device(name="Z", outcomes=("u", "d"), projectors=(UP, DN))
DEVX = Device(name="X", outcomes=("+", "-"), projectors=(PX, np.eye(2) - PX))
UP_STATE = State(UP, time_tag=0.0)


def random_fine_device(dim, seed, name="D"):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    v = np.linalg.qr(a)[0]
    projs = tuple(np.outer(v[:, k], v[:, k].conj()) for k in range(dim))
    return Device(name=name, outcomes=tuple(range(dim)), projectors=projs)


# ---------------------------------------------------------------------------
# generator basis


def test_gellmann_d2_is_pauli():
    t = gellmann_generators(2)
    assert len(t) == 3
    assert np.abs(t[0] - SX).max() < 1e-14
    assert np.abs(t[1] - SY).max() < 1e-14
    assert np.abs(t[2] - SZ).max() < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gellmann_orthogonality(d):
    gens = gellmann_generators(d)
    assert len(gens) == d * d - 1
    for i, a in enumerate(gens):
        assert np.abs(a - a.conj().T).max() < 1e-14
        assert abs(np.trace(a)) < 1e-14
        for j, b in enumerate(gens):
            ip = np.trace(a @ b).real
            assert ip == pytest.approx(2.0 if i == j else 0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# measurement coordinates


def test_coordtau_requires_unitary():
    with pytest.raises(ValueError):
        CoordTau(0.0, np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex))


def test_coordtau_from_generators_zero_is_identity():
    coord = CoordTau.from_generators(0.5, [0.0, 0.0, 0.0])
    assert np.abs(coord.basis - np.eye(2)).max() < 1e-12
    assert coord.dim == 2


def test_coordtau_from_generators_unitary():
    rng = np.random.default_rng(5)
    taus = rng.normal(size=8)  # d = 3
    coord = CoordTau.from_generators(1.0, taus)
    assert coord.dim == 3
    s = coord.basis
    assert np.abs(s @ s.conj().T - np.eye(3)).max() < 1e-10


def test_system_biprob_single_coordinate():
    sys2 = SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))
    coord = CoordTau(0.0, np.eye(2, dtype=complex))
    assert system_biprob(sys2, [coord], (0,), (0,)) == pytest.approx(1.0 + 0j, abs=1e-14)
    assert system_biprob(sys2, [coord], (0,), (1,)) == pytest.approx(0.0, abs=1e-14)


def test_system_biprob_reproduces_zx_quarter():
    # the coordinate chain for the free-qubit X,Z schedule: frame rows are
    # the readout eigenvectors, the first coordinate anchors the pure init
    sys2 = SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))
    vx = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    coords = [
        CoordTau(0.0, np.eye(2, dtype=complex)),
        CoordTau(1.0, vx.conj().T),
        CoordTau(2.0, np.eye(2, dtype=complex)),
    ]
    q = system_biprob(sys2, coords, (0, 0, 0), (0, 1, 0))
    assert q == pytest.approx(0.25 + 0j, abs=1e-12)


def test_system_biprob_rejects_decreasing_times():
    sys2 = SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))
    coords = [CoordTau(1.0, np.eye(2, dtype=complex)), CoordTau(0.0, np.eye(2, dtype=complex))]
    with pytest.raises(ValueError):
        system_biprob(sys2, coords, (0, 0), (0, 0))


@pytest.mark.parametrize("seed", range(6))
def test_observable_restriction_random(seed):
    rng = np.random.default_rng(777 + seed)
    dim = 2 + seed % 2
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    system = SystemSpec(dim=dim, hamiltonian=0.5 * (h + h.conj().T))
    devs = [random_fine_device(dim, 800 + 10 * seed + k, f"D{k}") for k in range(2)]
    times = np.cumsum(rng.uniform(0.3, 1.0, size=2))
    if rng.random() < 0.5:
        w = rng.dirichlet(np.ones(dim))
        u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        rho = (u * w) @ u.conj().T
    else:
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
    sched = Schedule(entries=tuple(zip(times, devs)), init=State(rho))
    assert observable_restriction_delta(system, sched) <= 1e-9


# ---------------------------------------------------------------------------
# superoperators


def test_superoperator_rejects_non_tp():
    with pytest.raises(ValueError):
        Superoperator(2, 0.5 * np.eye(4, dtype=complex))


def test_superoperator_identity():
    s = Superoperator(2, np.eye(4, dtype=complex))
    rho = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    assert np.abs(s.apply(rho) - rho).max() < 1e-14
    assert s.trace_preservation_error() < 1e-14
    assert s.is_trace_preserving()
    # Choi operator of the identity map is the maximally entangled projector
    choi = s.choi()
    assert abs(np.trace(choi).real - 2.0) < 1e-12
    assert s.min_choi_eigenvalue() >= -1e-12
    blob = s.to_json()
    assert blob["dim"] == 2
    assert blob["vectorization"] == "column-major"


def test_dynamical_map_exact_unitary_case():
    # no coupling: the reduced map is just conjugation by the system propagator
    spec = OpenSpec(
        system=SystemSpec(dim=2, hamiltonian=0.5 * SZ),
        environment=SystemSpec(dim=2, hamiltonian=0.7 * SX),
        couplings=(),
        env_state=State(np.eye(2) / 2),
    )
    lam = dynamical_map_exact(spec, 1.3)
    rho = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    u = np.diag(np.exp(-1j * 1.3 * np.array([0.5, -0.5])))
    assert np.abs(lam.apply(rho) - u @ rho @ u.conj().T).max() < 1e-12


DEPHASING = OpenSpec(
    system=SystemSpec(dim=2, hamiltonian=np.zeros((2, 2))),
    environment=SystemSpec(dim=2, hamiltonian=np.zeros((2, 2))),
    couplings=((SZ, 0.37 * SZ),),  # bare pairs are accepted
    env_state=State(np.eye(2) / 2),
)


def test_dephasing_map_single_slice_is_exact():
    exact = dynamical_map_exact(DEPHASING, 1.7)
    approx = dynamical_map_bitraj(DEPHASING, 1.7, 1)
    assert np.abs(approx.matrix - exact.matrix).max() <= 1e-10


def test_dephasing_coherence_factor():
    # mixed-environment dephasing damps coherences by cos(2 * lambda * t)
    t = 1.7
    lam = dynamical_map_exact(DEPHASING, t)
    rho_plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    out = lam.apply(rho_plus)
    assert out[0, 1] == pytest.approx(0.5 * math.cos(2 * 0.37 * t), abs=1e-12)


NONCOMMUTING = OpenSpec(
    system=SystemSpec(dim=2, hamiltonian=0.5 * SX),
    environment=SystemSpec(dim=2, hamiltonian=0.7 * SZ),
    couplings=(Coupling(op_a=SZ, op_b=SX, strength=0.45),),
    env_state=State(np.diag([0.8, 0.2]).astype(complex)),
)


def test_noncommuting_map_refines():
    exact = dynamical_map_exact(NONCOMMUTING, 1.3)
    r8 = float(np.abs(dynamical_map_bitraj(NONCOMMUTING, 1.3, 8).matrix - exact.matrix).max())
    r32 = float(np.abs(dynamical_map_bitraj(NONCOMMUTING, 1.3, 32).matrix - exact.matrix).max())
    assert r32 < r8
    # pinned residuals
    assert r8 == pytest.approx(1.561194864e-03, rel=1e-6)
    assert r32 == pytest.approx(9.737939792e-05, rel=1e-6)


def test_noncommuting_map_is_tp_and_cp():
    m = dynamical_map_bitraj(NONCOMMUTING, 1.3, 8)
    assert m.trace_preservation_error() <= 1e-8
    assert m.min_choi_eigenvalue() >= -1e-9


@pytest.mark.parametrize("slices", [1, 2, 3])
def test_enumeration_matches_transfer(slices):
    enum = dynamical_map_bitraj(NONCOMMUTING, 1.3, slices, via_enumeration=True)
    transfer = dynamical_map_bitraj(NONCOMMUTING, 1.3, slices)
    assert np.abs(enum.matrix - transfer.matrix).max() <= 1e-12


def _herm(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (a + a.conj().T)


def _qutrit_environment_spec():
    # two commuting couplings (functions of one observable, the second with a
    # repeated eigenvalue) and a rank-2 environment state on three levels
    rng = np.random.default_rng(2024)
    w, v = np.linalg.eigh(_herm(rng, 3))
    obs_1 = (v * w) @ v.conj().T
    obs_2 = (v * np.array([1.0, -1.0, -1.0])) @ v.conj().T
    a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    rho = a @ a.conj().T
    return OpenSpec(
        system=SystemSpec(dim=2, hamiltonian=_herm(rng, 2)),
        environment=SystemSpec(dim=3, hamiltonian=_herm(rng, 3)),
        couplings=(Coupling(_herm(rng, 2), obs_1, 0.6), Coupling(_herm(rng, 2), obs_2, 0.3)),
        env_state=State(rho / np.trace(rho).real),
    )


@pytest.mark.parametrize("t", [1.3, 0.0, -1.0, -2.5])
@pytest.mark.parametrize("slices", [1, 2, 3, 4])
def test_enumeration_matches_transfer_at_any_sign_of_time(slices, t):
    spec = _qutrit_environment_spec()
    assert np.linalg.matrix_rank(spec.env_state.density) == 2
    enum = dynamical_map_bitraj(spec, t, slices, via_enumeration=True)
    transfer = dynamical_map_bitraj(spec, t, slices)
    assert np.abs(enum.matrix - transfer.matrix).max() <= 1e-12


@pytest.mark.parametrize("factor", [1.0, 0.5, 1e-3])
def test_env_blocks_keep_a_zero_eigenspace_whole(factor):
    # on the kernel of p the second coupling restricts to round-off; it must
    # not split that block, whose own spectrum is nothing but that round-off
    rng = np.random.default_rng(77)
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    p = (q * np.array([1.0, 1.0, 0.0, 0.0])) @ q.conj().T
    spec = OpenSpec(
        system=SystemSpec(dim=2, hamiltonian=0.5 * SX),
        environment=SystemSpec(dim=4, hamiltonian=np.zeros((4, 4))),
        couplings=(Coupling(op_a=SZ, op_b=p), Coupling(op_a=SX, op_b=factor * p)),
        env_state=State(np.eye(4) / 4),
    )
    assert [np.trace(proj).real.round(12) for _, proj in _env_blocks(spec)] == [2.0, 2.0]


def test_noncommuting_env_couplings_rejected():
    spec = OpenSpec(
        system=SystemSpec(dim=2, hamiltonian=0.5 * SX),
        environment=SystemSpec(dim=2, hamiltonian=0.7 * SZ),
        couplings=(Coupling(op_a=SZ, op_b=SX), Coupling(op_a=SX, op_b=SZ)),
        env_state=State(np.diag([0.8, 0.2]).astype(complex)),
    )
    with pytest.raises(ValueError, match="commute"):
        dynamical_map_bitraj(spec, 1.0, 2)


def test_openspec_validates_coupling_shapes():
    with pytest.raises(ValueError):
        OpenSpec(
            system=SystemSpec(dim=2, hamiltonian=np.zeros((2, 2))),
            environment=SystemSpec(dim=3, hamiltonian=np.zeros((3, 3))),
            couplings=((SZ, SZ),),  # op_b is 2x2, environment is 3-dim
            env_state=State(np.eye(3) / 3),
        )


def test_openspec_joint_hamiltonian():
    spec = OpenSpec(
        system=SystemSpec(dim=2, hamiltonian=0.5 * SX),
        environment=SystemSpec(dim=2, hamiltonian=0.7 * SZ),
        couplings=(Coupling(op_a=SZ, op_b=SX, strength=0.45),),
        env_state=State(np.eye(2) / 2),
    )
    expected = (
        np.kron(0.5 * SX, np.eye(2))
        + np.kron(np.eye(2), 0.7 * SZ)
        + 0.45 * np.kron(SZ, SX)
    )
    assert np.abs(spec.joint_hamiltonian() - expected).max() < 1e-14


@pytest.mark.parametrize("seed", range(12))
def test_openspec_joint_hamiltonian_is_the_kron_sum_bit_for_bit(seed):
    rng = np.random.default_rng(3100 + seed)
    d_o, d_e = (int(x) for x in rng.integers(2, 5, size=2))
    h_o, h_e = _herm(rng, d_o), _herm(rng, d_e)
    couplings = [
        Coupling(_herm(rng, d_o), _herm(rng, d_e), float(rng.uniform(0.1, 2.0)))
        for _ in range(seed % 3)
    ]
    spec = OpenSpec(
        system=SystemSpec(dim=d_o, hamiltonian=h_o),
        environment=SystemSpec(dim=d_e, hamiltonian=h_e),
        couplings=tuple(couplings),
        env_state=State(np.eye(d_e) / d_e),
    )
    expected = np.kron(h_o, np.eye(d_e)) + np.kron(np.eye(d_o), h_e)
    for c in couplings:
        expected = expected + c.strength * np.kron(c.op_a, c.op_b)
    assert np.array_equal(spec.joint_hamiltonian(), expected)


def _wide_spec():
    return OpenSpec(
        system=SystemSpec(dim=8, hamiltonian=np.diag(np.arange(8.0))),
        environment=SystemSpec(dim=9, hamiltonian=np.diag(0.5 * np.arange(9.0))),
        couplings=(),
        env_state=State(np.eye(9) / 9),
    )


def test_exact_map_obeys_the_dimension_cap(monkeypatch):
    monkeypatch.delenv("BITRAJ_MAX_DIM", raising=False)
    with pytest.raises(ValueError, match="dimension 72 exceeds the cap 64"):
        dynamical_map_exact(_wide_spec(), 0.4)
    # the bi-trajectory map never builds the joint system
    assert dynamical_map_bitraj(_wide_spec(), 0.4, 1).is_trace_preserving()
    # only the variable lifts the cap
    monkeypatch.setenv("BITRAJ_MAX_DIM", "100")
    assert dynamical_map_exact(_wide_spec(), 0.4).is_trace_preserving()


# ---------------------------------------------------------------------------
# two-time moments
#
# Rabi case: H = sigma_z / 2, F = sigma_x, prepared in |up>, t2 - t1 = pi/2.
# In the Heisenberg picture sigma_x(t) = cos(t) sigma_x - sin(t) sigma_y, so
# [sigma_x(t2), sigma_x(t1)] = 2i sin(t2 - t1) sigma_z and the moment on
# |up> is 2i sin(pi/2) = 2i.

RABI = SystemSpec(dim=2, hamiltonian=0.5 * SZ)


def test_commutator_rabi_case():
    mom = two_time_commutator(RABI, SX, SX, 0.3 + math.pi / 2, 0.3, UP_STATE)
    assert isinstance(mom, CommutatorMoment)
    assert mom.direct == pytest.approx(2j, abs=1e-12)
    assert abs(mom.direct - mom.from_biprob) <= 1e-10


def test_commutator_sign_flips_with_order():
    m1 = two_time_commutator(RABI, SX, SX, 1.0 + math.pi / 2, 1.0, UP_STATE)
    m2 = two_time_commutator(RABI, SX, SX, 1.0 + 3 * math.pi / 2, 1.0, UP_STATE)
    assert m1.direct == pytest.approx(2j, abs=1e-12)
    assert m2.direct == pytest.approx(-2j, abs=1e-12)


def test_anticommutator_moment():
    # {sigma_x(t2), sigma_x(t1)} = 2 cos(t2 - t1) * identity
    mom = two_time_commutator(
        RABI, SX, SX, 0.3 + math.pi / 3, 0.3, UP_STATE, anticommutator=True
    )
    assert mom.direct == pytest.approx(1.0 + 0j, abs=1e-12)
    assert abs(mom.direct - mom.from_biprob) <= 1e-10


def test_commutator_requires_time_order():
    with pytest.raises(ValueError):
        two_time_commutator(RABI, SX, SX, 0.3, 0.5, UP_STATE)


@pytest.mark.parametrize("seed", range(4))
def test_commutator_routes_agree_random(seed):
    rng = np.random.default_rng(1300 + seed)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    system = SystemSpec(dim=3, hamiltonian=0.5 * (h + h.conj().T))

    def rand_obs(s):
        g = np.random.default_rng(s)
        a = g.normal(size=(3, 3)) + 1j * g.normal(size=(3, 3))
        return 0.5 * (a + a.conj().T)

    w = rng.dirichlet(np.ones(3))
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    state = State((u * w) @ u.conj().T)
    mom = two_time_commutator(system, rand_obs(seed), rand_obs(seed + 40), 1.7, 0.6, state)
    assert abs(mom.direct - mom.from_biprob) <= 1e-10
    mom2 = two_time_commutator(
        system, rand_obs(seed), rand_obs(seed + 40), 1.7, 0.6, state, anticommutator=True
    )
    assert abs(mom2.direct - mom2.from_biprob) <= 1e-10


@pytest.mark.parametrize("norm", [1e3, 1e5])
@pytest.mark.parametrize("seed", range(4))
def test_commutator_gate_scales_with_the_observables(seed, norm):
    # both routes are quadratic in F1 and F2, so their round-off is too
    rng = np.random.default_rng(1400 + seed)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    system = SystemSpec(dim=3, hamiltonian=0.5 * (h + h.conj().T))

    def rand_obs():
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        f = 0.5 * (a + a.conj().T)
        return norm * f / np.linalg.norm(f, 2)

    f1, f2 = rand_obs(), rand_obs()
    state = State(np.diag(rng.dirichlet(np.ones(3))).astype(complex))
    for anti in (False, True):
        mom = two_time_commutator(system, f2, f1, 1.7, 0.6, state, anticommutator=anti)
        assert abs(mom.direct - mom.from_biprob) <= 1e-10 * norm**2


@st.composite
def commutator_cases(draw):
    """Dimension 2-5; ||H||_2, ||F1||_2 and ||F2||_2 each from 1e-2 to 1e5.

    F1 has repeated eigenvalues in some cases; states have every rank.
    """
    dim = draw(st.integers(2, 5))
    n_distinct = draw(st.integers(1, dim))
    rank = draw(st.integers(1, dim))
    log_h, log_f1, log_f2 = (draw(st.floats(-2.0, 5.0)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def scaled(m, log_norm):
        return m * 10.0**log_norm / np.linalg.norm(m, 2)

    def unitary():
        return np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]

    system = SystemSpec(dim=dim, hamiltonian=scaled(_herm(rng, dim), log_h))
    levels = rng.normal(size=n_distinct)
    eigs = levels[np.arange(dim) % n_distinct]
    v = unitary()
    f1 = scaled((v * eigs) @ v.conj().T, log_f1)
    f2 = scaled(_herm(rng, dim), log_f2)
    v = unitary()[:, :rank]
    w = rng.dirichlet(np.ones(rank))
    state = State((v * w) @ v.conj().T)
    t1 = float(rng.uniform(0.0, 2.0))
    return system, f1, f2, t1, t1 + float(rng.uniform(0.1, 2.0)), state


@settings(max_examples=60)
@given(commutator_cases(), st.booleans())
def test_commutator_gate_holds_at_any_scale(case, anticommutator):
    system, f1, f2, t1, t2, state = case
    mom = two_time_commutator(system, f2, f1, t2, t1, state, anticommutator=anticommutator)
    scale = max(1.0, float(np.linalg.norm(f1, 2) * np.linalg.norm(f2, 2)))
    assert abs(mom.direct - mom.from_biprob) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# classical diagnostic


def test_classical_diagnostic_commuting():
    # repeated Z readouts of a precessing qubit commute with each other
    system = SystemSpec(dim=2, hamiltonian=0.5 * SZ)
    sched = Schedule(
        entries=((0.4, DEVZ), (0.9, DEVZ), (1.7, DEVZ)),
        init=State(0.5 * np.array([[1, 1], [1, 1]], dtype=complex)),
    )
    diag = classical_diagnostic(biprob_table(system, sched))
    assert diag.offdiag_mass <= 1e-12
    assert diag.surrogate is not None
    assert diag.surrogate.shape == (2, 2, 2)
    assert diag.consistency_error <= 1e-9
    assert diag.consistent
    assert abs(diag.surrogate.sum() - 1.0) < 1e-12


def test_classical_diagnostic_zx():
    system = SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))
    sched = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=UP_STATE)
    diag = classical_diagnostic(biprob_table(system, sched))
    assert diag.offdiag_mass == pytest.approx(0.5, abs=1e-12)
    assert diag.surrogate is None
    assert not diag.consistent
    csv = diag.to_csv()
    assert csv.splitlines()[0] == "offdiag_mass,threshold,consistent"


# ---------------------------------------------------------------------------
# piecewise drive


def test_piecewise_propagator_matches_constant():
    u = piecewise_propagator([(0.8, 0.5 * SZ), (10.0, 0.9 * SX)])
    const = SystemSpec(dim=2, hamiltonian=0.5 * SZ)
    from bitraj import propagator

    assert np.abs(u(0.5) - propagator(const, 0.5)).max() < 1e-12


def test_piecewise_propagator_is_unitary_past_switch():
    u = piecewise_propagator([(0.8, 0.5 * SZ), (10.0, 0.9 * SX)])
    m = u(3.0)
    assert np.abs(m @ m.conj().T - np.eye(2)).max() < 1e-12


def test_piecewise_propagator_rejects_negative_time():
    u = piecewise_propagator([(1.0, 0.5 * SZ)])
    with pytest.raises(ValueError):
        u(-0.1)


def test_piecewise_propagator_validates_pieces():
    with pytest.raises(ValueError):
        piecewise_propagator([(1.0, 0.5 * SZ), (0.5, 0.9 * SX)])
    with pytest.raises(ValueError):
        piecewise_propagator([(1.0, np.array([[0.0, 1.0], [0.0, 0.0]]))])
