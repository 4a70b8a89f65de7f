import numpy as np
import pytest

from bitraj import (
    CoarseSchedule,
    Device,
    Schedule,
    State,
    SystemSpec,
    device_from_hermitian,
    mub_partner,
    propagator,
    tensor_device,
    validate_device,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
UP = np.diag([1.0, 0.0]).astype(complex)
DN = np.diag([0.0, 1.0]).astype(complex)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def test_propagator_is_unitary():
    sys2 = SystemSpec(dim=3, hamiltonian=random_hermitian(3, 0))
    u = propagator(sys2, 1.7)
    assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-12


def test_propagator_composes():
    sys2 = SystemSpec(dim=2, hamiltonian=0.5 * SZ)
    u1 = propagator(sys2, 0.4)
    u2 = propagator(sys2, 1.1)
    u12 = propagator(sys2, 1.5)
    assert np.abs(u2 @ u1 - u12).max() < 1e-12


def test_propagator_zero_time():
    sys2 = SystemSpec(dim=2, hamiltonian=SX)
    assert np.abs(propagator(sys2, 0.0) - np.eye(2)).max() < 1e-14


def test_system_shape_mismatch():
    with pytest.raises(ValueError):
        SystemSpec(dim=3, hamiltonian=SZ)


def test_system_not_hermitian():
    with pytest.raises(ValueError):
        SystemSpec(dim=2, hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_device_from_hermitian_pauli_z():
    dev = device_from_hermitian(SZ, name="Z")
    # labels are the eigenvalues, ascending
    assert dev.outcomes == (-1.0, 1.0)
    assert np.abs(dev.projector_for(1.0) - UP).max() < 1e-12
    assert np.abs(dev.projector_for(-1.0) - DN).max() < 1e-12
    validate_device(dev)


def test_device_from_hermitian_degenerate():
    obs = np.diag([2.0, 2.0, -1.0]).astype(complex)
    dev = device_from_hermitian(obs, name="D")
    assert dev.n_outcomes == 2
    p2 = dev.projector_for(2.0)
    assert abs(np.trace(p2).real - 2.0) < 1e-12


def conjugated(spectrum, seed):
    """A Hermitian matrix with ``spectrum`` in a random eigenbasis."""
    rng = np.random.default_rng(seed)
    d = len(spectrum)
    q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return (q * np.asarray(spectrum, dtype=float)) @ q.conj().T


@pytest.mark.parametrize("c", 10.0 ** np.arange(-12, 13, 2))
def test_device_from_hermitian_grouping_ignores_the_scale(c):
    def levels(obs):
        return device_from_hermitian(obs, name="S").n_outcomes

    assert levels(c * np.diag([0.0, 1e-10])) == 2
    for seed in range(5):
        # eigh returns the repeats of a rotated spectrum apart in the last bits
        assert levels(conjugated(c * np.ones(4), seed)) == 1
        assert levels(conjugated(c * np.array([1.0, 1.0, 2.0, 2.0]), seed)) == 2


def test_device_from_hermitian_splits_a_small_gap():
    # below a range of 1 the old merge tolerance was an absolute 1e-9
    assert device_from_hermitian(np.diag([0.0, 1e-10]), name="S").n_outcomes == 2
    # far from zero the gap is still resolved: 1e-4 against a round-off of 2e-7
    assert device_from_hermitian(np.diag([1e6, 1e6 + 1e-4]), name="S").n_outcomes == 2


# the constructor runs validate_device itself, so bad devices never exist

def test_device_rejects_nonprojector():
    with pytest.raises(ValueError, match="idempotent"):
        Device(name="B", outcomes=("a", "b"), projectors=(0.5 * np.eye(2), 0.5 * np.eye(2)))


def test_device_rejects_incomplete():
    with pytest.raises(ValueError, match="identity"):
        Device(name="B", outcomes=("a",), projectors=(UP,))


def test_device_rejects_non_orthogonal():
    px = 0.5 * (np.eye(2) + SX)
    with pytest.raises(ValueError):
        Device(name="B", outcomes=("a", "b"), projectors=(UP, px))


def test_duplicate_outcome_labels():
    with pytest.raises(ValueError, match="unique"):
        Device(name="B", outcomes=("a", "a"), projectors=(UP, DN))


def test_unknown_outcome():
    dev = Device(name="Z", outcomes=("u", "d"), projectors=(UP, DN))
    with pytest.raises(KeyError):
        dev.projector_for("sideways")


def test_state_trace_check():
    with pytest.raises(ValueError, match="trace"):
        State(2.0 * UP)


def test_state_positivity_check():
    with pytest.raises(ValueError, match="negative"):
        State(np.diag([1.5, -0.5]).astype(complex))


def test_fine_grained_detection():
    dev = Device(name="Z", outcomes=("u", "d"), projectors=(UP, DN))
    assert dev.is_fine_grained()
    merged = Device(name="M", outcomes=("any",), projectors=(np.eye(2, dtype=complex),))
    assert not merged.is_fine_grained()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_mub_partner_is_unbiased(d):
    basis = np.linalg.qr(random_hermitian(d, d) + 1j * random_hermitian(d, d + 9))[0]
    projs = tuple(np.outer(basis[:, k], basis[:, k].conj()) for k in range(d))
    dev = Device(name="K", outcomes=tuple(range(d)), projectors=projs)
    partner = mub_partner(dev)
    validate_device(partner)
    for k in range(d):
        for l in range(d):
            ov = np.trace(dev.projector_for(k) @ partner.projector_for(l)).real
            assert abs(ov - 1.0 / d) < 1e-12


def _rewrapped(dev):
    """A plain ``Device`` of ``dev``'s name, outcomes and projectors."""
    return Device(name=dev.name, outcomes=dev.outcomes, projectors=dev.projectors)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_equal_projectors_give_bit_identical_partners(d):
    # a partner reads a device through its projectors alone: how the device
    # was built (an eigensolve, a partner, a tensor product) does not enter
    obs = device_from_hermitian(random_hermitian(d, 70 + d), name="H")
    devices = [
        obs,
        mub_partner(_rewrapped(obs)),
        tensor_device(obs, device_from_hermitian(random_hermitian(2, 80 + d), name="G")),
    ]
    for dev in devices:
        got, want = mub_partner(dev), mub_partner(_rewrapped(dev))
        assert got.outcomes == want.outcomes
        assert [p.tobytes() for p in got.projectors] == [p.tobytes() for p in want.projectors]


def test_tensor_device():
    devz = Device(name="Z", outcomes=("u", "d"), projectors=(UP, DN))
    px = 0.5 * (np.eye(2) + SX)
    devx = Device(name="X", outcomes=("+", "-"), projectors=(px, np.eye(2) - px))
    joint = tensor_device(devz, devx)
    assert joint.n_outcomes == 4
    assert ("u", "+") in joint.outcomes
    validate_device(joint)
    p = joint.projector_for(("d", "-"))
    assert np.abs(p - np.kron(DN, np.eye(2) - px)).max() < 1e-12


def test_dimension_cap():
    big = np.zeros((65, 65))
    with pytest.raises(ValueError, match="dimension"):
        SystemSpec(dim=65, hamiltonian=big)


@pytest.mark.parametrize("raw", ["lots", "0", "-1", "6.5"])
def test_dimension_cap_rejects_malformed_values(monkeypatch, raw):
    monkeypatch.setenv("BITRAJ_MAX_DIM", raw)
    with pytest.raises(ValueError, match="BITRAJ_MAX_DIM"):
        SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))


def test_dimension_cap_accepts_float_spelling(monkeypatch):
    monkeypatch.setenv("BITRAJ_MAX_DIM", "1e1")
    SystemSpec(dim=10, hamiltonian=np.zeros((10, 10)))
    with pytest.raises(ValueError, match="dimension"):
        SystemSpec(dim=11, hamiltonian=np.zeros((11, 11)))


NAN_UP = np.diag([1.0, np.nan])
DEV_Z = Device("Z", ("u", "d"), (UP, DN))


@pytest.mark.parametrize(
    "build",
    [
        lambda: SystemSpec(dim=2, hamiltonian=np.diag([0.0, np.nan])),
        lambda: SystemSpec(dim=2, hamiltonian=np.diag([0.0, np.inf])),
        lambda: Device("Z", ("u", "d"), (NAN_UP, DN)),
        lambda: device_from_hermitian(NAN_UP, name="Z"),
        lambda: State(NAN_UP),
        lambda: State(UP, time_tag=np.nan),
        lambda: State(UP, time_tag=np.inf),
        lambda: Schedule(entries=((np.nan, DEV_Z),), init=State(UP)),
        lambda: Schedule(entries=((1.0, DEV_Z), (np.inf, DEV_Z)), init=State(UP)),
        lambda: CoarseSchedule(entries=((np.nan, DEV_Z, None),), init=State(UP)),
        lambda: CoarseSchedule(entries=((1.0, DEV_Z, None), (np.inf, DEV_Z, None)), init=State(UP)),
    ],
    ids=[
        "hamiltonian-nan",
        "hamiltonian-inf",
        "projector-nan",
        "observable-nan",
        "density-nan",
        "time_tag-nan",
        "time_tag-inf",
        "schedule-nan",
        "schedule-inf",
        "coarse-schedule-nan",
        "coarse-schedule-inf",
    ],
)
def test_constructors_reject_non_finite_input(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize(
    "hamiltonian, t",
    [
        (4 * SX, 1.7e308),
        (4 * SX, -1.7e308),
        (np.zeros((2, 2)), np.inf),
        (np.full((2, 2), 1e154), 1e155),
    ],
    ids=["overflow", "negative-overflow", "infinite-time", "large-h"],
)
def test_propagator_rejects_a_phase_past_float_range(hamiltonian, t):
    # each eigenvalue times t is inf or NaN, so every entry of exp(-i t H) would be NaN
    with pytest.raises(ValueError, match="not finite"):
        propagator(SystemSpec(dim=2, hamiltonian=hamiltonian), t)


def test_propagator_keeps_a_large_finite_phase():
    # 4 * 4e307 is still a float: the propagator is a (meaningless but finite) unitary
    u = propagator(SystemSpec(dim=2, hamiltonian=4 * SX), 4e307)
    assert np.isfinite(u).all()


def test_system_eigensolve_rejects_a_spectrum_past_float_range(monkeypatch):
    # finite entries whose largest eigenvalue, 2e308, is not a float
    with pytest.raises(ValueError, match="eigensolve returned a non-finite value"):
        propagator(SystemSpec(dim=2, hamiltonian=np.full((2, 2), 1e308)), 1.0)

    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ValueError, match="eigensolve failed: Eigenvalues did not converge"):
        propagator(SystemSpec(dim=2, hamiltonian=SX), 1.0)
