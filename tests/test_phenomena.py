import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitraj import (
    Device,
    InitSpec,
    Schedule,
    State,
    SystemSpec,
    TableSizeError,
    conditional_prob,
    init_metric,
    markov_delta,
    mub_partner,
    stationarity_delta,
    uncertainty_matrix,
    zeno_rate,
    zeno_scan,
)
from bitraj import phenomena
from bitraj.coarse import CoarseSchedule
from bitraj.engine import ConsistencyError
from bitraj.master import piecewise_propagator
from bitraj.phenomena import uncertainty_csv

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
UP = np.diag([1.0, 0.0]).astype(complex)
DN = np.diag([0.0, 1.0]).astype(complex)
PX = 0.5 * (np.eye(2) + SX)

DEVZ = Device(name="Z", outcomes=("u", "d"), projectors=(UP, DN))
DEVX = Device(name="X", outcomes=("+", "-"), projectors=(PX, np.eye(2) - PX))


def fine_device(dim, seed, name="D"):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    v = np.linalg.qr(a)[0]
    projs = tuple(np.outer(v[:, k], v[:, k].conj()) for k in range(dim))
    return Device(name=name, outcomes=tuple(range(dim)), projectors=projs)


def test_init_metric_half_z_half_x():
    sys2 = SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))
    init = InitSpec(entries=((DEVZ, "u", 0.5), (DEVX, "+", 0.5)), time=0.0)
    rho = init_metric(init, sys2)
    expected = np.array([[0.75, 0.25], [0.25, 0.25]])
    assert np.abs(rho.density - expected).max() < 1e-14


def test_init_spec_rejects_bad_weights():
    with pytest.raises(ValueError):
        InitSpec(entries=((DEVZ, "u", 0.7), (DEVX, "+", 0.7)), time=0.0)


def test_conditional_prob_free_qubit():
    # prepared in |up>, X then Z, H = 0: P(u | +) = 1/2
    sys2 = SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))
    sched = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=State(UP))
    assert conditional_prob(sys2, sched, ("+",), "u") == pytest.approx(0.5, abs=1e-14)


def test_conditional_prob_rejects_null_event():
    sys2 = SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))
    sched = Schedule(entries=((1.0, DEVZ), (2.0, DEVZ)), init=State(UP))
    with pytest.raises(ValueError, match="null"):
        conditional_prob(sys2, sched, ("d",), "u")


# ---------------------------------------------------------------------------
# Markov factorization


@pytest.mark.parametrize("seed", range(6))
def test_markov_fine_grained_factorizes(seed):
    dim = 2 + seed % 3
    rng = np.random.default_rng(900 + seed)
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    system = SystemSpec(dim=dim, hamiltonian=0.5 * (h + h.conj().T))
    dev = fine_device(dim, 950 + seed)
    init = InitSpec(entries=((dev, 0, 0.5), (dev, 1, 0.5)), time=0.0)
    times = np.cumsum(rng.uniform(0.3, 1.0, size=3))
    rep = markov_delta(system, dev, times, init)
    assert rep.delta <= 1e-10
    assert rep.checked + rep.excluded == dim**3


MARKOV_H = np.array(
    [
        [1.0531 + 0.0000j, 0.8193 + 0.5127j, -0.9498 - 1.1727j],
        [0.8193 - 0.5127j, 1.0137 + 0.0000j, 1.4246 - 0.9363j],
        [-0.9498 + 1.1727j, 1.4246 + 0.9363j, 0.2900 + 0.0000j],
    ]
)


def test_markov_coarse_counterexample():
    # a rank-two readout block plus an initialization with coherence across
    # the blocks: the nearest-neighbour factorization fails at the percent
    # level (pinned regression)
    system = SystemSpec(dim=3, hamiltonian=MARKOV_H)
    p01 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    devc = Device(name="C", outcomes=("a", "b"), projectors=(p01, p2))
    dft = np.fft.ifft(np.eye(3), norm="ortho")
    devf = Device(
        name="F",
        outcomes=(0, 1, 2),
        projectors=tuple(np.outer(dft[:, k], dft[:, k].conj()) for k in range(3)),
    )
    init = InitSpec(entries=((devf, 0, 1.0),), time=0.0)
    rep = markov_delta(system, devc, [0.3, 0.8, 1.1], init)
    assert rep.delta > 1e-2
    assert rep.delta == pytest.approx(0.08830231250417844, rel=1e-9)
    # the same system and times with the fine device factorize
    rep_fine = markov_delta(system, devf, [0.3, 0.8, 1.1], init)
    assert rep_fine.delta <= 1e-10


def test_markov_needs_two_times():
    system = SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))
    init = InitSpec(entries=((DEVZ, "u", 1.0),), time=0.0)
    with pytest.raises(ValueError):
        markov_delta(system, DEVZ, [1.0], init)


def test_markov_refuses_a_time_before_the_init_time():
    system = SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))
    init = InitSpec(entries=((DEVZ, "u", 1.0),), time=1.0)
    with pytest.raises(ValueError, match="markov times must be non-decreasing and not before t0=1.0"):
        markov_delta(system, DEVZ, [np.nextafter(1.0, 0.0), 2.0], init)
    assert markov_delta(system, DEVZ, [1.0, 2.0], init).delta <= 1e-12


# ---------------------------------------------------------------------------
# Zeno


def test_zeno_survival_closed_form():
    # H = sigma_x / 2, T = pi: each of n steps keeps |up> with amplitude
    # cos(pi / 2n), so survival(n) = cos^{2n}(pi / 2n)
    system = SystemSpec(dim=2, hamiltonian=0.5 * SX)
    series = zeno_scan(system, DEVZ, "u", math.pi, [1, 2, 5, 10])
    for n, s in zip(series.n_values, series.survival):
        assert s == pytest.approx(math.cos(math.pi / (2 * n)) ** (2 * n), abs=1e-10)
    assert series.survival[-1] == pytest.approx(0.7805460697811354, abs=1e-12)


def test_zeno_residual_halves():
    system = SystemSpec(dim=2, hamiltonian=0.5 * SX)
    series = zeno_scan(system, DEVZ, "u", math.pi, [64, 128])
    r64 = 1.0 - series.survival[0]
    r128 = 1.0 - series.survival[1]
    assert r128 / r64 == pytest.approx(0.5, rel=0.05)


def test_zeno_rate_is_half():
    system = SystemSpec(dim=2, hamiltonian=0.5 * SX)
    # energy variance of sigma_x/2 in |up| is exactly 1/4
    assert zeno_rate(system, DEVZ, "u", 0.0) == pytest.approx(0.5, abs=1e-12)


def test_zeno_rate_finite_difference():
    system = SystemSpec(dim=2, hamiltonian=0.5 * SX)
    v = zeno_rate(system, DEVZ, "u", 0.0)
    dt = 1e-3
    s = math.cos(dt / 2) ** 2  # single-step survival
    v_fd = math.sqrt((1.0 - s) / dt**2)
    assert v == pytest.approx(v_fd, abs=1e-4)


@pytest.mark.parametrize("scale", [30.0, 100.0, 1e4])
def test_zeno_rate_on_stiff_systems(scale):
    # the finite-difference step shrinks with ||H||, so no ConsistencyError
    system = SystemSpec(dim=2, hamiltonian=scale * SX)
    assert zeno_rate(system, DEVZ, "u", 0.0) == pytest.approx(scale, rel=1e-12)


@settings(max_examples=40)
@given(
    st.integers(2, 5),
    st.floats(-2.0, 3.0),
    st.integers(0, 2**32 - 1),
)
def test_zeno_rate_is_the_energy_spread_at_any_scale(dim, log_scale, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (a + a.conj().T)
    h *= 10.0**log_scale / np.linalg.norm(h, 2)
    dev = fine_device(dim, seed)
    psi = np.linalg.eigh(dev.projectors[0])[1][:, -1]
    mean = (psi.conj() @ h @ psi).real
    spread = math.sqrt(max((psi.conj() @ h @ h @ psi).real - mean**2, 0.0))
    rate = zeno_rate(SystemSpec(dim=dim, hamiltonian=h), dev, dev.outcomes[0], 0.0)
    assert rate == pytest.approx(spread, rel=1e-9, abs=1e-12 * 10.0**log_scale)


def test_zeno_rate_gate_catches_a_wrong_survival_curve_at_large_norm(monkeypatch):
    # decay 1 - P off by a relative 1e-3 moves the finite difference by 1e-3 of
    # the variance (1e5 at ||H|| = 1e4), which the gate must not absorb
    exact = phenomena.chain_probability

    def skewed(*args):
        return 1.0 - (1.0 - exact(*args)) * (1.0 + 1e-3)

    monkeypatch.setattr(phenomena, "chain_probability", skewed)
    system = SystemSpec(dim=2, hamiltonian=1e4 * SX)
    with pytest.raises(ConsistencyError, match="finite-difference"):
        zeno_rate(system, DEVZ, "u", 0.0)


def test_zeno_rejects_coarse_readout():
    system = SystemSpec(dim=2, hamiltonian=0.5 * SX)
    merged = Device(name="M", outcomes=("any",), projectors=(np.eye(2, dtype=complex),))
    with pytest.raises(ValueError, match="rank-one"):
        zeno_scan(system, merged, "any", 1.0, [2])


def test_zeno_csv():
    system = SystemSpec(dim=2, hamiltonian=0.5 * SX)
    series = zeno_scan(system, DEVZ, "u", 1.0, [1, 2])
    lines = series.to_csv().splitlines()
    assert lines[0] == "n,survival"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# uncertainty matrix


def test_uncertainty_identity_for_same_device():
    rng = np.random.default_rng(31)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    system = SystemSpec(dim=3, hamiltonian=0.5 * (h + h.conj().T))
    dev = fine_device(3, 33)
    c = uncertainty_matrix(system, dev, dev, 0.7)
    assert np.abs(c - np.eye(3)).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_uncertainty_mub_is_flat(d):
    rng = np.random.default_rng(40 + d)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    system = SystemSpec(dim=d, hamiltonian=0.5 * (h + h.conj().T))
    dev = fine_device(d, 50 + d)
    partner = mub_partner(dev)
    c = uncertainty_matrix(system, dev, partner, 1.1)
    assert np.abs(c - 1.0 / d).max() <= 1e-10


def test_uncertainty_takes_each_device_basis_once(monkeypatch):
    calls = []

    def spy(device):
        calls.append(device.name)
        return fine_basis_columns(device)

    fine_basis_columns = phenomena._fine_basis_columns
    monkeypatch.setattr(phenomena, "_fine_basis_columns", spy)
    system = SystemSpec(dim=2, hamiltonian=0.9 * SX + 0.4 * SZ)
    uncertainty_matrix(system, DEVZ, DEVX, 0.3)
    assert calls == ["Z", "X"]


def test_uncertainty_time_invariant():
    system = SystemSpec(dim=2, hamiltonian=0.9 * SX + 0.4 * SZ)
    c0 = uncertainty_matrix(system, DEVZ, DEVX, 0.0)
    c1 = uncertainty_matrix(system, DEVZ, DEVX, 2.3)
    assert np.abs(c0 - c1).max() <= 1e-10


def test_uncertainty_doubly_stochastic():
    system = SystemSpec(dim=4, hamiltonian=np.zeros((4, 4)))
    a = fine_device(4, 61, "A")
    b = fine_device(4, 62, "B")
    c = uncertainty_matrix(system, a, b, 0.0)
    assert np.abs(c.sum(axis=0) - 1.0).max() < 1e-12
    assert np.abs(c.sum(axis=1) - 1.0).max() < 1e-12


@settings(max_examples=60)
@given(
    st.integers(2, 5),
    st.floats(-2.0, 5.0),
    st.floats(0.0, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_uncertainty_drift_gate_holds_at_any_scale(dim, log_norm, t, seed):
    # the gate compares overlap moduli, which are bounded by 1, so its absolute
    # bound must hold for any ||H||
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (a + a.conj().T)
    h *= 10.0**log_norm / np.linalg.norm(h, 2)
    system = SystemSpec(dim=dim, hamiltonian=h)
    c = uncertainty_matrix(system, fine_device(dim, seed, "K"), fine_device(dim, seed + 1, "L"), t)
    assert np.abs(c.sum(axis=0) - 1.0).max() < 1e-12
    assert np.abs(c.sum(axis=1) - 1.0).max() < 1e-12


def test_uncertainty_rejects_coarse():
    system = SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))
    merged = Device(name="M", outcomes=("any",), projectors=(np.eye(2, dtype=complex),))
    with pytest.raises(ValueError):
        uncertainty_matrix(system, merged, DEVZ, 0.0)


def test_uncertainty_csv_layout():
    system = SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))
    c = uncertainty_matrix(system, DEVZ, DEVX, 0.0)
    lines = uncertainty_csv(DEVZ, DEVX, c).splitlines()
    assert lines[0] == "k,l,value"
    assert len(lines) == 5
    # a label holding a comma or a quote stays one field
    odd = Device(name="Z", outcomes=("up,z", 'down"z'), projectors=(UP, DN))
    rows = list(csv.reader(io.StringIO(uncertainty_csv(odd, DEVX, c))))
    assert [len(row) for row in rows] == [3] * 5
    assert [row[0] for row in rows[1:]] == ["up,z", "up,z", 'down"z', 'down"z']
    assert [row[1] for row in rows[1:]] == ["+", "-", "+", "-"]


# ---------------------------------------------------------------------------
# stationarity


def test_stationarity_constant_hamiltonian():
    system = SystemSpec(dim=2, hamiltonian=0.5 * SZ)
    sched = Schedule(entries=((0.5, DEVX), (1.2, DEVZ)), init=State(UP))
    assert stationarity_delta(system, sched, 0.7) <= 1e-12


def test_stationarity_broken_by_drive():
    # a Hamiltonian that switches at t = 0.8 makes the statistics depend on
    # the absolute schedule offset (pinned regression)
    system = SystemSpec(dim=2, hamiltonian=0.5 * SZ)
    sched = Schedule(entries=((0.5, DEVX), (1.2, DEVZ)), init=State(UP))
    u = piecewise_propagator([(0.8, 0.5 * SZ), (10.0, 0.9 * SX + 0.2 * SZ)])
    delta = stationarity_delta(system, sched, 0.7, propagator_fn=u)
    assert delta > 1e-3
    assert delta == pytest.approx(0.03920432398552526, rel=1e-9)


def test_phenomena_enumerations_are_guarded(monkeypatch):
    # three qubit readouts: 8 sequences times d^2 = 4 leaf entries
    monkeypatch.setenv("BITRAJ_MAX_TABLE", "16")
    system = SystemSpec(dim=2, hamiltonian=0.5 * SX)
    init = InitSpec(entries=((DEVZ, "u", 1.0),), time=0.0)
    with pytest.raises(TableSizeError) as exc:
        markov_delta(system, DEVZ, [0.5, 1.0, 1.5], init)
    assert (exc.value.requested, exc.value.limit) == (32, 16)
    sched = Schedule(
        entries=((0.5, DEVX), (1.2, DEVZ), (1.8, DEVX)), init=State(UP)
    )
    with pytest.raises(TableSizeError):
        stationarity_delta(system, sched, 0.7)
