import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bitraj import (
    BiProbTable,
    BiSequence,
    Device,
    Schedule,
    State,
    SystemSpec,
    TableSizeError,
    biprob,
    biprob_table,
    device_from_hermitian,
    gudder_metric,
    marginalize_pair,
    property_report,
    uniform_bound_check,
)
from bitraj import engine
from bitraj.cli import DEFAULT_TOLERANCES, _check
from bitraj.serialize import csv_cell
from conftest import extra_peak
from bitraj.engine import (
    PropertyReport,
    chain_probabilities,
    chain_probability,
    max_table_entries,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
UP = np.diag([1.0, 0.0]).astype(complex)
DN = np.diag([0.0, 1.0]).astype(complex)
PX = 0.5 * (np.eye(2) + SX)
MX = 0.5 * (np.eye(2) - SX)
PY = 0.5 * (np.eye(2) + SY)
MY = 0.5 * (np.eye(2) - SY)
H0 = np.zeros((2, 2), dtype=complex)

DEVZ = Device(name="Z", outcomes=("u", "d"), projectors=(UP, DN))
DEVX = Device(name="X", outcomes=("+", "-"), projectors=(PX, MX))
DEVY = Device(name="Y", outcomes=("+i", "-i"), projectors=(PY, MY))

QUBIT_FREE = SystemSpec(dim=2, hamiltonian=H0)
UP_STATE = State(UP, time_tag=0.0)


#: each ``property_report`` witness with the CLI tolerance key and comparator that bound it
CLI_BOUNDS = {
    "normalization_error": ("normalization", "<="),
    "max_biconsistency_error": ("biconsistency", "<="),
    "max_causality_violation": ("causality", "<="),
    "max_hermitianity_error": ("hermitianity", "<="),
    "min_gram_eigenvalue": ("gram_min", ">="),
    "max_diagonal_negativity": ("diagonal_negativity", "<="),
}


def cli_check_failures(table) -> list[dict]:
    """The witnesses of ``table``'s report that fail the CLI's default bounds."""
    got = property_report(table).as_dict()
    checks = [
        _check(key, got[witness], DEFAULT_TOLERANCES[key], comparator)
        for witness, (key, comparator) in CLI_BOUNDS.items()
    ]
    return [c for c in checks if not c["pass"]]


def random_config(seed, dim=None, n=None):
    rng = np.random.default_rng(seed)
    if dim is None:
        dim = int(rng.integers(2, 5))
    if n is None:
        n = int(rng.integers(1, 4))
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (h + h.conj().T)
    system = SystemSpec(dim=dim, hamiltonian=h)
    devices = []
    for k in range(n):
        obs = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        obs = 0.5 * (obs + obs.conj().T)
        w, v = np.linalg.eigh(obs)
        projs = tuple(np.outer(v[:, i], v[:, i].conj()) for i in range(dim))
        devices.append(Device(name=f"D{k}", outcomes=tuple(range(dim)), projectors=projs))
    times = np.sort(rng.uniform(0.1, 3.0, size=n))
    times = times + 0.05 * np.arange(n)  # break accidental ties
    if rng.random() < 0.5:
        rho = rng.dirichlet(np.ones(dim))
        u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        rho = (u * rho) @ u.conj().T
    else:
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
    init = State(rho, time_tag=0.0)
    entries = tuple((float(t), d) for t, d in zip(times, devices))
    return system, Schedule(entries=entries, init=init)


# ---------------------------------------------------------------------------
# hand oracles
#
# Free qubit (H = 0) prepared in |up>.  Measure X at t1, Z at t2.  The branch
# value for plus sequence (+, u) is <u|P+|up> amplitudes worked out by hand:
#   P_u P_+ |up><up| P_- P_u  ->  trace = <up|P+|u><u|u><u|P-|up> = (1/2)(1/2)
# so Q((+,u),(-,u)) = 1/4, real.


def test_zx_offdiagonal_is_quarter():
    sched = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=UP_STATE)
    q = biprob(QUBIT_FREE, sched, BiSequence(("+", "u"), ("-", "u")))
    assert q == pytest.approx(0.25 + 0j, abs=1e-14)


def test_zx_diagonal_entries():
    sched = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=UP_STATE)
    table = biprob_table(QUBIT_FREE, sched)
    # P(+, u) = 1/4 etc: every fine path has probability 1/4
    assert np.abs(table.diagonal() - 0.25).max() < 1e-14


def test_xy_offdiagonal_is_imaginary_quarter():
    # X at t1, Y at t2: the pure interference term, purely imaginary
    sched = Schedule(entries=((1.0, DEVX), (2.0, DEVY)), init=UP_STATE)
    q = biprob(QUBIT_FREE, sched, BiSequence(("+", "-i"), ("-", "-i")))
    assert q == pytest.approx(0.25j, abs=1e-14)
    q2 = biprob(QUBIT_FREE, sched, BiSequence(("+", "+i"), ("-", "+i")))
    assert q2 == pytest.approx(-0.25j, abs=1e-14)


def test_single_z_readout_on_up():
    sched = Schedule(entries=((1.3, DEVZ),), init=UP_STATE)
    table = biprob_table(QUBIT_FREE, sched)
    expected = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.abs(table.matrix - expected).max() < 1e-14


@pytest.mark.parametrize("seed", range(8))
def test_biprob_matches_table(seed):
    system, sched = random_config(seed)
    table = biprob_table(system, sched)
    for bi, val in table.items():
        direct = biprob(system, sched, bi)
        assert direct == pytest.approx(val, abs=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_property_report_random(seed):
    system, sched = random_config(100 + seed)
    rep = property_report(biprob_table(system, sched))
    assert rep.normalization_error <= 1e-8
    assert rep.max_biconsistency_error <= 1e-10
    assert rep.max_causality_violation <= 1e-12
    assert rep.max_hermitianity_error <= 1e-10
    assert rep.min_gram_eigenvalue >= -1e-10
    assert rep.max_diagonal_negativity <= 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_cauchy_schwarz(seed):
    # |Q(f+, f-)|^2 <= Q(f+, f+) Q(f-, f-) -- Gram positivity in pair form
    system, sched = random_config(200 + seed)
    table = biprob_table(system, sched)
    diag = table.diagonal()
    m = np.abs(table.matrix) ** 2
    bound = np.outer(diag, diag)
    assert (m <= bound + 1e-12).all()


def test_marginalize_pair_consistency():
    system, sched = random_config(7, dim=3, n=3)
    table = biprob_table(system, sched)
    for pos in range(3):
        reduced = marginalize_pair(table, pos)
        direct = biprob_table(system, sched.without(pos))
        assert np.abs(reduced.matrix - direct.matrix).max() < 1e-12


def test_marginalize_pair_rejects_a_position_it_cannot_sum_out():
    system, sched = random_config(7, dim=2, n=2)
    table = biprob_table(system, sched)
    for pos in (-1, 2):
        with pytest.raises(IndexError, match="out of range"):
            marginalize_pair(table, pos)
    with pytest.raises(ValueError, match="only entry"):
        marginalize_pair(biprob_table(system, sched.without(1)), 0)


def test_causality_is_final_entry_collapse():
    # summing the final bi-indices of the table gives the shorter table
    system, sched = random_config(42, dim=2, n=2)
    table = biprob_table(system, sched)
    reduced = marginalize_pair(table, 1)
    shorter = biprob_table(system, sched.without(1))
    assert np.abs(reduced.matrix - shorter.matrix).max() < 1e-13


def test_schedule_rejects_nonincreasing_times():
    with pytest.raises(ValueError):
        Schedule(entries=((2.0, DEVZ), (1.0, DEVX)), init=UP_STATE)


@pytest.mark.parametrize(
    "times, t0",
    [((1.0, 1.0, 2.0), 0.0), ((0.5, 1.3, 1.3), 0.5), ((-1.0, -1.0, -1.0), -1.0)],
    ids=["equal-times", "first-at-t0-and-equal-last", "all-at-t0"],
)
def test_equal_times_and_a_first_entry_at_t0_pass_every_witness(times, t0):
    # equal times are back-to-back readouts with no propagation in between
    system = SystemSpec(dim=2, hamiltonian=0.7 * SX + 0.2 * SZ)
    init = State(np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]]), time_tag=t0)
    sched = Schedule(entries=tuple(zip(times, (DEVZ, DEVX, DEVY))), init=init)
    assert cli_check_failures(biprob_table(system, sched)) == []


def test_schedule_rejects_a_time_before_t0():
    with pytest.raises(ValueError, match="not before t0=1.0; got 0.5 after 1.0"):
        Schedule(entries=((0.5, DEVZ),), init=State(UP, time_tag=1.0))


def test_schedule_rejects_empty():
    with pytest.raises(ValueError):
        Schedule(entries=(), init=UP_STATE)


def test_bisequence_diagonal():
    bi = BiSequence.diagonal(("u", "d"))
    assert bi.plus == bi.minus == ("u", "d")
    assert bi.is_diagonal
    assert not BiSequence(("u",), ("d",)).is_diagonal


def test_table_encode_decode_roundtrip():
    system, sched = random_config(9, dim=3, n=2)
    table = biprob_table(system, sched)
    for code in range(table.n_sequences):
        assert table.encode(table.decode(code)) == code


def test_table_size_guard(monkeypatch):
    monkeypatch.setenv("BITRAJ_MAX_TABLE", "100")
    system, sched = random_config(11, dim=4, n=2)  # 16^2 = 256 > 100
    with pytest.raises(TableSizeError) as exc:
        biprob_table(system, sched)
    assert exc.value.requested == 256
    assert exc.value.limit == 100
    assert "raise BITRAJ_MAX_TABLE" in str(exc.value)
    # only the variable lifts the guard
    monkeypatch.setenv("BITRAJ_MAX_TABLE", "256")
    table = biprob_table(system, sched)
    assert table.n_sequences == 16


def test_table_json_roundtrip_fields():
    system, sched = random_config(13, dim=2, n=2)
    table = biprob_table(system, sched)
    csv = table.to_csv()
    assert csv.splitlines()[0] == "plus_0,plus_1,minus_0,minus_1,re,im"
    assert len(csv.splitlines()) == 17
    lines = [
        ",".join(map(str, bi.plus + bi.minus)) + f",{q.real:.17g},{q.imag:.17g}"
        for bi, q in table.items()
    ]
    assert csv == "\n".join(["plus_0,plus_1,minus_0,minus_1,re,im"] + lines) + "\n"


def test_table_csv_quotes_and_escapes_labels_as_one_entry_at_a_time():
    # the row-at-a-time export builds a %-format from the labels: a % in a
    # label must stay literal, a comma or quote must be quoted by csv_cell
    projs = tuple(np.diag(e).astype(complex) for e in np.eye(3))
    odd = Device(name="odd", outcomes=("50%", "a,%s", 'say "%d"'), projectors=projs)
    system = SystemSpec(dim=3, hamiltonian=np.diag([0.0, 0.7, 1.9]) + 0.3)
    init = State(np.full((3, 3), 1 / 3), time_tag=0.0)
    table = biprob_table(system, Schedule(entries=((0.5, odd), (1.2, odd)), init=init))
    lines = ["plus_0,plus_1,minus_0,minus_1,re,im"]
    for bi, q in table.items():
        cells = ",".join(csv_cell(label) for label in bi.plus + bi.minus)
        lines.append(f"{cells},{q.real:.17g},{q.imag:.17g}")
    assert table.to_csv() == "\n".join(lines) + "\n"
    assert '"a,%s",' in table.to_csv()


def test_gudder_metric_reproduces_table():
    system, sched = random_config(17)
    table = biprob_table(system, sched)
    g = gudder_metric(table)
    # reconstruction is the metric itself read back entrywise
    herm = 0.5 * (table.matrix + table.matrix.conj().T)
    assert np.abs(g.metric - herm).max() == 0.0
    assert abs(np.trace(g.metric).real - 1.0) < 1e-10
    evals = np.linalg.eigvalsh(g.metric)
    assert evals.min() > -1e-10
    assert 1 <= g.rank <= table.n_sequences
    assert len(g.basis_labels) == table.n_sequences


def test_uniform_bound_qubit():
    # precession at rate 1/2 gives sup_f v = 1/2, so the ceiling for T = 1
    # is |Omega|^2 e^{2 |Omega| T/2} = 4 e^2
    system = SystemSpec(dim=2, hamiltonian=0.5 * SZ)
    rep = uniform_bound_check(system, DEVX, 1.0, 6)
    assert rep.bound == pytest.approx(4.0 * np.e**2, rel=1e-12)
    assert rep.grid_sizes == (1, 2, 3, 4, 5, 6)
    expected = [1.0, 1.0, 1.1071, 1.1836, 1.2384, 1.2790]
    for got, want in zip(rep.l1_series, expected):
        assert got == pytest.approx(want, abs=5e-4)
    for a, b in zip(rep.l1_series, rep.l1_series[1:]):
        assert b >= a - 1e-10
    assert max(rep.l1_series) < rep.bound


def test_biprob_length_mismatch():
    sched = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=UP_STATE)
    with pytest.raises(ValueError):
        biprob(QUBIT_FREE, sched, BiSequence(("+",), ("-",)))


# ---------------------------------------------------------------------------
# every sequence at once vs. one chain at a time


@st.composite
def chain_cases(draw):
    """Random system, state and per-entry projector families.

    Dimension 2-4, 1-4 entries, repeated times, coarse blocks (fewer blocks
    than dimensions) and rank-deficient states.
    """
    dim = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4))
    rank = draw(st.integers(1, dim))
    n_blocks = draw(st.lists(st.integers(1, dim), min_size=n, max_size=n))
    repeats = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    h = gaussian(dim, dim)
    system = SystemSpec(dim=dim, hamiltonian=0.5 * (h + h.conj().T))
    a = gaussian(dim, rank)
    init = State(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    steps = []
    t = 0.0
    for k, repeat in zip(n_blocks, repeats):
        if not (repeat and steps):
            t += float(rng.uniform(0.1, 1.0))
        v = np.linalg.qr(gaussian(dim, dim))[0]
        cuts = np.sort(rng.choice(np.arange(1, dim), size=k - 1, replace=False))
        blocks = np.split(rng.permutation(dim), cuts)
        steps.append((t, [v[:, b] @ v[:, b].conj().T for b in blocks]))
    return system, init, steps


@settings(max_examples=60)
@given(chain_cases())
def test_chain_probabilities_match_single_chains(case):
    system, init, steps = case
    times = [t for t, _ in steps]
    expected = [
        chain_probability(system, init, list(zip(times, chain)))
        for chain in itertools.product(*(projs for _, projs in steps))
    ]
    got = chain_probabilities(system, init, steps)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


def test_chains_reject_a_decreasing_time():
    with pytest.raises(ValueError, match="chain times must be non-decreasing"):
        chain_probability(QUBIT_FREE, UP_STATE, [(2.0, UP), (1.0, PX)])
    with pytest.raises(ValueError, match="chain times must be non-decreasing"):
        chain_probabilities(QUBIT_FREE, UP_STATE, [(2.0, [UP, DN]), (1.0, [PX, MX])])


# ---------------------------------------------------------------------------
# the BITRAJ_MAX_TABLE cap


@pytest.mark.parametrize("raw", ["lots", "0", "-3", "2.5", "inf", "nan"])
def test_table_cap_rejects_malformed_values(monkeypatch, raw):
    monkeypatch.setenv("BITRAJ_MAX_TABLE", raw)
    with pytest.raises(ValueError, match="BITRAJ_MAX_TABLE"):
        max_table_entries()
    system, sched = random_config(11, dim=2, n=1)
    with pytest.raises(ValueError, match="BITRAJ_MAX_TABLE"):
        biprob_table(system, sched)


def test_table_cap_accepts_float_spelling(monkeypatch):
    monkeypatch.setenv("BITRAJ_MAX_TABLE", "1e6")
    assert max_table_entries() == 1_000_000
    monkeypatch.setenv("BITRAJ_MAX_TABLE", "")
    assert max_table_entries() == 10_000_000


def _enumerations():
    """One call of every entry point that enumerates outcome sequences, on qubits."""
    from bitraj import (
        CoarseSchedule,
        Coupling,
        InitSpec,
        OpenSpec,
        Resolution,
        conditional_prob,
        dynamical_map_bitraj,
        extreme_coarse_delta,
        factorization_delta,
        faux_coarse_prob,
        markov_delta,
        observable_restriction_delta,
        pairwise_decompose,
        stationarity_delta,
        two_time_commutator,
    )

    system = SystemSpec(dim=2, hamiltonian=0.5 * SX)
    sched = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=UP_STATE)
    steps = [(t, dev.projectors) for t, dev in sched.entries]
    cs = CoarseSchedule(
        entries=((1.0, DEVX, Resolution.full(DEVX)), (2.0, DEVZ, None)), init=UP_STATE
    )
    open_spec = OpenSpec(
        system=system,
        environment=QUBIT_FREE,
        couplings=(Coupling(SZ, SZ, 0.3),),
        env_state=State(np.eye(2) / 2),
    )
    return {
        "biprob_table": lambda: biprob_table(system, sched),
        "chain_probabilities": lambda: chain_probabilities(system, UP_STATE, steps),
        "faux_coarse_prob": lambda: faux_coarse_prob(system, cs, ("any", "u")),
        "pairwise_decompose": lambda: pairwise_decompose(system, cs, ("any", "u")),
        "extreme_coarse_delta": lambda: extreme_coarse_delta(system, sched, 0),
        "markov_delta": lambda: markov_delta(
            system, DEVZ, [0.5, 1.0], InitSpec(entries=((DEVZ, "u", 1.0),), time=0.0)
        ),
        "stationarity_delta": lambda: stationarity_delta(system, sched, 0.7),
        "conditional_prob": lambda: conditional_prob(system, sched, ("+",), "u"),
        "observable_restriction_delta": lambda: observable_restriction_delta(system, sched),
        "dynamical_map_bitraj": lambda: dynamical_map_bitraj(
            open_spec, 1.0, 1, via_enumeration=True
        ),
        "uniform_bound_check": lambda: uniform_bound_check(system, DEVZ, 1.0, 2),
        "factorization_delta": lambda: factorization_delta(system, system, sched, sched),
        "two_time_commutator": lambda: two_time_commutator(system, SZ, SX, 2.0, 1.0, UP_STATE),
    }


@pytest.mark.parametrize("name", sorted(_enumerations()))
def test_every_enumeration_goes_through_the_guard(monkeypatch, name):
    call = _enumerations()[name]
    call()  # runs under the default cap
    monkeypatch.setenv("BITRAJ_MAX_TABLE", "1")
    with pytest.raises(TableSizeError) as exc:
        call()
    assert exc.value.limit == 1


# ---------------------------------------------------------------------------
# the row-block report against the dense reference


def dense_report(table):
    """Reference report: every witness from dense N x N arrays, ``eigvalsh`` for positivity."""
    m = table.matrix
    normalization_error = abs(complex(m.sum()) - 1.0)

    max_biconsistency = 0.0
    n = len(table.schedule)
    for pos in range(n):
        if n == 1:
            marg = complex(m.sum())
            max_biconsistency = max(max_biconsistency, abs(marg - 1.0))
            continue
        marg = marginalize_pair(table, pos)
        fresh = biprob_table(table.system, table.schedule.without(pos))
        diff = np.abs(marg.matrix - fresh.matrix).max()
        max_biconsistency = max(max_biconsistency, float(diff))

    radices = table.radices
    last_r = radices[-1]
    shaped = np.abs(m.reshape(-1, last_r, table.n_sequences // last_r, last_r))
    off_last = shaped.copy()
    idx = np.arange(last_r)
    off_last[:, idx, :, idx] = 0.0
    max_causality = float(off_last.max())

    max_hermitianity = float(np.abs(m - m.conj().T).max())

    herm = 0.5 * (m + m.conj().T)
    eigvals = np.linalg.eigvalsh(herm)
    min_gram = float(eigvals.min())

    diag = m.diagonal()
    max_diag_neg = float(max(0.0, -diag.real.min()))

    l1 = float(np.abs(m).sum())

    return PropertyReport(
        normalization_error=float(normalization_error),
        max_biconsistency_error=max_biconsistency,
        max_causality_violation=max_causality,
        max_hermitianity_error=max_hermitianity,
        min_gram_eigenvalue=min_gram,
        max_diagonal_negativity=max_diag_neg,
        l1_norm=l1,
    )


@st.composite
def report_cases(draw):
    """Random library-built tables of up to 256 sequences.

    Dimension 2-5, 1-5 entries, coarse devices (fewer blocks than dimensions,
    down to a single outcome), ||H||_2 from 1e-2 to 1e3 and rank-deficient
    states; about half the cases are cut to N <= d^2 sequences.
    """
    dim = draw(st.integers(2, 5))
    n = draw(st.integers(1, 5))
    rank = draw(st.integers(1, dim))
    n_blocks = draw(st.lists(st.integers(1, dim), min_size=n, max_size=n))
    log_scale = draw(st.floats(-2.0, 3.0))
    cap = dim * dim if draw(st.booleans()) else 256
    while len(n_blocks) > 1 and math.prod(n_blocks) > cap:
        n_blocks.pop()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    h = gaussian(dim, dim)
    h = h + h.conj().T
    system = SystemSpec(dim=dim, hamiltonian=h * 10.0**log_scale / np.linalg.norm(h, 2))
    a = gaussian(dim, rank)
    init = State(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    entries = []
    t = 0.0
    for j, k in enumerate(n_blocks):
        t += float(rng.uniform(0.1, 1.0))
        v = np.linalg.qr(gaussian(dim, dim))[0]
        cuts = np.sort(rng.choice(np.arange(1, dim), size=k - 1, replace=False))
        blocks = np.split(rng.permutation(dim), cuts)
        projs = tuple(v[:, b] @ v[:, b].conj().T for b in blocks)
        entries.append((t, Device(name=f"D{j}", outcomes=tuple(range(k)), projectors=projs)))
    return system, Schedule(entries=tuple(entries), init=init)


@settings(max_examples=60)
@given(report_cases())
def test_property_report_matches_the_dense_reference(case):
    table = biprob_table(*case)
    got = property_report(table).as_dict()
    want = dense_report(table).as_dict()
    gram = got.pop("min_gram_eigenvalue")
    dense_gram = want.pop("min_gram_eigenvalue")
    assert got == want  # every other witness bit for bit
    assert gram <= dense_gram + 1e-15  # a lower bound on the dense eigenvalue
    assert gram >= -1e-12


def check_mass(got, m):
    """``got`` is within ``(B + 40) * 2^-53`` of the exact ``sum |m|``; returns B, the row blocks."""
    blocks = -(-m.shape[0] // max(1, engine._BLOCK_BYTES // m[0].nbytes))
    exact = math.fsum(np.abs(m).ravel())
    assert abs(got - exact) <= (blocks + 40) * 2.0**-53 * exact
    return blocks


@settings(max_examples=40)
@given(report_cases())
def test_block_mass_is_within_the_summation_bound(case):
    m = biprob_table(*case).matrix
    for block in (m[0].nbytes, 3 * m[0].nbytes, engine._BLOCK_BYTES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_BLOCK_BYTES", block)
            got = engine._mass(m)
            blocks = check_mass(got, m)
        if blocks == 1:  # NumPy's pairwise sum of the whole table, bit for bit
            assert got == np.abs(m).sum()


def test_block_mass_is_within_the_summation_bound_on_a_large_table():
    # 2187 rows of 35 KB: the default block holds 119 of them
    m = biprob_table(*random_config(303, dim=3, n=7)).matrix
    assert check_mass(engine._mass(m), m) == 19


@settings(max_examples=30)
@given(report_cases(), st.sampled_from([1, 3, None]))
def test_property_report_matches_the_dense_reference_in_small_blocks(case, block_rows):
    # one- and three-row blocks put the causality mask at every row offset;
    # the mass and the Gram residual follow their blocks, so they are bounded
    table = biprob_table(*case)
    want = dense_report(table).as_dict()
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(engine, "_BLOCK_BYTES", block_rows * table.matrix[0].nbytes)
        got = property_report(table).as_dict()
        check_mass(got.pop("l1_norm"), table.matrix)
    assert got.pop("min_gram_eigenvalue") <= want.pop("min_gram_eigenvalue") + 1e-15
    want.pop("l1_norm")
    assert got == want  # every other witness bit for bit


@st.composite
def degenerate_cases(draw):
    """Random tables over spectral devices of observables with repeated eigenvalues.

    Each entry's observable has 1 to dim - 1 distinct eigenvalues, so some
    eigenspace has rank 2 or more.  The repeats are exact (a diagonal
    observable) or the observable is conjugated by a random unitary, so that
    ``eigh`` returns repeats that differ in the last bits.  Dimension 2-5, 1-5
    entries, ||H||_2 and the spectral scale from 1e-2 to 1e3, rank-deficient
    states; about half the cases are cut to N <= d^2 sequences.  Returns the
    system, the schedule and each entry's number of distinct eigenvalues.
    """
    dim = draw(st.integers(2, 5))
    n = draw(st.integers(1, 5))
    rank = draw(st.integers(1, dim))
    n_levels = draw(st.lists(st.integers(1, dim - 1), min_size=n, max_size=n))
    conjugate = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    log_scale = draw(st.floats(-2.0, 3.0))
    log_spectrum = draw(st.floats(-2.0, 3.0))
    cap = dim * dim if draw(st.booleans()) else 256
    while len(n_levels) > 1 and math.prod(n_levels) > cap:
        n_levels.pop()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    h = gaussian(dim, dim)
    h = h + h.conj().T
    system = SystemSpec(dim=dim, hamiltonian=h * 10.0**log_scale / np.linalg.norm(h, 2))
    a = gaussian(dim, rank)
    init = State(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    entries = []
    t = 0.0
    for j, (k, conj) in enumerate(zip(n_levels, conjugate)):
        t += float(rng.uniform(0.1, 1.0))
        # k levels at least half a unit apart, each repeated as often as its eigenspace's rank
        levels = rng.normal() + np.arange(k) + 0.5 * rng.uniform(size=k)
        cuts = np.sort(rng.choice(np.arange(1, dim), size=k - 1, replace=False))
        spectrum = rng.permutation(np.repeat(levels, np.diff([0, *cuts, dim])))
        obs = np.diag(spectrum * 10.0**log_spectrum).astype(complex)
        if conj:
            v = np.linalg.qr(gaussian(dim, dim))[0]
            obs = v @ obs @ v.conj().T
        entries.append((t, device_from_hermitian(obs, name=f"D{j}")))
    return system, Schedule(entries=tuple(entries), init=init), n_levels


@settings(max_examples=60)
@given(degenerate_cases())
def test_degenerate_observables_pass_the_cli_bounds(case):
    system, sched, n_levels = case
    # each eigenspace is one outcome, near-repeats included
    assert [dev.n_outcomes for dev in sched.devices] == n_levels
    assert cli_check_failures(biprob_table(system, sched)) == []


@settings(max_examples=30)
@given(report_cases())
def test_gram_bound_fails_a_table_with_a_negative_direction(case):
    # shift the least eigenvalue of herm(Q) to -delta along its eigenvector;
    # the 1e-15 allows for the round-off of the dense eigenvalue shifted
    table = biprob_table(*case)
    w, v = np.linalg.eigh(0.5 * (table.matrix + table.matrix.conj().T))
    for delta in (1e-9, 1e-6, 1e-3):
        bump = -(w[0] + delta) * np.outer(v[:, 0], v[:, 0].conj())
        bent = dataclasses.replace(table, matrix=table.matrix + bump)
        gram = property_report(bent).min_gram_eigenvalue
        assert gram <= -delta + 1e-15
        assert gram <= dense_report(bent).min_gram_eigenvalue + 1e-15
        check = _check("gram_min_eigenvalue", gram, DEFAULT_TOLERANCES["gram_min"], ">=")
        assert not check["pass"]


@pytest.mark.parametrize("entry", [(0, 5), (3, 3)], ids=["off-diagonal", "diagonal"])
def test_witnesses_report_a_nan_entry(entry):
    # a fold with Python's max drops NaN and would read 0.0 here; the diagonal
    # negativity reads only the diagonal, so only a diagonal NaN reaches it
    table = biprob_table(*random_config(304, dim=2, n=3))
    matrix = table.matrix.copy()
    matrix[entry] = np.nan
    rep = property_report(dataclasses.replace(table, matrix=matrix))
    assert math.isnan(rep.normalization_error)
    assert math.isnan(rep.max_biconsistency_error)
    assert math.isnan(rep.max_diagonal_negativity) == (entry[0] == entry[1])


def test_property_report_memory_stays_near_one_table():
    system, sched = random_config(300, dim=2, n=11)
    table = biprob_table(system, sched)
    assert table.n_sequences == 2048
    ratio = extra_peak(lambda: property_report(table)) / table.matrix.nbytes
    assert ratio < 1.5, f"extra peak {ratio:.3f}x the table"


def test_property_report_makes_no_table_sized_eigensolve(monkeypatch):
    sizes = []
    for name in ("eigvalsh", "eigh"):
        solver = getattr(np.linalg, name)

        def spy(a, *args, _solver=solver, **kwargs):
            sizes.append(np.shape(a)[-1])
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    for seed, dim, n in [(301, 2, 6), (302, 3, 3), (303, 4, 3)]:
        table = biprob_table(*random_config(seed, dim=dim, n=n))
        assert table.n_sequences > dim * dim
        sizes.clear()
        property_report(table)
        assert sizes and max(sizes) <= dim * dim


@pytest.mark.parametrize("dim, n", [(2, 11), (3, 7)])
def test_property_report_keeps_one_marginal_alive(dim, n):
    # the peak is one marginal/fresh pair (0.5x on a qubit, 0.23x on a qutrit)
    # plus a leaf of scratch; a second live pair or a whole-marginal diff
    # temporary breaks 0.6x
    table = biprob_table(*random_config(300 + dim, dim=dim, n=n))
    assert table.n_sequences == dim**n
    ratio = extra_peak(lambda: property_report(table)) / table.matrix.nbytes
    assert ratio < 0.6, f"extra peak {ratio:.3f}x the table"


def test_property_report_keeps_no_table_sized_temporary(monkeypatch):
    # without bi-consistency the peak is one block of the Gram residual
    # (0.05x here); an N x N float copy such as |Q| alone is 0.5x
    table = biprob_table(*random_config(303, dim=3, n=7))
    monkeypatch.setattr(engine, "_max_biconsistency", lambda table: 0.0)
    ratio = extra_peak(lambda: property_report(table)) / table.matrix.nbytes
    assert ratio < 0.2, f"extra peak {ratio:.3f}x the table"


def test_property_report_holds_one_block_buffer_at_a_time():
    # a ququart block is a quarter of the table, so two block buffers alive
    # at once, or |Q| next to one, reach 0.5x
    table = biprob_table(*random_config(304, dim=4, n=5))
    assert table.n_sequences == 1024
    ratio = extra_peak(lambda: property_report(table)) / table.matrix.nbytes
    assert ratio < 0.5, f"extra peak {ratio:.3f}x the table"


def test_property_report_lets_the_table_go_without_the_cycle_collector():
    # a reference cycle through the report's helpers would keep each table
    # alive until a collection, so a loop of reports would grow without bound
    table = biprob_table(*random_config(302, dim=2, n=6))
    gc.disable()
    try:
        property_report(table)
        probe = weakref.ref(table.matrix)
        del table
        assert probe() is None
    finally:
        gc.enable()


def test_hermitianity_witness_memory_stays_below_half_a_table():
    table = biprob_table(*random_config(309, dim=2, n=9))
    assert table.n_sequences == 512
    ratio = extra_peak(lambda: engine._max_hermitianity(table.matrix)) / table.matrix.nbytes
    assert ratio < 0.5, f"extra peak {ratio:.3f}x the table"


def test_hermitianity_witness_works_in_small_tiles():
    table = biprob_table(*random_config(302, dim=2, n=11))
    ratio = extra_peak(lambda: engine._max_hermitianity(table.matrix)) / table.matrix.nbytes
    assert ratio < 0.03, f"extra peak {ratio:.4f}x the table"


def test_table_export_holds_no_table_sized_text(tmp_path):
    # the whole CSV as one string is about 18x the table; one row at a time
    # is a few hundredths of it
    table = biprob_table(*random_config(311, dim=2, n=8))
    assert table.n_sequences == 256
    path = tmp_path / "table.csv"

    def export():
        with open(path, "w", encoding="utf-8") as fh:
            table.write_csv(fh)

    ratio = extra_peak(export) / table.matrix.nbytes
    assert ratio < 0.25, f"extra peak {ratio:.3f}x the table"
    assert path.read_text(encoding="utf-8") == table.to_csv()


@pytest.mark.parametrize("block_rows", [1, 3, None])
def test_hermitianity_witness_equals_the_dense_formula(monkeypatch, block_rows):
    # |x - conj y| and |y - conj x| are exact mirrors, so the blocked maximum
    # is the dense one bit for bit, at any block size
    rng = np.random.default_rng(310)
    table = biprob_table(*random_config(310, dim=3, n=4))
    noise = rng.normal(size=(81, 81)) + 1j * rng.normal(size=(81, 81))
    odd = rng.normal(size=(37, 37)) + 1j * rng.normal(size=(37, 37))
    for m in (table.matrix, table.matrix + 1e-9 * noise, odd):
        if block_rows is not None:
            monkeypatch.setattr(engine, "_BLOCK_BYTES", block_rows * m[0].nbytes)
        assert engine._max_hermitianity(m) == np.abs(m - m.conj().T).max()


# ---------------------------------------------------------------------------
# the order of the pair marginal's sums


def ordered_marginal(matrix, radices, pos):
    """Sum the row slabs Q[(a, i, b), :] in turn over i, then the column slabs over j."""
    r = radices[pos]
    total = matrix.shape[0]
    inner = math.prod(radices[pos + 1:])
    outer = total // (r * inner)
    slabs = matrix.reshape(outer, r, inner, total)
    rows = slabs[:, 0]
    for i in range(1, r):
        rows = rows + slabs[:, i]
    cols = rows.reshape(outer * inner, outer, r, inner)
    out = cols[:, :, 0]
    for j in range(1, r):
        out = out + cols[:, :, j]
    return out.reshape(total // r, total // r)


@settings(max_examples=40)
@given(report_cases(), st.integers(2, 5))
def test_marginalize_pair_sums_in_a_fixed_order(case, few):
    table = biprob_table(*case)
    n = len(table.schedule)
    assume(n > 1)
    radices = table.radices
    row_bytes = table.matrix[0].nbytes
    eps = np.finfo(float).eps
    for pos in range(n):
        want = ordered_marginal(table.matrix, radices, pos)
        for block in (row_bytes, few * row_bytes, engine._BLOCK_BYTES):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "_BLOCK_BYTES", block)
                got = marginalize_pair(table, pos)
            assert got.matrix.tobytes() == want.tobytes()  # bit for bit at every block size
        # within round-off of numpy's own two-axis reduction: r^2 terms per entry
        axes = (pos, n + pos)
        old = table.matrix.reshape(radices + radices).sum(axis=axes).reshape(want.shape)
        mass = np.abs(table.matrix).reshape(radices + radices).sum(axis=axes).reshape(want.shape)
        assert (np.abs(want - old) <= radices[pos] ** 2 * eps * mass).all()


# ---------------------------------------------------------------------------
# digests


def test_table_digest_covers_the_hamiltonian():
    system, sched = random_config(21, dim=2, n=2)
    other = SystemSpec(dim=2, hamiltonian=system.hamiltonian + SZ)
    table, same, moved = (biprob_table(s, sched) for s in (system, system, other))
    assert table.schedule_digest == moved.schedule_digest
    assert table.digest == same.digest
    assert table.digest != moved.digest
