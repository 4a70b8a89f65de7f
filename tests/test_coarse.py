import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitraj import (
    CoarseSchedule,
    Device,
    Resolution,
    Schedule,
    State,
    SystemSpec,
    TableSizeError,
    coarse,
    coarse_device,
    extreme_coarse_delta,
    faux_coarse_prob,
    interference_term,
    pairwise_decompose,
    quantum_coarse_prob,
)
from conftest import extra_peak

SX = np.array([[0, 1], [1, 0]], dtype=complex)
UP = np.diag([1.0, 0.0]).astype(complex)
DN = np.diag([0.0, 1.0]).astype(complex)
PX = 0.5 * (np.eye(2) + SX)
H0 = np.zeros((2, 2), dtype=complex)

DEVZ = Device(name="Z", outcomes=("u", "d"), projectors=(UP, DN))
DEVX = Device(name="X", outcomes=("+", "-"), projectors=(PX, np.eye(2) - PX))
QUBIT_FREE = SystemSpec(dim=2, hamiltonian=H0)
UP_STATE = State(UP, time_tag=0.0)


def fine_basis_device(dim, seed, name="D"):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    v = np.linalg.qr(a)[0]
    projs = tuple(np.outer(v[:, k], v[:, k].conj()) for k in range(dim))
    return Device(name=name, outcomes=tuple(range(dim)), projectors=projs)


def random_schedule(seed, dim, n):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    system = SystemSpec(dim=dim, hamiltonian=0.5 * (h + h.conj().T))
    devs = [fine_basis_device(dim, 1000 * seed + k, name=f"D{k}") for k in range(n)]
    times = np.cumsum(rng.uniform(0.2, 1.0, size=n))
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    init = State(np.outer(psi, psi.conj()), time_tag=0.0)
    return system, Schedule(entries=tuple(zip(times, devs)), init=init)


# ---------------------------------------------------------------------------
# the Z,X textbook case: merging both X outcomes restores the certain "u",
# while reading X out finely and summing only gives 1/2; the gap is twice
# the 1/4 interference term.


def test_quantum_coarse_is_one():
    res = Resolution(DEVX, (("+", "-"),), ("any",))
    cs = CoarseSchedule(entries=((1.0, DEVX, res), (2.0, DEVZ, None)), init=UP_STATE)
    p = quantum_coarse_prob(QUBIT_FREE, cs, ("any", "u"))
    assert p == pytest.approx(1.0, abs=1e-14)


def test_faux_coarse_is_half():
    res = Resolution(DEVX, (("+", "-"),), ("any",))
    cs = CoarseSchedule(entries=((1.0, DEVX, res), (2.0, DEVZ, None)), init=UP_STATE)
    p = faux_coarse_prob(QUBIT_FREE, cs, ("any", "u"))
    assert p == pytest.approx(0.5, abs=1e-14)


def test_interference_term_quarter_both_routes():
    sched = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=UP_STATE)
    term = interference_term(QUBIT_FREE, sched, 0, ("+", "-"), ("+", "u"))
    assert term.from_biprob == pytest.approx(0.25, abs=1e-12)
    assert term.from_probabilities == pytest.approx(0.25, abs=1e-12)


def test_interference_decomposes_the_gap():
    res = Resolution(DEVX, (("+", "-"),), ("any",))
    cs = CoarseSchedule(entries=((1.0, DEVX, res), (2.0, DEVZ, None)), init=UP_STATE)
    quantum = quantum_coarse_prob(QUBIT_FREE, cs, ("any", "u"))
    faux = faux_coarse_prob(QUBIT_FREE, cs, ("any", "u"))
    sched = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=UP_STATE)
    term = interference_term(QUBIT_FREE, sched, 0, ("+", "-"), ("+", "u"))
    # P(block) = sum of fine + 2 * interference for a two-member block
    assert quantum == pytest.approx(faux + 2 * term.from_biprob, abs=1e-12)


def test_interference_rejects_identical_pair():
    sched = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=UP_STATE)
    with pytest.raises(ValueError):
        interference_term(QUBIT_FREE, sched, 0, ("+", "+"), ("+", "u"))


@pytest.mark.parametrize("position", [-1, 2])
def test_a_position_off_the_schedule_is_refused(position):
    sched = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=UP_STATE)
    with pytest.raises(IndexError, match="out of range"):
        interference_term(QUBIT_FREE, sched, position, ("+", "-"), ("+", "u"))
    with pytest.raises(IndexError, match="out of range"):
        extreme_coarse_delta(QUBIT_FREE, sched, position)


def test_resolution_validation():
    with pytest.raises(ValueError, match="more than one block"):
        Resolution(DEVX, (("+", "-"), ("-",)), ("a", "b"))
    with pytest.raises(ValueError, match="cover"):
        Resolution(DEVX, (("+",),), ("a",))
    with pytest.raises(ValueError, match="unique"):
        Resolution(DEVX, (("+",), ("-",)), ("a", "a"))


def test_coarse_device_block_projectors():
    res = Resolution(DEVX, (("+", "-"),), ("any",))
    dev = coarse_device(DEVX, res)
    assert dev.outcomes == ("any",)
    assert np.abs(dev.projector_for("any") - np.eye(2)).max() < 1e-14


def test_full_and_singleton_resolutions():
    full = Resolution.full(DEVZ)
    assert full.block_labels == ("any",)
    assert full.members("any") == ("u", "d")
    single = Resolution.singletons(DEVZ)
    assert single.blocks == (("u",), ("d",))


@pytest.mark.parametrize("seed", range(10))
def test_extreme_coarse_matches_deletion(seed):
    # inserting a merge-everything readout anywhere is the same as never
    # measuring there at all
    dim = 2 + seed % 3
    system, sched = random_schedule(300 + seed, dim, 3)
    for pos in range(3):
        assert extreme_coarse_delta(system, sched, pos) <= 1e-10


@pytest.mark.parametrize("dim,blocks", [(3, ((0, 1), (2,))), (4, ((0, 1, 2), (3,))), (4, ((0, 1), (2, 3)))])
def test_pairwise_recurrence(dim, blocks):
    system, sched = random_schedule(17 + dim, dim, 2)
    labels = tuple(f"b{i}" for i in range(len(blocks)))
    entries = []
    for (t, dev) in sched.entries:
        entries.append((t, dev, Resolution(dev, blocks, labels)))
    cs = CoarseSchedule(entries=tuple(entries), init=sched.init)
    for outcome in labels:
        dec = pairwise_decompose(system, cs, (outcome, "b0"))
        assert dec.recurrence_value == pytest.approx(dec.direct_value, abs=1e-9)


@st.composite
def pairwise_cases(draw):
    """One or two coarse readouts, each with one block of 1 to d outcomes.

    Dimension 2-5, states of every rank, ||H||_2 from 1e-2 to 1e5.
    """
    dim = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(1, dim), min_size=1, max_size=2))
    rank = draw(st.integers(1, dim))
    log_norm = draw(st.floats(-2.0, 5.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    h = gaussian(dim, dim)
    h = 0.5 * (h + h.conj().T)
    system = SystemSpec(dim=dim, hamiltonian=h * 10.0**log_norm / np.linalg.norm(h, 2))
    a = gaussian(dim, rank)
    init = State(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    entries = []
    for k, (t, size) in enumerate(zip(np.cumsum(rng.uniform(0.1, 1.0, len(sizes))), sizes)):
        dev = fine_basis_device(dim, int(rng.integers(2**32)), name=f"D{k}")
        order = [int(i) for i in rng.permutation(dim)]
        blocks = (tuple(order[:size]),) + tuple((i,) for i in order[size:])
        labels = ("blk",) + tuple(f"o{i}" for i in order[size:])
        entries.append((float(t), dev, Resolution(dev, blocks, labels)))
    return system, CoarseSchedule(entries=tuple(entries), init=init)


@settings(max_examples=60)
@given(pairwise_cases())
def test_pairwise_gate_holds_at_any_scale(case):
    system, cs = case
    dec = pairwise_decompose(system, cs, ("blk",) * len(cs.entries))
    assert abs(dec.recurrence_value - dec.direct_value) <= 1e-9


def _one_block_schedule(dim: int, n: int) -> tuple[SystemSpec, CoarseSchedule]:
    """``n`` readouts of a ``dim``-outcome device, each merged into one block ``"all"``."""
    projs = tuple(np.diag([float(i == k) for i in range(dim)]).astype(complex) for k in range(dim))
    dev = Device(name="wide", outcomes=tuple(range(dim)), projectors=projs)
    system = SystemSpec(dim=dim, hamiltonian=np.zeros((dim, dim)))
    res = Resolution(dev, (tuple(range(dim)),), ("all",))
    entries = tuple((float(j + 1), dev, res) for j in range(n))
    return system, CoarseSchedule(entries=entries, init=State(np.eye(dim) / dim))


def test_pairwise_recurrence_is_guarded(monkeypatch):
    # a block of 13 ends in 13 singles and 78 pairs, each a chain of d^2 = 169 entries
    monkeypatch.delenv("BITRAJ_MAX_TABLE", raising=False)
    system, cs = _one_block_schedule(13, 1)
    assert pairwise_decompose(system, cs, ("all",)).term_count == 91
    monkeypatch.setenv("BITRAJ_MAX_TABLE", str(91 * 169 - 1))
    with pytest.raises(TableSizeError) as exc:
        pairwise_decompose(system, cs, ("all",))
    assert exc.value.requested == 91 * 169
    # 12 outcomes in one block over 4 entries: the fine chains fit the default
    # cap (12^4 * 144), the 78^4 readouts are refused before any is evaluated
    # or given a weight (one float each would take 282 MiB)
    monkeypatch.delenv("BITRAJ_MAX_TABLE")
    system, cs = _one_block_schedule(12, 4)

    def refused():
        with pytest.raises(TableSizeError) as exc:
            pairwise_decompose(system, cs, ("all",) * 4)
        assert exc.value.requested == 78**4 * 144

    assert extra_peak(refused) < 2**20


def test_each_check_reads_its_readouts_in_one_engine_call(monkeypatch):
    calls = {"chain_probabilities": 0, "chain_probability": 0}

    def counted(name):
        inner = getattr(coarse, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(coarse, name, counted(name))
    system, cs = _one_block_schedule(4, 3)
    assert pairwise_decompose(system, cs, ("all",) * 3).term_count == 10**3
    # the direct value is the one single chain
    assert calls == {"chain_probabilities": 1, "chain_probability": 1}
    sched = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=UP_STATE)
    interference_term(QUBIT_FREE, sched, 0, ("+", "-"), ("+", "u"))
    assert calls == {"chain_probabilities": 2, "chain_probability": 1}


def test_coarse_schedule_allows_equal_times():
    cs = CoarseSchedule(entries=((1.0, DEVZ, None), (1.0, DEVX, None)), init=UP_STATE)
    p = quantum_coarse_prob(QUBIT_FREE, cs, ("u", "+"))
    assert p == pytest.approx(0.5, abs=1e-14)


def test_coarse_schedule_rejects_decreasing_times():
    with pytest.raises(ValueError):
        CoarseSchedule(entries=((2.0, DEVZ, None), (1.0, DEVX, None)), init=UP_STATE)


def _plain(entries, init):
    """The ``Schedule`` of (time, device, resolution) entries, each resolution folded in."""
    return Schedule(
        tuple((t, dev if res is None else coarse_device(dev, res)) for t, dev, res in entries),
        init,
    )


@pytest.mark.parametrize("build", [CoarseSchedule, _plain], ids=["coarse", "plain"])
@pytest.mark.parametrize(
    "entries, t0, message",
    [
        (((2.0, DEVZ, None), (1.0, DEVX, None)), 0.0, "non-decreasing"),
        (((0.5, DEVZ, None), (1.0, DEVX, None)), 1.0, "not before t0=1.0"),
        (((1.0, DEVZ, None), (2.0, fine_basis_device(3, 7), None)), 0.0, "dim 3 != state dim 2"),
        (((1.0, DEVZ, Resolution.full(DEVX)),), 0.0, "built for a different device"),
    ],
    ids=["decreasing", "before-t0", "dimension", "foreign-resolution"],
)
def test_both_schedule_types_reject_alike(build, entries, t0, message):
    with pytest.raises(ValueError, match=message):
        build(entries, State(UP, time_tag=t0))


def test_a_coarse_schedule_reads_as_its_folded_schedule():
    res = Resolution.full(DEVX)
    entries = ((1.0, DEVX, res), (1.0, DEVZ, None))
    cs = CoarseSchedule(entries, UP_STATE)
    plain = _plain(entries, UP_STATE)
    assert cs.entries == entries
    assert (cs.times, len(cs), cs.init) == (plain.times, len(plain), plain.init)
    assert [d.name for d in cs.devices] == ["X|any", "Z"]
    assert cs.digest == plain.digest and cs.digest_payload() == plain.digest_payload()


def test_quantum_equals_faux_for_fine_outcomes():
    # with no merging the two notions coincide
    system, sched = random_schedule(99, 3, 2)
    cs = CoarseSchedule(entries=tuple((t, dev, None) for t, dev in sched.entries), init=sched.init)
    for a in range(3):
        for b in range(3):
            q = quantum_coarse_prob(system, cs, (a, b))
            f = faux_coarse_prob(system, cs, (a, b))
            assert q == pytest.approx(f, abs=1e-12)


def test_coarse_enumerations_are_guarded(monkeypatch):
    # the leaves hold N sequences times d^2 = 4 entries: 2 * 4 = 8 > 4 here
    monkeypatch.setenv("BITRAJ_MAX_TABLE", "4")
    res = Resolution.full(DEVX)
    cs = CoarseSchedule(entries=((1.0, DEVX, res), (2.0, DEVZ, None)), init=UP_STATE)
    with pytest.raises(TableSizeError) as exc:
        faux_coarse_prob(QUBIT_FREE, cs, ("any", "u"))
    assert (exc.value.requested, exc.value.limit) == (8, 4)
    sched = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=UP_STATE)
    with pytest.raises(TableSizeError):
        extreme_coarse_delta(QUBIT_FREE, sched, 0)
