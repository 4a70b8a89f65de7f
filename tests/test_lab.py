import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from bitraj import (
    CoarseSchedule,
    Device,
    SampleRun,
    Schedule,
    State,
    SystemSpec,
    empirical_distribution,
    estimate_uncertainty,
    reconstruct_interference,
    sample_sequences,
)
from bitraj import engine, lab
from bitraj.core import heisenberg_projectors
from bitraj.lab import pair_resolution

SX = np.array([[0, 1], [1, 0]], dtype=complex)
UP = np.diag([1.0, 0.0]).astype(complex)
DN = np.diag([0.0, 1.0]).astype(complex)
PX = 0.5 * (np.eye(2) + SX)

DEVZ = Device(name="Z", outcomes=("u", "d"), projectors=(UP, DN))
DEVX = Device(name="X", outcomes=("+", "-"), projectors=(PX, np.eye(2) - PX))
QUBIT_FREE = SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))
UP_STATE = State(UP, time_tag=0.0)


@pytest.fixture(autouse=True)
def cold_node_tables(monkeypatch):
    """Give every test an empty node-table memo of its own."""
    monkeypatch.setattr(lab, "_TABLES", lab._TableMemo())


def test_deterministic_outcome_sampling():
    # H = 0, measure Z on |up>: every draw must read "u"
    sched = Schedule(entries=((1.0, DEVZ),), init=UP_STATE)
    run = sample_sequences(QUBIT_FREE, sched, 500, seed=3)
    assert run.counts == {("u",): 500}


def test_x_on_up_is_a_fair_coin():
    sched = Schedule(entries=((1.0, DEVX),), init=UP_STATE)
    n = 10_000
    run = sample_sequences(QUBIT_FREE, sched, n, seed=4)
    p_hat = run.counts[("+",)] / n
    sigma = math.sqrt(0.25 / n)
    assert abs(p_hat - 0.5) <= 4 * sigma


def test_zero_probability_branch_never_drawn():
    # H = 0: a second Z readout after "u" can never give "d"
    sched = Schedule(entries=((1.0, DEVZ), (2.0, DEVZ)), init=UP_STATE)
    run = sample_sequences(QUBIT_FREE, sched, 2000, seed=5)
    assert set(run.counts) == {("u", "u")}


def test_sampler_is_worker_invariant():
    system = SystemSpec(dim=2, hamiltonian=0.5 * SX)
    sched = Schedule(entries=((0.5, DEVZ), (1.0, DEVZ), (1.5, DEVZ)), init=UP_STATE)
    runs = [sample_sequences(system, sched, 5000, seed=7, workers=w) for w in (1, 2, 8)]
    assert runs[0].counts == runs[1].counts == runs[2].counts
    assert runs[0].schedule_digest == runs[1].schedule_digest


def test_sampler_seed_sensitivity():
    sched = Schedule(entries=((1.0, DEVX),), init=UP_STATE)
    r1 = sample_sequences(QUBIT_FREE, sched, 4000, seed=1)
    r2 = sample_sequences(QUBIT_FREE, sched, 4000, seed=2)
    assert r1.counts != r2.counts


def test_sample_accepts_coarse_schedule():
    res = pair_resolution(DEVX, ("+", "-"))
    cs = CoarseSchedule(entries=((1.0, DEVX, res), (2.0, DEVZ, None)), init=UP_STATE)
    run = sample_sequences(QUBIT_FREE, cs, 300, seed=9)
    # merging both X outcomes restores the certain "u"
    assert run.counts == {("+|-", "u"): 300}


def test_sample_rejects_bad_arguments():
    sched = Schedule(entries=((1.0, DEVZ),), init=UP_STATE)
    with pytest.raises(ValueError):
        sample_sequences(QUBIT_FREE, sched, 0, seed=1)
    with pytest.raises(ValueError):
        sample_sequences(QUBIT_FREE, sched, 10, seed=1, workers=0)


@pytest.mark.parametrize(
    "n_samples, seed, field",
    [
        (10, 2**64, "seed"),
        (10, -1, "seed"),
        (10, 1.5, "seed"),
        (10, True, "seed"),
        (10, "3", "seed"),
        (True, 1, "n_samples"),
        (100.0, 1, "n_samples"),
    ],
)
def test_sample_rejects_bad_seeds_and_trial_counts(n_samples, seed, field):
    sched = Schedule(entries=((1.0, DEVZ),), init=UP_STATE)
    with pytest.raises(ValueError, match=field):
        sample_sequences(QUBIT_FREE, sched, n_samples, seed=seed)


def test_seed_range_is_zero_to_two_to_the_64():
    sched = Schedule(entries=((1.0, DEVX),), init=UP_STATE)
    assert sum(sample_sequences(QUBIT_FREE, sched, 10, seed=2**64 - 1).counts.values()) == 10
    numpy_seed = sample_sequences(QUBIT_FREE, sched, 300, seed=np.uint64(5))
    assert numpy_seed.counts == sample_sequences(QUBIT_FREE, sched, 300, seed=5).counts
    # the role-swapped run of an uncertainty estimate uses seed + 1
    with pytest.raises(ValueError, match="seed"):
        estimate_uncertainty(QUBIT_FREE, DEVZ, DEVX, 0.0, 0.0, 10, seed=2**64 - 1)
    est = estimate_uncertainty(QUBIT_FREE, DEVZ, DEVX, 0.0, 0.0, 10, seed=2**64 - 2)
    assert est.n_samples == 10


def test_sample_run_validates_counts():
    with pytest.raises(ValueError):
        SampleRun(schedule_digest="x", seed=0, n_samples=5, counts={("u",): 4})


def test_empirical_distribution():
    sched = Schedule(entries=((1.0, DEVX),), init=UP_STATE)
    run = sample_sequences(QUBIT_FREE, sched, 2000, seed=11)
    dist = empirical_distribution(run)
    assert sum(dist.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
    for seq, p in dist.probabilities.items():
        expected_sigma = math.sqrt(p * (1 - p) / 2000)
        assert dist.std_errors[seq] == pytest.approx(expected_sigma, abs=1e-12)
    assert dist.n_samples == 2000


def test_run_serialization():
    sched = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=UP_STATE)
    run = sample_sequences(QUBIT_FREE, sched, 100, seed=13)
    blob = run.to_json()
    assert blob["n_samples"] == 100
    assert sum(c["count"] for c in blob["counts"]) == 100
    csv = run.to_csv()
    assert csv.splitlines()[0] == "sequence,count,p_hat,sigma"


# ---------------------------------------------------------------------------
# interference from tallies: the Z,X schedule again, now purely empirical


def test_reconstruct_interference_quarter():
    n = 100_000
    fine_sched = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=UP_STATE)
    fine = empirical_distribution(sample_sequences(QUBIT_FREE, fine_sched, n, seed=21))
    res = pair_resolution(DEVX, ("+", "-"))
    coarse_sched = CoarseSchedule(
        entries=((1.0, DEVX, res), (2.0, DEVZ, None)), init=UP_STATE
    )
    coarse = empirical_distribution(sample_sequences(QUBIT_FREE, coarse_sched, n, seed=22))
    est = reconstruct_interference(fine, coarse, 0, ("+", "-"), context=("u",))
    assert abs(est.value - 0.25) <= 3 * est.std_error
    assert est.std_error < 0.01


def test_reconstruct_interference_missing_cells():
    fine = empirical_distribution(
        SampleRun(schedule_digest="a", seed=0, n_samples=10, counts={("x", "y"): 10})
    )
    coarse = empirical_distribution(
        SampleRun(schedule_digest="b", seed=0, n_samples=10, counts={("q", "y"): 10})
    )
    with pytest.raises(ValueError, match="observed"):
        reconstruct_interference(fine, coarse, 0, ("a", "b"), context=("z",))


def test_pair_resolution_layout():
    res = pair_resolution(DEVX, ("+", "-"))
    assert res.blocks[0] == ("+", "-")
    assert res.block_labels[0] == "+|-"
    with pytest.raises(ValueError):
        pair_resolution(DEVX, ("+", "+"))


# ---------------------------------------------------------------------------
# sampled uncertainty matrices


def test_estimate_uncertainty_identity():
    est = estimate_uncertainty(QUBIT_FREE, DEVZ, DEVZ, 0.0, 0.0, 20_000, seed=5)
    assert np.abs(est.matrix - np.eye(2)).max() < 1e-12
    assert est.exact_delta == 0.0
    assert est.excluded == ()


def test_estimate_uncertainty_mub():
    est = estimate_uncertainty(QUBIT_FREE, DEVX, DEVZ, 0.0, 0.0, 20_000, seed=5)
    assert np.abs(est.matrix - 0.5).max() < 0.05
    assert est.exact_delta is not None and est.exact_delta < 0.05
    assert est.exchange_error < 0.05
    assert est.n_samples == 20_000
    assert est.dt == 0.0


def test_estimate_uncertainty_small_delay():
    system = SystemSpec(dim=2, hamiltonian=0.5 * SX)
    est = estimate_uncertainty(system, DEVZ, DEVZ, 0.3, 0.01, 5000, seed=6)
    # a small delay perturbs the identity by O(dt)
    assert est.exact_delta is None
    assert np.abs(est.matrix - np.eye(2)).max() < 0.05


def test_estimate_uncertainty_rejects_negative_delay():
    with pytest.raises(ValueError):
        estimate_uncertainty(QUBIT_FREE, DEVZ, DEVZ, 0.0, -0.1, 100, seed=0)


# ---------------------------------------------------------------------------
# pinned seed -> counts regressions: plain and coarse schedules, d = 2 and 3

SZ = np.diag([1.0, -1.0]).astype(complex)
QUBIT_DRIVEN = SystemSpec(dim=2, hamiltonian=0.5 * SX + 0.3 * SZ)
F3 = np.fft.ifft(np.eye(3), norm="ortho")
DEVZ3 = Device(
    name="Z3",
    outcomes=(0, 1, 2),
    projectors=tuple(np.diag(np.eye(3)[k]).astype(complex) for k in range(3)),
)
DEVF3 = Device(
    name="F3",
    outcomes=(0, 1, 2),
    projectors=tuple(np.outer(F3[:, k], F3[:, k].conj()) for k in range(3)),
)
QUTRIT = SystemSpec(
    dim=3,
    hamiltonian=np.array(
        [[0.6, 0.2 - 0.3j, 0.1], [0.2 + 0.3j, -0.4, 0.5j], [0.1, -0.5j, 0.1]]
    ),
)
RHO3 = State(np.diag([0.5, 0.3, 0.2]).astype(complex))

PINNED_RUNS = {
    "qubit_plain": (
        QUBIT_DRIVEN,
        Schedule(entries=((0.5, DEVZ), (1.0, DEVX), (1.5, DEVZ)), init=UP_STATE),
        17,
        {
            ("d", "+", "d"): 5, ("d", "+", "u"): 4, ("d", "-", "d"): 4,
            ("d", "-", "u"): 6, ("u", "+", "d"): 104, ("u", "+", "u"): 107,
            ("u", "-", "d"): 98, ("u", "-", "u"): 72,
        },
    ),
    "qubit_coarse": (
        QUBIT_DRIVEN,
        CoarseSchedule(
            entries=(
                (0.5, DEVX, pair_resolution(DEVX, ("+", "-"))),
                (0.5, DEVZ, None),
                (1.2, DEVX, None),
            ),
            init=State(np.diag([0.7, 0.3]).astype(complex)),
        ),
        18,
        {
            ("+|-", "d", "+"): 68, ("+|-", "d", "-"): 63,
            ("+|-", "u", "+"): 136, ("+|-", "u", "-"): 133,
        },
    ),
    "qutrit_plain": (
        QUTRIT,
        Schedule(entries=((0.4, DEVZ3), (0.9, DEVF3)), init=RHO3),
        19,
        {
            (0, 0): 74, (0, 1): 64, (0, 2): 52, (1, 0): 12, (1, 1): 62,
            (1, 2): 45, (2, 0): 36, (2, 1): 22, (2, 2): 33,
        },
    ),
    "qutrit_coarse": (
        QUTRIT,
        CoarseSchedule(
            entries=(
                (0.4, DEVF3, pair_resolution(DEVF3, (0, 1))),
                (0.4, DEVZ3, None),
                (1.1, DEVF3, pair_resolution(DEVF3, (1, 2))),
            ),
            init=RHO3,
        ),
        20,
        {
            ("0|1", 0, "1|2"): 64, ("0|1", 0, 0): 47, ("0|1", 1, "1|2"): 82,
            ("0|1", 1, 0): 3, ("0|1", 2, "1|2"): 36, ("0|1", 2, 0): 40,
            (2, 0, "1|2"): 22, (2, 0, 0): 19, (2, 1, "1|2"): 45,
            (2, 2, "1|2"): 25, (2, 2, 0): 17,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_sampled_counts_pinned(case):
    system, sched, seed, expected = PINNED_RUNS[case]
    assert sample_sequences(system, sched, 400, seed=seed).counts == expected


# ---------------------------------------------------------------------------
# schedule digests of sampling runs


def test_coarse_digest_tracks_the_initial_state():
    res = pair_resolution(DEVX, ("+", "-"))
    entries = ((1.0, DEVX, res), (2.0, DEVZ, None))
    up = CoarseSchedule(entries=entries, init=UP_STATE)
    down = CoarseSchedule(entries=entries, init=State(DN))
    run_up = sample_sequences(QUBIT_FREE, up, 10, seed=1)
    run_down = sample_sequences(QUBIT_FREE, down, 10, seed=1)
    assert run_up.schedule_digest != run_down.schedule_digest


def test_fine_coarse_schedule_digest_matches_plain_schedule():
    plain = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=UP_STATE)
    fine = CoarseSchedule(entries=((1.0, DEVX, None), (2.0, DEVZ, None)), init=UP_STATE)
    run_plain = sample_sequences(QUBIT_FREE, plain, 10, seed=1)
    run_fine = sample_sequences(QUBIT_FREE, fine, 10, seed=1)
    assert run_plain.schedule_digest == run_fine.schedule_digest


@pytest.mark.parametrize("coarse", [False, True], ids=["plain", "coarse"])
def test_schedule_digest_is_computed_once_per_schedule(monkeypatch, coarse):
    calls = []
    real = engine.canonical_digest

    def counting(payload):
        calls.append(payload)
        return real(payload)

    monkeypatch.setattr(engine, "canonical_digest", counting)
    if coarse:
        sched = CoarseSchedule(entries=((1.0, DEVX, None), (2.0, DEVZ, None)), init=UP_STATE)
    else:
        sched = Schedule(entries=((1.0, DEVX), (2.0, DEVZ)), init=UP_STATE)
    runs = [sample_sequences(QUBIT_FREE, sched, 10, seed=s) for s in (1, 2)]
    assert len(calls) == 1
    assert runs[0].schedule_digest == runs[1].schedule_digest == real(sched.digest_payload())


# ---------------------------------------------------------------------------
# the vectorised sampler against the per-trial reference


def oracle_counts(system, schedule, n_samples, seed):
    """Reference sampler: one Philox generator and one collapse chain per trial."""
    stacks = [
        np.stack(heisenberg_projectors(system, dev, t))
        for t, dev in zip(schedule.times, schedule.devices)
    ]
    blocks = max(1, math.ceil(len(stacks) / 4))
    counts = {}
    for trial in range(n_samples):
        counter = np.array([trial * blocks, 0, 0, 0], dtype=np.uint64)
        draws = Generator(Philox(key=np.uint64(seed), counter=counter)).random(len(stacks))
        rho, seq = schedule.init.density, ()
        for j, (dev, projs) in enumerate(zip(schedule.devices, stacks)):
            probs = np.einsum("oij,ji->o", projs, rho).real
            np.clip(probs, 0.0, None, out=probs)
            alive = np.nonzero(probs > 1e-300)[0]
            cum = np.cumsum(probs[alive])
            idx = int(np.searchsorted(cum, draws[j] * probs.sum(), side="right"))
            o = int(alive[min(idx, len(alive) - 1)])
            rho = (projs[o] @ rho @ projs[o]) / probs[o]
            seq += (dev.outcomes[o],)
        counts[seq] = counts.get(seq, 0) + 1
    return counts


@st.composite
def sampler_cases(draw):
    """Random system, state and schedule for the sampler.

    Dimension 2-4, 1-6 entries, repeated times, pair-merged readout blocks and
    rank-deficient states; seeds up to 2**31 - 1.
    """
    dim = draw(st.integers(2, 4))
    n = draw(st.integers(1, 6))
    rank = draw(st.integers(1, dim))
    merged = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    repeats = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    h = gaussian(dim, dim)
    system = SystemSpec(dim=dim, hamiltonian=0.5 * (h + h.conj().T))
    a = gaussian(dim, rank)
    init = State(a @ a.conj().T / np.trace(a @ a.conj().T).real)
    entries = []
    t = 0.0
    for k, (merge, repeat) in enumerate(zip(merged, repeats)):
        if not (repeat and entries):
            t += float(rng.uniform(0.1, 1.0))
        v = np.linalg.qr(gaussian(dim, dim))[0]
        dev = Device(
            name=f"D{k}",
            outcomes=tuple(range(dim)),
            projectors=tuple(np.outer(v[:, i], v[:, i].conj()) for i in range(dim)),
        )
        pair = tuple(int(i) for i in rng.choice(dim, size=2, replace=False))
        entries.append((t, dev, pair_resolution(dev, pair) if merge else None))
    schedule = CoarseSchedule(entries=tuple(entries), init=init)
    return system, schedule, draw(st.integers(1, 200)), draw(st.integers(0, 2**31 - 1))


@settings(max_examples=60)
@given(sampler_cases())
def test_sampler_matches_per_trial_reference(case):
    system, schedule, n_samples, seed = case
    run = sample_sequences(system, schedule, n_samples, seed=seed)
    assert run.counts == oracle_counts(system, schedule, n_samples, seed)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_sampled_counts_pinned_across_chunk_boundaries(monkeypatch, chunk, case):
    monkeypatch.setattr(lab, "_CHUNK", chunk)
    system, sched, seed, expected = PINNED_RUNS[case]
    assert sample_sequences(system, sched, 400, seed=seed).counts == expected


@pytest.mark.parametrize("chunk", [1, 7])
def test_five_entry_chunks_match_reference(monkeypatch, chunk):
    # five entries take two counter blocks per trial
    sched = Schedule(
        entries=((0.3, DEVF3), (0.6, DEVZ3), (0.8, DEVF3), (1.0, DEVZ3), (1.4, DEVF3)),
        init=RHO3,
    )
    expected = oracle_counts(QUTRIT, sched, 60, 2**31 - 1)
    monkeypatch.setattr(lab, "_CHUNK", chunk)
    assert sample_sequences(QUTRIT, sched, 60, seed=2**31 - 1).counts == expected


# ---------------------------------------------------------------------------
# the prefix-node table: one Born vector and one collapse per reached prefix

FIVE_QUTRIT = Schedule(
    entries=((0.3, DEVF3), (0.6, DEVZ3), (0.8, DEVF3), (1.0, DEVZ3), (1.4, DEVF3)),
    init=RHO3,
)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(lab, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lab, name, wrapper)
    return calls


def test_each_reached_prefix_is_built_once_per_run(monkeypatch):
    n = 2 * lab._CHUNK + 1808  # three chunks
    borns = _counting(monkeypatch, "_born")
    collapses = _counting(monkeypatch, "_collapse")
    run = sample_sequences(QUTRIT, FIVE_QUTRIT, n, seed=23)
    prefixes = {seq[:k] for seq in run.counts for k in range(len(seq))}
    assert len(borns) == len(prefixes)
    assert sum(len(a[1]) for a in collapses) == len(prefixes) - 1  # all but the empty prefix
    assert sum(run.counts.values()) == n


@pytest.mark.parametrize("chunk", [1, 5, 16])
def test_node_table_stays_bounded(monkeypatch, chunk):
    # every node gets exactly one Born vector, and a fresh table starts with
    # the Born vector of the initial state
    monkeypatch.setattr(lab, "_CHUNK", chunk)
    real = lab._born
    size, peak, resets = [0], [0], [0]

    def born(projs, rho):
        if rho is RHO3.density:
            size[0] = 0
            resets[0] += 1
        size[0] += 1
        peak[0] = max(peak[0], size[0])
        return real(projs, rho)

    monkeypatch.setattr(lab, "_born", born)
    run = sample_sequences(QUTRIT, FIVE_QUTRIT, 300, seed=29)
    assert peak[0] <= len(FIVE_QUTRIT) * chunk
    assert resets[0] > 1
    assert run.counts == oracle_counts(QUTRIT, FIVE_QUTRIT, 300, 29)


P3 = [np.diag(np.eye(3)[k]).astype(complex) for k in range(3)]


@pytest.mark.parametrize("chunk", [None, 1])
@pytest.mark.parametrize(
    "init, second",
    [
        # both first-entry branches are annihilated by the second readout
        (np.diag([0.5, 0.5, 0.0]), [P3[2]]),
        # only the rare branch is, so earlier chunks run (and reset) first
        (np.diag([0.97, 0.03, 0.0]), [P3[0], P3[2]]),
    ],
    ids=["every-branch", "rare-branch"],
)
def test_vanished_branch_raises(monkeypatch, chunk, init, second):
    if chunk is not None:
        monkeypatch.setattr(lab, "_CHUNK", chunk)
    stacks = [np.stack(P3[:2]), np.stack(second)]
    with pytest.raises(RuntimeError, match="vanished"):
        lab._run_trials(init.astype(complex), stacks, seed=31, n_samples=400)


# ---------------------------------------------------------------------------
# the batched build of a level's nodes against the per-node arithmetic


def per_node_born(projs, rho):
    """Reference node: clipped Born weights, their total, surviving outcomes, cumsum."""
    probs = np.einsum("oij,ji->o", projs, rho).real
    np.clip(probs, 0.0, None, out=probs)
    alive = np.nonzero(probs > 1e-300)[0]
    return probs, probs.sum(), alive, np.cumsum(probs[alive])


# a diagonal Hamiltonian keeps the Z3 readouts diagonal, so the unpopulated
# middle level of the state is an outcome of weight exactly 0
DEAD_MIDDLE = (
    SystemSpec(dim=3, hamiltonian=np.diag([0.3, -0.1, 0.5])),
    CoarseSchedule(
        entries=((0.5, DEVZ3, None), (0.9, DEVF3, None), (1.2, DEVZ3, None)),
        init=State(np.diag([0.6, 0.0, 0.4])),
    ),
    1,
    0,
)


@settings(max_examples=60)
@given(sampler_cases())
@example(DEAD_MIDDLE)
def test_batched_nodes_match_per_node_reference(case):
    system, schedule, _, _ = case
    stacks = [
        np.stack(heisenberg_projectors(system, dev, t))
        for t, dev in zip(schedule.times, schedule.devices)
    ]
    rhos, up = [schedule.init.density], np.array([-1])
    for j, projs in enumerate(stacks):
        m, last = len(projs), j == len(stacks) - 1
        nodes = lab._Nodes(projs, last)
        half = len(rhos) // 2  # two adds where there are two nodes, so appending is covered
        parts = [slice(0, None)] if half == 0 else [slice(0, half), slice(half, None)]
        ids = np.concatenate([nodes.add(up[p], rhos[p]) for p in parts])
        assert np.array_equal(ids, np.arange(len(rhos)))
        assert np.array_equal(nodes.up, up)
        pairs, reference = [], []
        for r, rho in enumerate(rhos):
            probs, total, alive, cum = per_node_born(projs, rho)
            assert np.array_equal(nodes.probs[r * m : (r + 1) * m], probs)
            assert nodes.total[r] == total
            assert np.array_equal(nodes.cum[: len(alive), r], cum)
            assert np.all(nodes.cum[len(alive) :, r] == np.inf)
            padded = alive[np.minimum(np.arange(m), len(alive) - 1)]
            assert np.array_equal(nodes.alive[r * m : (r + 1) * m], padded)
            for o in alive.tolist():
                pairs.append(r * m + o)
                reference.append((projs[o] @ rho @ projs[o]) / probs[o])
        if last:
            assert nodes.rho is None
            break
        assert np.array_equal(nodes.rho, np.stack(rhos))
        up = np.array(pairs[:48])  # keep the deeper levels small
        i, o = np.divmod(up, m)
        rhos = lab._collapse(projs[o], nodes.rho[i], nodes.probs[up])
        assert np.array_equal(rhos, np.stack(reference[:48]))


@pytest.mark.parametrize("chunk", [1, 7, 2**12])
@pytest.mark.parametrize("entries, blocks", [(3, 1), (5, 2)], ids=["b1", "b2"])
def test_one_stream_per_run_gives_the_per_chunk_draws(monkeypatch, chunk, entries, blocks):
    # the run reads chunk s (trials from s on) where a generator started at
    # counter block s * b would; its doubles are Generator.random's
    raws = []

    class Recording(Philox):
        def random_raw(self, size=None, output=True):
            raws.append(super().random_raw(size, output))
            return raws[-1]

    monkeypatch.setattr(lab, "_CHUNK", chunk)
    monkeypatch.setattr(lab, "Philox", Recording)
    sched = Schedule(entries=FIVE_QUTRIT.entries[:entries], init=RHO3)
    n, seed = (40 if chunk < 2**12 else 2**12 + 300), 37
    sample_sequences(QUTRIT, sched, n, seed=seed)
    starts = range(0, n, chunk)
    assert len(raws) == len(starts)
    for start, raw in zip(starts, raws):
        counter = np.array([start * blocks, 0, 0, 0], dtype=np.uint64)
        size = min(chunk, n - start) * 4 * blocks
        expected = Generator(Philox(key=np.uint64(seed), counter=counter)).random(size)
        assert np.array_equal((raw >> np.uint64(11)) * 2.0**-53, expected)


# ---------------------------------------------------------------------------
# the node-table memo: runs of the same inputs share one table


def _memo_nodes():
    """Nodes the memo holds, recounted from its tables."""
    return sum(lab._size(table) for table in lab._TABLES._tables.values())


def test_warm_run_builds_no_nodes(monkeypatch):
    sample_sequences(QUTRIT, FIVE_QUTRIT, 3 * lab._CHUNK, seed=41)
    assert lab._TABLES._nodes == _memo_nodes() == 1 + 3 + 9 + 27 + 81  # every prefix
    borns = _counting(monkeypatch, "_born")
    collapses = _counting(monkeypatch, "_collapse")
    run = sample_sequences(QUTRIT, FIVE_QUTRIT, 500, seed=43)
    assert len(borns) == len(collapses) == 0
    assert run.counts == oracle_counts(QUTRIT, FIVE_QUTRIT, 500, 43)


SHIFTED_TIME = Schedule(entries=((0.3, DEVF3), (0.6, DEVZ3), (0.85, DEVF3)), init=RHO3)
MISSES = {
    "hamiltonian": (
        SystemSpec(dim=3, hamiltonian=QUTRIT.hamiltonian + 0.1 * np.eye(3)[::-1]),
        FIVE_QUTRIT.entries[:3],
        RHO3,
    ),
    "time": (QUTRIT, SHIFTED_TIME.entries, RHO3),
    "projector": (QUTRIT, ((0.3, DEVF3), (0.6, DEVF3), (0.8, DEVF3)), RHO3),
    "initial-density": (QUTRIT, FIVE_QUTRIT.entries[:3], State(np.diag([0.2, 0.3, 0.5]))),
}


@pytest.mark.parametrize("change", sorted(MISSES))
def test_changed_inputs_miss_the_memo(monkeypatch, change):
    base = Schedule(entries=FIVE_QUTRIT.entries[:3], init=RHO3)
    sample_sequences(QUTRIT, base, 300, seed=47)
    system, entries, init = MISSES[change]
    sched = Schedule(entries=entries, init=init)
    borns = _counting(monkeypatch, "_born")
    run = sample_sequences(system, sched, 300, seed=53)
    prefixes = {seq[:k] for seq in run.counts for k in range(len(seq))}
    assert len(borns) == len(prefixes)  # built from scratch
    assert run.counts == oracle_counts(system, sched, 300, 53)


def test_relabelled_device_hits_and_reads_its_own_labels(monkeypatch):
    # the memo is keyed by projectors, not labels, so new labels reuse the table
    sample_sequences(QUTRIT, PINNED_RUNS["qutrit_plain"][1], 400, seed=19)
    named = Device(name="Z3", outcomes=("a", "b", "c"), projectors=DEVZ3.projectors)
    sched = Schedule(entries=((0.4, named), (0.9, DEVF3)), init=RHO3)
    borns = _counting(monkeypatch, "_born")
    run = sample_sequences(QUTRIT, sched, 400, seed=19)
    assert not borns
    rename = dict(zip(DEVZ3.outcomes, named.outcomes))
    expected = PINNED_RUNS["qutrit_plain"][3]
    assert run.counts == {(rename[a], b): c for (a, b), c in expected.items()}


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_memo_holds_at_most_one_chunk_of_nodes(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(lab, "_CHUNK", chunk)
    schedules = [(system, sched) for system, sched, _, _ in PINNED_RUNS.values()]
    schedules.append((QUBIT_FREE, Schedule(entries=((1.0, DEVX),), init=UP_STATE)))
    if chunk is None:  # enough distinct five-entry tables to overfill the memo
        schedules += [
            (QUTRIT, Schedule(entries=((0.3 + 0.005 * k, DEVF3),) + FIVE_QUTRIT.entries[1:], init=RHO3))
            for k in range(50)
        ]
    peak = 0
    for k, (system, sched) in enumerate(schedules):
        sample_sequences(system, sched, 200, seed=k)
        assert lab._TABLES._nodes == _memo_nodes() <= lab._CHUNK
        peak = max(peak, lab._TABLES._nodes)
    assert peak > lab._CHUNK // 2  # the bound was reached, so eviction ran


def test_table_over_one_chunk_is_not_kept(monkeypatch):
    # a table left with more than _CHUNK nodes goes neither in nor evicts others
    monkeypatch.setattr(lab, "_CHUNK", 7)
    system, small, seed, expected = PINNED_RUNS["qubit_plain"]
    sample_sequences(system, small, 400, seed=seed)
    kept = dict(lab._TABLES._tables)
    assert lab._TABLES._nodes == 7
    # 57 full chunks: the last one reaches more than 7 five-entry prefixes
    sample_sequences(QUTRIT, FIVE_QUTRIT, 57 * 7, seed=59)
    assert lab._TABLES._tables == kept and lab._TABLES._nodes == _memo_nodes() == 7


@pytest.mark.parametrize("chunk", [None, 1])
@pytest.mark.parametrize(
    "init, second",
    [(np.diag([0.5, 0.5, 0.0]), [P3[2]]), (np.diag([0.97, 0.03, 0.0]), [P3[0], P3[2]])],
    ids=["every-branch", "rare-branch"],
)
def test_vanished_branch_caches_nothing(monkeypatch, chunk, init, second):
    if chunk is not None:
        monkeypatch.setattr(lab, "_CHUNK", chunk)
    init, stacks = init.astype(complex), [np.stack(P3[:2]), np.stack(second)]
    if len(second) == 2:
        # eight trials at seed 0 miss the rare branch, so their two-node table
        # is cached first wherever a chunk holds two nodes
        assert lab._run_trials(init, stacks, seed=0, n_samples=8) == {(0, 0): 8}
        assert lab._TABLES._nodes == (2 if lab._CHUNK >= 2 else 0)
    with pytest.raises(RuntimeError, match="vanished"):
        lab._run_trials(init, stacks, seed=31, n_samples=400)
    assert lab._TABLES._nodes == _memo_nodes() == 0


def test_threads_sampling_one_schedule_get_oracle_counts():
    # more threads than cores and a short switch interval, so takes and gives
    # interleave; a lost update would leave the node count off its recount
    seeds, threads_n = (61, 62, 63), 4
    results = [[] for _ in range(threads_n)]
    start = threading.Barrier(threads_n)

    def work(k):
        start.wait()
        for _ in range(3):
            for seed in seeds:
                results[k].append(sample_sequences(QUTRIT, FIVE_QUTRIT, 150, seed=seed).counts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    expected = [oracle_counts(QUTRIT, FIVE_QUTRIT, 150, s) for s in seeds]
    assert results == [expected * 3] * threads_n
    assert lab._TABLES._nodes == _memo_nodes() <= lab._CHUNK
