"""Dynamical phenomenology of sequential measurements.

Executable forms of the laws that projective readouts obey: conditional
probabilities by the Bayes quotient, Markovian factorization of fine-grained
chains (and its loss under coarse readouts), density operators assembled from
initialization statistics, the quantum Zeno effect with its short-time decay
rate, certainty/uncertainty matrices between readout bases, and stationarity
of statistics under rigid time shifts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    ConsistencyError,
    Device,
    Label,
    State,
    SystemSpec,
    _check_times,
    _fine_basis_columns,
    _heisenberg,
    _within,
    heisenberg_projectors,
    propagator,
)
from .engine import Schedule, chain_probabilities, chain_probability
from .serialize import csv_cell, csv_text

__all__ = [
    "InitSpec",
    "MarkovReport",
    "ZenoSeries",
    "conditional_prob",
    "init_metric",
    "markov_delta",
    "stationarity_delta",
    "uncertainty_csv",
    "uncertainty_matrix",
    "zeno_rate",
    "zeno_scan",
]


@dataclass(frozen=True, eq=False)
class InitSpec:
    """Statistics of the initialization: which readout event started the run.

    ``entries`` holds ``(device, outcome, weight)`` triples — the probability
    that the experiment began with that outcome click on that (perfectly
    fine-grained) device at time ``time``.  Weights are non-negative and sum
    to one.
    """

    entries: tuple[tuple[Device, Label, float], ...]
    time: float = 0.0

    def __post_init__(self):
        entries = tuple((dev, lab, float(w)) for dev, lab, w in self.entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "time", float(self.time))
        if not entries:
            raise ValueError("initialization needs at least one weighted event")
        total = 0.0
        for dev, lab, w in entries:
            if w < 0.0:
                raise ValueError(f"negative weight {w} for ({dev.name!r}, {lab!r})")
            if not dev.is_fine_grained():
                raise ValueError(
                    f"initialization device {dev.name!r} is not perfectly fine-grained"
                )
            dev.outcome_index(lab)
            total += w
        _within(f"initialization weights sum to {total}, not 1", abs(total - 1.0), 1e-12)


def init_metric(init: InitSpec, system: SystemSpec) -> State:
    """Density operator equivalent to the initialization statistics.

    A convex combination of the rank-one projectors of the recorded
    initialization events, each translated to the initialization time.
    """
    rho = np.zeros((system.dim, system.dim), dtype=complex)
    for dev, lab, w in init.entries:
        projs = heisenberg_projectors(system, dev, init.time)
        rho = rho + w * projs[dev.outcome_index(lab)]
    return State(rho, time_tag=init.time)


def conditional_prob(
    system: SystemSpec,
    schedule: Schedule,
    given: Sequence[Label],
    query: Label,
) -> float:
    """Bayes quotient P(last readout = query | earlier readouts = given).

    The schedule's final entry is the queried readout; ``given`` fixes all the
    earlier ones.  Equal times mean back-to-back projections, which hosts
    the rapid-remeasurement idealization exactly.  A ``CoarseSchedule`` reads
    as its folded ``Schedule``.  The joint probabilities of every final
    readout are computed together; their sum is the probability of ``given``.
    """
    n = len(schedule)
    if len(given) != n - 1:
        raise ValueError(f"need {n - 1} conditioning readouts, got {len(given)}")
    *earlier, last = schedule.devices
    steps = [
        (t, (dev.projector_for(f),)) for t, dev, f in zip(schedule.times, earlier, given)
    ]
    steps.append((schedule.times[-1], last.projectors))
    joint = chain_probabilities(system, schedule.init, steps)
    prefix = joint.sum()
    if not prefix > 1e-14:
        raise ValueError("conditioning on a null event")
    return float(joint[last.outcome_index(query)] / prefix)


@dataclass(frozen=True)
class MarkovReport:
    """Worst-case gap of the two-time factorization over outcome sequences.

    Sequences whose conditioning probability vanishes are excluded from the
    maximum and counted instead.
    """

    delta: float
    excluded: int
    checked: int


def markov_delta(
    system: SystemSpec,
    device: Device,
    times: Sequence[float],
    init: InitSpec,
) -> MarkovReport:
    """Compare chain probabilities against the product of two-time conditionals.

    For a perfectly fine-grained device the chain factorizes through its
    nearest-neighbour conditionals regardless of the Hamiltonian; a coarse
    readout (any projector of rank two or more) generically breaks the
    factorization, and the returned delta measures by how much.  The times
    follow the time rule of ``core._check_times`` with the init time as t0.
    """
    ts = tuple(float(t) for t in times)
    n = len(ts)
    if n < 2:
        raise ValueError("need at least two measurement times")
    _check_times("markov", ts, init.time)
    state = init_metric(init, system)
    r = device.n_outcomes

    def probs(*chain_times: float) -> np.ndarray:
        steps = [(t, device.projectors) for t in chain_times]
        return chain_probabilities(system, state, steps).reshape((r,) * len(chain_times))

    def along(a: np.ndarray, j: int) -> np.ndarray:
        # place the axes of ``a`` at entries j, j + 1, ... of an n-entry sequence
        return a.reshape((1,) * j + a.shape + (1,) * (n - j - a.ndim))

    lhs = probs(*ts)
    # only the last entry can be summed out of a chain, so singles and pairs
    # at earlier times are chains of their own
    singles = [probs(t) for t in ts[:-1]]
    rhs = along(singles[0], 0)
    null = np.zeros(lhs.shape, dtype=bool)
    for j in range(1, n):
        ok = singles[j - 1] > 1e-14
        ratio = probs(ts[j - 1], ts[j]) / np.where(ok, singles[j - 1], 1.0)[:, None]
        rhs = rhs * along(ratio, j - 1)
        null |= along(~ok, j - 1)
    gaps = np.abs(lhs - rhs)[~null]
    return MarkovReport(
        delta=float(gaps.max(initial=0.0)),
        excluded=int(null.sum()),
        checked=int(gaps.size),
    )


@dataclass(frozen=True)
class ZenoSeries:
    """Survival of a repeated readout on refining grids, with its decay rate."""

    n_values: tuple[int, ...]
    survival: tuple[float, ...]
    rate: float

    def to_csv(self) -> str:
        return csv_text("n,survival", zip(self.n_values, self.survival))


def zeno_scan(
    system: SystemSpec,
    device: Device,
    outcome: Label,
    total_time: float,
    n_list: Sequence[int],
) -> ZenoSeries:
    """Probability of reading ``outcome`` at every grid point j*T/n, j = 1..n.

    The run is initialized in the readout's own state at time zero.  As the
    grid refines the survival tends to one and the residual scales as 1/n —
    the freezing of the readout under frequent observation.
    """
    proj = device.projector_for(outcome)
    _within("survival scans need a rank-one readout", abs(np.trace(proj).real - 1.0), 1e-9)
    init = State(np.array(proj, copy=True), time_tag=0.0)
    survival = []
    for n in n_list:
        n = int(n)
        if n < 1:
            raise ValueError("grid sizes must be positive")
        steps = [((j + 1) * total_time / n, proj) for j in range(n)]
        survival.append(chain_probability(system, init, steps))
    rate = zeno_rate(system, device, outcome, 0.0)
    return ZenoSeries(
        n_values=tuple(int(n) for n in n_list),
        survival=tuple(survival),
        rate=rate,
    )


def _rate_scale(system: SystemSpec) -> tuple[float, float, float]:
    """``||H||`` and the bounds it sets in ``zeno_rate``: the linear term's, and the
    finite difference's part beyond the variance; ``ValueError`` when a power of
    ``||H||`` in them is past float range."""
    hnorm = float(np.linalg.norm(system.hamiltonian, 2))
    try:
        linear = 1e-5 * max(1.0, hnorm**3)
        # at this step the round-off in fd grows like ||H||^2; an allowance growing
        # like ||H||^4 would pass any fd once ||H|| exceeds about 3e3
        fd = 1e-7 * max(1.0, min(hnorm**4, 10.0 * hnorm**2))
    except OverflowError:
        raise ValueError(
            f"||H|| = {hnorm!r} puts the decay rate's self-check bounds past float range"
        ) from None
    return hnorm, linear, fd


def zeno_rate(system: SystemSpec, device: Device, outcome: Label, t: float) -> float:
    """Short-time decay rate v of the survival probability around time t.

    The survival over a short interval dt falls off as 1 - v^2 dt^2 with no
    linear term; v^2 is the energy variance in the readout's time-translated
    eigenvector.  The analytic value is cross-checked against a finite
    difference of the actual survival curve (steps h and 2h with
    h = 1e-3 / max(1, ||H||), so stiff systems are resolved too, and the
    cubic correction eliminated), and the vanishing of the linear term is
    asserted as well.
    """
    proj = device.projector_for(outcome)
    what = "decay rate is defined for rank-one readouts only"
    _within(what, abs(np.trace(proj).real - 1.0), 1e-9)
    (pt,) = _heisenberg(system, (proj,), t)
    w, v = np.linalg.eigh(pt)
    psi = v[:, -1]
    ham = system.hamiltonian
    mean = float((psi.conj() @ ham @ psi).real)
    second = float((psi.conj() @ (ham @ ham) @ psi).real)
    var = max(second - mean * mean, 0.0)

    init = State(pt, time_tag=t)

    def survival(dt: float) -> float:
        return chain_probability(system, init, [(t + dt, proj)])

    hnorm, linear_bound, fd_bound = _rate_scale(system)
    h = 1e-3 / max(1.0, hnorm)
    d1 = 1.0 - survival(h)
    d2 = 1.0 - survival(2.0 * h)
    linear = (4.0 * d1 - d2) / (2.0 * h)
    what = f"survival linear term {linear} does not vanish for {outcome!r}"
    _within(what, abs(linear), linear_bound, ConsistencyError)
    fd = 2.0 * d1 / h**2 - d2 / (2.0 * h) ** 2
    allowance = 1e-4 * var + fd_bound
    what = f"finite-difference rate^2 {fd} disagrees with the variance {var}"
    _within(what, abs(fd - var), allowance, ConsistencyError)
    return math.sqrt(var)


def uncertainty_matrix(
    system: SystemSpec, dev_k: Device, dev_l: Device, t: float
) -> np.ndarray:
    """Overlap matrix C[k, l] between the eigenvectors of two fine readouts.

    C[k, l] is the squared overlap of outcome k of the first device with
    outcome l of the second, both translated to time ``t``.  It is doubly
    stochastic, and independent of ``t`` (asserted here by re-evaluating one
    time unit later).  Identical devices give the identity matrix; mutually
    unbiased ones give the flat matrix 1/d.
    """
    if dev_k.dim != system.dim or dev_l.dim != system.dim:
        raise ValueError("device dimensions must match the system")

    basis_k, basis_l = _fine_basis_columns(dev_k), _fine_basis_columns(dev_l)

    def overlaps(tt: float) -> np.ndarray:
        u = propagator(system, tt)
        cols_k = u.conj().T @ basis_k
        cols_l = u.conj().T @ basis_l
        m = cols_l.conj().T @ cols_k
        return np.abs(m.T) ** 2

    c = overlaps(t)
    drift = np.abs(c - overlaps(t + 1.0)).max()
    _within("overlap matrix drifted between times", drift, 1e-10, ConsistencyError)
    return c


def uncertainty_csv(dev_k: Device, dev_l: Device, matrix: np.ndarray) -> str:
    """Tabulate an overlap matrix as k,l,value rows, labels as ``csv_cell`` fields."""
    cells = itertools.product(map(csv_cell, dev_k.outcomes), map(csv_cell, dev_l.outcomes))
    return csv_text("k,l,value", ((k, l, x) for (k, l), x in zip(cells, matrix.flat)))


def stationarity_delta(
    system: SystemSpec,
    schedule: Schedule,
    shift: float,
    propagator_fn: Callable[[float], np.ndarray] | None = None,
) -> float:
    """Largest readout-statistics gap between a schedule and its shifted copy.

    Every measurement time moves by ``shift`` and the initial condition is
    carried along covariantly (re-expressed relative to the new origin).  With
    a constant Hamiltonian the statistics are invariant and the gap is
    round-off; a driven propagator, supplied as ``propagator_fn(t) -> U(t, 0)``,
    generically breaks the invariance.
    """
    if propagator_fn is None:
        u = lambda tt: propagator(system, tt)  # noqa: E731
    else:
        u = propagator_fn
    tau0 = schedule.init.time_tag
    frame = u(tau0 + shift).conj().T @ u(tau0)
    rho = schedule.init.density
    shifted = State(frame @ rho @ frame.conj().T, time_tag=tau0 + shift)
    steps = [(t, dev.projectors) for t, dev in schedule.entries]
    moved = [(t + shift, projs) for t, projs in steps]
    base = chain_probabilities(system, schedule.init, steps, propagator_fn)
    after = chain_probabilities(system, shifted, moved, propagator_fn)
    return float(np.abs(base - after).max())
