"""Virtual laboratory: sampled sequential measurements and their statistics.

Generates outcome sequences with the Born weights and the projective collapse
update, in one vectorised pass over all trials, then replays the
phenomenological deductions made from real tallies: empirical probability
tables with binomial error bars, interference terms reconstructed from fine
vs. pair-merged readout runs, and conditional (uncertainty) matrices estimated
from back-to-back readouts.

Randomness is counter-based: the seed, an integer in [0, 2**64), keys one
Philox stream per run, and every trial owns a fixed range of its counter
blocks, so the counts depend only on the seed and the number of trials, not
on how the trials are grouped or chunked.

Trials are routed through a table of the outcome prefixes they reach.  Each
prefix is a node built once per run, with one Born vector and, below the last
readout, one collapsed density; the new nodes of a level are built together
in one batched pass.  A chunk of trials moves through the table level by
level as an array of node ids.  The table is emptied at the start of a chunk
once it holds more than ``_CHUNK`` nodes, so it never holds more than
``len(stacks) * _CHUNK`` nodes whatever the number of trials.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.random import Philox

from .coarse import CoarseSchedule, Resolution
from .core import Device, Label, State, SystemSpec, heisenberg_projectors
from .engine import Schedule
from .phenomena import uncertainty_matrix
from .serialize import label_to_json

__all__ = [
    "EmpiricalDist",
    "InterferenceEstimate",
    "SampleRun",
    "UncertaintyEstimate",
    "empirical_distribution",
    "estimate_uncertainty",
    "pair_resolution",
    "reconstruct_interference",
    "sample_sequences",
]


@dataclass(frozen=True, eq=False)
class SampleRun:
    """Tally of one sampling run: how often each outcome sequence occurred."""

    schedule_digest: str
    seed: int
    n_samples: int
    counts: dict[tuple[Label, ...], int]

    def __post_init__(self):
        object.__setattr__(self, "counts", dict(self.counts))
        if self.n_samples < 1:
            raise ValueError("a run needs at least one sample")
        total = 0
        for seq, c in self.counts.items():
            if c < 0:
                raise ValueError(f"negative count for {seq!r}")
            total += c
        if total != self.n_samples:
            raise ValueError(
                f"counts sum to {total}, but the run holds {self.n_samples} samples"
            )

    def to_json(self) -> dict:
        return {
            "schedule_digest": self.schedule_digest,
            "seed": int(self.seed),
            "n_samples": int(self.n_samples),
            "counts": [
                {"sequence": [label_to_json(l) for l in seq], "count": int(c)}
                for seq, c in sorted(self.counts.items(), key=lambda kv: str(kv[0]))
            ],
        }

    def to_csv(self) -> str:
        lines = ["sequence,count,p_hat,sigma"]
        n = self.n_samples
        for seq, c in sorted(self.counts.items(), key=lambda kv: str(kv[0])):
            p = c / n
            sig = math.sqrt(p * (1.0 - p) / n)
            cell = ";".join(str(label_to_json(l)) for l in seq)
            if any(ch in cell for ch in ',"\n'):
                cell = '"' + cell.replace('"', '""') + '"'
            lines.append(f"{cell},{c},{p:.17g},{sig:.17g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class EmpiricalDist:
    """Normalized counts with binomial standard errors, per observed sequence."""

    probabilities: dict[tuple[Label, ...], float]
    std_errors: dict[tuple[Label, ...], float]
    n_samples: int


def empirical_distribution(run: SampleRun) -> EmpiricalDist:
    """Frequencies and plug-in error bars of a sampling run."""
    n = run.n_samples
    probs: dict[tuple[Label, ...], float] = {}
    errs: dict[tuple[Label, ...], float] = {}
    for seq, c in run.counts.items():
        p = c / n
        probs[seq] = p
        errs[seq] = math.sqrt(p * (1.0 - p) / n)
    return EmpiricalDist(probabilities=probs, std_errors=errs, n_samples=n)


#: Trials drawn and routed together; bounds the draw buffer and the node table.
_CHUNK = 2**12


def _born(projs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Born weights of ``rho``, one per outcome, before clipping."""
    return np.einsum("oij,ji->o", projs, rho).real


def _collapse(projs: np.ndarray, rhos: np.ndarray, p: np.ndarray) -> np.ndarray:
    """States after outcomes ``projs`` of probabilities ``p``, on stacks: ``(P rho P) / p``."""
    return (projs @ rhos @ projs) / p[:, None, None]


class _Nodes:
    """The reached outcome prefixes of one length: one node per prefix.

    A node holds its Born data for the next readout: the total weight, the
    cumulative weights of the surviving outcomes (one row per column, padded
    with +inf), the surviving outcomes themselves (padded by repeating the
    last one) and the clipped weights, plus its child ids (-1: not built
    yet) and the row one level up it was reached from.  Per-(node, outcome)
    rows are flat, at ``node * m + k``.  Densities are kept, as one stack,
    only where a child may still be collapsed from them.
    """

    def __init__(self, projs: np.ndarray, last: bool):
        self.projs, (self.m, d, _) = projs, projs.shape
        self.rho = None if last else np.empty((0, d, d), dtype=complex)
        self.total, self.probs, self.cum = np.empty(0), np.empty(0), np.empty((self.m, 0))
        self.up, self.alive, self.child = (np.empty(0, dtype=np.intp) for _ in range(3))

    def add(self, up: np.ndarray, rhos: Sequence[np.ndarray]) -> np.ndarray:
        """Append one node per density, reached from rows ``up``; returns their ids."""
        k, m = len(rhos), self.m
        probs = np.array([_born(self.projs, rho) for rho in rhos])
        np.clip(probs, 0.0, None, out=probs)
        total = probs.sum(axis=1)
        if (total <= 1e-300).any():
            raise RuntimeError(
                "all readout branches vanished mid-chain; the projector chain is inconsistent"
            )
        keep = probs > 1e-300
        order = np.argsort(~keep, axis=1, kind="stable")  # survivors first, in order
        n_alive, slots = keep.sum(axis=1)[:, None], np.arange(m)
        cum = np.cumsum(np.take_along_axis(probs, order, axis=1), axis=1)
        cum[slots >= n_alive] = np.inf
        alive = np.take_along_axis(order, np.minimum(slots, n_alive - 1), axis=1)
        first = len(self.total)
        self.up = np.concatenate((self.up, up))
        if self.rho is not None:
            self.rho = np.concatenate((self.rho, rhos))
        self.total = np.concatenate((self.total, total))
        self.cum = np.concatenate((self.cum, cum.T), axis=1)
        self.alive = np.concatenate((self.alive, alive.ravel()))
        self.probs = np.concatenate((self.probs, probs.ravel()))
        self.child = np.concatenate((self.child, np.full(k * m, -1, dtype=np.intp)))
        return np.arange(first, first + k)


def _flush(table: list[_Nodes], tally: np.ndarray, counts: dict) -> None:
    """Add the last level's per-row ``tally`` to ``counts``, keyed by outcome indices."""
    hit = rows = np.flatnonzero(tally)
    cols = []
    for lv in reversed(table):
        node, o = np.divmod(rows, lv.m)
        cols.append(o.tolist())
        rows = lv.up[node]
    for seq, c in zip(zip(*reversed(cols)), tally[hit].tolist()):
        counts[seq] = counts.get(seq, 0) + c


def _run_trials(
    init_density: np.ndarray, stacks: Sequence[np.ndarray], seed: int, n_samples: int
) -> dict[tuple[int, ...], int]:
    """Outcome-index tallies of ``n_samples`` trials, routed through a prefix table.

    Trial k reads counter blocks ``[k*b, (k+1)*b)`` of the run's one Philox
    stream, made into doubles as ``Generator.random`` does.  A trial's slot
    is ``searchsorted(cum, x, "right")`` clamped to ``m - 1``, counted as the
    first ``m - 1`` cumulative weights ``<= x``; last-level rows are tallied
    by ``bincount`` per table.
    """
    blocks_per_trial = max(1, math.ceil(len(stacks) / 4))
    last = len(stacks) - 1
    stream = Philox(key=seed)
    counts: dict[tuple[int, ...], int] = {}
    table: list[_Nodes] = []
    tally = np.zeros(0, dtype=np.intp)
    for start in range(0, n_samples, _CHUNK):
        if not table or sum(len(lv.total) for lv in table) > _CHUNK:
            _flush(table, tally, counts)
            table = [_Nodes(projs, j == last) for j, projs in enumerate(stacks)]
            table[0].add(np.full(1, -1), [init_density])
            tally = np.zeros(0, dtype=np.intp)
        n = min(_CHUNK, n_samples - start)
        raw = stream.random_raw(n * 4 * blocks_per_trial).reshape(n, -1).T
        node = np.zeros(n, dtype=np.intp)
        for j, lv in enumerate(table):
            x = (raw[j] >> np.uint64(11)) * 2.0**-53 * lv.total[node]
            base = node * lv.m
            slot = base.copy()
            for col in lv.cum[:-1]:
                slot += col[node] <= x
            key = base + lv.alive[slot]
            if j == last:
                break
            node = lv.child[key]
            missing = node < 0
            if missing.any():
                pairs = np.unique(key[missing])
                i, o = np.divmod(pairs, lv.m)
                rhos = _collapse(lv.projs[o], lv.rho[i], lv.probs[pairs])
                lv.child[pairs] = table[j + 1].add(pairs, rhos)
                node = lv.child[key]
        new = np.bincount(key, minlength=len(tally))
        new[: len(tally)] += tally
        tally = new
    _flush(table, tally, counts)
    return counts


def _check_seed(seed, runs: int = 1) -> None:
    """Reject ``seed`` unless it and the ``runs - 1`` seeds after it lie in [0, 2**64)."""
    integer = isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
    if not (integer and 0 <= seed <= 2**64 - runs):
        raise ValueError(f"seed must be an integer in [0, 2**64 - {runs}], got {seed!r}")


def sample_sequences(
    system: SystemSpec,
    schedule: Schedule | CoarseSchedule,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> SampleRun:
    """Draw outcome sequences by chaining Born weights with collapse updates.

    Every trial consumes its own fixed range of counter blocks, so the result
    depends only on ``seed``, an integer in [0, 2**64), and ``n_samples``, an
    integer >= 1.  ``workers`` must be at least 1; it changes neither the
    counts nor the work, since all trials run in one vectorised pass.
    """
    if n_samples is True or not (isinstance(n_samples, numbers.Integral) and n_samples >= 1):
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    _check_seed(seed)
    if workers < 1:
        raise ValueError("need at least one worker")
    stacks = [
        np.stack(heisenberg_projectors(system, dev, t))
        for t, dev in zip(schedule.times, schedule.devices)
    ]
    merged = _run_trials(schedule.init.density, stacks, seed, n_samples)
    devices = schedule.devices
    counts = {
        tuple(devices[j].outcomes[o] for j, o in enumerate(key)): c
        for key, c in merged.items()
    }
    return SampleRun(
        schedule_digest=schedule.digest, seed=int(seed), n_samples=int(n_samples), counts=counts
    )


class InterferenceEstimate(NamedTuple):
    """Reconstructed interference term with its propagated standard error."""

    value: float
    std_error: float


def pair_resolution(device: Device, pair: tuple[Label, Label], label: Label | None = None) -> Resolution:
    """Merge two outcomes of a device into one block; every other outcome stays fine."""
    a, b = pair
    if a == b:
        raise ValueError("the pair must hold two distinct outcomes")
    if label is None:
        label = f"{a}|{b}"
    blocks: list[tuple[Label, ...]] = [(a, b)]
    labels: list[Label] = [label]
    for o in device.outcomes:
        if o != a and o != b:
            blocks.append((o,))
            labels.append(o)
    return Resolution(device, tuple(blocks), tuple(labels))


def reconstruct_interference(
    fine: EmpiricalDist,
    coarse: EmpiricalDist,
    position: int,
    pair: tuple[Label, Label],
    context: Sequence[Label] = (),
    block_label: Label | None = None,
) -> InterferenceEstimate:
    """Interference term between two outcomes, from empirical tallies alone.

    Half the merged-block probability minus the two fine probabilities, all
    taken at the same surrounding ``context`` (the outcomes at every other
    position).  ``block_label`` defaults to the ``pair_resolution`` convention.
    Raises when none of the three required cells was ever observed — a sign
    the labels or context do not belong to these runs.
    """
    if block_label is None:
        block_label = f"{pair[0]}|{pair[1]}"
    context = tuple(context)

    def seq_with(x: Label) -> tuple[Label, ...]:
        if not 0 <= position <= len(context):
            raise IndexError(f"position {position} does not fit a context of {len(context)}")
        return context[:position] + (x,) + context[position:]

    s_plus = seq_with(pair[0])
    s_minus = seq_with(pair[1])
    s_block = seq_with(block_label)
    if (
        s_block not in coarse.probabilities
        and s_plus not in fine.probabilities
        and s_minus not in fine.probabilities
    ):
        raise ValueError(
            f"none of the cells {s_block!r}, {s_plus!r}, {s_minus!r} were observed"
        )
    p_or = coarse.probabilities.get(s_block, 0.0)
    p_plus = fine.probabilities.get(s_plus, 0.0)
    p_minus = fine.probabilities.get(s_minus, 0.0)
    e_or = coarse.std_errors.get(s_block, 0.0)
    e_plus = fine.std_errors.get(s_plus, 0.0)
    e_minus = fine.std_errors.get(s_minus, 0.0)
    value = 0.5 * (p_or - p_plus - p_minus)
    sigma = 0.5 * math.sqrt(e_or**2 + e_plus**2 + e_minus**2)
    return InterferenceEstimate(value=value, std_error=sigma)


@dataclass(frozen=True, eq=False)
class UncertaintyEstimate:
    """Empirical conditional matrix between two rapid readouts.

    ``matrix[k, l]`` estimates the probability of outcome k on the second
    device given outcome l on the first; columns never observed are NaN and
    listed in ``excluded``.  ``exchange_error`` compares against the
    role-swapped experiment; ``exact_delta`` is filled for the idealized
    zero-delay mode, where the exact overlap matrix is available.
    """

    matrix: np.ndarray
    std_errors: np.ndarray
    condition_counts: np.ndarray
    excluded: tuple[Label, ...]
    exchange_error: float
    exact_delta: float | None
    dt: float
    n_samples: int


def _conditional_counts(
    run: SampleRun, first_dev: Device, second_dev: Device
) -> tuple[np.ndarray, np.ndarray]:
    """(second x first) conditional frequency matrix and first-outcome totals."""
    n_f = first_dev.n_outcomes
    n_s = second_dev.n_outcomes
    joint = np.zeros((n_s, n_f))
    for (l, k), c in run.counts.items():
        joint[second_dev.outcome_index(k), first_dev.outcome_index(l)] += c
    totals = joint.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = joint / totals
    return cond, totals


def estimate_uncertainty(
    system: SystemSpec,
    dev_k: Device,
    dev_l: Device,
    t: float,
    dt: float,
    n_samples: int,
    seed: int,
) -> UncertaintyEstimate:
    """Estimate the conditional matrix C[k, l] from back-to-back sampled readouts.

    Measures ``dev_l`` at ``t`` and ``dev_k`` at ``t + dt`` on the maximally
    mixed state; ``dt = 0`` is the idealized consecutive-projection chain and
    is additionally compared entrywise to the exact overlap matrix.  A second,
    role-swapped run (seed + 1) checks the exchange symmetry of the estimates.
    """
    if dt < 0:
        raise ValueError("the delay must be non-negative")
    _check_seed(seed, runs=2)
    d = system.dim
    mixed = State(np.eye(d) / d, time_tag=min(0.0, float(t)))
    fwd = CoarseSchedule(
        entries=((float(t), dev_l, None), (float(t) + float(dt), dev_k, None)),
        init=mixed,
    )
    swp = CoarseSchedule(
        entries=((float(t), dev_k, None), (float(t) + float(dt), dev_l, None)),
        init=mixed,
    )
    run_fwd = sample_sequences(system, fwd, n_samples, seed)
    run_swp = sample_sequences(system, swp, n_samples, seed + 1)

    cond, totals = _conditional_counts(run_fwd, dev_l, dev_k)
    cond_swp, totals_swp = _conditional_counts(run_swp, dev_k, dev_l)

    with np.errstate(invalid="ignore", divide="ignore"):
        sig = np.sqrt(cond * (1.0 - cond) / totals)
    excluded = tuple(
        lab for j, lab in enumerate(dev_l.outcomes) if totals[j] == 0
    )

    observed = (totals_swp[:, None] > 0) & (totals[None, :] > 0)
    exchange = float(np.abs(cond - cond_swp.T).max(initial=0.0, where=observed))

    exact_delta = None
    if dt == 0:
        exact = uncertainty_matrix(system, dev_k, dev_l, float(t))
        exact_delta = float(np.abs(cond - exact).max(initial=0.0, where=totals > 0))

    return UncertaintyEstimate(
        matrix=cond,
        std_errors=sig,
        condition_counts=totals,
        excluded=excluded,
        exchange_error=exchange,
        exact_delta=exact_delta,
        dt=float(dt),
        n_samples=int(n_samples),
    )
