"""Virtual laboratory: sampled sequential measurements and their statistics.

Generates outcome sequences with the Born weights and the projective collapse
update, in one vectorised pass over all trials, then replays the
phenomenological deductions made from real tallies: empirical probability
tables with binomial error bars, interference terms reconstructed from fine
vs. pair-merged readout runs, and conditional (uncertainty) matrices estimated
from back-to-back readouts.

Randomness is counter-based: every trial owns a fixed range of Philox counter
blocks keyed by the run seed, so the counts depend only on the seed and the
number of trials, not on how the trials are grouped or chunked.

Trials are routed through a table of the outcome prefixes they reach.  Each
prefix is a node built once per run, with one Born vector and, below the last
readout, one collapsed density; a chunk of trials moves through the table
level by level as an array of node ids, and only prefixes never reached
before are built.  The table is emptied at the start of a chunk once it holds
more than ``_CHUNK`` nodes, so it never holds more than ``len(stacks) *
_CHUNK`` nodes whatever the number of trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.random import Generator, Philox

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


def _born(projs: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Clipped Born weights of ``rho``, their total, surviving outcomes and cumsum."""
    probs = np.einsum("oij,ji->o", projs, rho).real
    np.clip(probs, 0.0, None, out=probs)
    total = probs.sum()
    if total <= 1e-300:
        raise RuntimeError(
            "all readout branches vanished mid-chain; the projector chain is inconsistent"
        )
    alive = np.nonzero(probs > 1e-300)[0]
    return probs, total, alive, np.cumsum(probs[alive])


def _collapse(proj: np.ndarray, rho: np.ndarray, p: float) -> np.ndarray:
    """State after outcome ``proj`` of probability ``p``: ``(P rho P) / p``."""
    return (proj @ rho @ proj) / p


class _Nodes:
    """The reached outcome prefixes of one length: one node per prefix.

    A node holds its Born data for the next readout: the total weight, the
    cumulative weights of the surviving outcomes (one row per column, padded
    with +inf), the surviving outcomes themselves (padded by repeating the
    last one) and the clipped weights, plus its child ids (-1: not built
    yet).  Per-(node, outcome) rows are flat, at ``node * m + k``.  Densities
    are kept only where a child may still be collapsed from them.
    """

    def __init__(self, projs: np.ndarray, last: bool):
        self.projs = projs
        self.m = len(projs)
        self.prefix: list[tuple[int, ...]] = []
        self.rho: list[np.ndarray] | None = None if last else []
        self.total = np.empty(0)
        self.cum = np.empty((self.m, 0))
        self.alive = np.empty(0, dtype=np.intp)
        self.probs = np.empty(0)
        self.child = np.empty(0, dtype=np.intp)

    def add(self, prefixes: list[tuple[int, ...]], rhos: list[np.ndarray]) -> np.ndarray:
        """Append one node per (prefix, density); returns their ids."""
        k, m = len(rhos), self.m
        total, cum = np.empty(k), np.full((m, k), np.inf)
        alive, probs = np.empty((k, m), dtype=np.intp), np.empty((k, m))
        for r, rho in enumerate(rhos):
            probs[r], total[r], a, cum[: len(a), r] = _born(self.projs, rho)
            alive[r] = a[np.minimum(np.arange(m), len(a) - 1)]
        first = len(self.prefix)
        self.prefix += prefixes
        if self.rho is not None:
            self.rho += rhos
        self.total = np.concatenate((self.total, total))
        self.cum = np.concatenate((self.cum, cum), axis=1)
        self.alive = np.concatenate((self.alive, alive.ravel()))
        self.probs = np.concatenate((self.probs, probs.ravel()))
        self.child = np.concatenate((self.child, np.full(k * m, -1, dtype=np.intp)))
        return np.arange(first, first + k)


def _run_trials(
    init_density: np.ndarray, stacks: Sequence[np.ndarray], seed: int, n_samples: int
) -> dict[tuple[int, ...], int]:
    """Outcome-index tallies of ``n_samples`` trials, routed through a prefix table.

    Trial k reads its draws from Philox counter blocks ``[k*b, (k+1)*b)``, so
    one generator per chunk reproduces every trial's own stream.  Every
    reached prefix is a node built once per run, with one Born vector and
    (below the last readout) one collapse; trials move level by level as an
    array of node ids.  A trial's slot is ``searchsorted(cum, x, "right")``
    clamped to ``m - 1``, counted as the first ``m - 1`` cumulative weights
    ``<= x``.  The table is emptied at the start of a chunk once it holds
    more than ``_CHUNK`` nodes, so it never exceeds ``len(stacks) * _CHUNK``.
    """
    blocks_per_trial = max(1, math.ceil(len(stacks) / 4))
    last = len(stacks) - 1
    counts: dict[tuple[int, ...], int] = {}
    table: list[_Nodes] = []
    for start in range(0, n_samples, _CHUNK):
        if not table or sum(len(lv.prefix) for lv in table) > _CHUNK:
            table = [_Nodes(projs, j == last) for j, projs in enumerate(stacks)]
            table[0].add([()], [init_density])
        n = min(_CHUNK, n_samples - start)
        counter = np.array([start * blocks_per_trial, 0, 0, 0], dtype=np.uint64)
        rng = Generator(Philox(key=np.uint64(seed), counter=counter))
        draws = rng.random(n * 4 * blocks_per_trial).reshape(n, 4 * blocks_per_trial)
        node = np.zeros(n, dtype=np.intp)
        for j, lv in enumerate(table):
            x = draws[:, j] * lv.total[node]
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
                prefixes, rhos = [], []
                for p in pairs.tolist():
                    i, o = divmod(p, lv.m)
                    prefixes.append(lv.prefix[i] + (o,))
                    rhos.append(_collapse(lv.projs[o], lv.rho[i], lv.probs[p]))
                lv.child[pairs] = table[j + 1].add(prefixes, rhos)
                node = lv.child[key]
        keys, tally = np.unique(key, return_counts=True)
        for k, c in zip(keys.tolist(), tally.tolist()):
            seq = lv.prefix[k // lv.m] + (k % lv.m,)
            counts[seq] = counts.get(seq, 0) + c
    return counts


def sample_sequences(
    system: SystemSpec,
    schedule: Schedule | CoarseSchedule,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> SampleRun:
    """Draw outcome sequences by chaining Born weights with collapse updates.

    Every trial consumes its own fixed range of counter blocks, so the result
    depends only on ``(seed, n_samples)``.  ``workers`` must be at least 1; it
    changes neither the counts nor the work, since all trials run in one
    vectorised pass.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
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
