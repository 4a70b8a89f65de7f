"""Coarse-grained measurements, their faux classical counterparts, and interference.

A resolution partitions a device's outcome set into blocks; the coarse device
assigns each block the sum of its members' projectors.  Reading a block out in
mid-sequence is *not* the same as reading the fine outcomes and adding the
probabilities afterwards: the difference is carried by interference terms,
the real parts of off-diagonal bi-probabilities.  Only at the final entry (or
when everything commutes) do the two routes agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import ConsistencyError, Device, Label, State, SystemSpec, _within
from .engine import (
    BiSequence,
    Schedule,
    biprob,
    chain_probabilities,
    chain_probability,
)

__all__ = [
    "CoarseSchedule",
    "ConsistencyError",
    "InterferenceTerm",
    "PairwiseDecomposition",
    "Resolution",
    "coarse_device",
    "extreme_coarse_delta",
    "faux_coarse_prob",
    "interference_term",
    "pairwise_decompose",
    "quantum_coarse_prob",
]

@dataclass(frozen=True, eq=False)
class Resolution:
    """A partition of a device's outcomes into labelled blocks."""

    device: Device
    blocks: tuple[tuple[Label, ...], ...]
    block_labels: tuple[Label, ...]

    def __post_init__(self):
        blocks = tuple(tuple(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "block_labels", tuple(self.block_labels))
        if len(blocks) != len(self.block_labels):
            raise ValueError(f"{len(self.block_labels)} labels for {len(blocks)} blocks")
        if len(set(self.block_labels)) != len(self.block_labels):
            raise ValueError("block labels are not unique")
        if not blocks:
            raise ValueError("a resolution needs at least one block")
        seen: set[Label] = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block in resolution")
            for f in b:
                self.device.outcome_index(f)  # raises on unknown labels
                if f in seen:
                    raise ValueError(f"outcome {f!r} appears in more than one block")
                seen.add(f)
        if len(seen) != self.device.n_outcomes:
            missing = set(self.device.outcomes) - seen
            raise ValueError(f"resolution does not cover outcomes {missing!r}")

    def members(self, block_label: Label) -> tuple[Label, ...]:
        for b, lab in zip(self.blocks, self.block_labels):
            if lab == block_label:
                return b
        raise KeyError(f"no block labelled {block_label!r}")

    @classmethod
    def singletons(cls, device: Device) -> "Resolution":
        return cls(device, tuple((o,) for o in device.outcomes), device.outcomes)

    @classmethod
    def full(cls, device: Device) -> "Resolution":
        """All outcomes in one block labelled ``"any"``."""
        return cls(device, (tuple(device.outcomes),), ("any",))


def _block_label(members: Sequence[Label]) -> Label:
    """The default label of a block: its only member, or the members joined by ``|``."""
    return members[0] if len(members) == 1 else "|".join(str(f) for f in members)


def coarse_device(device: Device, resolution: Resolution) -> Device:
    """The block-summed device defined by a resolution."""
    if resolution.device.outcomes != device.outcomes:
        raise ValueError("resolution was built for a different device")
    projs = tuple(
        sum(device.projector_for(f) for f in resolution.members(lab))
        for lab in resolution.block_labels
    )
    return Device(
        name=f"{device.name}|{'/'.join(str(l) for l in resolution.block_labels)}",
        outcomes=resolution.block_labels,
        projectors=projs,
    )


@dataclass(frozen=True, eq=False)
class CoarseSchedule:
    """Schedule whose entries may carry a resolution (None = fine readout).

    ``schedule`` is the ``Schedule`` of its times over each entry's device
    with its resolution folded in by ``coarse_device``; building it is the
    validation, so the times follow ``Schedule``'s one rule, and a resolution
    made for another device is rejected by ``coarse_device``.  Reads like a
    ``Schedule``: ``times``, ``devices``, ``digest``, ``digest_payload`` and
    ``len`` read through ``schedule``, and ``init`` is ``schedule.init``.
    """

    entries: tuple[tuple[float, Device, Resolution | None], ...]
    init: State
    schedule: Schedule = field(init=False, repr=False)

    def __post_init__(self):
        entries = tuple((float(t), dev, res) for t, dev, res in self.entries)
        object.__setattr__(self, "entries", entries)
        folded = tuple(
            (t, dev if res is None else coarse_device(dev, res)) for t, dev, res in entries
        )
        object.__setattr__(self, "schedule", Schedule(entries=folded, init=self.init))

    def __len__(self) -> int:
        return len(self.schedule)

    @property
    def times(self) -> tuple[float, ...]:
        return self.schedule.times

    @property
    def devices(self) -> tuple[Device, ...]:
        return self.schedule.devices

    @property
    def digest(self) -> str:
        return self.schedule.digest

    def digest_payload(self) -> dict:
        return self.schedule.digest_payload()


def quantum_coarse_prob(
    system: SystemSpec, schedule: CoarseSchedule, outcomes: Sequence[Label]
) -> float:
    """Probability of a readout sequence with coarse projectors applied as such."""
    if len(outcomes) != len(schedule):
        raise ValueError("one readout per entry required")
    steps = [
        (t, dev.projector_for(f))
        for t, dev, f in zip(schedule.times, schedule.devices, outcomes)
    ]
    return chain_probability(system, schedule.init, steps)


def _members(schedule: CoarseSchedule, outcomes: Sequence[Label]) -> list[tuple[Label, ...]]:
    """The fine outcomes each readout covers: its block's members, or the outcome itself."""
    if len(outcomes) != len(schedule):
        raise ValueError("one readout per entry required")
    return [
        res.members(f) if res is not None else (f,)
        for (_, _, res), f in zip(schedule.entries, outcomes)
    ]


def faux_coarse_prob(
    system: SystemSpec, schedule: CoarseSchedule, outcomes: Sequence[Label]
) -> float:
    """Block-sum of fine probabilities: measure fine, add up within blocks afterwards."""
    steps = [
        (t, [dev.projector_for(m) for m in members])
        for (t, dev, _), members in zip(schedule.entries, _members(schedule, outcomes))
    ]
    return float(chain_probabilities(system, schedule.init, steps).sum())


class InterferenceTerm(NamedTuple):
    from_biprob: float
    from_probabilities: float


def interference_term(
    system: SystemSpec,
    schedule: Schedule,
    position: int,
    pair: tuple[Label, Label],
    outcomes: Sequence[Label],
) -> InterferenceTerm:
    """Interference between two alternatives at one entry, computed two ways.

    Route one is the real part of the off-diagonal bi-probability whose
    branches differ only at ``position`` (``pair[0]`` on the plus branch,
    ``pair[1]`` on the minus branch).  Route two is phenomenological:
    ``(P(either) - P(first) - P(second)) / 2`` where P(either) reads the pair
    out as a single two-member block.  ``outcomes`` fixes the readout at every
    other entry; its value at ``position`` is ignored.
    """
    n = len(schedule)
    if not 0 <= position < n:
        raise IndexError(f"position {position} out of range")
    f_plus, f_minus = pair
    if f_plus == f_minus:
        raise ValueError("interference needs two distinct alternatives")
    dev = schedule.devices[position]
    dev.outcome_index(f_plus)
    dev.outcome_index(f_minus)
    if len(outcomes) != n:
        raise ValueError("outcomes must cover every entry (value at `position` is ignored)")

    plus = tuple(outcomes[:position]) + (f_plus,) + tuple(outcomes[position + 1:])
    minus = tuple(outcomes[:position]) + (f_minus,) + tuple(outcomes[position + 1:])
    q = biprob(system, schedule, BiSequence(plus, minus))
    route_a = float(q.real)

    steps = [(t, [d.projector_for(f)]) for (t, d), f in zip(schedule.entries, plus)]
    proj_plus, proj_minus = dev.projector_for(f_plus), dev.projector_for(f_minus)
    steps[position] = (schedule.times[position], [proj_plus + proj_minus, proj_plus, proj_minus])
    p_or, p_plus, p_minus = chain_probabilities(system, schedule.init, steps).tolist()
    route_b = 0.5 * (p_or - p_plus - p_minus)

    what = f"interference routes disagree: {route_a} vs {route_b}"
    _within(what, abs(route_a - route_b), 1e-10, ConsistencyError)
    return InterferenceTerm(route_a, route_b)


@dataclass(frozen=True)
class PairwiseDecomposition:
    """Result of rebuilding a coarse probability from singles and pairs."""

    recurrence_value: float
    direct_value: float
    term_count: int


def pairwise_decompose(
    system: SystemSpec, schedule: CoarseSchedule, outcomes: Sequence[Label]
) -> PairwiseDecomposition:
    """Rebuild a coarse readout probability from fine and pair-block readouts.

    A block of k alternatives decomposes as the sum of its fine probabilities
    plus, for every unordered pair within the block, the excess of the
    two-member-block probability over the two fine ones.  Expanding every
    block of k >= 3 members this way gives k singles of weight 2 - k and
    k(k-1)/2 pairs of weight 1; every terminal readout (the product of those
    families over the entries) is evaluated in one ``chain_probabilities``
    call, whose guard refuses more readouts times d^2 than
    ``max_table_entries()``, and the weights are then summed out one entry at
    a time.  The result must agree with the direct coarse evaluation.
    """
    families, weights = [], []
    for (t, dev, _), members in zip(schedule.entries, _members(schedule, outcomes)):
        k = len(members)
        if k >= 3:
            groups = [(f,) for f in members] + list(itertools.combinations(members, 2))
            weights.append(np.array([2.0 - k] * k + [1.0] * (len(groups) - k)))
        else:
            groups = [members]
            weights.append(np.ones(1))
        families.append((t, [sum(dev.projector_for(f) for f in g) for g in groups]))
    probs = chain_probabilities(system, schedule.init, families)
    recurrence = probs
    for w in reversed(weights):  # the last entry's outcome is the least significant digit
        recurrence = recurrence.reshape(-1, len(w)) @ w
    recurrence = float(recurrence[0])
    direct = quantum_coarse_prob(system, schedule, outcomes)
    what = f"pairwise recurrence {recurrence} disagrees with direct value {direct}"
    _within(what, abs(recurrence - direct), 1e-9, ConsistencyError)
    return PairwiseDecomposition(
        recurrence_value=recurrence, direct_value=direct, term_count=len(probs)
    )


def extreme_coarse_delta(system: SystemSpec, schedule: Schedule, position: int) -> float:
    """Largest gap between an all-outcomes block readout and deleting the entry.

    Reading the full block out inserts the identity into the chain, so the gap
    should vanish (to round-off) for every assignment of the remaining
    readouts.
    """
    if not 0 <= position < len(schedule):
        raise IndexError(f"position {position} out of range")
    steps = [(t, dev.projectors) for t, dev in schedule.entries]
    short_steps = steps[:position] + steps[position + 1:]
    t, dev = schedule.entries[position]
    steps[position] = (t, (sum(dev.projectors),))
    p_coarse = chain_probabilities(system, schedule.init, steps)
    p_short = chain_probabilities(system, schedule.init, short_steps)
    return float(np.abs(p_coarse - p_short).max())
