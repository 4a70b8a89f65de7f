"""Coarse-grained measurements, their faux classical counterparts, and interference.

A resolution partitions a device's outcome set into blocks; the coarse device
assigns each block the sum of its members' projectors.  Reading a block out in
mid-sequence is *not* the same as reading the fine outcomes and adding the
probabilities afterwards: the difference is carried by interference terms,
the real parts of off-diagonal bi-probabilities.  Only at the final entry (or
when everything commutes) do the two routes agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .core import Device, Label, State, SystemSpec
from .engine import (
    BiSequence,
    ConsistencyError,
    Schedule,
    _guard,
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
            raise ValueError("one label per block required")
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

    Times are non-decreasing; equal times mean back-to-back projections with
    no propagation in between.  Reads like a ``Schedule`` through ``times``,
    ``devices`` (each resolution folded in by ``coarse_device``), ``init``
    and ``digest``.
    """

    entries: tuple[tuple[float, Device, Resolution | None], ...]
    init: State

    def __post_init__(self):
        entries = tuple((float(t), dev, res) for t, dev, res in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("schedule needs at least one entry")
        t_prev = self.init.time_tag
        for t, dev, res in entries:
            if t < t_prev - 1e-15:
                raise ValueError("times must be non-decreasing and not before t0")
            if dev.dim != self.init.dim:
                raise ValueError(f"device {dev.name!r} dim mismatch")
            if res is not None and res.device.outcomes != dev.outcomes:
                raise ValueError("resolution does not belong to the entry's device")
            t_prev = t

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _, _ in self.entries)

    @cached_property
    def devices(self) -> tuple[Device, ...]:
        return tuple(
            dev if res is None else coarse_device(dev, res) for _, dev, res in self.entries
        )

    digest_payload = Schedule.digest_payload
    digest = Schedule.digest

    @classmethod
    def from_schedule(cls, schedule: Schedule) -> "CoarseSchedule":
        """The schedule's entries, each read out fine."""
        entries = tuple((t, dev, None) for t, dev in schedule.entries)
        return cls(entries=entries, init=schedule.init)


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


def faux_coarse_prob(
    system: SystemSpec, schedule: CoarseSchedule, outcomes: Sequence[Label]
) -> float:
    """Block-sum of fine probabilities: measure fine, add up within blocks afterwards."""
    if len(outcomes) != len(schedule):
        raise ValueError("one readout per entry required")
    steps = []
    for (t, dev, res), f in zip(schedule.entries, outcomes):
        members = res.members(f) if res is not None else (f,)
        steps.append((t, [dev.projector_for(m) for m in members]))
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

    pair_proj = dev.projector_for(f_plus) + dev.projector_for(f_minus)
    base_steps = [
        (t, d.projector_for(f)) for (t, d), f in zip(schedule.entries, plus)
    ]
    steps_or = list(base_steps)
    steps_or[position] = (schedule.times[position], pair_proj)
    p_or = chain_probability(system, schedule.init, steps_or)
    p_plus = chain_probability(system, schedule.init, base_steps)
    steps_minus = list(base_steps)
    steps_minus[position] = (schedule.times[position], dev.projector_for(f_minus))
    p_minus = chain_probability(system, schedule.init, steps_minus)
    route_b = 0.5 * (p_or - p_plus - p_minus)

    if abs(route_a - route_b) > 1e-10:
        raise ConsistencyError(
            f"interference routes disagree: {route_a} vs {route_b}"
        )
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
    two-member-block probability over the two fine ones.  The expansion runs
    entry by entry until only singletons and pairs remain, then evaluates the
    terminal readouts as ordinary chains (memoized).  The result must agree
    with the direct coarse evaluation.

    A block of k >= 3 members ends in k + k(k-1)/2 terminal readouts, so the
    expansion evaluates their product over the entries; that count times d^2,
    the unit of ``chain_probabilities``, must fit ``max_table_entries()``.
    """
    if len(outcomes) != len(schedule):
        raise ValueError("one readout per entry required")
    effective = [
        tuple(res.members(f)) if res is not None else (f,)
        for (_, _, res), f in zip(schedule.entries, outcomes)
    ]
    readouts = math.prod(k + k * (k - 1) // 2 if k >= 3 else 1 for k in map(len, effective))
    _guard(readouts * system.dim * system.dim)

    cache: dict[tuple, float] = {}
    counter = [0]

    def evaluate(effs: tuple[tuple, ...]) -> float:
        if effs in cache:
            return cache[effs]
        steps = []
        for (t, dev, res), members in zip(schedule.entries, effs):
            proj = sum(dev.projector_for(f) for f in members)
            steps.append((t, proj))
        val = chain_probability(system, schedule.init, steps)
        cache[effs] = val
        counter[0] += 1
        return val

    def expand(effs: tuple[tuple, ...]) -> float:
        for i, members in enumerate(effs):
            if len(members) >= 3:
                k = len(members)
                total = 0.0
                for f in members:
                    total += (2 - k) * expand(effs[:i] + ((f,),) + effs[i + 1:])
                for a in range(k):
                    for b in range(a + 1, k):
                        pair = (members[a], members[b])
                        total += expand(effs[:i] + (pair,) + effs[i + 1:])
                return total
        return evaluate(effs)

    effs = tuple(effective)
    recurrence = expand(effs)
    direct = quantum_coarse_prob(system, schedule, outcomes)
    if abs(recurrence - direct) > 1e-9:
        raise ConsistencyError(
            f"pairwise recurrence {recurrence} disagrees with direct value {direct}"
        )
    return PairwiseDecomposition(
        recurrence_value=recurrence, direct_value=direct, term_count=counter[0]
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
