"""Composite systems: tensor products, factorization, and co-interference.

For independent subsystems the joint bi-probability factorizes into the
subsystem bi-probabilities.  The interference of a joint readout then splits
into a product of subsystem interference parts plus a cross term — the
co-interference — equal to minus the product of the subsystem imaginary
parts.  Couplings break the factorization, which is how interaction is
detected at the level of statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ConsistencyError, Device, Label, State, SystemSpec, _within, tensor_device
from .engine import BiSequence, Schedule, biprob, biprob_table

__all__ = [
    "CompositeSpec",
    "Coupling",
    "IdenticalRelationsReport",
    "co_interference",
    "compose",
    "factorization_delta",
    "identical_relations_check",
    "product_state",
]


@dataclass(frozen=True, eq=False)
class Coupling:
    """A product interaction term ``strength * (op_a x op_b)``."""

    op_a: np.ndarray
    op_b: np.ndarray
    strength: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "op_a", np.asarray(self.op_a, dtype=complex))
        object.__setattr__(self, "op_b", np.asarray(self.op_b, dtype=complex))


@dataclass(frozen=True, eq=False)
class CompositeSpec:
    """Two factors with optional product couplings between them."""

    factor_a: SystemSpec
    factor_b: SystemSpec
    couplings: tuple[Coupling, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(self.couplings))
        for c in self.couplings:
            if c.op_a.shape != (self.factor_a.dim,) * 2:
                raise ValueError("coupling operator on factor A has wrong shape")
            if c.op_b.shape != (self.factor_b.dim,) * 2:
                raise ValueError("coupling operator on factor B has wrong shape")


def compose(spec: CompositeSpec) -> SystemSpec:
    """Joint system with ``H = H_A x 1 + 1 x H_B + sum strength * V_A x V_B``."""
    da, db = spec.factor_a.dim, spec.factor_b.dim
    h = np.kron(spec.factor_a.hamiltonian, np.eye(db)) + np.kron(
        np.eye(da), spec.factor_b.hamiltonian
    )
    for c in spec.couplings:
        h = h + c.strength * np.kron(c.op_a, c.op_b)
    return SystemSpec(dim=da * db, hamiltonian=h)


def product_state(state_a: State, state_b: State) -> State:
    """Uncorrelated joint initial condition; the time tags must agree."""
    ta, tb = state_a.time_tag, state_b.time_tag
    _within(f"time tags differ: {ta} vs {tb}", abs(ta - tb), 1e-12)
    return State(np.kron(state_a.density, state_b.density), time_tag=state_a.time_tag)


def _check_tandem(sched_a: Schedule, sched_b: Schedule) -> None:
    """Raise ``ValueError`` unless both factors are read out at the same times."""
    if len(sched_a) != len(sched_b):
        raise ValueError("tandem schedules must have the same number of entries")
    for ta, tb in zip(sched_a.times, sched_b.times):
        _within(f"tandem schedules must share times; got {ta} vs {tb}", abs(ta - tb), 1e-12)


def _tandem_schedule(
    spec_a: SystemSpec,
    spec_b: SystemSpec,
    sched_a: Schedule,
    sched_b: Schedule,
    couplings: Sequence[Coupling] = (),
) -> tuple[SystemSpec, Schedule]:
    _check_tandem(sched_a, sched_b)
    joint_system = compose(CompositeSpec(spec_a, spec_b, tuple(couplings)))
    init = product_state(sched_a.init, sched_b.init)
    entries = tuple(
        (ta, tensor_device(da, db))
        for (ta, da), (tb, db) in zip(sched_a.entries, sched_b.entries)
    )
    return joint_system, Schedule(entries=entries, init=init)


def factorization_delta(
    spec_a: SystemSpec,
    spec_b: SystemSpec,
    sched_a: Schedule,
    sched_b: Schedule,
    couplings: Sequence[Coupling] = (),
) -> float:
    """Largest gap between the joint table and the product of factor tables.

    Measures both subsystems in tandem (joint devices are tensor products at
    shared times).  With no couplings the gap is round-off; couplings make it
    finite, which pins interaction down from statistics alone.
    """
    joint_system, joint_sched = _tandem_schedule(spec_a, spec_b, sched_a, sched_b, couplings)
    t_ab = biprob_table(joint_system, joint_sched).matrix
    t_a = biprob_table(spec_a, sched_a).matrix
    t_b = biprob_table(spec_b, sched_b).matrix

    rad_a = [dev.n_outcomes for dev in sched_a.devices]
    rad_b = [dev.n_outcomes for dev in sched_b.devices]
    n = len(rad_a)
    interleaved: list[int] = []
    for ra, rb in zip(rad_a, rad_b):
        interleaved += [ra, rb]
    shaped = t_ab.reshape(interleaved + interleaved)
    a_axes = [2 * j for j in range(n)]
    b_axes = [2 * j + 1 for j in range(n)]
    perm = a_axes + b_axes + [2 * n + ax for ax in a_axes] + [2 * n + ax for ax in b_axes]
    total_a = t_a.shape[0]
    total_b = t_b.shape[0]
    joint = shaped.transpose(perm).reshape(total_a, total_b, total_a, total_b)
    product = np.einsum("ik,jl->ijkl", t_a, t_b)
    return float(np.abs(joint - product).max())


def co_interference(
    spec_a: SystemSpec,
    spec_b: SystemSpec,
    sched_a: Schedule,
    sched_b: Schedule,
    bi_a: BiSequence,
    bi_b: BiSequence,
) -> float:
    """Joint interference minus the product of subsystem interference parts.

    Computed from the joint system's bi-probability directly and cross-checked
    against minus the product of the subsystem imaginary parts, which is what
    independence forces it to be.  The joint system is the uncoupled tandem of
    the two: the decomposition this quantity refers to presumes independent
    subsystems, so it takes no couplings.
    """
    joint_system, joint_sched = _tandem_schedule(spec_a, spec_b, sched_a, sched_b)
    joint_bi = BiSequence(
        tuple(zip(bi_a.plus, bi_b.plus)),
        tuple(zip(bi_a.minus, bi_b.minus)),
    )
    q_joint = biprob(joint_system, joint_sched, joint_bi)
    q_a = biprob(spec_a, sched_a, bi_a)
    q_b = biprob(spec_b, sched_b, bi_b)
    phi = float(q_joint.real - q_a.real * q_b.real)
    expected = -float(q_a.imag * q_b.imag)
    what = f"co-interference {phi} deviates from -Im*Im = {expected}"
    _within(what, abs(phi - expected), 1e-10, ConsistencyError)
    return phi


@dataclass(frozen=True)
class IdenticalRelationsReport:
    """Co-interference relations for two identical copies of one system."""

    phi_ab: float
    phi_aa: float
    phi_bb: float
    phi_aa_swapped: float
    sqrt_identity_error: float
    antisymmetry_error: float

    @property
    def nonpositive(self) -> bool:
        return self.phi_aa <= 1e-12 and self.phi_bb <= 1e-12


def identical_relations_check(
    spec: SystemSpec,
    schedule: Schedule,
    position: int,
    pair_a: tuple[Label, Label],
    pair_b: tuple[Label, Label],
    outcomes: Sequence[Label],
) -> IdenticalRelationsReport:
    """Verify the co-interference relations on two identical copies.

    Both copies run the same schedule; ``outcomes`` fixes the readouts away
    from ``position``, where copy A takes ``pair_a`` and copy B ``pair_b``.
    Checks the diagonal-pair non-positivity, the antisymmetry under swapping a
    pair across the branches, and the square-root magnitude identity linking
    the mixed configuration to the two same-pair ones.  All values come from
    direct joint-system evaluations.
    """
    n = len(schedule)
    if len(outcomes) != n:
        raise ValueError("outcomes must cover every entry (value at `position` is ignored)")

    def pair_bi(pair: tuple[Label, Label]) -> BiSequence:
        plus = tuple(outcomes[:position]) + (pair[0],) + tuple(outcomes[position + 1:])
        minus = tuple(outcomes[:position]) + (pair[1],) + tuple(outcomes[position + 1:])
        return BiSequence(plus, minus)

    bi_a = pair_bi(pair_a)
    bi_b = pair_bi(pair_b)
    bi_a_swapped = pair_bi((pair_a[1], pair_a[0]))

    phi_ab = co_interference(spec, spec, schedule, schedule, bi_a, bi_b)
    phi_aa = co_interference(spec, spec, schedule, schedule, bi_a, bi_a)
    phi_bb = co_interference(spec, spec, schedule, schedule, bi_b, bi_b)
    phi_aa_swapped = co_interference(spec, spec, schedule, schedule, bi_a, bi_a_swapped)

    sqrt_err = abs(abs(phi_ab) - np.sqrt(abs(phi_aa)) * np.sqrt(abs(phi_bb)))
    antisym_err = abs(phi_aa + phi_aa_swapped)
    return IdenticalRelationsReport(
        phi_ab=phi_ab,
        phi_aa=phi_aa,
        phi_bb=phi_bb,
        phi_aa_swapped=phi_aa_swapped,
        sqrt_identity_error=float(sqrt_err),
        antisymmetry_error=float(antisym_err),
    )
