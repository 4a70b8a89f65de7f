"""System-level measure restrictions, open-system maps, and classical limits.

Measurements at chosen times in chosen bases are grid restrictions of one
master object.  This module houses those restrictions (bi-probabilities over
space-time coordinates), the decomposition of ordinary observable readouts
into them, the reduced dynamics of a system coupled to a finite environment —
computed both as a partial trace and as a bi-trajectory average over the
environment's coupling eigenvalues — two-time (anti)commutator moments read
off the bi-probability table, and a diagnostic for when the table degenerates
into an ordinary single-trajectory probability measure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .composite import CompositeSpec, Coupling, compose
from .core import (
    ConsistencyError,
    State,
    SystemSpec,
    _check_hermitian,
    _check_times,
    _eigen_groups,
    _expm_herm,
    _heisenberg,
    _projector_columns,
    device_from_hermitian,
    _within,
    propagator,
)
from .engine import (
    BiProbTable,
    Schedule,
    _guard,
    _leaves,
    _mass,
    _sum_in_order,
    biprob_table,
    chain_probabilities,
)
from .serialize import matrix_to_json

__all__ = [
    "ClassicalDiagnostic",
    "CommutatorMoment",
    "CoordTau",
    "OpenSpec",
    "Superoperator",
    "classical_diagnostic",
    "dynamical_map_bitraj",
    "dynamical_map_exact",
    "gellmann_generators",
    "observable_restriction_delta",
    "piecewise_propagator",
    "system_biprob",
    "two_time_commutator",
]


def gellmann_generators(d: int) -> list[np.ndarray]:
    """Hermitian traceless generators of the unitary group on d levels.

    Orthogonal under the trace pairing with tr(T_l T_m) = 2 delta_lm; the
    Pauli triple at d = 2, the standard generalized construction above.
    """
    if d < 2:
        raise ValueError("need at least a two-level system")
    gens: list[np.ndarray] = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            gens.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j
            asym[k, j] = 1j
            gens.append(asym)
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        for j in range(l):
            diag[j, j] = 1.0
        diag[l, l] = -float(l)
        gens.append(math.sqrt(2.0 / (l * (l + 1))) * diag)
    return gens


@dataclass(frozen=True, eq=False)
class CoordTau:
    """A space-time measurement coordinate: a time paired with a basis frame.

    The frame ``basis`` is the unitary S that rotates the computational basis
    into the probed one; the projector of index ``eta`` at this coordinate is
    ``U(t,0)^dag S^dag |eta><eta| S U(t,0)``.
    """

    time: float
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "time", float(self.time))
        s = np.asarray(self.basis, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("coordinate basis must be a square matrix")
        gap = np.abs(s.conj().T @ s - np.eye(s.shape[0])).max()
        _within("coordinate basis is not unitary", gap, 1e-10)
        s.setflags(write=False)
        object.__setattr__(self, "basis", s)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def from_generators(cls, time: float, taus: Sequence[float]) -> "CoordTau":
        """Coordinate chart S = exp(i sum_l tau_l T_l) over the d^2 - 1 Gell-Mann generators."""
        taus = np.asarray(taus, dtype=float)
        d = int(round(math.sqrt(len(taus) + 1)))
        if d * d - 1 != len(taus):
            raise ValueError(f"{len(taus)} components do not fill a d^2-1 generator set")
        h = sum(t * g for t, g in zip(taus, gellmann_generators(d)))
        return cls(time=time, basis=_expm_herm(*np.linalg.eigh(h), -1.0))


def system_biprob(
    system: SystemSpec,
    coords: Sequence[CoordTau],
    eta_plus: Sequence[int],
    eta_minus: Sequence[int],
) -> complex:
    """Bi-probability of basis-index chains over space-time coordinates.

    The first coordinate is the initial slot: it appears on both branches of
    the trace, with no density operator anywhere — initial statistics enter
    through the caller's weights.  Index chains are rank-one throughout, so
    the value reduces to a product of neighbouring-frame overlaps.  The
    coordinate times follow the time rule of ``core._check_times`` with no t0.
    """
    coords = tuple(coords)
    if not coords:
        raise ValueError("need at least the initial coordinate")
    if len(eta_plus) != len(coords) or len(eta_minus) != len(coords):
        raise ValueError("one basis index per coordinate on each branch")
    _check_times("coordinate", (c.time for c in coords))
    for c in coords:
        if c.dim != system.dim:
            raise ValueError(
                f"coordinate basis dim {c.dim} does not match system dim {system.dim}"
            )

    d = system.dim

    def column(coord: CoordTau, eta: int) -> np.ndarray:
        if not 0 <= int(eta) < d:
            raise ValueError(f"basis index {eta} out of range for dim {d}")
        su = coord.basis @ propagator(system, coord.time)
        return su.conj().T[:, int(eta)]

    cp = [column(c, e) for c, e in zip(coords, eta_plus)]
    cm = [column(c, e) for c, e in zip(coords, eta_minus)]
    val = complex(np.vdot(cp[0], cm[0]) * np.vdot(cm[-1], cp[-1]))
    for j in range(1, len(coords)):
        val *= complex(np.vdot(cp[j], cp[j - 1]))
        val *= complex(np.vdot(cm[j - 1], cm[j]))
    return val


def observable_restriction_delta(system: SystemSpec, schedule: Schedule) -> float:
    """Gap between a schedule's table and its decomposition over basis indices.

    Every observable readout is a grouped sum of fine basis-index chains: the
    chain value is weighted by the initial state's eigenvalue and summed over
    all index assignments landing in the readout's eigenvalue block.  Returns
    the largest entrywise difference from the directly computed table —
    round-off when everything is consistent.
    """
    table = biprob_table(system, schedule)
    d = system.dim
    n = len(schedule)
    _guard((d ** (2 * n)) * d)

    w0, r0 = np.linalg.eigh(schedule.init.density)
    w0 = np.clip(w0, 0.0, None)
    # The initial slot sits at the propagation origin: the chain treats the
    # state as given there, so the slot's frame absorbs any anchor offset.
    t_anchor = min(0.0, schedule.times[0])
    anchor_frame = (propagator(system, t_anchor) @ r0).conj().T
    coords = [CoordTau(time=t_anchor, basis=anchor_frame)]
    owners_per_entry: list[list[int]] = []
    for t, dev in schedule.entries:
        basis, owners = _projector_columns(dev)
        coords.append(CoordTau(time=t, basis=basis.conj().T))
        owners_per_entry.append(owners)

    radices = [dev.n_outcomes for dev in schedule.devices]

    def code_of(assignment: tuple[int, ...]) -> int:
        code = 0
        for owners, r, eta in zip(owners_per_entry, radices, assignment):
            code = code * r + owners[eta]
        return code

    rhs = np.zeros_like(table.matrix)
    for eta_p in itertools.product(range(d), repeat=n):
        code_p = code_of(eta_p)
        for eta_m in itertools.product(range(d), repeat=n):
            code_m = code_of(eta_m)
            acc = 0.0 + 0.0j
            for eta0 in range(d):
                if w0[eta0] == 0.0:
                    continue
                acc += w0[eta0] * system_biprob(
                    system, coords, (eta0,) + eta_p, (eta0,) + eta_m
                )
            rhs[code_p, code_m] += acc
    return float(np.abs(rhs - table.matrix).max())


@dataclass(frozen=True, eq=False)
class OpenSpec:
    """An observed system in contact with a finite environment.

    ``couplings`` holds product interaction terms (operator on the observed
    side, observable on the environment side, optional strength); ``joint``,
    the joint system that ``compose`` builds once per spec, has the generator
    H0 x 1 + 1 x H_env + sum of the coupling products.
    """

    system: SystemSpec
    environment: SystemSpec
    couplings: tuple[Coupling, ...]
    env_state: State

    def __post_init__(self):
        coups = tuple(c if isinstance(c, Coupling) else Coupling(*c) for c in self.couplings)
        CompositeSpec(self.system, self.environment, coups)  # checks the coupling shapes
        for c in coups:
            _check_hermitian(c.op_a, "coupling operator on the system side")
            _check_hermitian(c.op_b, "coupling operator on the environment side")
        object.__setattr__(self, "couplings", coups)
        if self.env_state.dim != self.environment.dim:
            raise ValueError("environment state dimension mismatch")

    @cached_property
    def joint(self) -> SystemSpec:
        """The observed system and its environment as one system, composed once."""
        return compose(CompositeSpec(self.system, self.environment, self.couplings))


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Linear map on density operators, stored over column-major vectorization.

    ``matrix`` acts on ``rho.flatten(order='F')``.  Construction validates
    trace preservation: the dual map must fix the identity within 1e-8.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = int(self.dim)
        if m.shape != (d * d, d * d):
            raise ValueError(f"superoperator matrix must be {d * d}x{d * d}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", d)
        _within("map is not trace-preserving", self.trace_preservation_error(), 1e-8)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise ValueError("state has the wrong dimension")
        out = self.matrix @ rho.flatten(order="F")
        return out.reshape((self.dim, self.dim), order="F")

    def trace_preservation_error(self) -> float:
        ident = np.eye(self.dim, dtype=complex).flatten(order="F")
        return float(np.abs(self.matrix.conj().T @ ident - ident).max())

    def choi(self) -> np.ndarray:
        """Rearrangement whose positivity witnesses complete positivity."""
        d = self.dim
        m4 = self.matrix.reshape(d, d, d, d)
        return m4.transpose(3, 1, 2, 0).reshape(d * d, d * d)

    def min_choi_eigenvalue(self) -> float:
        c = self.choi()
        c = 0.5 * (c + c.conj().T)
        return float(np.linalg.eigvalsh(c).min())

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "vectorization": "column-major",
            "matrix": matrix_to_json(self.matrix),
        }


def dynamical_map_exact(spec: OpenSpec, t: float) -> Superoperator:
    """Reduced evolution by conjugating with the joint propagator and tracing.

    Built column by column over the matrix units of the observed system.  The
    joint system obeys the dimension cap like any other system: the product
    dimension must fit ``BITRAJ_MAX_DIM``, which only that variable raises.
    """
    d_o, d_e = spec.system.dim, spec.environment.dim
    u = propagator(spec.joint, t)
    rho_e = spec.env_state.density
    m = np.zeros((d_o * d_o, d_o * d_o), dtype=complex)
    for l in range(d_o):
        for k in range(d_o):
            unit = np.zeros((d_o, d_o), dtype=complex)
            unit[k, l] = 1.0
            z = u @ np.kron(unit, rho_e) @ u.conj().T
            y = np.trace(z.reshape(d_o, d_e, d_o, d_e), axis1=1, axis2=3)
            m[:, k + l * d_o] = y.flatten(order="F")
    return Superoperator(dim=d_o, matrix=m)


def _env_blocks(spec: OpenSpec) -> list[tuple[tuple[float, ...], np.ndarray]]:
    """Joint eigenvalue blocks of the environment coupling observables.

    Returns (eigenvalue tuple, projector) per block.  Observables must
    commute pairwise; otherwise there is no joint eigen-readout and the
    bi-trajectory average is rejected.
    """
    d = spec.environment.dim
    ops = [c.op_b for c in spec.couplings]
    if not ops:
        return [((), np.eye(d, dtype=complex))]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            comm = ops[i] @ ops[j] - ops[j] @ ops[i]
            scale = max(1.0, float(np.abs(ops[i]).max() * np.abs(ops[j]).max()))
            what = "environment coupling observables do not commute; no joint eigen-readout exists"
            _within(what, np.abs(comm).max(), 1e-10 * scale)
    basis = np.eye(d, dtype=complex)
    blocks: list[list[int]] = [list(range(d))]
    for f in ops:
        refined: list[list[int]] = []
        scale = float(np.linalg.norm(f, 2))  # a block's round-off is f's, not its own
        for blk in blocks:
            cols = basis[:, blk]
            sub = cols.conj().T @ f @ cols
            w, v = np.linalg.eigh(0.5 * (sub + sub.conj().T))
            basis[:, blk] = cols @ v
            refined.extend([blk[i] for i in g] for g in _eigen_groups(w, scale))
        blocks = refined
    out = []
    for blk in blocks:
        cols = basis[:, blk]
        proj = cols @ cols.conj().T
        values = tuple(
            float(np.mean([np.vdot(cols[:, i], f @ cols[:, i]).real for i in range(len(blk))]))
            for f in ops
        )
        out.append((values, proj))
    return out


def dynamical_map_bitraj(
    spec: OpenSpec,
    t: float,
    slices: int,
    via_enumeration: bool = False,
) -> Superoperator:
    """Reduced evolution as a bi-trajectory average over coupling eigenvalues.

    The interval is cut into ``slices`` pieces; on each piece the environment
    coupling observable is frozen at one of its eigenvalues, the observed
    system is driven by the matching piecewise-constant generator, and each
    eigenvalue bi-sequence is weighted by the environment's bi-probability
    for readouts at the slice midpoints.  The weighted double sum factorizes
    through a per-slice transfer operator, which is how it is evaluated by
    default — numerically identical to the explicit enumeration, without the
    exponential sweep.  ``via_enumeration=True`` forces the literal sweep
    (guarded by the table-size limit): the environment's table ``W W^H`` from
    the engine's leaves, contracted with every pair of slice-unitary products.

    Converges to the exact map as slices grow, with error O(1/slices);
    commuting pieces (pure dephasing) are exact already at one slice.
    """
    n = int(slices)
    if n < 1:
        raise ValueError("need at least one slice")
    t = float(t)
    blocks = _env_blocks(spec)
    d_o, d_e = spec.system.dim, spec.environment.dim
    dt = t / n
    h0 = spec.system.hamiltonian
    h_drive = [c.strength * c.op_a for c in spec.couplings]
    slice_u = []
    for values, _ in blocks:
        gen = h0
        for v, ha in zip(values, h_drive):
            gen = gen + v * ha
        slice_u.append(_expm_herm(*np.linalg.eigh(gen), dt))

    if via_enumeration:
        _guard(len(blocks) ** (2 * n))
        steps = [(j, [proj for _, proj in blocks]) for j in range(n)]
        # step j is read out at its slice midpoint; steps go by j so that t < 0 stays ordered
        mid = lambda j: propagator(spec.environment, (j + 0.5) * dt)  # noqa: E731
        leaves = _leaves(spec.environment, spec.env_state, steps, mid)
        leaves = leaves.reshape(len(leaves), -1)
        q_env = leaves @ leaves.conj().T
        drives = np.eye(d_o, dtype=complex).reshape(1, d_o, d_o)
        for _ in range(n):  # codes in the leaves' mixed-radix order, first slice most significant
            drives = np.stack([su @ drives for su in slice_u], axis=1).reshape(-1, d_o, d_o)
        m = np.einsum("pm,mij,pkl->ikjl", q_env, drives.conj(), drives, optimize=True)
        return Superoperator(dim=d_o, matrix=m.reshape(d_o * d_o, d_o * d_o))

    p_env, v_env = np.linalg.eigh(spec.env_state.density)
    p_env = np.clip(p_env, 0.0, None)
    u_env = propagator(spec.environment, dt)
    u_env_half = propagator(spec.environment, dt / 2.0)
    a_full, a_half = (np.empty((d_o * d_e, d_o * d_e), dtype=complex) for _ in range(2))
    for a, step in ((a_full, u_env), (a_half, u_env_half)):
        _sum_in_order([np.kron(su, proj @ step) for su, (_, proj) in zip(slice_u, blocks)], a)
    b = np.linalg.matrix_power(a_full, n - 1) @ a_half
    b4 = b.reshape(d_o, d_e, d_o, d_e)
    m = np.zeros((d_o * d_o, d_o * d_o), dtype=complex)
    for e in range(d_e):
        if p_env[e] == 0.0:
            continue
        amp = math.sqrt(p_env[e])
        for f in range(d_e):
            k = amp * (b4[:, f, :, :] @ v_env[:, e])
            m = m + np.kron(k.conj(), k)
    return Superoperator(dim=d_o, matrix=m)


class CommutatorMoment(NamedTuple):
    """One two-time moment computed along two independent routes."""

    direct: complex
    from_biprob: complex


def two_time_commutator(
    system: SystemSpec,
    obs_f2: np.ndarray,
    obs_f1: np.ndarray,
    t2: float,
    t1: float,
    state: State,
    anticommutator: bool = False,
) -> CommutatorMoment:
    """Expectation of [F2(t2), F1(t1)] computed two ways, asserted equal.

    Route one conjugates the observables to their measurement times and takes
    the trace against the state.  Route two weighs the two-step bi-probability
    table with the branch products f2+ f1+ minus f1- f2- (plus for the
    anticommutator) — the moment is carried entirely by off-diagonal entries
    in the commutator case.  Both routes are quadratic in the observables, so
    a deviation beyond ``1e-10 * max(1, ||F1|| ||F2||)`` raises.  The times follow
    the schedule time rule, so ``t2 == t1`` is a back-to-back readout.
    """
    dev1 = device_from_hermitian(obs_f1, name="F1")
    dev2 = device_from_hermitian(obs_f2, name="F2")
    schedule = Schedule(entries=((float(t1), dev1), (float(t2), dev2)), init=state)
    table = biprob_table(system, schedule)

    r2 = dev2.n_outcomes
    codes = np.arange(table.n_sequences)
    vals1 = np.array([float(f) for f in dev1.outcomes])
    vals2 = np.array([float(f) for f in dev2.outcomes])
    prod = vals1[codes // r2] * vals2[codes % r2]
    sign = 1.0 if anticommutator else -1.0
    weights = prod[:, None] + sign * prod[None, :]
    from_biprob = complex((weights * table.matrix).sum())

    f1 = np.asarray(obs_f1, dtype=complex)
    f2 = np.asarray(obs_f2, dtype=complex)
    (f1t,) = _heisenberg(system, (f1,), t1)
    (f2t,) = _heisenberg(system, (f2,), t2)
    op = f2t @ f1t + sign * f1t @ f2t
    direct = complex(np.trace(op @ state.density))

    scale = max(1.0, float(np.linalg.norm(f1, 2) * np.linalg.norm(f2, 2)))
    what = f"moment routes disagree: {direct} vs {from_biprob}"
    _within(what, abs(direct - from_biprob), 1e-10 * scale, ConsistencyError)
    return CommutatorMoment(direct=direct, from_biprob=from_biprob)


@dataclass(frozen=True, eq=False)
class ClassicalDiagnostic:
    """Off-diagonal mass of a table and, when negligible, its surrogate.

    ``offdiag_mass`` sums |Q| over unordered off-diagonal sequence pairs
    (hermitianity makes the two orderings redundant).  When the mass is at or
    below the threshold (a NaN mass never is) the diagonal is returned as a
    single-trajectory probability table (shaped by the per-entry outcome
    counts), together with the largest marginalization gap against the
    chain probabilities of each shorter schedule, computed afresh.
    """

    offdiag_mass: float
    threshold: float
    surrogate: np.ndarray | None
    consistency_error: float | None


def classical_diagnostic(table: BiProbTable, threshold: float = 1e-8) -> ClassicalDiagnostic:
    """Check whether a table is effectively a classical probability measure.

    A table concentrated on its diagonal carries no interference: sequential
    measurements then look like passive sampling of one trajectory.  The
    returned surrogate (diagonal probabilities) is verified for Kolmogorov
    consistency — marginalizing any entry reproduces the shorter schedule's
    probabilities, which is exactly what fine-grained quantum statistics
    violate away from the classical limit.
    """
    m = table.matrix
    mass = 0.5 * float(_mass(m) - np.abs(m.diagonal()).sum())
    if not mass <= threshold:  # a NaN mass is not classical
        return ClassicalDiagnostic(
            offdiag_mass=mass,
            threshold=float(threshold),
            surrogate=None,
            consistency_error=None,
        )
    radices = table.radices
    surrogate = m.diagonal().real.copy().reshape(radices)
    if len(radices) == 1:
        gaps = [abs(float(surrogate.sum()) - 1.0)]
    else:
        steps = [(t, dev.projectors) for t, dev in table.schedule.entries]
        gaps = []
        for pos in range(len(radices)):
            shorter = steps[:pos] + steps[pos + 1:]
            ref = chain_probabilities(table.system, table.schedule.init, shorter)
            gaps.append(np.abs(surrogate.sum(axis=pos).ravel() - ref).max())
    return ClassicalDiagnostic(
        offdiag_mass=mass,
        threshold=float(threshold),
        surrogate=surrogate,
        consistency_error=float(np.max(gaps)),  # NaN-propagating, unlike max()
    )


def piecewise_propagator(
    pieces: Sequence[tuple[float, np.ndarray]],
) -> Callable[[float], np.ndarray]:
    """U(t, 0) for a piecewise-constant generator.

    ``pieces`` is a chronological list of (end_time, hamiltonian); the last
    generator extends past its end time.  The returned callable feeds the
    driven variants of schedule evaluations (e.g. breaking stationarity).
    """
    cleaned = []
    prev = 0.0
    for end, h in pieces:
        end = float(end)
        if end <= prev:
            raise ValueError("piece end times must be strictly increasing and positive")
        h = np.asarray(h, dtype=complex)
        _check_hermitian(h, "piecewise generator")
        cleaned.append((end, np.linalg.eigh(h)))
        prev = end
    if not cleaned:
        raise ValueError("need at least one piece")

    def u(t: float) -> np.ndarray:
        t = float(t)
        if t < 0.0:
            raise ValueError("propagator defined for t >= 0")
        d = cleaned[0][1][1].shape[0]
        op = np.eye(d, dtype=complex)
        t_prev = 0.0
        for end, eig in cleaned:
            seg = min(t, end) - t_prev
            if seg > 0.0:
                op = _expm_herm(*eig, seg) @ op
                t_prev = min(t, end)
            if t <= end:
                return op
        return _expm_herm(*cleaned[-1][1], t - t_prev) @ op

    return u
