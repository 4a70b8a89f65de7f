"""Bi-probabilities of measurement schedules and their structural properties.

The central object is the complex-valued distribution over *pairs* of outcome
sequences,

    Q(f+, f-) = tr[ P_{t_n}(f_n+) ... P_{t_1}(f_1+) rho
                    P_{t_1}(f_1-) ... P_{t_n}(f_n-) ],

whose diagonal ``f+ == f-`` is the observed sequential-measurement probability.
Tables over all pairs are stored densely, indexed by mixed-radix codes of the
two sequences (first schedule entry = most significant digit).  The full table
is assembled as a Gram matrix: with ``W(f) = P_{t_n}(f_n) ... P_{t_1}(f_1)
sqrt(rho)`` one has ``Q(f+, f-) = <vec W(f-), vec W(f+)>``, which makes
positive semi-definiteness manifest and keeps the cost linear in the number of
sequences.  ``property_report`` checks positivity through the same factor: its
``min_gram_eigenvalue`` is the certified lower bound
``lambda_min(W W^H) - ||Q - W W^H||_F`` from a d^2 x d^2 eigensolve.  Its
other witnesses are maxima and sums streamed through reused buffers of at
most one block, so no temporary is the size of the table.  Every pass over
``|Q|`` reads one row block at a time (``_abs_rows``), and the report walks
the table once: each row block adds its mass, its Gram residual and its
causality maximum.  The mass ``sum |Q|`` adds the block sums in row order,
so its bits follow the block partition, within a relative
``(B + 40) * 2^-53`` of the exact sum over B blocks.  Bi-consistency compares
each blocked, fixed-order ``marginalize_pair`` with a fresh shorter table,
diffed in place and reduced one row block at a time.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from . import core
from .core import ConsistencyError, Device, Label, State, SystemSpec, _env_cap, _heisenberg
from .core import _check_times, _within
from .serialize import canonical_digest, csv_cell, label_to_json, matrix_to_json

__all__ = [
    "BiProbTable",
    "ConsistencyError",
    "BiSequence",
    "PropertyReport",
    "Schedule",
    "TableSizeError",
    "biprob",
    "biprob_table",
    "chain_probabilities",
    "chain_probability",
    "gudder_metric",
    "marginalize_pair",
    "max_table_entries",
    "property_report",
    "uniform_bound_check",
]

DEFAULT_MAX_TABLE_ENTRIES = 10_000_000


def max_table_entries() -> int:
    return _env_cap("BITRAJ_MAX_TABLE") or DEFAULT_MAX_TABLE_ENTRIES


class TableSizeError(ValueError):
    """Raised when an enumeration would exceed the configured table guard."""

    def __init__(self, requested: int, limit: int):
        self.requested = requested
        self.limit = limit
        super().__init__(
            f"enumeration size {requested} exceeds the guard {limit}; "
            "raise BITRAJ_MAX_TABLE if this is intended"
        )


def _guard(count: int) -> None:
    """Refuse an enumeration of ``count`` entries beyond ``max_table_entries()``."""
    if count > max_table_entries():
        raise TableSizeError(count, max_table_entries())


@dataclass(frozen=True)
class BiSequence:
    """A pair of outcome-label sequences of equal length."""

    plus: tuple[Label, ...]
    minus: tuple[Label, ...]

    def __post_init__(self):
        object.__setattr__(self, "plus", tuple(self.plus))
        object.__setattr__(self, "minus", tuple(self.minus))
        if len(self.plus) != len(self.minus):
            raise ValueError("plus and minus sequences differ in length")

    @classmethod
    def diagonal(cls, outcomes: Sequence[Label]) -> "BiSequence":
        seq = tuple(outcomes)
        return cls(seq, seq)

    @classmethod
    def pair_at(
        cls, outcomes: Sequence[Label], position: int, pair: tuple[Label, Label]
    ) -> "BiSequence":
        """``outcomes`` on both branches but at ``position``, where the plus branch reads
        ``pair[0]`` and the minus branch ``pair[1]``; ``IndexError`` off ``outcomes``."""
        if not 0 <= position < len(outcomes):
            raise IndexError(f"position {position} out of range")
        head, tail = tuple(outcomes[:position]), tuple(outcomes[position + 1:])
        return cls(head + (pair[0],) + tail, head + (pair[1],) + tail)

    @property
    def is_diagonal(self) -> bool:
        return self.plus == self.minus


@dataclass(frozen=True, eq=False)
class Schedule:
    """Measurement times with their devices, plus the initial condition.

    Times follow ``core._check_times`` with the initial condition's time tag as
    t0: finite, non-decreasing and none before t0, compared exactly.  Equal times
    mean back-to-back readouts with no propagation in between.
    """

    entries: tuple[tuple[float, Device], ...]
    init: State

    def __post_init__(self):
        entries = tuple((float(t), dev) for t, dev in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("schedule needs at least one entry")
        _check_times("schedule", (t for t, _ in entries), self.init.time_tag)
        for _, dev in entries:
            if dev.dim != self.init.dim:
                raise ValueError(f"device {dev.name!r} dim {dev.dim} != state dim {self.init.dim}")

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.entries)

    @property
    def devices(self) -> tuple[Device, ...]:
        return tuple(dev for _, dev in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def without(self, position: int) -> "Schedule":
        entries = self.entries[:position] + self.entries[position + 1:]
        return Schedule(entries=entries, init=self.init)

    def digest_payload(self) -> dict:
        return {
            "t0": self.init.time_tag,
            "init": matrix_to_json(self.init.density),
            "entries": [
                {
                    "time": t,
                    "device": dev.name,
                    "outcomes": [label_to_json(o) for o in dev.outcomes],
                    "projectors": [matrix_to_json(p) for p in dev.projectors],
                }
                for t, dev in zip(self.times, self.devices)
            ],
        }

    @cached_property
    def digest(self) -> str:
        return canonical_digest(self.digest_payload())


def chain_probability(
    system: SystemSpec,
    init: State,
    steps: Sequence[tuple[float, np.ndarray]],
) -> float:
    """Probability of a projector chain: tr[P_n ... P_1 rho P_1 ... P_n].

    ``steps`` holds (time, reference-time projector) pairs under the time rule,
    with no t0; equal times mean back-to-back application with no propagation
    in between.  This is the diagonal of the bi-probability, taken for one
    chain at a time: a direct coarse readout and the Zeno survival series.
    """
    val = bichain_value(system, init, steps, steps)
    return float(val.real)


def bichain_value(
    system: SystemSpec,
    init: State,
    plus_steps: Sequence[tuple[float, np.ndarray]],
    minus_steps: Sequence[tuple[float, np.ndarray]],
) -> complex:
    """General off-diagonal chain with independent projector sequences."""
    left = _chain_operator(system, plus_steps)
    right = left if plus_steps is minus_steps else _chain_operator(system, minus_steps)
    return complex(np.trace(left @ init.density @ right.conj().T))


def _chain_operator(system: SystemSpec, steps: Sequence[tuple[float, np.ndarray]]) -> np.ndarray:
    _check_times("chain", (t for t, _ in steps))
    op = np.eye(system.dim, dtype=complex)
    for t, proj in steps:
        (pt,) = _heisenberg(system, (proj,), t)
        op = pt @ op
    return op


def biprob(system: SystemSpec, schedule: Schedule, bi: BiSequence) -> complex:
    """Single bi-probability value by the direct operator-product route."""
    n = len(schedule)
    if len(bi.plus) != n:
        raise ValueError(f"bi-sequence length {len(bi.plus)} != schedule length {n}")
    plus_steps = [
        (t, dev.projector_for(f)) for (t, dev), f in zip(schedule.entries, bi.plus)
    ]
    minus_steps = [
        (t, dev.projector_for(f)) for (t, dev), f in zip(schedule.entries, bi.minus)
    ]
    return bichain_value(system, schedule.init, plus_steps, minus_steps)


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _leaves(
    system: SystemSpec,
    init: State,
    steps: Sequence[tuple[float, Sequence[np.ndarray]]],
    propagator: Callable[[float], np.ndarray] | None = None,
) -> np.ndarray:
    """``W(f) = P_{t_n}(f_n) ... P_{t_1}(f_1) sqrt(rho)`` for every outcome sequence.

    ``steps`` holds (time, reference-time projector family) pairs under the
    time rule, with no t0; the result has shape (N, d, d) with the
    sequences in mixed-radix order, first step most significant.
    ``propagator(t) -> U(t, 0)`` replaces the system's own evolution.
    """
    d = system.dim
    _check_times("chain", (t for t, _ in steps))
    leaves = _sqrt_psd(init.density).reshape(1, d, d)
    for t, projs in steps:
        u = core.propagator(system, t) if propagator is None else propagator(t)
        ud = u.conj().T
        # new code = old_code * r + outcome_index
        stacked = np.stack([(ud @ p @ u) @ leaves for p in projs], axis=1)
        leaves = stacked.reshape(-1, d, d)
    return leaves


def chain_probabilities(
    system: SystemSpec,
    init: State,
    steps: Sequence[tuple[float, Sequence[np.ndarray]]],
    propagator: Callable[[float], np.ndarray] | None = None,
) -> np.ndarray:
    """``chain_probability`` of every sequence through per-step projector families.

    Entry k belongs to the sequence whose mixed-radix code (first step most
    significant) is k.  The leaves it enumerates (N sequences times d^2
    entries) must fit ``max_table_entries()``.
    """
    count = math.prod(len(projs) for _, projs in steps)
    _guard(count * system.dim * system.dim)
    flat = _leaves(system, init, steps, propagator).reshape(count, -1)
    return np.einsum("ij,ij->i", flat, flat.conj()).real


@dataclass(frozen=True, eq=False)
class BiProbTable:
    """Dense bi-probability table of a schedule.

    ``matrix[p, m]`` is Q of the sequence pair whose mixed-radix codes are
    ``p`` (plus branch) and ``m`` (minus branch); the first schedule entry is
    the most significant digit.
    """

    system: SystemSpec
    schedule: Schedule
    matrix: np.ndarray

    @property
    def radices(self) -> tuple[int, ...]:
        return tuple(dev.n_outcomes for dev in self.schedule.devices)

    @property
    def n_sequences(self) -> int:
        return self.matrix.shape[0]

    def encode(self, outcomes: Sequence[Label]) -> int:
        code = 0
        for (t, dev), f in zip(self.schedule.entries, outcomes):
            code = code * dev.n_outcomes + dev.outcome_index(f)
        return code

    def decode(self, code: int) -> tuple[Label, ...]:
        out: list[Label] = []
        for r, dev in zip(reversed(self.radices), reversed(self.schedule.devices)):
            out.append(dev.outcomes[code % r])
            code //= r
        return tuple(reversed(out))

    def value(self, bi: BiSequence) -> complex:
        return complex(self.matrix[self.encode(bi.plus), self.encode(bi.minus)])

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal().real.copy()

    def _sequence_labels(self, fmt: Callable[[Label], object] | None = None) -> list[tuple]:
        """Every sequence's labels in code order, each outcome mapped by ``fmt`` once."""
        per_entry = [
            dev.outcomes if fmt is None else tuple(map(fmt, dev.outcomes))
            for dev in self.schedule.devices
        ]
        return list(itertools.product(*per_entry))

    @property
    def schedule_digest(self) -> str:
        return self.schedule.digest

    @property
    def digest(self) -> str:
        """Digest of everything the table is computed from.

        Unlike ``schedule_digest`` it covers the system: its dimension and
        Hamiltonian, next to the schedule's times, devices and initial state.
        """
        return canonical_digest(
            {
                "dim": self.system.dim,
                "hamiltonian": matrix_to_json(self.system.hamiltonian),
                "schedule": self.schedule.digest_payload(),
            }
        )

    def write_csv(self, fh: TextIO) -> None:
        """Write the table to ``fh`` as CSV: a header, then one line per entry, row by row."""
        n = len(self.schedule)
        header = [f"plus_{j}" for j in range(n)] + [f"minus_{j}" for j in range(n)] + ["re", "im"]
        fh.write(",".join(header) + "\n")
        cells = [",".join(seq).replace("%", "%%") for seq in self._sequence_labels(csv_cell)]
        tails = [cell + ",%.17g,%.17g\n" for cell in cells]
        for cell, row in zip(cells, np.ascontiguousarray(self.matrix, dtype=complex)):
            head = cell + ","  # one % per row: "<plus cells>,<minus cells>,re,im" per entry
            fh.write((head + head.join(tails)) % tuple(row.view(np.float64).tolist()))

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def biprob_table(system: SystemSpec, schedule: Schedule) -> BiProbTable:
    """Enumerate the full table of a schedule.

    Guards against runaway sizes: the entry count (product of outcome counts,
    squared) must stay at or below ``max_table_entries()``.
    """
    total = math.prod(dev.n_outcomes for dev in schedule.devices)
    _guard(total * total)
    flat = _table_leaves(system, schedule)
    matrix = flat @ flat.conj().T
    return BiProbTable(system=system, schedule=schedule, matrix=matrix)


def _table_leaves(system: SystemSpec, schedule: Schedule) -> np.ndarray:
    """The (N, d^2) rows ``vec W(f)`` whose Gram product is the schedule's table."""
    steps = [(t, dev.projectors) for t, dev in schedule.entries]
    leaves = _leaves(system, schedule.init, steps)
    return leaves.reshape(leaves.shape[0], -1)


#: Bytes of one block of table rows that ``marginalize_pair`` and ``_abs_rows``
#: hold at a time; the hermitianity tiles cover an eighth of a block's entries.
_BLOCK_BYTES = 1 << 22


def _abs_rows(m: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``(start, |m[start:stop]|)`` per block of ``_BLOCK_BYTES`` of rows, in one reused buffer."""
    rows = max(1, _BLOCK_BYTES // m[0].nbytes)
    buf = np.empty(min(rows, m.shape[0]) * m.shape[1])
    for start in range(0, m.shape[0], rows):
        block = m[start:start + rows]
        yield start, np.abs(block, out=buf[: block.size].reshape(block.shape))


def _mass(m: np.ndarray) -> float:
    """``sum |m|``: the block sums of ``_abs_rows(m)`` added in row order."""
    return float(sum(mags.sum() for _, mags in _abs_rows(m)))


def marginalize_pair(table: BiProbTable, position: int) -> BiProbTable:
    """Sum out entry ``position`` on both branches (the shorter-schedule table).

    With the codes split as ``(a, i, b)`` around the summed digit ``i`` (radix
    r), every output entry is reduced in one fixed order: first the r row
    slabs ``Q[(a, i, b), :]`` in turn over i, then the r column slabs of that
    partial sum in turn over j, each stage ``((s_0 + s_1) + s_2) + ...``.  The
    work runs one block of output rows at a time through a scratch buffer of
    about ``_BLOCK_BYTES``; the order does not depend on the block size, so
    neither do the bits.
    """
    n = len(table.schedule)
    if not 0 <= position < n:
        raise IndexError(f"position {position} out of range for schedule of length {n}")
    if n == 1:
        raise ValueError("cannot marginalize the only entry; the result would be a scalar")
    m = table.matrix
    radices = table.radices
    r = radices[position]
    total = table.n_sequences
    inner = math.prod(radices[position + 1:])
    outer = total // (r * inner)
    new_total = total // r
    q = m.reshape(outer, r, inner, total)
    out = np.empty((new_total, new_total), dtype=m.dtype)
    # a block is a run of output rows (a, b): whole b-ranges for several a when
    # they fit, otherwise part of the b-range of one a
    rows = max(1, _BLOCK_BYTES // m[0].nbytes)
    a_step = max(1, rows // inner)
    b_step = min(inner, rows)
    scratch = np.empty(min(rows, new_total) * total, dtype=m.dtype)
    for a0 in range(0, outer, a_step):
        a1 = min(a0 + a_step, outer)
        for b0 in range(0, inner, b_step):
            b1 = min(b0 + b_step, inner)
            k = (a1 - a0) * (b1 - b0)
            partial = scratch[: k * total].reshape(a1 - a0, b1 - b0, total)
            _sum_in_order([q[a0:a1, i, b0:b1] for i in range(r)], partial)
            cols = partial.reshape(k, outer, r, inner)
            start = a0 * inner + b0
            dest = out[start:start + k].reshape(k, outer, inner)
            _sum_in_order([cols[:, :, j] for j in range(r)], dest)
    return BiProbTable(system=table.system, schedule=table.schedule.without(position), matrix=out)


def _sum_in_order(terms: Sequence[np.ndarray], out: np.ndarray) -> None:
    """``out = ((terms[0] + terms[1]) + terms[2]) + ...``, elementwise."""
    if len(terms) == 1:
        np.copyto(out, terms[0])
    else:
        np.add(terms[0], terms[1], out=out)
    for term in terms[2:]:
        out += term


@dataclass(frozen=True)
class PropertyReport:
    """Numerical witnesses of the table axioms.

    All fields are non-negative magnitudes except ``min_gram_eigenvalue``
    (signed; should not be below a small negative round-off allowance) and
    ``l1_norm`` (the total mass ``sum |Q|``: row block sums added in row
    order, so its bits follow the block partition, within a relative
    ``(B + 40) * 2^-53`` of the exact sum over B blocks).

    ``min_gram_eigenvalue`` is a certified lower bound on the least eigenvalue
    of the table's Hermitian part, ``lambda_min(W W^H) - ||Q - W W^H||_F``
    with ``W`` the table's leaves recomputed from its schedule: it is never
    above the dense eigenvalue, and a stored matrix that drifts from its Gram
    factor drives it negative.
    """

    normalization_error: float
    max_biconsistency_error: float
    max_causality_violation: float
    max_hermitianity_error: float
    min_gram_eigenvalue: float
    max_diagonal_negativity: float
    l1_norm: float

    def as_dict(self) -> dict:
        return asdict(self)


def property_report(table: BiProbTable) -> PropertyReport:
    """Evaluate normalization, bi-consistency, causality, hermitianity and
    positive semi-definiteness witnesses on a table.

    Bi-consistency is checked at every position against a freshly recomputed
    table of the shortened schedule, not against a cached marginal.  The
    fresh table is subtracted in place from the marginal, which the report
    owns, and dropped before ``_abs_rows`` reads the difference, so at most
    one marginal/fresh pair is alive.

    Positivity is bounded from below without an N x N eigensolve.  With ``W``
    the (N, d^2) leaves recomputed from the schedule, ``herm(Q) - W W^H =
    herm(Q - W W^H)`` and ``||herm X||_2 <= ||X||_F``, so by Weyl's inequality
    ``lambda_min(herm Q) >= lambda_min(W W^H) - ||Q - W W^H||_F``.  The first
    term comes from ``W W^H`` when N <= d^2 and otherwise is
    ``min(0, lambda_min(W^H W))`` (the nonzero spectra agree).

    One walk of ``_abs_rows`` over the row blocks of ``Q`` gives the mass and
    the squared residual ``||Q - W W^H||_F^2`` (each the block sums added in
    row order) and the causality witness; the hermitianity
    witness comes from ``_max_hermitianity``'s tiles.  So no temporary is the
    size of the table: the walk holds the reader's float block and one
    complex residual block.
    """
    m = table.matrix
    normalization_error = abs(complex(m.sum()) - 1.0)

    if len(table.schedule) == 1:  # summing out the only entry leaves the normalization
        max_biconsistency = normalization_error
    else:
        max_biconsistency = _max_biconsistency(table)

    flat = _table_leaves(table.system, table.schedule)
    flat_h = flat.conj().T
    if table.n_sequences <= flat.shape[1]:
        spectrum = float(np.linalg.eigvalsh(flat @ flat_h).min())
    else:
        spectrum = min(0.0, float(np.linalg.eigvalsh(flat_h @ flat).min()))

    last_r = table.radices[-1]
    l1 = residual_sq = 0.0
    off_last = []
    for start, mags in _abs_rows(m):
        rows = slice(start, start + len(mags))
        resid = flat[rows] @ flat_h
        resid -= m[rows]
        residual_sq += float(np.vdot(resid, resid).real)
        del resid  # free it before the next block's is formed
        l1 += mags.sum()
        # zero the pairs whose branches end in the same outcome: row = column (mod r)
        for j in range(last_r):
            mags[(j - start) % last_r::last_r, j::last_r] = 0.0
        off_last.append(mags.max())
    max_causality = float(np.max(off_last))
    min_gram = spectrum - math.sqrt(residual_sq)

    neg = -float(m.diagonal().real.min())
    max_diag_neg = neg if not neg <= 0.0 else 0.0  # keeps NaN; +0.0 for a non-negative diagonal

    return PropertyReport(
        normalization_error=float(normalization_error),
        max_biconsistency_error=max_biconsistency,
        max_causality_violation=max_causality,
        max_hermitianity_error=_max_hermitianity(m),
        min_gram_eigenvalue=min_gram,
        max_diagonal_negativity=max_diag_neg,
        l1_norm=float(l1),
    )


def _max_hermitianity(m: np.ndarray) -> float:
    """``np.abs(m - m.conj().T).max()`` without an N x N temporary.

    ``|Q[a, b] - conj Q[b, a]|`` is symmetric in (a, b) exactly, so only the
    square tiles on and above the diagonal are formed, each in one reused
    complex tile and one float tile of an eighth of a block's entries or less.
    """
    total = m.shape[0]
    side = min(total, max(1, math.isqrt(_BLOCK_BYTES // (8 * m.itemsize))))
    diff_buf = np.empty(side * side, dtype=m.dtype)
    mags_buf = np.empty(side * side)
    worst = []
    for a0 in range(0, total, side):
        for b0 in range(a0, total, side):
            upper, lower = m[a0:a0 + side, b0:b0 + side], m[b0:b0 + side, a0:a0 + side]
            diff = diff_buf[: upper.size].reshape(upper.shape)
            np.conjugate(lower.T, out=diff)
            np.subtract(upper, diff, out=diff)
            worst.append(np.abs(diff, out=mags_buf[: diff.size].reshape(diff.shape)).max())
    return float(np.max(worst))


def _max_biconsistency(table: BiProbTable) -> float:
    """Largest ``|marginal - fresh shorter table|`` over every position, streamed.

    The fresh tables pass the size guard like any other: each is smaller than
    the table, so none fails where the table itself was built.
    """
    worst = []
    for pos in range(len(table.schedule)):
        diff = marginalize_pair(table, pos).matrix
        diff -= biprob_table(table.system, table.schedule.without(pos)).matrix
        worst.extend(mags.max() for _, mags in _abs_rows(diff))
        del diff  # free it before the next marginal
    return float(np.max(worst))


@dataclass(frozen=True, eq=False)
class GudderMetric:
    """Unit-trace positive metric reproducing a table as an inner product."""

    metric: np.ndarray
    basis_labels: tuple[tuple[Label, ...], ...]
    rank: int


def gudder_metric(table: BiProbTable) -> GudderMetric:
    """The table read as a positive unit-trace metric over sequence labels.

    With one formal basis vector per outcome sequence, ``metric[f+, f-]``
    reproduces Q(f+, f-) exactly by construction.  The rank counts the
    directions that survive after quotienting out null vectors (eigenvalues at
    or below ``1e-10 * max(1, largest eigenvalue)``).
    """
    herm = 0.5 * (table.matrix + table.matrix.conj().T)
    trace = float(np.trace(herm).real)
    _within(f"table trace {trace} deviates from 1", abs(trace - 1.0), 1e-10)
    eigvals = np.linalg.eigvalsh(herm)
    floor = 1e-10 * max(1.0, float(eigvals.max(initial=0.0)))
    rank = int((eigvals > floor).sum())
    labels = tuple(table._sequence_labels())
    return GudderMetric(metric=herm, basis_labels=labels, rank=rank)


@dataclass(frozen=True)
class UniformBoundReport:
    """Total masses on refining grids next to their analytic ceiling."""

    grid_sizes: tuple[int, ...]
    l1_series: tuple[float, ...]
    bound: float


def uniform_bound_check(
    system: SystemSpec,
    device: Device,
    total_time: float,
    n_grid: int,
) -> UniformBoundReport:
    """Masses ``sum |Q|`` on equispaced grids j*T/n (n = 1..n_grid) vs. the bound.

    Every grid starts from the maximally mixed state at time 0.

    The ceiling is ``|Omega|^2 * exp(2 |Omega| * sup_f v(f) * T)`` with v the
    short-time decay rate of each outcome's survival probability (an energy
    variance; see the dynamical-phenomena module).  Raises ``ValueError`` if
    any computed mass exceeds the ceiling.
    """
    from .phenomena import zeno_rate

    init = State(np.eye(system.dim) / system.dim, time_tag=0.0)
    n_out = device.n_outcomes
    rates = [zeno_rate(system, device, f, 0.0) for f in device.outcomes]
    sup_v = max(rates)
    bound = n_out**2 * math.exp(2.0 * n_out * sup_v * total_time)

    series = []
    sizes = []
    for n in range(1, n_grid + 1):
        times = [(j + 1) * total_time / n for j in range(n)]
        entries = tuple((t, device) for t in times)
        table = biprob_table(system, Schedule(entries=entries, init=init))
        l1 = _mass(table.matrix)
        _within(f"computed mass at grid n={n} exceeds the analytic bound", l1, bound * (1 + 1e-12))
        series.append(l1)
        sizes.append(n)
    return UniformBoundReport(grid_sizes=tuple(sizes), l1_series=tuple(series), bound=bound)
