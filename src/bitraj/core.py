"""Finite-dimensional systems, measuring devices, and their time-translated projectors.

Everything downstream works with three ingredients: a Hermitian generator of the
dynamics, projective measuring devices (complete families of orthogonal
projectors with hashable outcome labels), and positive unit-trace matrices
playing the role of initial conditions.  Devices are specified by their
projectors at the reference time 0; the family at a later time t is obtained by
conjugation with the propagator, ``P_t(f) = U(t,0)^dag P(f) U(t,0)`` with
``U(t,0) = exp(-i (t-0) H)``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable

import numpy as np

__all__ = [
    "ConsistencyError",
    "DEFAULT_DIM_CAP",
    "Device",
    "State",
    "SystemSpec",
    "device_from_hermitian",
    "heisenberg_projectors",
    "mub_partner",
    "propagator",
    "tensor_device",
    "validate_device",
]

#: Ceiling on Hilbert-space dimension unless ``BITRAJ_MAX_DIM`` sets another.
DEFAULT_DIM_CAP = 64

#: Relative spectral-gap threshold below which eigenvalues are treated as equal.
DEGENERACY_RTOL = 1e-9

Label = Hashable


class ConsistencyError(RuntimeError):
    """Two routes that must agree did not, or a computed quantity left its range.

    Indicates a numerical breakdown.  ``gap`` is the deviation measured and
    ``bound`` the largest allowed, as ``_within`` compares them (a NaN gap
    fails); both are NaN where the failed check measures no single deviation.
    """

    gap: float = math.nan
    bound: float = math.nan


def _within(what: str, gap, bound, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` unless ``gap <= bound``, so a NaN gap fails; the message is
    ``what`` with the gap and the bound appended, which the error also carries."""
    gap, bound = float(gap), float(bound)
    if not gap <= bound:
        exc = error(f"{what} (gap {gap!r}, bound {bound!r})")
        exc.gap, exc.bound = gap, bound
        raise exc


def _check_times(what: str, times: Iterable[float], t0: float = -math.inf) -> None:
    """The one time rule: ``ValueError`` unless every time is finite and none is before the
    time before it, the first not before ``t0``; both comparisons are exact.  ``what``
    names the times in the message, which states ``t0`` only when it is finite."""
    before = t0
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"{what} time {t} is not finite")
        if t < before:
            rule = "" if t0 == -math.inf else f" and not before t0={t0}"
            raise ValueError(f"{what} times must be non-decreasing{rule}; got {t} after {before}")
        before = t


def _as_complex_matrix(m, what: str) -> np.ndarray:
    """``m`` as a square complex array; ``ValueError`` on any other shape or a non-finite entry."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has a non-finite entry")
    return a


def _check_hermitian(a: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless ``|a - a^dag| <= 1e-10 * max(1, max|a|)`` entrywise."""
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    _within(f"{what} is not Hermitian", np.abs(a - a.conj().T).max(initial=0.0), 1e-10 * scale)


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def _env_cap(name: str) -> int | None:
    """Positive integer read from environment variable ``name``; None when unset.

    Float spellings of whole numbers (``1e6``) are accepted; anything else that
    is not a positive integer raises ``ValueError`` naming the variable.
    """
    raw = os.environ.get(name, "")
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (value.is_integer() and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """A closed system: Hilbert-space dimension and Hermitian generator.

    The dimension must fit ``BITRAJ_MAX_DIM`` (default ``DEFAULT_DIM_CAP``).
    """

    dim: int
    hamiltonian: np.ndarray

    def __post_init__(self):
        h = _as_complex_matrix(self.hamiltonian, "hamiltonian")
        if h.shape[0] != self.dim:
            raise ValueError(f"hamiltonian shape {h.shape} does not match dim {self.dim}")
        cap = _env_cap("BITRAJ_MAX_DIM") or DEFAULT_DIM_CAP
        if self.dim > cap:
            raise ValueError(
                f"dimension {self.dim} exceeds the cap {cap}; raise BITRAJ_MAX_DIM to proceed"
            )
        _check_hermitian(h, "hamiltonian")
        object.__setattr__(self, "hamiltonian", _frozen_array(h))


@lru_cache(maxsize=512)
def _system_eig(system: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of the Hamiltonian; ``ValueError`` if it fails or returns a non-finite value."""
    try:
        w, v = np.linalg.eigh(system.hamiltonian)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"the hamiltonian's eigensolve failed: {exc}") from None
    if not (np.isfinite(w).all() and np.isfinite(v).all()):
        raise ValueError("the hamiltonian's eigensolve returned a non-finite value")
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _expm_herm(w: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    """``exp(-1j * scale * H)`` from the eigendecomposition ``H = v diag(w) v^dag``;
    ``ValueError`` when a phase ``scale * w`` is not finite (every entry would be NaN)."""
    scale = float(scale)
    if not math.isfinite(scale * max(map(abs, w.tolist()))):
        raise ValueError(f"exp(-i s H) at s = {scale!r}: s times an eigenvalue of H is not finite")
    return (v * np.exp(-1j * scale * w)) @ v.conj().T


def propagator(system: SystemSpec, t: float) -> np.ndarray:
    """Unitary ``U(t, 0) = exp(-i t H)``, computed through the eigendecomposition."""
    return _expm_herm(*_system_eig(system), t)


@dataclass(frozen=True, eq=False)
class Device:
    """A projective measuring device at reference time 0.

    ``outcomes`` are hashable labels; ``projectors[i]`` belongs to
    ``outcomes[i]``.  A device is its projectors: no basis vector or phase is
    stored, since measured statistics see a readout only through them.
    """

    name: str
    outcomes: tuple[Label, ...]
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        projs = tuple(_frozen_array(_as_complex_matrix(p, "projector")) for p in self.projectors)
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        validate_device(self)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def outcome_index(self, label: Label) -> int:
        try:
            return _outcome_map(self)[label]
        except KeyError:
            raise KeyError(f"device {self.name!r} has no outcome {label!r}") from None

    def projector_for(self, label: Label) -> np.ndarray:
        return self.projectors[self.outcome_index(label)]

    def is_fine_grained(self) -> bool:
        """Every projector has rank one (trace within 1e-9 of 1)."""
        return all(abs(np.trace(p).real - 1.0) <= 1e-9 for p in self.projectors)


@lru_cache(maxsize=2048)
def _outcome_map(device: Device) -> dict[Label, int]:
    return {label: i for i, label in enumerate(device.outcomes)}


def validate_device(device: Device) -> None:
    """Check the projector axioms; raise ``ValueError`` describing the first failure.

    Verifies Hermiticity, idempotency, pairwise orthogonality and completeness
    (each entrywise within 1e-10) and label uniqueness; it reads nothing but
    the name, outcomes and projectors.
    """
    tol, name = 1e-10, f"device {device.name!r}"
    labels, projs = device.outcomes, device.projectors
    if len(labels) != len(projs):
        raise ValueError(f"{name}: {len(labels)} labels for {len(projs)} projectors")
    if len(set(labels)) != len(labels):
        raise ValueError(f"{name}: outcome labels are not unique")
    if not projs:
        raise ValueError(f"{name}: no projectors")
    d = projs[0].shape[0]
    for label, p in zip(labels, projs):
        if p.shape != (d, d):
            raise ValueError(f"{name}: projector shapes differ")
        _within(f"{name}: projector {label!r} is not Hermitian", np.abs(p - p.conj().T).max(), tol)
        _within(f"{name}: projector {label!r} is not idempotent", np.abs(p @ p - p).max(), tol)
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            what = f"{name}: projectors {labels[i]!r} and {labels[j]!r} are not orthogonal"
            _within(what, np.abs(projs[i] @ projs[j]).max(), tol)
    gap = np.abs(sum(projs) - np.eye(d)).max()
    _within(f"{name}: projectors do not sum to the identity", gap, tol)


def _eigen_groups(w: np.ndarray, scale: float | None = None) -> list[list[int]]:
    """Runs of ascending eigenvalues whose neighbours lie within ``tol``.

    ``tol`` is ``DEGENERACY_RTOL`` times the spectral range, but at least
    ``2**10 * eps * scale`` with ``scale`` the largest ``|w|`` by default:
    ``eigh`` spreads a true repeat by about ``15 * eps * max|w|``, so that
    floor merges repeats at any scale while a matrix times ``c`` splits into
    the same groups for every ``c > 0``.  Consecutive gaps chain, so a group
    may span more than ``tol``.  A caller whose ``w`` is a restriction of a
    larger matrix passes that matrix's norm as ``scale``.
    """
    if scale is None:
        scale = float(np.abs(w).max())
    tol = max(DEGENERACY_RTOL * float(w[-1] - w[0]), 2**10 * np.finfo(float).eps * scale)
    groups: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def device_from_hermitian(observable, name: str) -> Device:
    """Spectral device of a Hermitian matrix.

    Eigenvalues closer than 1e-9 times the spectral range, or than the
    round-off ``eigh`` leaves at the observable's scale (``_eigen_groups``),
    are merged into a single outcome whose projector spans the
    near-degenerate eigenspace; the label is the mean of the merged
    eigenvalues.  Both thresholds scale with the observable, so its overall
    scale does not decide the grouping.  Only the projectors are kept, so the
    result equals a ``Device`` built from the same outcomes and projectors.
    """
    obs = _as_complex_matrix(observable, "observable")
    _check_hermitian(obs, "observable")
    w, v = np.linalg.eigh(obs)
    groups = _eigen_groups(w)
    outcomes = []
    projectors = []
    for g in groups:
        block = v[:, g]
        outcomes.append(float(np.mean(w[g])))
        projectors.append(block @ block.conj().T)
    return Device(name=name, outcomes=tuple(outcomes), projectors=tuple(projectors))


@dataclass(frozen=True, eq=False)
class State:
    """Positive unit-trace matrix tagged with the (finite) time it refers to.

    The matrix is understood in the same anchored picture as the device
    projectors; with ``time_tag == 0`` it is the ordinary initial density
    matrix.
    """

    density: np.ndarray
    time_tag: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.time_tag):
            raise ValueError(f"time tag {self.time_tag} is not finite")
        rho = _as_complex_matrix(self.density, "density")
        _check_hermitian(rho, "density")
        tr = complex(np.trace(rho))
        _within(f"density matrix trace {tr} is not 1", abs(tr - 1.0), 1e-10)
        lowest = np.linalg.eigvalsh(rho).min()
        _within(f"density matrix has negative eigenvalue {lowest:.3e}", -lowest, 1e-10)
        object.__setattr__(self, "density", _frozen_array(rho))

    @property
    def dim(self) -> int:
        return self.density.shape[0]


def _heisenberg(system: SystemSpec, ops: Iterable[np.ndarray], t: float) -> tuple[np.ndarray, ...]:
    """Operators translated to time ``t``, ``U(t,0)^dag X U(t,0)``, through one propagator."""
    u = propagator(system, t)
    ud = u.conj().T
    return tuple(ud @ x @ u for x in ops)


def heisenberg_projectors(system: SystemSpec, device: Device, t: float) -> tuple[np.ndarray, ...]:
    """Projector family of ``device`` translated to time ``t``: ``U(t,0)^dag P U(t,0)``."""
    if device.dim != system.dim:
        raise ValueError(f"device dim {device.dim} does not match system dim {system.dim}")
    return _heisenberg(system, device.projectors, t)


def _projector_columns(device: Device) -> tuple[np.ndarray, list[int]]:
    """Orthonormal columns spanning each projector, with the index of the outcome each
    belongs to; ``ValueError`` unless they span the space."""
    cols: list[np.ndarray] = []
    owners: list[int] = []
    for oi, p in enumerate(device.projectors):
        w, v = np.linalg.eigh(p)
        for ci in np.nonzero(w > 0.5)[0]:
            cols.append(v[:, ci])
            owners.append(oi)
    if len(cols) != device.dim:
        raise ValueError(f"projectors of {device.name!r} do not span the space")
    return np.column_stack(cols), owners


def _fine_basis_columns(device: Device) -> np.ndarray:
    """Orthonormal column per outcome of a fine-grained device.

    The one source of fine basis columns: the range of each rank-one
    projector, with a deterministic phase convention (largest component made
    real positive), so equal projectors give equal columns.
    """
    if not device.is_fine_grained():
        raise ValueError(f"device {device.name!r} is not perfectly fine-grained")
    cols, _ = _projector_columns(device)
    for u in cols.T:  # each a view of one column, rephased in place
        k = int(np.argmax(np.abs(u)))
        u /= u[k] / abs(u[k])
    return cols


def mub_partner(device: Device) -> Device:
    """Mutually unbiased partner built by the discrete Fourier transform.

    The partner's m-th basis vector is ``d^{-1/2} sum_k exp(2 pi i k m / d)``
    times the k-th column ``_fine_basis_columns`` takes from ``device``'s
    projectors; every overlap between the two bases then has squared modulus
    1/d.  The partner is a function of the projectors alone.
    """
    cols = _fine_basis_columns(device)
    d = cols.shape[1]
    omega = np.exp(2j * np.pi / d)
    dft = omega ** np.outer(np.arange(d), np.arange(d)) / np.sqrt(d)
    partner_cols = cols @ dft
    projs = tuple(np.outer(partner_cols[:, m], partner_cols[:, m].conj()) for m in range(d))
    return Device(name=f"{device.name}~", outcomes=tuple(range(d)), projectors=projs)


def tensor_device(dev_a: Device, dev_b: Device) -> Device:
    """Joint readout ``a*b`` of two independent subsystems; labels are (a, b) pairs."""
    outcomes = tuple((a, b) for a in dev_a.outcomes for b in dev_b.outcomes)
    projectors = tuple(
        np.kron(pa, pb) for pa in dev_a.projectors for pb in dev_b.projectors
    )
    return Device(name=f"{dev_a.name}*{dev_b.name}", outcomes=outcomes, projectors=projectors)
