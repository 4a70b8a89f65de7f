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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Hashable, Iterable, Sequence

import numpy as np

__all__ = [
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


def _as_complex_matrix(m, what: str) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {a.shape}")
    return a


def _check_hermitian(a: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless ``|a - a^dag| <= 1e-10 * max(1, max|a|)`` entrywise."""
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if np.abs(a - a.conj().T).max(initial=0.0) > 1e-10 * scale:
        raise ValueError(f"{what} is not Hermitian within tolerance 1e-10")


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
    w, v = np.linalg.eigh(system.hamiltonian)
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _expm_herm(w: np.ndarray, v: np.ndarray, scale: float) -> np.ndarray:
    """``exp(-1j * scale * H)`` from the eigendecomposition ``H = v diag(w) v^dag``."""
    return (v * np.exp(-1j * scale * w)) @ v.conj().T


def propagator(system: SystemSpec, t: float) -> np.ndarray:
    """Unitary ``U(t, 0) = exp(-i t H)``, computed through the eigendecomposition."""
    return _expm_herm(*_system_eig(system), t)


@dataclass(frozen=True, eq=False)
class Device:
    """A projective measuring device at reference time 0.

    ``outcomes`` are hashable labels; ``projectors[i]`` belongs to
    ``outcomes[i]``.  ``basis``, when present, holds one orthonormal column per
    outcome of a perfectly fine-grained device (used by basis-sensitive
    constructions; operationally redundant with the projectors).
    """

    name: str
    outcomes: tuple[Label, ...]
    projectors: tuple[np.ndarray, ...]
    basis: np.ndarray | None = None

    def __post_init__(self):
        projs = tuple(_frozen_array(_as_complex_matrix(p, "projector")) for p in self.projectors)
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if self.basis is not None:
            object.__setattr__(self, "basis", _frozen_array(self.basis))
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
    (each entrywise within 1e-10), label uniqueness and (when a basis is
    attached) that the basis columns reproduce the projectors within 1e-9.
    """
    tol = 1e-10
    if len(device.outcomes) != len(device.projectors):
        raise ValueError(f"device {device.name!r}: {len(device.outcomes)} labels for "
                         f"{len(device.projectors)} projectors")
    if len(set(device.outcomes)) != len(device.outcomes):
        raise ValueError(f"device {device.name!r}: outcome labels are not unique")
    if not device.projectors:
        raise ValueError(f"device {device.name!r}: no projectors")
    d = device.projectors[0].shape[0]
    for label, p in zip(device.outcomes, device.projectors):
        if p.shape != (d, d):
            raise ValueError(f"device {device.name!r}: projector shapes differ")
        if np.abs(p - p.conj().T).max() > tol:
            raise ValueError(f"device {device.name!r}: projector {label!r} is not Hermitian")
        if np.abs(p @ p - p).max() > tol:
            raise ValueError(f"device {device.name!r}: projector {label!r} is not idempotent")
    for i in range(len(device.projectors)):
        for j in range(i + 1, len(device.projectors)):
            if np.abs(device.projectors[i] @ device.projectors[j]).max() > tol:
                raise ValueError(
                    f"device {device.name!r}: projectors {device.outcomes[i]!r} and "
                    f"{device.outcomes[j]!r} are not orthogonal"
                )
    total = sum(device.projectors)
    if np.abs(total - np.eye(d)).max() > tol:
        raise ValueError(f"device {device.name!r}: projectors do not sum to the identity")
    if device.basis is not None:
        b = device.basis
        if b.shape != (d, len(device.outcomes)):
            raise ValueError(f"device {device.name!r}: basis shape {b.shape} inconsistent")
        for k, p in enumerate(device.projectors):
            col = b[:, k]
            if np.abs(np.outer(col, col.conj()) - p).max() > 1e-9:
                raise ValueError(
                    f"device {device.name!r}: basis column {k} does not span projector "
                    f"{device.outcomes[k]!r}"
                )


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
    scale does not decide the grouping.  For a perfectly fine-grained result
    the eigenbasis is attached.
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
    basis = v if all(len(g) == 1 for g in groups) else None
    return Device(name=name, outcomes=tuple(outcomes), projectors=tuple(projectors), basis=basis)


@dataclass(frozen=True, eq=False)
class State:
    """Positive unit-trace matrix tagged with the time it refers to.

    The matrix is understood in the same anchored picture as the device
    projectors; with ``time_tag == 0`` it is the ordinary initial density
    matrix.
    """

    density: np.ndarray
    time_tag: float = 0.0

    def __post_init__(self):
        rho = _as_complex_matrix(self.density, "density")
        _check_hermitian(rho, "density")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr} is not 1")
        evals = np.linalg.eigvalsh(rho)
        if evals.min() < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {evals.min():.3e}")
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


def _fine_basis_columns(device: Device) -> np.ndarray:
    """Orthonormal column per outcome of a fine-grained device.

    Uses the attached basis when present; otherwise extracts the range of each
    rank-one projector with a deterministic phase convention (largest component
    made real positive).
    """
    if not device.is_fine_grained():
        raise ValueError(f"device {device.name!r} is not perfectly fine-grained")
    if device.basis is not None:
        return np.array(device.basis, copy=True)
    cols = []
    for p in device.projectors:
        w, v = np.linalg.eigh(p)
        u = v[:, -1]
        k = int(np.argmax(np.abs(u)))
        phase = u[k] / abs(u[k])
        cols.append(u / phase)
    return np.column_stack(cols)


def mub_partner(device: Device) -> Device:
    """Mutually unbiased partner built by the discrete Fourier transform.

    The partner's m-th basis vector is ``d^{-1/2} sum_k exp(2 pi i k m / d)``
    times the k-th vector of ``device``; every overlap between the two bases
    then has squared modulus 1/d.  Applying the construction twice permutes the
    original outcomes (the Fourier-squared parity).
    """
    cols = _fine_basis_columns(device)
    d = cols.shape[1]
    omega = np.exp(2j * np.pi / d)
    dft = omega ** np.outer(np.arange(d), np.arange(d)) / np.sqrt(d)
    partner_cols = cols @ dft
    projs = tuple(np.outer(partner_cols[:, m], partner_cols[:, m].conj()) for m in range(d))
    return Device(
        name=f"{device.name}~",
        outcomes=tuple(range(d)),
        projectors=projs,
        basis=partner_cols,
    )


def tensor_device(dev_a: Device, dev_b: Device) -> Device:
    """Joint readout ``a*b`` of two independent subsystems; labels are (a, b) pairs."""
    outcomes = tuple((a, b) for a in dev_a.outcomes for b in dev_b.outcomes)
    projectors = tuple(
        np.kron(pa, pb) for pa in dev_a.projectors for pb in dev_b.projectors
    )
    basis = None
    if dev_a.basis is not None and dev_b.basis is not None:
        basis = np.kron(dev_a.basis, dev_b.basis)
    return Device(
        name=f"{dev_a.name}*{dev_b.name}",
        outcomes=outcomes,
        projectors=projectors,
        basis=basis,
    )
