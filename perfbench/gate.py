"""Correctness gate: pure checks on what an op returned.

Each check returns a list of failure messages; an empty list means the output
passed.  The benchmark counts an op as failed when any check on it fails.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path

import numpy as np

import bitraj
from bitraj.cli import DEFAULT_TOLERANCES

#: (report field, tolerance key in ``cli.DEFAULT_TOLERANCES``, comparator)
WITNESS_BOUNDS = (
    ("normalization_error", "normalization", "<="),
    ("max_biconsistency_error", "biconsistency", "<="),
    ("max_causality_violation", "causality", "<="),
    ("max_hermitianity_error", "hermitianity", "<="),
    ("min_gram_eigenvalue", "gram_min", ">="),
    ("max_diagonal_negativity", "diagonal_negativity", "<="),
)

#: Table entries must match the direct operator-product route this closely.
DIRECT_TOL = 1e-12
#: CLI results must match the in-process library values this closely.
RESULT_ATOL = 1e-12
RESULT_RTOL = 1e-9


def check_verify(report, table, codes) -> list[str]:
    """Witnesses within the CLI's default tolerances; sampled entries equal ``biprob``."""
    failures = []
    values = report.as_dict()
    for field, key, comparator in WITNESS_BOUNDS:
        value, bound = values[field], DEFAULT_TOLERANCES[key]
        ok = value <= bound if comparator == "<=" else value >= bound
        if not ok:
            failures.append(f"{field} = {value:.3g} is not {comparator} {bound:g}")
    for p, m in codes:
        bi = bitraj.BiSequence(table.decode(int(p)), table.decode(int(m)))
        direct = bitraj.biprob(table.system, table.schedule, bi)
        gap = abs(direct - complex(table.matrix[p, m]))
        if not gap <= DIRECT_TOL:
            failures.append(f"entry ({p}, {m}) differs from the direct route by {gap:.3g}")
    return failures


def exact_cells(system, cs) -> tuple[list[tuple], np.ndarray]:
    """Every readout cell of a coarse schedule with its exact probability."""
    per_entry = [
        tuple(res.block_labels) if res is not None else tuple(dev.outcomes)
        for _, dev, res in cs.entries
    ]
    cells = list(itertools.product(*per_entry))
    probs = np.array([bitraj.quantum_coarse_prob(system, cs, seq) for seq in cells])
    return cells, probs


class Coverage:
    """Pooled 4-sigma coverage of sampled cells against the exact diagonal.

    As in acceptance criterion 15, the fraction is taken over every cell of
    every sampling run checked, and a hit on a zero-probability cell fails
    the op that made it.
    """

    FRACTION = 0.999
    SIGMAS = 4.0

    def __init__(self):
        self.within = 0
        self.total = 0
        self.misses: list[tuple[int, str]] = []
        self._exact: dict[int, tuple[list, np.ndarray]] = {}

    def add(self, system, cs, run, dist, op: int) -> list[str]:
        if id(cs) not in self._exact:
            self._exact[id(cs)] = exact_cells(system, cs)
        cells, probs = self._exact[id(cs)]
        n = run.n_samples
        failures = []
        for seq, p in zip(cells, probs):
            p_hat = dist.probabilities.get(seq, 0.0)
            if p <= 1e-300:
                if p_hat > 0.0:
                    failures.append(f"zero-probability cell {seq!r} was sampled")
                continue
            self.total += 1
            sigma = math.sqrt(p * (1.0 - p) / n)
            if abs(p_hat - p) <= self.SIGMAS * max(sigma, 1e-12):
                self.within += 1
            else:
                self.misses.append((op, repr(seq)))
        return failures

    def verdict(self) -> list[str]:
        if self.total and self.within / self.total >= self.FRACTION:
            return []
        return [f"only {self.within}/{self.total} cells within 4 sigma (need {self.FRACTION})"]

    def summary(self) -> dict:
        return {"within": self.within, "total": self.total, "misses": self.misses}


def check_interference(estimate, expected: float = 0.25, sigmas: float = 3.0) -> list[str]:
    gap = abs(estimate.value - expected)
    if gap <= sigmas * estimate.std_error:
        return []
    return [
        f"reconstructed interference {estimate.value:.5f} +- {estimate.std_error:.5f} "
        f"is not within {sigmas:g} sigma of {expected}"
    ]


def check_cli_exit(code: int, report: dict | None, stderr: str) -> list[str]:
    if code != 0:
        tail = stderr.strip().splitlines()[-1:] if stderr else []
        return [f"exit code {code}" + (f": {tail[0]}" if tail else "")]
    if report is None:
        return ["no report.json written"]
    if report.get("ok") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c.get("pass")]
        return [f"report.json ok is {report.get('ok')!r}; failed checks {failed}"]
    return []


def check_table_csv(path: Path, report: dict) -> list[str]:
    """The exported table has one row per entry (N^2) plus the header."""
    n = report["results"]["n_sequences"]
    with open(path, encoding="utf-8") as fh:
        rows = sum(1 for _ in fh)
    if rows != n * n + 1:
        return [f"table.csv has {rows} lines, expected {n * n + 1}"]
    return []


def check_table_entries(path: Path, table, samples: int = 16) -> list[str]:
    """Evenly spaced CSV rows equal the in-process table entries."""
    n = table.n_sequences
    wanted = set(np.linspace(0, n * n - 1, samples).astype(int).tolist())
    failures = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for row, line in enumerate(fh):
            if row not in wanted:
                continue
            *_, re_, im_ = line.rstrip("\n").split(",")
            value = complex(float(re_), float(im_))
            expected = complex(table.matrix[row // n, row % n])
            if not abs(value - expected) <= DIRECT_TOL:
                failures.append(f"table.csv row {row}: {value} != {expected}")
    return failures


def compare_results(actual, expected, where: str = "results") -> list[str]:
    """Every value in ``expected`` appears in ``actual`` with an equal value."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object, got {actual!r}"]
        problems = []
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"{where}/{key}: missing")
            else:
                problems += compare_results(actual[key], value, f"{where}/{key}")
        return problems
    if isinstance(expected, (list, tuple)):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected {len(expected)} items, got {actual!r}"]
        problems = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            problems += compare_results(a, e, f"{where}/{i}")
        return problems
    if isinstance(expected, (bool, str)) or isinstance(actual, bool):
        return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, (int, np.integer)) and not isinstance(expected, bool):
        return [] if actual == int(expected) else [f"{where}: {actual!r} != {expected!r}"]
    e = float(expected)
    if not isinstance(actual, (int, float)):
        return [f"{where}: expected a number, got {actual!r}"]
    if abs(actual - e) <= RESULT_ATOL + RESULT_RTOL * abs(e):
        return []
    return [f"{where}: {actual!r} != {e!r}"]
