"""Multi-time measurement statistics of finite quantum systems.

The package computes sequential-measurement probabilities and the complex
bi-probabilities underneath them, verifies the structural properties that make
the latter a consistent calculus (normalization, bi-consistency, causality,
factorization, positive semi-definiteness), and exposes the derived
phenomenology: coarse-graining interference, composite-system co-interference,
Markovianity, the Zeno effect, uncertainty matrices, open-system dynamical
maps, and a Monte-Carlo virtual lab that replays it all from sampled outcome
sequences.

``import bitraj`` loads no submodule and no NumPy.  Each public name is looked
up in its home module on every access (PEP 562), and that module is imported
on the first one, so ``bitraj.X`` is always the home module's current ``X``.
"""

import importlib
import sys

__version__ = "0.1.0"

# home module -> the public names it exports through the package
_EXPORTS = {
    "core": (
        "Device", "State", "SystemSpec", "device_from_hermitian", "heisenberg_projectors",
        "mub_partner", "propagator", "tensor_device", "validate_device",
    ),
    "engine": (
        "BiProbTable", "BiSequence", "PropertyReport", "Schedule", "TableSizeError", "biprob",
        "biprob_table", "gudder_metric", "marginalize_pair", "property_report",
        "uniform_bound_check",
    ),
    "coarse": (
        "CoarseSchedule", "Resolution", "coarse_device", "extreme_coarse_delta",
        "faux_coarse_prob", "interference_term", "pairwise_decompose", "quantum_coarse_prob",
    ),
    "composite": (
        "CompositeSpec", "Coupling", "co_interference", "compose", "factorization_delta",
        "identical_relations_check", "product_state",
    ),
    "phenomena": (
        "InitSpec", "ZenoSeries", "conditional_prob", "init_metric", "markov_delta",
        "stationarity_delta", "uncertainty_matrix", "zeno_rate", "zeno_scan",
    ),
    "master": (
        "CoordTau", "OpenSpec", "Superoperator", "classical_diagnostic", "dynamical_map_bitraj",
        "dynamical_map_exact", "gellmann_generators", "observable_restriction_delta",
        "system_biprob", "two_time_commutator",
    ),
    "lab": (
        "EmpiricalDist", "SampleRun", "empirical_distribution", "estimate_uncertainty",
        "reconstruct_interference", "sample_sequences",
    ),
    "serialize": (),
}
_HOME = {name: f"{__name__}.{mod}" for mod, names in _EXPORTS.items() for name in names}
__all__ = [*_HOME, *_EXPORTS]


def __getattr__(name: str):
    # the import machinery binds a loaded submodule on the package, so a
    # submodule name reaches here only before its first load
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = sys.modules.get(home) or importlib.import_module(home)
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
