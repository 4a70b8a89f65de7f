"""The package namespace: lazy loading, public names and submodule access; the
oldest Python the project declares parses every source file."""

import ast
import json
from pathlib import Path

import pytest

import bitraj
from conftest import fresh_stdout

SUBMODULES = ("core", "engine", "coarse", "composite", "phenomena", "master", "lab", "serialize")

# what ``from bitraj import *`` bound when the package imported every module eagerly
PUBLIC_NAMES = {
    "BiProbTable", "BiSequence", "CoarseSchedule", "CompositeSpec", "CoordTau", "Coupling",
    "Device", "EmpiricalDist", "InitSpec", "OpenSpec", "PropertyReport", "Resolution",
    "SampleRun", "Schedule", "State", "Superoperator", "SystemSpec", "TableSizeError",
    "ZenoSeries", "biprob", "biprob_table", "classical_diagnostic", "co_interference", "coarse",
    "coarse_device", "compose", "composite", "conditional_prob", "core", "device_from_hermitian",
    "dynamical_map_bitraj", "dynamical_map_exact", "empirical_distribution", "engine",
    "estimate_uncertainty", "extreme_coarse_delta", "factorization_delta", "faux_coarse_prob",
    "gellmann_generators", "gudder_metric", "heisenberg_projectors", "identical_relations_check",
    "init_metric", "interference_term", "lab", "marginalize_pair", "markov_delta", "master",
    "mub_partner", "observable_restriction_delta", "pairwise_decompose", "phenomena",
    "product_state", "propagator", "property_report", "quantum_coarse_prob",
    "reconstruct_interference", "sample_sequences", "serialize", "stationarity_delta",
    "system_biprob", "tensor_device", "two_time_commutator", "uncertainty_matrix",
    "uniform_bound_check", "validate_device", "zeno_rate", "zeno_scan",
}

FRESH = """
import json, sys
import bitraj
after_import = sorted(m for m in sys.modules if m == "numpy" or m.startswith("bitraj."))
submodules = [getattr(bitraj, name).__name__ for name in {submodules!r}]
star = {{}}
exec("from bitraj import *", star)
print(json.dumps({{
    "after_import": after_import,
    "submodules": submodules,
    "star": sorted(k for k in star if k != "__builtins__"),
    "version": bitraj.__version__,
}}))
"""


@pytest.fixture(scope="module")
def fresh() -> dict:
    """What a fresh interpreter sees of the package, from ``import bitraj`` on."""
    return json.loads(fresh_stdout(FRESH.format(submodules=SUBMODULES)))


def test_import_loads_neither_numpy_nor_a_submodule(fresh):
    assert fresh["after_import"] == []


def test_each_submodule_resolves_on_the_package(fresh):
    assert fresh["submodules"] == [f"bitraj.{name}" for name in SUBMODULES]


def test_star_import_binds_the_public_names(fresh):
    assert len(PUBLIC_NAMES) == 68
    assert fresh["star"] == sorted(PUBLIC_NAMES)


def test_version(fresh):
    assert fresh["version"] == "0.1.0"


def test_a_name_is_resolved_at_each_access(monkeypatch):
    original = bitraj.engine.biprob_table
    sentinel = object()
    monkeypatch.setattr(bitraj.engine, "biprob_table", sentinel)
    assert bitraj.biprob_table is sentinel
    monkeypatch.undo()
    assert bitraj.biprob_table is original
    assert "biprob_table" not in vars(bitraj)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        bitraj.nonexistent
    assert "biprob_table" in dir(bitraj)


#: the ``bitraj`` modules a fresh ``import bitraj.<name>`` loads, the package and itself included
MODULE_GRAPH = {
    "serialize": {"serialize"},
    "core": {"core"},
    "cli": {"cli"},
    "engine": {"core", "engine", "serialize"},
    "coarse": {"coarse", "core", "engine", "serialize"},
    "composite": {"composite", "core", "engine", "serialize"},
    "phenomena": {"core", "engine", "phenomena", "serialize"},
    "master": {"composite", "core", "engine", "master", "serialize"},
    "lab": {"coarse", "core", "engine", "lab", "phenomena", "serialize"},
    "_verbs": {"_verbs", "cli", "coarse", "core", "engine", "serialize"},
}


def test_module_graph_covers_every_module():
    assert set(MODULE_GRAPH) == set(SUBMODULES) | {"cli", "_verbs"}
    assert "coarse" not in MODULE_GRAPH["phenomena"]


@pytest.mark.parametrize("name", sorted(MODULE_GRAPH))
def test_a_module_loads_exactly_its_pinned_modules(name):
    loaded = fresh_stdout(f"import sys, bitraj.{name}; print(sorted(sys.modules))")
    got = {m.split(".", 1)[1] for m in ast.literal_eval(loaded) if m.startswith("bitraj.")}
    assert got == MODULE_GRAPH[name]


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "path",
    sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_every_source_file_parses_as_python_3_10(path):
    # the offline part of CI's Python 3.10 job (``requires-python = ">=3.10"``):
    # grammar newer than 3.10 (``except*``, PEP 695 ``type`` aliases and generics)
    # fails here.  Names are not resolved, so a stdlib module or API added after
    # 3.10 (``tomllib``, ``typing.Self``, ``datetime.UTC``, ``enum.StrEnum``)
    # passes, and ``feature_version`` is best effort, so the 3.10 job itself is
    # still what decides.
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _unread_imports(path: Path) -> list[str]:
    """``<module>.<name>`` for each name a top-level import binds that the module
    neither reads nor lists in a literal ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                exported = set(ast.literal_eval(node.value))
            except ValueError:  # a computed ``__all__`` exports no import by name
                pass
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [f"{path.stem}.{name}" for name in bound if name not in read | exported]


def test_every_top_level_import_is_read_or_exported():
    # a cut that deletes a name's last use leaves its import behind unless this fails
    modules = sorted((ROOT / "src" / "bitraj").glob("*.py"))
    assert [name for path in modules for name in _unread_imports(path)] == []
