import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from bitraj.cli import _CONFIG_SHAPES, _LABEL, _VERB_KEYS, DEFAULT_TOLERANCES, VERBS, main
from bitraj.serialize import canonical_digest
from conftest import fresh_run, fresh_stdout

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
UP = np.diag([1.0, 0.0]).astype(complex)
DN = np.diag([0.0, 1.0]).astype(complex)
PX = 0.5 * (np.eye(2) + SX)
MX = 0.5 * (np.eye(2) - SX)


def mat(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


ZERO2 = mat(np.zeros((2, 2)))
DEV_X = {"name": "X", "outcomes": ["+", "-"], "projectors": [mat(PX), mat(MX)]}
DEV_Z = {"name": "Z", "outcomes": ["u", "d"], "projectors": [mat(UP), mat(DN)]}

ZX_BASE = {
    "schema_version": 1,
    "command": "verify",
    "system": {"dim": 2, "hamiltonian": ZERO2},
    "devices": [DEV_X, DEV_Z],
    "schedule": {
        "entries": [
            {"time": 1.0, "device": "X"},
            {"time": 2.0, "device": "Z"},
        ]
    },
    "init": {"density": mat(UP)},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, verb, cfg, *extra):
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    code = main([verb, "--config", cfg_path, "--out", str(out), *extra])
    report = None
    if (out / "report.json").exists():
        report = json.loads((out / "report.json").read_text())
    return code, report, out


def test_verify_zx(tmp_path):
    code, report, out = run(tmp_path, "verify", ZX_BASE)
    assert code == 0
    assert report["ok"] is True
    assert report["schema_version"] == 1
    assert report["command"] == "verify"
    assert len(report["config_digest"]) == 64
    names = {c["name"] for c in report["checks"]}
    assert names == {
        "normalization",
        "biconsistency",
        "causality",
        "hermitianity",
        "gram_min_eigenvalue",
        "diagonal_negativity",
    }
    assert all(c["pass"] for c in report["checks"])
    assert (out / "properties.csv").exists()


def test_table_verb(tmp_path):
    cfg = dict(ZX_BASE, command="table")
    code, report, out = run(tmp_path, "table", cfg)
    assert code == 0
    assert report["results"]["n_sequences"] == 4
    table_csv = (out / "table.csv").read_text()
    assert table_csv.splitlines()[0] == "plus_0,plus_1,minus_0,minus_1,re,im"
    assert len(table_csv.splitlines()) == 17


def test_table_l1_norm_is_the_dense_mass_across_blocks(tmp_path, monkeypatch):
    from bitraj import engine

    # 64 rows in blocks of 16: the block sums, added in row order, stay within
    # (B + 40) * 2^-53 of the exact mass of the exported table
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 16 * 64 * 16)
    cfg = dict(ZX_BASE, command="table", system={"dim": 2, "hamiltonian": mat(0.3 * SX + SZ)})
    cfg["schedule"] = {
        "entries": [{"time": 0.7 * (j + 1), "device": "XZ"[j % 2]} for j in range(6)]
    }
    code, report, out = run(tmp_path, "table", cfg)
    assert code == 0
    rows = [line.split(",") for line in (out / "table.csv").read_text().splitlines()[1:]]
    matrix = np.array([complex(float(r[-2]), float(r[-1])) for r in rows]).reshape(64, 64)
    exact = math.fsum(np.abs(matrix).ravel())
    assert abs(report["results"]["l1_norm"] - exact) <= (4 + 40) * 2.0**-53 * exact


@pytest.mark.parametrize("verb", ["table", "verify"])
def test_table_digest_tells_hamiltonians_apart(tmp_path, verb):
    cfg = dict(ZX_BASE, command=verb)
    driven = dict(cfg, system={"dim": 2, "hamiltonian": mat(0.5 * SZ)})
    (tmp_path / "free").mkdir()
    (tmp_path / "driven").mkdir()
    _, free, _ = run(tmp_path / "free", verb, cfg)
    _, moved, _ = run(tmp_path / "driven", verb, driven)
    assert free["results"]["schedule_digest"] == moved["results"]["schedule_digest"]
    assert len(free["results"]["table_digest"]) == 64
    assert free["results"]["table_digest"] != moved["results"]["table_digest"]


def test_coarse_verb(tmp_path):
    cfg = dict(ZX_BASE, command="coarse")
    cfg["schedule"] = {
        "entries": [
            {"time": 1.0, "device": "X", "resolution": {"blocks": [["+", "-"]], "labels": ["any"]}},
            {"time": 2.0, "device": "Z"},
        ]
    }
    cfg["params"] = {"outcomes": ["any", "u"], "pair": ["+", "-"], "position": 0}
    code, report, out = run(tmp_path, "coarse", cfg)
    assert code == 0
    res = report["results"]
    assert res["quantum"] == pytest.approx(1.0, abs=1e-12)
    assert res["faux"] == pytest.approx(0.5, abs=1e-12)
    assert res["interference_total"] == pytest.approx(0.5, abs=1e-12)
    assert res["pair_interference"]["from_biprob"] == pytest.approx(0.25, abs=1e-12)
    assert (out / "coarse.csv").exists()


def test_compose_verb(tmp_path):
    factor = {
        "system": {"dim": 2, "hamiltonian": ZERO2},
        "devices": [DEV_X, DEV_Z],
        "schedule": {
            "entries": [
                {"time": 1.0, "device": "X"},
                {"time": 2.0, "device": "Z"},
            ]
        },
        "init": {"density": mat(UP)},
    }
    cfg = {
        "schema_version": 1,
        "command": "compose",
        "system": {"dim": 2, "hamiltonian": ZERO2},  # top-level system is unused here
        "composite": {"a": factor, "b": factor},
    }
    code, report, out = run(tmp_path, "compose", cfg)
    assert code == 0
    assert report["results"]["factorization_delta"] <= 1e-9
    assert report["results"]["coupled"] is False
    assert (out / "compose.csv").exists()


def test_compose_co_interference(tmp_path):
    # free-qubit X,Y factors give phi = -1/16
    PY = 0.5 * (np.eye(2) + np.array([[0, -1j], [1j, 0]]))
    dev_y = {"name": "Y", "outcomes": ["+i", "-i"], "projectors": [mat(PY), mat(np.eye(2) - PY)]}
    factor = {
        "system": {"dim": 2, "hamiltonian": ZERO2},
        "devices": [DEV_X, dev_y],
        "schedule": {
            "entries": [
                {"time": 1.0, "device": "X"},
                {"time": 2.0, "device": "Y"},
            ]
        },
        "init": {"density": mat(UP)},
    }
    cfg = {
        "schema_version": 1,
        "command": "compose",
        "system": {"dim": 2, "hamiltonian": ZERO2},
        "composite": {"a": factor, "b": factor},
        "params": {
            "bi_a": {"plus": ["+", "-i"], "minus": ["-", "-i"]},
            "bi_b": {"plus": ["+", "-i"], "minus": ["-", "-i"]},
        },
    }
    code, report, _ = run(tmp_path, "compose", cfg)
    assert code == 0
    assert report["results"]["co_interference"] == pytest.approx(-1 / 16, abs=1e-12)


def test_markov_verb(tmp_path):
    cfg = {
        "schema_version": 1,
        "command": "markov",
        "system": {"dim": 2, "hamiltonian": mat(0.5 * SX)},
        "devices": [DEV_Z],
        "init": {
            "weights": [
                {"device": "Z", "outcome": "u", "weight": 0.5},
                {"device": "Z", "outcome": "d", "weight": 0.5},
            ],
            "time": 0.0,
        },
        "params": {"device": "Z", "times": [0.5, 1.1, 1.9]},
    }
    code, report, out = run(tmp_path, "markov", cfg)
    assert code == 0
    assert report["results"]["fine_grained"] is True
    assert report["results"]["delta"] <= 1e-10
    assert (out / "markov.csv").exists()


def test_zeno_verb(tmp_path):
    cfg = {
        "schema_version": 1,
        "command": "zeno",
        "system": {"dim": 2, "hamiltonian": mat(0.5 * SX)},
        "devices": [DEV_Z],
        "params": {"device": "Z", "outcome": "u", "T": 1.0, "n_list": [1, 10, 100]},
    }
    code, report, out = run(tmp_path, "zeno", cfg)
    assert code == 0
    survival = report["results"]["survival"]
    assert survival[-1] == pytest.approx(0.9975031120066629, abs=1e-12)
    assert report["results"]["rate"] == pytest.approx(0.5, abs=1e-12)
    lines = (out / "zeno.csv").read_text().splitlines()
    assert lines[0] == "n,survival"
    assert len(lines) == 4


def test_uncertainty_verb(tmp_path):
    cfg = {
        "schema_version": 1,
        "command": "uncertainty",
        "system": {"dim": 2, "hamiltonian": ZERO2},
        "devices": [DEV_X, DEV_Z],
        "params": {"device_k": "X", "device_l": "Z", "n_samples": 2000, "seed": 3},
    }
    code, report, out = run(tmp_path, "uncertainty", cfg)
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["doubly_stochastic"]["pass"]
    emp = report["results"]["empirical"]
    assert emp["n_samples"] == 2000
    assert abs(emp["matrix"][0][0] - 0.5) < 0.1
    assert (out / "uncertainty.csv").exists()


def test_map_compare_verb(tmp_path):
    cfg = {
        "schema_version": 1,
        "command": "map-compare",
        "system": {"dim": 2, "hamiltonian": ZERO2},
        "environment": {"dim": 2, "hamiltonian": ZERO2},
        "couplings": [
            {"op_system": mat(SZ), "op_environment": mat(SZ), "strength": 0.37}
        ],
        "env_init": {"density": mat(np.eye(2) / 2)},
        "params": {"t": 1.7, "slices": [1, 2], "cross_check": True},
    }
    code, report, out = run(tmp_path, "map-compare", cfg)
    assert code == 0
    rows = report["results"]["slices"]
    assert rows[0]["residual"] <= 1e-10  # dephasing is exact at one slice
    names = [c["name"] for c in report["checks"]]
    assert "enumeration_vs_transfer" in names
    assert "residual_refinement" in names
    assert all(c["pass"] for c in report["checks"])
    assert (out / "map_compare.csv").exists()


def test_sample_verb(tmp_path):
    cfg = dict(ZX_BASE, command="sample")
    cfg["params"] = {"n_samples": 2000, "seed": 8}
    code, report, out = run(tmp_path, "sample", cfg)
    assert code == 0
    assert report["results"]["n_samples"] == 2000
    assert report["results"]["fraction_within_4sigma"] == 1.0
    run_blob = json.loads((out / "run.json").read_text())
    assert sum(c["count"] for c in run_blob["counts"]) == 2000
    assert (out / "samples.csv").exists()


def test_classical_verb_zx(tmp_path):
    cfg = dict(ZX_BASE, command="classical")
    code, report, out = run(tmp_path, "classical", cfg)
    assert code == 0  # reporting a non-classical table is not a failure
    assert report["results"]["offdiag_mass"] == pytest.approx(0.5, abs=1e-12)
    assert report["results"]["surrogate_returned"] is False
    rows = (out / "classical.csv").read_text().splitlines()
    assert rows[0] == "offdiag_mass,threshold,consistent"
    assert rows[1].endswith(",False")  # no surrogate, nothing to be consistent


def test_classical_csv_takes_its_verdict_from_the_check(tmp_path):
    # Z then X on a state just off |u>: the off-diagonal mass is under the
    # threshold, and the surrogate's Kolmogorov gap (about 0.01) passes the
    # configured bound, so the CSV's consistent column agrees with the check
    psi = np.array([1.0, 0.01]) / math.hypot(1.0, 0.01)
    cfg = dict(
        ZX_BASE,
        command="classical",
        schedule={"entries": [{"time": 1.0, "device": "Z"}, {"time": 2.0, "device": "X"}]},
        init={"density": mat(np.outer(psi, psi))},
        params={"threshold": 0.02},
        tolerances={"classical_consistency": 0.02},
    )
    code, report, out = run(tmp_path, "classical", cfg)
    assert code == 0
    (check,) = report["checks"]
    assert check["name"] == "kolmogorov_consistency"
    assert 1e-9 < check["value"] <= 0.02
    assert check["pass"] is True
    header, row = (out / "classical.csv").read_text().splitlines()
    assert header == "offdiag_mass,threshold,consistent"
    mass, threshold, consistent = row.split(",")
    assert float(mass) == report["results"]["offdiag_mass"] <= 0.02
    assert (threshold, consistent) == ("0.02", "True")


def test_classical_verb_commuting(tmp_path):
    cfg = {
        "schema_version": 1,
        "command": "classical",
        "system": {"dim": 2, "hamiltonian": mat(0.5 * SZ)},
        "devices": [DEV_Z],
        "schedule": {
            "entries": [{"time": 0.4, "device": "Z"}, {"time": 1.1, "device": "Z"}]
        },
        "init": {"density": mat(0.5 * np.ones((2, 2)))},
    }
    code, report, _ = run(tmp_path, "classical", cfg)
    assert code == 0
    assert report["results"]["surrogate_returned"] is True
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["kolmogorov_consistency"]["pass"]


# ---------------------------------------------------------------------------
# rejection paths


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", "--config", str(path)]) == 2


def test_missing_config_file(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "nope.json")]) == 2


def test_schema_error_has_pointer(tmp_path, capsys):
    cfg = dict(ZX_BASE)
    cfg.pop("system")
    code = main(["verify", "--config", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error at /" in err
    assert "system" in err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = dict(ZX_BASE)
    cfg["extra_stuff"] = 1
    code = main(["verify", "--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert "extra_stuff" in capsys.readouterr().err


def test_dim_mismatch_pointer(tmp_path, capsys):
    cfg = dict(ZX_BASE)
    cfg["system"] = {"dim": 3, "hamiltonian": ZERO2}
    code = main(["verify", "--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert "/system/hamiltonian" in capsys.readouterr().err


def test_unknown_device_names_entry(tmp_path, capsys):
    cfg = json.loads(json.dumps(ZX_BASE))
    cfg["schedule"]["entries"][1]["device"] = "Q"
    code = main(["verify", "--config", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "/schedule/entries/1/device" in err
    assert "'Q'" in err


def test_command_mismatch(tmp_path, capsys):
    code = main(["table", "--config", write_config(tmp_path, ZX_BASE)])
    assert code == 2
    assert "/command" in capsys.readouterr().err


def test_threads_flag_is_gone(tmp_path):
    cfg = dict(ZX_BASE, command="sample")
    cfg["params"] = {"n_samples": 10}
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--config", write_config(tmp_path, cfg), "--threads", "2"])
    assert exc.value.code == 2


def test_cli_import_leaves_jsonschema_out():
    assert fresh_stdout("import sys, bitraj.cli; print('jsonschema' in sys.modules)").strip() == "False"
    loaded = fresh_stdout(
        "import sys, bitraj.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'bitraj')))"
    )
    assert loaded.strip() == "['bitraj', 'bitraj.cli']"


def _readme_config() -> dict:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return json.loads(re.search(r"A minimal example:\n\n```json\n(.*?)```", text, re.S).group(1))


def _main_in_a_fresh_interpreter(argv: list[str], before: str = "") -> dict:
    """Exit code of ``main(argv)`` in a fresh interpreter (``--help`` exits), whether
    NumPy was loaded after it, and the BLAS thread variables it left; ``before``
    runs first."""
    out = fresh_stdout(
        "import json, os, sys\n"
        f"{before}\n"
        "import bitraj.cli\n"
        "try:\n"
        f"    code = bitraj.cli.main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "blas = {v: os.environ.get(v) for v in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')}\n"
        "print(json.dumps({'code': code, 'numpy': 'numpy' in sys.modules, 'blas': blas}))"
    )
    return json.loads(out.splitlines()[-1])


def test_help_and_a_rejected_config_never_load_numpy(tmp_path):
    nan = dict(_readme_config(), tolerances={"normalization": float("nan")})
    lone_pair = _mutated(PINNED_BASES["coarse"], ("params", "position"), DELETE)
    out = ["--out", str(tmp_path / "out")]
    nan_argv = ["verify", "--config", write_config(tmp_path, nan, "nan.json"), *out]
    pair_argv = ["coarse", "--config", write_config(tmp_path, lone_pair, "pair.json"), *out]
    for args, code in [(nan_argv, 2), (pair_argv, 2), (["--help"], 0)]:
        ran = _main_in_a_fresh_interpreter(args)
        assert (ran["code"], ran["numpy"]) == (code, False)
    assert not (tmp_path / "out").exists()


# each case starts from none of the thread-count variables OpenBLAS reads
NO_BLAS_VARS = (
    "for v in ('OPENBLAS_NUM_THREADS', 'GOTO_NUM_THREADS', 'OMP_NUM_THREADS'): os.environ.pop(v, None)"
)


@pytest.mark.parametrize(
    "before, openblas, omp",
    [
        (NO_BLAS_VARS, "1", None),
        (NO_BLAS_VARS + "; os.environ['OMP_NUM_THREADS'] = '2'", None, "2"),
        (NO_BLAS_VARS + "; import numpy", None, None),
    ],
    ids=["unset", "omp-set", "numpy-loaded"],
)
def test_a_cli_call_asks_for_one_blas_thread_only_when_nothing_chose(tmp_path, before, openblas, omp):
    cfg = _readme_config()
    argv = ["verify", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]
    ran = _main_in_a_fresh_interpreter(argv, before)
    assert (ran["code"], ran["numpy"]) == (0, True)
    assert ran["blas"] == {"OPENBLAS_NUM_THREADS": openblas, "OMP_NUM_THREADS": omp}


@pytest.mark.parametrize(
    "edits, message",
    [
        # H = 4 sigma_x and a second time whose phase leaves float range
        (
            [(("system", "hamiltonian"), mat(4 * SX)), (("schedule", "entries", 1, "time"), 1.7e308)],
            "config error at /schedule/entries/1/time: exp(-i s H)",
        ),
        (
            [(("schedule", "entries", 0, "device"), "Q")],
            "config error at /schedule/entries/0/device: unknown device 'Q'",
        ),
    ],
    ids=["phase-past-float-range", "unknown-device"],
)
def test_python_m_bitraj_cli_reports_a_verb_s_config_error(tmp_path, edits, message):
    # both errors are raised by the verbs module, past the shape walk
    cfg = _readme_config()
    for path, value in edits:
        cfg = _mutated(cfg, path, value)
    argv = ["verify", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]
    ran = fresh_run("-m", "bitraj.cli", *argv)
    assert ran.returncode == 2
    assert ran.stderr.startswith(message)
    assert "Traceback" not in ran.stderr


# modules the README verify config does not use
UNUSED_BY_VERIFY = {
    "bitraj.lab", "bitraj.master", "bitraj.composite", "bitraj.phenomena", "numpy.random",
}


@pytest.mark.parametrize(
    "base, loaded, absent",
    [("readme", set(), UNUSED_BY_VERIFY), ("sample", {"bitraj.lab", "numpy.random"}, set())],
    ids=["readme-verify", "sample"],
)
def test_a_verb_loads_only_its_own_layers(tmp_path, base, loaded, absent):
    cfg = _readme_config() if base == "readme" else PINNED_BASES[base]
    argv = [cfg["command"], "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]
    code, modules = json.loads(
        fresh_stdout(
            "import json, sys, bitraj.cli\n"
            f"code = bitraj.cli.main({argv!r})\n"
            "print(json.dumps([code, sorted(sys.modules)]))"
        )
    )
    assert code == 0
    assert loaded <= set(modules)
    assert not absent & set(modules)


def test_device_needs_exactly_one_form(tmp_path, capsys):
    cfg = json.loads(json.dumps(ZX_BASE))
    cfg["devices"][0] = {"name": "X"}  # neither observable nor projectors
    code = main(["verify", "--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert "observable" in capsys.readouterr().err


def test_table_guard_and_force_large(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BITRAJ_MAX_TABLE", "10")
    cfg_path = write_config(tmp_path, ZX_BASE)
    out = tmp_path / "out"
    code = main(["verify", "--config", cfg_path, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    guard = json.loads(err)
    assert guard["error"] == "table-size-guard"
    assert guard["requested_entries"] == 16
    assert guard["limit"] == 10
    # --force-large is gone: raising the variable is the one way to lift the guard
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", cfg_path, "--out", str(out), "--force-large"])
    assert exc.value.code == 2
    monkeypatch.setenv("BITRAJ_MAX_TABLE", "16")
    code = main(["verify", "--config", cfg_path, "--out", str(out)])
    assert code == 0


def _one_block_coarse(dim: int, n: int) -> dict:
    """A ``coarse`` config that reads all ``dim`` outcomes of a device as one block, ``n`` times."""
    dev = {
        "name": "W",
        "outcomes": list(range(dim)),
        "projectors": [mat(np.diag(np.eye(dim)[k])) for k in range(dim)],
    }
    block = {"blocks": [list(range(dim))], "labels": ["all"]}
    return {
        "schema_version": 1,
        "command": "coarse",
        "system": {"dim": dim, "hamiltonian": mat(np.zeros((dim, dim)))},
        "devices": [dev],
        "schedule": {
            "entries": [{"time": j + 1.0, "device": "W", "resolution": block} for j in range(n)]
        },
        "params": {"outcomes": ["all"] * n},
    }


def test_coarse_skips_a_recurrence_over_the_guard(tmp_path, monkeypatch):
    # one 12-outcome block read out 4 times: the fine chains (12^4 * 144 leaf
    # entries) fit the default cap, the recurrence's 78^4 readouts do not
    monkeypatch.delenv("BITRAJ_MAX_TABLE", raising=False)
    code, report, _ = run(tmp_path, "coarse", _one_block_coarse(12, 4))
    assert code == 0
    results = report["results"]
    assert results["quantum"] == pytest.approx(1.0, abs=1e-12)
    assert results["faux"] == pytest.approx(1.0, abs=1e-12)
    assert results["recurrence"] == {
        "skipped": f"enumeration size {78**4 * 144} exceeds the guard 10000000; "
        "raise BITRAJ_MAX_TABLE if this is intended"
    }


@pytest.mark.parametrize("recurrence", ["runs", "skipped"])
def test_coarse_evaluates_its_direct_chain_once(tmp_path, monkeypatch, recurrence):
    from bitraj import _verbs, coarse

    monkeypatch.delenv("BITRAJ_MAX_TABLE", raising=False)
    calls = []
    direct = coarse.quantum_coarse_prob

    def counted(*args):
        calls.append(args)
        return direct(*args)

    # the verb's own name and the one pairwise_decompose looks up
    monkeypatch.setattr(coarse, "quantum_coarse_prob", counted)
    monkeypatch.setattr(_verbs, "quantum_coarse_prob", counted)
    cfg = PINNED_BASES["coarse"] if recurrence == "runs" else _one_block_coarse(12, 4)
    code, report, _ = run(tmp_path, "coarse", cfg)
    assert code == 0
    assert len(calls) == 1
    results = report["results"]
    assert list(results)[:4] == ["quantum", "faux", "interference_total", "recurrence"]
    assert ("skipped" in results["recurrence"]) == (recurrence == "skipped")
    if recurrence == "runs":
        assert results["recurrence"]["direct"] == results["quantum"]


def test_markov_guard_exits_two(tmp_path, capsys, monkeypatch):
    # three qubit readouts enumerate 8 sequences of d^2 = 4 leaf entries
    monkeypatch.setenv("BITRAJ_MAX_TABLE", "16")
    cfg = {
        "schema_version": 1,
        "command": "markov",
        "system": {"dim": 2, "hamiltonian": mat(0.5 * SX)},
        "devices": [DEV_Z],
        "init": {"weights": [{"device": "Z", "outcome": "u", "weight": 1.0}]},
        "params": {"device": "Z", "times": [0.5, 1.1, 1.9]},
    }
    code, report, _ = run(tmp_path, "markov", cfg)
    assert code == 2
    assert report is None
    guard = json.loads(capsys.readouterr().err)
    assert guard["error"] == "table-size-guard"
    assert guard["requested_entries"] == 32
    assert guard["limit"] == 16


def _wide_factor(dim):
    return {
        "system": {"dim": dim, "hamiltonian": mat(np.diag(0.1 * np.arange(dim)))},
        "devices": [{"name": "N", "observable": mat(np.diag(np.arange(dim)))}],
        "schedule": {"entries": [{"time": 1.0, "device": "N"}]},
    }


# factor dims 8 x 9: a joint dimension of 72, over the default cap of 64
WIDE_JOINT = {
    "compose": (
        {
            "schema_version": 1,
            "command": "compose",
            "system": {"dim": 2, "hamiltonian": ZERO2},
            "composite": {"a": _wide_factor(8), "b": _wide_factor(9)},
        },
        "/composite",
    ),
    "map-compare": (
        {
            "schema_version": 1,
            "command": "map-compare",
            "system": _wide_factor(8)["system"],
            "environment": _wide_factor(9)["system"],
            "env_init": {"density": mat(np.eye(9) / 9)},
            "params": {"t": 0.5, "slices": [1]},
        },
        "/environment",
    ),
}


@pytest.mark.parametrize("verb", sorted(WIDE_JOINT))
def test_joint_dimension_guard_exits_two(tmp_path, capsys, monkeypatch, verb):
    cfg, pointer = WIDE_JOINT[verb]
    monkeypatch.delenv("BITRAJ_MAX_DIM", raising=False)
    code, report, _ = run(tmp_path, verb, cfg)
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {pointer}: dimension 72 exceeds the cap 64")
    monkeypatch.setenv("BITRAJ_MAX_DIM", "100")
    code, report, _ = run(tmp_path, verb, cfg)
    assert code == 0
    assert report["ok"] is True


@pytest.mark.parametrize("var", ["BITRAJ_MAX_TABLE", "BITRAJ_MAX_DIM"])
def test_malformed_env_cap_exits_two(tmp_path, capsys, monkeypatch, var):
    monkeypatch.setenv(var, "lots")
    code, report, _ = run(tmp_path, "verify", ZX_BASE)
    assert code == 2
    assert report is None
    assert var in capsys.readouterr().err


def test_check_failure_exits_one(tmp_path):
    cfg = dict(ZX_BASE)
    cfg["tolerances"] = {"normalization": -1.0}  # impossible bound
    code, report, _ = run(tmp_path, "verify", cfg)
    assert code == 1
    assert report["ok"] is False
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["normalization"]


def test_observable_device_form(tmp_path):
    cfg = {
        "schema_version": 1,
        "command": "verify",
        "system": {"dim": 2, "hamiltonian": ZERO2},
        "devices": [{"name": "Zobs", "observable": mat(SZ)}],
        "schedule": {"entries": [{"time": 1.0, "device": "Zobs"}]},
        "init": {"maximally_mixed": True},
    }
    code, report, _ = run(tmp_path, "verify", cfg)
    assert code == 0
    assert report["ok"] is True


def test_default_init_is_maximally_mixed(tmp_path):
    cfg = dict(ZX_BASE)
    cfg.pop("init")
    code, report, _ = run(tmp_path, "verify", cfg)
    assert code == 0


def test_a_weights_init_reads_as_its_density(tmp_path):
    weights = dict(ZX_BASE, init={"weights": [{"device": "Z", "outcome": "u", "weight": 1.0}]})
    (tmp_path / "weights").mkdir()
    code, by_weights, _ = run(tmp_path / "weights", "verify", weights)
    assert code == 0
    code, by_density, _ = run(tmp_path, "verify", ZX_BASE)
    assert code == 0
    assert by_weights["results"]["table_digest"] == by_density["results"]["table_digest"]


# ---------------------------------------------------------------------------
# every structural rejection of the config, pinned: exit 2, the JSON pointer
# of the object that holds the offending key, and the key's name

MIXED_BASE = dict(ZX_BASE, init={"maximally_mixed": True})
PINNED_BASES = {
    "zx": dict(ZX_BASE, tolerances={"normalization": 1e-8}),
    "mixed": MIXED_BASE,
    "table": dict(ZX_BASE, command="table"),
    "classical": dict(ZX_BASE, command="classical", params={"threshold": 1e-8}),
    "sample": dict(ZX_BASE, command="sample", params={"n_samples": 50, "seed": 3}),
    "coarse": dict(
        ZX_BASE,
        command="coarse",
        schedule={
            "entries": [
                {"time": 1.0, "device": "X", "resolution": {"blocks": [["+", "-"]], "labels": ["any"]}},
                {"time": 2.0, "device": "Z"},
            ]
        },
        params={"outcomes": ["any", "u"], "pair": ["+", "-"], "position": 0},
    ),
    "markov": {
        "schema_version": 1,
        "command": "markov",
        "system": {"dim": 2, "hamiltonian": mat(0.5 * SX)},
        "devices": [DEV_Z],
        "init": {"weights": [{"device": "Z", "outcome": "u", "weight": 1.0}], "time": 0.0},
        "params": {"device": "Z", "times": [0.5, 1.1]},
    },
    "zeno": {
        "schema_version": 1,
        "command": "zeno",
        "system": {"dim": 2, "hamiltonian": mat(0.5 * SX)},
        "devices": [DEV_Z],
        "params": {"device": "Z", "outcome": "u", "T": 1.0, "n_list": [1, 10]},
    },
    "uncertainty": {
        "schema_version": 1,
        "command": "uncertainty",
        "system": {"dim": 2, "hamiltonian": ZERO2},
        "devices": [DEV_X, DEV_Z],
        "params": {"device_k": "X", "device_l": "Z", "t": 0.0, "dt": 0.0, "n_samples": 50, "seed": 3},
    },
    "compose": {
        "schema_version": 1,
        "command": "compose",
        "system": {"dim": 2, "hamiltonian": ZERO2},
        "composite": {
            "a": {
                "system": {"dim": 2, "hamiltonian": ZERO2},
                "devices": [DEV_X, DEV_Z],
                "schedule": {"entries": [{"time": 1.0, "device": "X"}, {"time": 2.0, "device": "Z"}]},
                "init": {"density": mat(UP)},
            },
            "b": {
                "system": {"dim": 2, "hamiltonian": ZERO2},
                "devices": [DEV_Z],
                "schedule": {"entries": [{"time": 1.0, "device": "Z"}, {"time": 2.0, "device": "Z"}]},
            },
            "couplings": [{"op_a": mat(SZ), "op_b": mat(SZ), "strength": 0.3}],
        },
    },
    "cointerference": {
        "schema_version": 1,
        "command": "compose",
        "system": {"dim": 2, "hamiltonian": ZERO2},
        "composite": {
            "a": {
                "system": {"dim": 2, "hamiltonian": ZERO2},
                "devices": [DEV_X],
                "schedule": {"entries": [{"time": 1.0, "device": "X"}]},
            },
            "b": {
                "system": {"dim": 2, "hamiltonian": ZERO2},
                "devices": [DEV_Z],
                "schedule": {"entries": [{"time": 1.0, "device": "Z"}]},
            },
        },
        "params": {"bi_a": {"plus": ["+"], "minus": ["-"]}, "bi_b": {"plus": ["u"], "minus": ["u"]}},
    },
    "map": {
        "schema_version": 1,
        "command": "map-compare",
        "system": {"dim": 2, "hamiltonian": ZERO2},
        "environment": {"dim": 2, "hamiltonian": ZERO2},
        "couplings": [{"op_system": mat(SZ), "op_environment": mat(SZ), "strength": 0.37}],
        "env_init": {"density": mat(np.eye(2) / 2)},
        "params": {"t": 1.7, "slices": [1, 2], "cross_check": True},
    },
}

DELETE = object()
ENTRY0 = ("schedule", "entries", 0)
DEV0 = ("devices", 0)
RES = ENTRY0 + ("resolution",)
W0 = ("init", "weights", 0)
FACTOR_A = ("composite", "a")
COUPLING_AB = ("composite", "couplings", 0)
COUPLING_ENV = ("couplings", 0)
HAM = ("system", "hamiltonian")
BI_A = ("params", "bi_a")

# (base, path, new value or DELETE); the path runs to the key that is added,
# removed or given a bad value, or into an array below it
PINNED_REJECTIONS = [
    # one unknown key per object kind
    ("zx", ("bogus_key",), 1),
    ("zx", ("system", "bogus_key"), 1),
    ("zx", ("system", "label"), True),  # a system carries no label
    ("zx", DEV0 + ("bogus_key",), 1),
    ("coarse", RES + ("bogus_key",), 1),
    ("zx", ENTRY0 + ("bogus_key",), 1),
    ("zx", ("schedule", "bogus_key"), 1),
    ("zx", ("init", "bogus_key"), 1),
    ("markov", W0 + ("bogus_key",), 1),
    ("compose", ("composite", "bogus_key"), 1),
    ("compose", FACTOR_A + ("bogus_key",), 1),
    ("compose", COUPLING_AB + ("bogus_key",), 1),
    ("map", COUPLING_ENV + ("bogus_key",), 1),
    ("map", ("env_init", "bogus_key"), 1),
    ("map", ("environment", "bogus_key"), 1),
    ("cointerference", BI_A + ("bogus_key",), 1),
    ("zeno", ("params", "bogus_key"), 1),
    ("zx", ("tolerances", "bogus_key"), 1),
    # one missing required key per object kind
    ("zx", ("schema_version",), DELETE),
    ("zx", ("command",), DELETE),
    ("zx", ("system",), DELETE),
    ("zx", ("system", "dim"), DELETE),
    ("zx", HAM, DELETE),
    ("zx", DEV0 + ("name",), DELETE),
    ("coarse", RES + ("blocks",), DELETE),
    ("zx", ENTRY0 + ("time",), DELETE),
    ("zx", ENTRY0 + ("device",), DELETE),
    ("zx", ("schedule", "entries"), DELETE),
    ("markov", W0 + ("device",), DELETE),
    ("markov", W0 + ("outcome",), DELETE),
    ("markov", W0 + ("weight",), DELETE),
    ("compose", ("composite", "a"), DELETE),
    ("compose", ("composite", "b"), DELETE),
    ("compose", FACTOR_A + ("system",), DELETE),
    ("compose", FACTOR_A + ("devices",), DELETE),
    ("compose", FACTOR_A + ("schedule",), DELETE),
    ("compose", COUPLING_AB + ("op_a",), DELETE),
    ("compose", COUPLING_AB + ("op_b",), DELETE),
    ("map", COUPLING_ENV + ("op_system",), DELETE),
    ("map", COUPLING_ENV + ("op_environment",), DELETE),
    ("map", ("env_init", "density"), DELETE),
    ("map", ("environment", "dim"), DELETE),
    ("cointerference", BI_A + ("plus",), DELETE),
    ("cointerference", BI_A + ("minus",), DELETE),
    # wrong types: objects and arrays
    ("zx", ("system",), []),
    ("zx", DEV0, "X"),
    ("zx", ("devices",), {}),
    ("zx", ("schedule",), []),
    ("zx", ENTRY0, 1.0),
    ("zx", ("schedule", "entries"), {}),
    ("zx", ("init",), 1),
    ("zx", ("params",), []),
    ("zx", ("tolerances",), 1e-8),
    ("compose", FACTOR_A, []),
    ("coarse", RES, ["+", "-"]),
    ("coarse", RES + ("blocks", 0), "+"),
    ("zeno", ("params", "n_list"), 10),
    ("zx", HAM, 0),
    ("zx", HAM + (0,), "row"),
    ("zx", HAM + (0, 0), 0.0),
    ("zx", HAM + (0, 0), [0.0]),
    ("zx", HAM + (0, 0), [0.0, 0.0, 0.0]),
    ("zx", HAM + (0, 0, 1), "0"),
    # wrong types: numbers, booleans offered as numbers
    ("zx", HAM + (0, 0, 0), True),
    ("zx", ENTRY0 + ("time",), True),
    ("zx", ENTRY0 + ("time",), "1.0"),
    ("zx", ("init", "time"), False),
    ("markov", W0 + ("weight",), False),
    ("compose", COUPLING_AB + ("strength",), True),
    ("map", COUPLING_ENV + ("strength",), "0.37"),
    ("zx", ("tolerances", "normalization"), True),
    ("zeno", ("params", "T"), True),
    ("uncertainty", ("params", "t"), True),
    ("markov", ("params", "times", 0), True),
    ("zx", ("params", "threshold"), "1e-8"),
    ("uncertainty", ("params", "dt"), True),
    ("uncertainty", ("params", "dt"), -0.5),
    # integers, booleans offered as integers
    ("zx", ("system", "dim"), True),
    ("zx", ("system", "dim"), 1.5),
    ("zx", ("system", "dim"), 0),
    ("zeno", ("params", "n_list", 0), True),
    ("zeno", ("params", "n_list", 0), 0),
    ("map", ("params", "slices", 0), 2.5),
    ("uncertainty", ("params", "n_samples"), True),
    ("uncertainty", ("params", "n_samples"), 0),
    ("uncertainty", ("params", "seed"), True),
    ("uncertainty", ("params", "seed"), -1),
    ("coarse", ("params", "position"), False),
    ("coarse", ("params", "position"), -1),
    # strings
    ("zx", DEV0 + ("name",), 5),
    ("zx", ENTRY0 + ("device",), 1),
    ("markov", W0 + ("device",), None),
    ("zeno", ("params", "device"), 0),
    ("uncertainty", ("params", "device_k"), True),
    ("uncertainty", ("params", "device_l"), None),
    # booleans
    ("mixed", ("init", "maximally_mixed"), 1),
    ("mixed", ("init", "maximally_mixed"), False),
    ("map", ("params", "cross_check"), 1),
    ("map", ("params", "cross_check"), "true"),
    # labels
    ("zx", DEV0 + ("outcomes", 0), None),
    ("zx", DEV0 + ("outcomes", 0), ["+"]),
    ("coarse", RES + ("blocks", 0, 0), None),
    ("coarse", RES + ("labels", 0), {}),
    ("markov", W0 + ("outcome",), None),
    ("zeno", ("params", "outcome"), []),
    ("coarse", ("params", "outcomes", 0), None),
    ("coarse", ("params", "pair", 0), None),
    ("cointerference", BI_A + ("plus", 0), None),
    # an empty array wherever one item is the minimum
    ("zx", ("devices",), []),
    ("zx", DEV0 + ("outcomes",), []),
    ("zx", DEV0 + ("projectors",), []),
    ("zx", DEV0 + ("projectors", 0), []),
    ("zx", HAM, []),
    ("zx", HAM + (0,), []),
    ("zx", ("schedule", "entries"), []),
    ("zx", ("init", "density"), []),
    ("coarse", RES + ("blocks",), []),
    ("coarse", RES + ("blocks", 0), []),
    ("markov", ("init", "weights"), []),
    ("compose", FACTOR_A + ("devices",), []),
    ("compose", COUPLING_AB + ("op_a",), []),
    ("map", COUPLING_ENV + ("op_environment",), []),
    ("map", ("env_init", "density"), []),
    ("map", ("environment", "hamiltonian"), []),
    ("cointerference", BI_A + ("plus",), []),
    ("cointerference", BI_A + ("minus",), []),
    ("zeno", ("params", "n_list"), []),
    ("map", ("params", "slices"), []),
    # fixed lengths, the version and the verb
    ("coarse", ("params", "pair"), ["+", "-", "+"]),
    ("coarse", ("params", "pair"), ["+"]),
    ("markov", ("params", "times"), [0.5]),
    ("zx", ("schema_version",), 2),
    ("zx", ("schema_version",), True),
    ("zx", ("command",), "frobnicate"),
    # one tolerance per verb that the verb has no check for, and the classical
    # threshold, which only ``params.threshold`` sets
    ("table", ("tolerances", "normalization"), 1e-8),
    ("zx", ("tolerances", "markov"), 1e-8),
    ("coarse", ("tolerances", "hermitianity"), 1e-8),
    ("compose", ("tolerances", "pairwise"), 1e-8),
    ("markov", ("tolerances", "factorization"), 1e-8),
    ("zeno", ("tolerances", "hermitianity"), 1e-8),
    ("uncertainty", ("tolerances", "map_tp"), 1e-8),
    ("map", ("tolerances", "uncertainty_stochastic"), 1e-8),
    ("sample", ("tolerances", "normalization"), 1e-8),
    ("classical", ("tolerances", "hermitianity"), 1e-8),
    ("classical", ("tolerances", "classical_threshold"), 1e-8),
]


def _mutated(base: dict, path: tuple, value) -> dict:
    cfg = json.loads(json.dumps(base))
    node = cfg
    for step in path[:-1]:
        node = node.setdefault(step, {}) if isinstance(node, dict) else node[step]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return cfg


@pytest.mark.parametrize("base", sorted(PINNED_BASES))
def test_pinned_bases_run(tmp_path, base):
    cfg = PINNED_BASES[base]
    code, report, _ = run(tmp_path, cfg["command"], cfg)
    assert code == 0, base


@pytest.mark.parametrize(
    "base, path, value",
    PINNED_REJECTIONS,
    ids=[
        f"{b}:/{'/'.join(map(str, p))}={'DELETE' if v is DELETE else json.dumps(v)}"
        for b, p, v in PINNED_REJECTIONS
    ],
)
def test_config_rejection_is_pinned(tmp_path, capsys, base, path, value):
    cfg = _mutated(PINNED_BASES[base], path, value)
    code = main([PINNED_BASES[base]["command"], "--config", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    # the last key on the path, and the pointer of the object that holds it
    at = max(i for i, step in enumerate(path) if isinstance(step, str))
    parent = "/" + "/".join(str(step) for step in path[:at])
    assert f"config error at {parent}" in err
    assert path[at] in err


# ---------------------------------------------------------------------------
# compose factors must be read out in tandem: a mismatch is a config error


@pytest.mark.parametrize(
    "entries, message",
    [
        ([{"time": 1.0, "device": "Z"}], "same number of entries"),
        ([{"time": 1.0, "device": "Z"}, {"time": 3.0, "device": "Z"}], "must share times"),
    ],
    ids=["length", "times"],
)
def test_compose_rejects_factors_out_of_tandem(tmp_path, capsys, entries, message):
    cfg = _mutated(PINNED_BASES["compose"], ("composite", "b", "schedule", "entries"), entries)
    code = main(["compose", "--config", write_config(tmp_path, cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error at /composite/b/schedule/entries: " in err
    assert message in err


# ---------------------------------------------------------------------------
# an integral float is accepted wherever an integer is, and means that integer

INTEGER_LEAVES = {
    ("system", "dim"): "zx",
    ("environment", "dim"): "map",
    ("composite", "a", "system", "dim"): "compose",
    ("composite", "b", "system", "dim"): "compose",
    ("params", "n_list", 0): "zeno",
    ("params", "slices", 0): "map",
    ("params", "n_samples"): "uncertainty",
    ("params", "seed"): "uncertainty",
    ("params", "position"): "coarse",
}


def _integer_leaves(shape, path=()):
    if isinstance(shape, str):
        if shape.startswith("an integer"):
            yield path
    elif isinstance(shape, list):
        yield from _integer_leaves(shape[0], path + (0,))
    else:
        for key, sub in shape.items():
            yield from _integer_leaves(sub, path + (key.rstrip("?"),))


def test_every_integer_leaf_has_a_base():
    leaves = set().union(*(_integer_leaves(shape) for shape in _CONFIG_SHAPES.values()))
    assert leaves == set(INTEGER_LEAVES)


@pytest.mark.parametrize(
    "path", list(INTEGER_LEAVES), ids=["/" + "/".join(map(str, p)) for p in INTEGER_LEAVES]
)
def test_integral_float_means_the_integer(tmp_path, path):
    base = PINNED_BASES[INTEGER_LEAVES[path]]
    value = base
    for step in path:
        value = value[step]
    assert isinstance(value, int)
    as_float = _mutated(base, path, float(value))
    reports = []
    for name, cfg in (("int", base), ("float", as_float)):
        (tmp_path / name).mkdir()
        code, report, _ = run(tmp_path / name, base["command"], cfg)
        assert code == 0, name
        reports.append(report)
    assert reports[1]["results"] == reports[0]["results"]
    assert reports[1]["checks"] == reports[0]["checks"]
    assert reports[1]["config_digest"] == canonical_digest(as_float)
    assert reports[1]["config_digest"] != reports[0]["config_digest"]


# ---------------------------------------------------------------------------
# json.load admits NaN, Infinity and integers too large for a float; no number leaf does


def _float_leaves(value, path=()):
    if isinstance(value, float):
        yield path
    elif isinstance(value, (list, dict)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, v in items:
            yield from _float_leaves(v, path + (key,))


@pytest.mark.parametrize(
    "token",
    [math.nan, math.inf, -math.inf, 10**400],  # float() of the 401-digit integer overflows
    ids=["NaN", "Infinity", "-Infinity", "401-digit"],
)
@pytest.mark.parametrize("base", sorted(PINNED_BASES))
def test_non_finite_number_exits_two_with_its_pointer(tmp_path, capsys, base, token):
    leaves = list(_float_leaves(PINNED_BASES[base]))
    assert leaves
    for path in leaves:
        cfg_path = write_config(tmp_path, _mutated(PINNED_BASES[base], path, token))
        assert json.dumps(token) in Path(cfg_path).read_text()  # the literal JSON token
        assert main([PINNED_BASES[base]["command"], "--config", cfg_path]) == 2, path
        pointer = re.escape("/" + "/".join(map(str, path)))
        expected = rf"config error at {pointer}: expected a number( >= 0)?, got {token!r}\n"
        assert re.fullmatch(expected, capsys.readouterr().err), path


def test_non_finite_label_exits_two_with_its_pointer(tmp_path, capsys):
    for token in (math.nan, math.inf, -math.inf):
        cfg = _mutated(PINNED_BASES["zeno"], ("params", "outcome"), token)
        assert main(["zeno", "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (
            f"config error at /params/outcome: expected {_LABEL}, got {token!r}\n"
        )


# ---------------------------------------------------------------------------
# seeds and meaning errors that the shape walker cannot see carry a pointer too


SAMPLE_BASE = dict(ZX_BASE, command="sample", params={"n_samples": 50})
EXACT_ONLY = dict(PINNED_BASES["uncertainty"], params={"device_k": "X", "device_l": "Z"})


@pytest.mark.parametrize(
    "cfg, largest",
    [
        (SAMPLE_BASE, 2**64 - 1),
        (PINNED_BASES["uncertainty"], 2**64 - 2),
        ],
    ids=["sample", "uncertainty"],
)
def test_seed_past_its_range_exits_two(tmp_path, capsys, cfg, largest):
    # seeds lie in [0, 2**64); the uncertainty verb's role-swapped run uses seed + 1
    verb = cfg["command"]
    (tmp_path / "largest").mkdir()
    code, _, _ = run(tmp_path / "largest", verb, _mutated(cfg, ("params", "seed"), largest))
    assert code == 0
    past = _mutated(cfg, ("params", "seed"), largest + 1)
    assert main([verb, "--config", write_config(tmp_path, past)]) == 2
    err = capsys.readouterr().err
    assert "config error at /params/seed: seed must be an integer in [0, 2**64 - " in err


def test_an_uncertainty_seed_without_n_samples_exits_two(tmp_path, capsys):
    # the exact matrix samples nothing, so a seed there is not read, whatever its value
    for seed in (5, 2**64 - 1):
        cfg = _mutated(EXACT_ONLY, ("params", "seed"), seed)
        assert main(["uncertainty", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error at /params/seed: 'seed' is read only together with 'n_samples'")


@pytest.mark.parametrize(
    "base, path, value, pointer",
    [
        ("map", COUPLING_ENV + ("op_environment",), mat(np.eye(3)), "/couplings/0/op_environment"),
        ("map", COUPLING_ENV + ("op_system",), mat(np.eye(3)), "/couplings/0/op_system"),
        ("map", COUPLING_ENV + ("op_system",), mat([[0, 1], [0, 0]]), "/couplings"),
        ("map", ("env_init", "density"), mat(np.zeros((2, 2))), "/env_init/density"),
        ("map", ("env_init", "density"), mat(np.eye(3) / 3), "/env_init/density"),
        ("compose", COUPLING_AB + ("op_b",), mat(np.eye(3)), "/composite/couplings/0/op_b"),
        (
            "uncertainty",
            ("params",),
            {"device_k": "X", "device_l": "Z", "t": 1.5e308, "dt": 1e308, "n_samples": 50},
            "/params/dt",
        ),
        ("zx", ("devices", 0, "outcomes"), ["+", "-", "0"], "/devices/0"),
        (
            "coarse",
            ("schedule", "entries", 0, "resolution", "labels"),
            ["any", "all"],
            "/schedule/entries/0/resolution",
        ),
        ("markov", ("params", "times"), [1.1, 0.5], "/params/times/1"),
        ("zeno", ("params", "T"), -1, "/params/T"),
        ("coarse", ("params", "position"), 2, "/params/position"),
        # every entry is finite, but the largest eigenvalue, 2e308, is not
        ("zx", ("system", "hamiltonian"), mat(np.full((2, 2), 1e308)), "/system/hamiltonian"),
        # ||H||^3 and ||H||^4 in the decay rate's self-check bounds overflow
        ("zeno", ("system", "hamiltonian"), mat(1e154 * SX), "/system/hamiltonian"),
        ("zx", DEV0, {"name": "X", "observable": mat(SX), "outcomes": ["+", "-"]}, "/devices/0"),
        ("zx", ("devices", 1, "name"), "X", "/devices/1/name"),
        ("zx", DEV0 + ("outcomes",), DELETE, "/devices/0"),
        ("zx", DEV0, {"name": "X"}, "/devices/0"),
        ("zx", ("init",), {"density": mat(UP), "maximally_mixed": True}, "/init"),
        ("zx", ("init",), {"time": 0.0}, "/init"),
        (
            "zx",
            ("init",),
            {"weights": [{"device": "Q", "outcome": "u", "weight": 1.0}]},
            "/init/weights/0/device",
        ),
        ("zeno", ("params", "device"), "Q", "/params/device"),
        ("cointerference", ("composite", "couplings"), [{"op_a": mat(SZ), "op_b": mat(SZ)}], "/params/bi_a"),
        # the joint Hamiltonian's eigenvalues are +-1e308: the phase at time 2.0 is not finite
        ("compose", COUPLING_AB + ("strength",), 1e308, "/composite/a/schedule/entries/1/time"),
        ("compose", COUPLING_AB + ("strength",), -1e308, "/composite/a/schedule/entries/1/time"),
    ],
    ids=[
        "op_environment-shape",
        "op_system-shape",
        "not-hermitian",
        "zero-density",
        "density-shape",
        "compose-op_b-shape",
        "t-plus-dt-overflows",
        "outcomes-vs-projectors",
        "labels-vs-blocks",
        "markov-times-out-of-order",
        "zeno-negative-T",
        "position-past-the-schedule",
        "hamiltonian-spectrum-overflows",
        "zeno-rate-bounds-overflow",
        "observable-and-outcomes",
        "duplicate-device",
        "projectors-without-outcomes",
        "device-without-a-form",
        "init-with-two-forms",
        "init-with-only-a-time",
        "init-weight-on-an-unknown-device",
        "unknown-params-device",
        "co-interference-with-couplings",
        "compose-coupling-phase-overflows",
        "compose-negative-coupling-phase-overflows",
    ],
)
def test_meaning_errors_carry_a_pointer(tmp_path, capsys, base, path, value, pointer):
    cfg = _mutated(PINNED_BASES[base], path, value)
    code = main([cfg["command"], "--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert f"config error at {pointer}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "base, path, value",
    [("markov", ("params", "times"), [0.5, 0.5, 1.1]), ("zeno", ("params", "T"), 0)],
    ids=["markov-equal-times", "zeno-zero-T"],
)
def test_the_edges_of_those_meaning_errors_still_run(tmp_path, base, path, value):
    cfg = _mutated(PINNED_BASES[base], path, value)
    code, _, _ = run(tmp_path, cfg["command"], cfg)
    assert code == 0


# ---------------------------------------------------------------------------
# one time rule for every schedule: times are non-decreasing and none is before
# the init time; equal times are back-to-back readouts


def _retimed(base: str, times: list, init_time: float | None = None) -> dict:
    cfg = json.loads(json.dumps(PINNED_BASES[base]))
    for entry, t in zip(cfg["schedule"]["entries"], times):
        entry["time"] = t
    if init_time is not None:
        cfg["init"]["time"] = init_time
    return cfg


@pytest.mark.parametrize(
    "base, times, init_time",
    [
        ("zx", [1.0, 1.0], None),
        ("zx", [1.0, 2.0], 1.0),
        ("table", [1.0, 1.0], None),
        ("classical", [0.0, 0.0], None),
        ("coarse", [1.0, 1.0], None),
        ("coarse", [1.0, 1.0], 1.0),
        ("sample", [2.0, 2.0], 2.0),
    ],
    ids=[
        "verify-equal",
        "verify-first-at-t0",
        "table-equal",
        "classical-equal-at-zero",
        "coarse-equal-with-pair",
        "coarse-all-at-t0-with-pair",
        "sample-all-at-t0",
    ],
)
def test_equal_times_and_a_first_time_at_t0_run(tmp_path, base, times, init_time):
    # under H = 0 no readout depends on its time, so every result but the digests is the base's
    cfg = _retimed(base, times, init_time)
    (tmp_path / "retimed").mkdir()
    code, report, _ = run(tmp_path / "retimed", cfg["command"], cfg)
    assert code == 0
    _, expected, _ = run(tmp_path, cfg["command"], PINNED_BASES[base])

    def undigested(results):
        return {k: v for k, v in results.items() if not k.endswith("_digest")}

    assert undigested(report["results"]) == undigested(expected["results"])
    assert report["checks"] == expected["checks"]


def test_sample_reports_a_coverage_past_the_guard_and_exits_zero(tmp_path, monkeypatch):
    # two readouts of a 64-outcome observable: 64^2 cells of 64^2 leaf entries
    # each are past the default cap, so only the coverage check is left out
    monkeypatch.delenv("BITRAJ_MAX_TABLE", raising=False)
    dim = 64
    cfg = {
        "schema_version": 1,
        "command": "sample",
        "system": {"dim": dim, "hamiltonian": mat(np.zeros((dim, dim)))},
        "devices": [{"name": "N", "observable": mat(np.diag(np.arange(dim)))}],
        "schedule": {"entries": [{"time": 1.0, "device": "N"}, {"time": 2.0, "device": "N"}]},
        "params": {"n_samples": 20, "seed": 1},
    }
    code, report, out = run(tmp_path, "sample", cfg)
    assert code == 0
    results = report["results"]
    assert results["coverage_skipped"] == (
        f"enumeration size {dim**4} exceeds the guard 10000000; "
        "raise BITRAJ_MAX_TABLE if this is intended"
    )
    assert "fraction_within_4sigma" not in results
    assert report["checks"] == []
    run_blob = json.loads((out / "run.json").read_text())
    assert sum(c["count"] for c in run_blob["counts"]) == 20


def _coverage_cell_by_cell(system, schedule, run) -> tuple[float, float]:
    """The sample verb's coverage, one cell at a time: the fraction within 4 sigma
    and the largest frequency of a zero-probability cell."""
    from bitraj.engine import chain_probabilities
    from bitraj.lab import empirical_distribution

    dist = empirical_distribution(run)
    probs = chain_probabilities(system, schedule.init, [(t, d.projectors) for t, d in schedule.entries])
    worst_zero, within, checked = 0.0, 0, 0
    cells = itertools.product(*(dev.outcomes for dev in schedule.devices))
    for seq, p in zip(cells, probs.tolist()):
        p_hat = dist.probabilities.get(seq, 0.0)
        if p <= 1e-300 and p_hat > 0.0:
            worst_zero = max(worst_zero, p_hat)
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) / run.n_samples)
        if p > 1e-300:
            checked += 1
            if abs(p_hat - p) <= 4.0 * max(sigma, 1e-12):
                within += 1
    return (within / checked if checked else 1.0), worst_zero


QUTRIT_OBS = np.diag([0.0, 1.0, 2.0])
SAMPLE_CASES = {
    "zx": PINNED_BASES["sample"],
    "zz-zero-cell-hit": _mutated(PINNED_BASES["sample"], ("schedule", "entries", 0, "device"), "Z"),
    "qutrit": {
        "schema_version": 1,
        "command": "sample",
        "system": {"dim": 3, "hamiltonian": mat(np.array([[0, 1, 0.3j], [1, 0.5, 0], [-0.3j, 0, -1]]))},
        "devices": [{"name": "N", "observable": mat(QUTRIT_OBS)}],
        "schedule": {"entries": [{"time": 0.3 * (j + 1), "device": "N"} for j in range(3)]},
        "params": {"n_samples": 40, "seed": 5},
    },
}


@pytest.mark.parametrize("case", sorted(SAMPLE_CASES))
def test_sample_coverage_matches_the_cell_by_cell_count(tmp_path, monkeypatch, case):
    from bitraj import lab

    seen = []
    sampled = lab.sample_sequences

    def recorded(system, schedule, n_samples, seed):
        run = sampled(system, schedule, n_samples, seed)
        if case == "zz-zero-cell-hit":  # Z twice on |u>: move 3 counts to the null cell (d, u)
            counts = dict(run.counts)
            counts[("u", "u")] -= 3
            counts[("d", "u")] = 3
            run = lab.SampleRun(run.schedule_digest, run.seed, run.n_samples, counts)
        seen.append((system, schedule, run))
        return run

    monkeypatch.setattr(lab, "sample_sequences", recorded)
    code, report, _ = run(tmp_path, "sample", SAMPLE_CASES[case])
    fraction, worst_zero = _coverage_cell_by_cell(*seen[0])
    assert report["results"]["fraction_within_4sigma"] == fraction
    (check,) = report["checks"]
    assert check["name"] == "zero_probability_cells_hit"
    assert check["value"] == worst_zero
    assert code == (1 if worst_zero > 0 else 0)


QUTRIT_ZENO = dict(
    PINNED_BASES["zeno"],
    system={"dim": 3, "hamiltonian": mat(np.zeros((3, 3)))},
    devices=[
        {
            "name": "C",
            "outcomes": ["a", "bc"],
            "projectors": [mat(np.diag([1.0, 0, 0])), mat(np.diag([0, 1.0, 1.0]))],
        }
    ],
    params={"device": "C", "outcome": "a", "T": 1.0, "n_list": [1, 10]},
)
COARSE_AT_Z = {"outcomes": ["any", "u"], "pair": ["u", "d"], "position": 1}
BI_B = ("params", "bi_b")
LABEL_BASES = dict(PINNED_BASES, qutrit_zeno=QUTRIT_ZENO)


@pytest.mark.parametrize(
    "base, path, value, message",
    [
        ("coarse", ("params", "outcomes", 0), "zz", "/params/outcomes/0: device 'X|any' has no"),
        ("coarse", ("params", "outcomes", 1), "zz", "/params/outcomes/1: device 'Z' has no"),
        ("coarse", ("params", "pair", 1), "zz", "/params/pair/1: device 'X' has no"),
        ("cointerference", BI_A + ("plus", 0), "zz", "/params/bi_a/plus/0: device 'X' has no"),
        ("cointerference", BI_A + ("minus", 0), "zz", "/params/bi_a/minus/0: device 'X' has no"),
        ("cointerference", BI_B + ("plus", 0), "zz", "/params/bi_b/plus/0: device 'Z' has no"),
        ("cointerference", BI_B + ("minus", 0), "zz", "/params/bi_b/minus/0: device 'Z' has no"),
        ("cointerference", BI_B + ("minus",), ["u", "u"], "/params/bi_b/minus: 2 readouts"),
        ("zeno", ("params", "outcome"), "zz", "/params/outcome: device 'Z' has no"),
        ("markov", W0 + ("outcome",), "zz", "/init/weights/0/outcome: device 'Z' has no"),
        ("qutrit_zeno", ("params", "outcome"), "bc", "/params/outcome: survival scans need"),
    ],
    ids=[
        "coarse-outcome-0",
        "coarse-outcome-1",
        "coarse-pair-1",
        "bi_a-plus-0",
        "bi_a-minus-0",
        "bi_b-plus-0",
        "bi_b-minus-0",
        "bi_b-minus-length",
        "zeno-outcome",
        "markov-init-outcome",
        "zeno-rank-two-outcome",
    ],
)
def test_an_unusable_label_exits_two_at_its_pointer(tmp_path, capsys, base, path, value, message):
    cfg = _mutated(LABEL_BASES[base], path, value)
    code = main([cfg["command"], "--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert f"config error at {message}" in capsys.readouterr().err


def test_the_qutrit_zeno_base_runs(tmp_path):
    assert run(tmp_path, "zeno", QUTRIT_ZENO)[0] == 0


def test_a_coarse_readout_beside_the_pair_is_read_coarse(tmp_path):
    from bitraj import Device, Schedule, State, SystemSpec, interference_term
    from bitraj.coarse import Resolution, coarse_device

    cfg = _mutated(PINNED_BASES["coarse"], ("params",), COARSE_AT_Z)
    code, report, _ = run(tmp_path, "coarse", cfg)
    assert code == 0 and report["ok"] is True
    dev_x = Device(name="X", outcomes=("+", "-"), projectors=(PX, MX))
    dev_z = Device(name="Z", outcomes=("u", "d"), projectors=(UP, DN))
    # the X entry carries its "any" block; the pair's own Z entry is read fine
    any_x = coarse_device(dev_x, Resolution(dev_x, (("+", "-"),), ("any",)))
    mixed = Schedule(entries=((1.0, any_x), (2.0, dev_z)), init=State(UP))
    free = SystemSpec(dim=2, hamiltonian=np.zeros((2, 2)))
    term = interference_term(free, mixed, 1, ("u", "d"), ("any", "u"))
    assert report["results"]["pair_interference"] == {
        "from_biprob": term.from_biprob,
        "from_probabilities": term.from_probabilities,
    }


def test_a_failed_self_check_reports_its_gap_and_bound(tmp_path, monkeypatch):
    from bitraj import coarse

    monkeypatch.setattr(coarse, "biprob", lambda *a: complex(0.5))  # the route reads 0.25
    code, report, _ = run(tmp_path, "coarse", PINNED_BASES["coarse"])
    assert code == 1 and report["ok"] is False
    (check,) = [c for c in report["checks"] if not c["pass"]]
    assert check["name"] == "internal_consistency"
    assert math.isfinite(check["value"]) and check["value"] > check["bound"] == 1e-10
    assert check["message"].startswith("interference routes disagree: 0.5 vs 0.25")


@pytest.mark.parametrize(
    "base, path, pointer",
    [
        ("zx", ("schedule", "entries", 1, "time"), "/schedule/entries/1/time"),
        ("classical", ("schedule", "entries", 1, "time"), "/schedule/entries/1/time"),
        ("sample", ("schedule", "entries", 1, "time"), "/schedule/entries/1/time"),
        ("markov", ("params", "times", 1), "/params/times/1"),
        ("markov", ("init", "time"), "/init/time"),
        ("zeno", ("params", "T"), "/params/T"),
        ("uncertainty", ("params", "t"), "/params/t"),
        ("map", ("params", "t"), "/params/t"),
    ],
    ids=["verify", "classical", "sample", "markov", "markov-init", "zeno", "uncertainty", "map"],
)
def test_a_phase_past_float_range_exits_two_at_its_time(tmp_path, capsys, base, path, pointer):
    # with H = 4 sigma_x, 1.7e308 * 4 overflows the phase of exp(-i t H)
    cfg = _mutated(PINNED_BASES[base], ("system", "hamiltonian"), mat(4 * SX))
    code = main([cfg["command"], "--config", write_config(tmp_path, _mutated(cfg, path, 1.7e308))])
    assert code == 2
    assert f"config error at {pointer}: exp(-i s H) at s = 1.7e+308" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# each verb takes only the keys it reads: a key another verb reads is rejected


# verb: (its pinned base, a top-level block it does not read, a params key it does not read)
UNREAD = {
    "table": ("table", "environment", "T"),
    "verify": ("zx", "environment", "n_samples"),
    "coarse": ("coarse", "composite", "seed"),
    "compose": ("cointerference", "devices", "pair"),
    "markov": ("markov", "schedule", "outcome"),
    "zeno": ("zeno", "init", "times"),
    "uncertainty": ("uncertainty", "init", "outcomes"),
    "map-compare": ("map", "devices", "seed"),
    "sample": ("sample", "env_init", "threshold"),
    "classical": ("classical", "couplings", "n_samples"),
}
# a value the verbs that read the key take
FOREIGN = {
    "devices": [DEV_Z],
    "init": {"maximally_mixed": True},
    "schedule": ZX_BASE["schedule"],
    "composite": PINNED_BASES["compose"]["composite"],
    "environment": {"dim": 2, "hamiltonian": ZERO2},
    "couplings": [],
    "env_init": {"density": mat(np.eye(2) / 2)},
    "T": 1.0,
    "n_samples": 50,
    "seed": 3,
    "pair": ["+", "-"],
    "outcome": "u",
    "times": [0.5, 1.0],
    "outcomes": ["u"],
    "threshold": 1e-8,
}


@pytest.mark.parametrize("in_params", [False, True], ids=["block", "params"])
@pytest.mark.parametrize("verb", VERBS)
def test_unread_key_is_rejected(tmp_path, capsys, verb, in_params):
    base, block, param = UNREAD[verb]
    assert PINNED_BASES[base]["command"] == verb
    path, parent = (("params", param), "/params") if in_params else ((block,), "/")
    cfg = _mutated(PINNED_BASES[base], path, FOREIGN[path[-1]])
    code = main([verb, "--config", write_config(tmp_path, cfg)])
    assert code == 2
    assert f"config error at {parent}: unknown key {path[-1]!r}" in capsys.readouterr().err


# keys a verb cannot run without: the shape reports each one by name
MISSING_REQUIRED = [
    ("zx", ("devices",)),
    ("zx", ("schedule",)),
    ("table", ("devices",)),
    ("classical", ("schedule",)),
    ("coarse", ("params",)),
    ("coarse", ("params", "outcomes")),
    ("sample", ("params", "n_samples")),
    ("compose", ("composite",)),
    ("markov", ("init",)),
    ("markov", ("init", "weights")),
    ("markov", ("params", "device")),
    ("markov", ("params", "times")),
    ("zeno", ("devices",)),
    ("zeno", ("params", "device")),
    ("zeno", ("params", "outcome")),
    ("zeno", ("params", "T")),
    ("zeno", ("params", "n_list")),
    ("uncertainty", ("devices",)),
    ("uncertainty", ("params", "device_k")),
    ("uncertainty", ("params", "device_l")),
    ("map", ("environment",)),
    ("map", ("env_init",)),
    ("map", ("params", "t")),
    ("map", ("params", "slices")),
]


@pytest.mark.parametrize(
    "base, path", MISSING_REQUIRED, ids=[f"{b}:/{'/'.join(p)}" for b, p in MISSING_REQUIRED]
)
def test_missing_required_key_is_named(tmp_path, capsys, base, path):
    cfg = _mutated(PINNED_BASES[base], path, DELETE)
    code = main([cfg["command"], "--config", write_config(tmp_path, cfg)])
    assert code == 2
    parent = "/" + "/".join(path[:-1])
    assert f"config error at {parent}: missing required key {path[-1]!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "base, present, missing",
    [
        ("uncertainty", "dt", "n_samples"),
        ("coarse", "pair", "position"),
        ("coarse", "position", "pair"),
        ("cointerference", "bi_a", "bi_b"),
        ("cointerference", "bi_b", "bi_a"),
    ],
)
def test_lone_partner_key_exits_two(tmp_path, capsys, base, present, missing):
    # these keys are read only next to their partner, so one alone is a config error
    cfg = _mutated(PINNED_BASES[base], ("params", missing), DELETE)
    code, report, _ = run(tmp_path, cfg["command"], cfg)
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert err.startswith(f"config error at /params/{present}: ")
    assert repr(missing) in err


@pytest.mark.parametrize(
    "verb, key", [(verb, key) for verb, (_, _, keys) in _VERB_KEYS.items() for key in keys]
)
def test_each_tolerance_a_verb_takes_bounds_one_of_its_checks(tmp_path, verb, key):
    assert key in DEFAULT_TOLERANCES
    cfg = _mutated(PINNED_BASES[UNREAD[verb][0]], ("tolerances", key), 0.125)
    if verb == "classical":
        cfg["params"]["threshold"] = 1.0  # the ZX table passes as classical, so its check runs
    code, report, _ = run(tmp_path, verb, cfg)
    assert code in (0, 1)
    bounded = [c for c in report["checks"] if c["bound"] == 0.125]
    assert bounded
    # the declared check: its name (a map-compare name is filled with a slice count)
    # and its comparator
    name, comparator = _VERB_KEYS[verb][2][key]
    names = {name.format(n) for n in cfg.get("params", {}).get("slices", [None])}
    assert all(c["name"] in names and c["comparator"] == comparator for c in bounded)


def test_every_tolerance_but_the_classical_threshold_is_taken():
    taken = {key for _, _, keys in _VERB_KEYS.values() for key in keys}
    assert taken == set(DEFAULT_TOLERANCES) - {"classical_threshold"}
    assert sum(len(keys) for _, _, keys in _VERB_KEYS.values()) == 17


@pytest.mark.parametrize("verb", VERBS)
def test_force_large_only_where_a_table_is_guarded(tmp_path, capsys, verb):
    # --force-large is gone from every verb: it is a usage error like any unknown option
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, verb, PINNED_BASES[UNREAD[verb][0]], "--force-large")
    assert exc.value.code == 2
    assert "unrecognized arguments: --force-large" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("verb", [v for v in VERBS if v not in ("zeno", "uncertainty")])
def test_guard_hint_names_force_large_only_where_it_lifts_the_guard(
    tmp_path, capsys, monkeypatch, verb
):
    # no verb names a flag: every guard is lifted by raising BITRAJ_MAX_TABLE alone
    monkeypatch.setenv("BITRAJ_MAX_TABLE", "1")
    cfg = PINNED_BASES[UNREAD[verb][0]]
    code, report, _ = run(tmp_path, verb, cfg)
    if verb == "sample":  # the coverage check records the guard's refusal and the run goes on
        assert code == 0
        skipped = report["results"]["coverage_skipped"]
        assert skipped.endswith("exceeds the guard 1; raise BITRAJ_MAX_TABLE if this is intended")
    else:
        assert code == 2
        assert report is None
        guard = json.loads(capsys.readouterr().err)
        assert guard["error"] == "table-size-guard"
        assert guard["limit"] == 1
        assert guard["hint"] == "raise BITRAJ_MAX_TABLE"
    monkeypatch.delenv("BITRAJ_MAX_TABLE")
    assert run(tmp_path, verb, cfg)[0] == 0


def test_readme_lists_each_verbs_keys():
    # README's per-verb table: verb, top-level blocks, params keys, tolerances keys;
    # "?" marks an optional key (every tolerances key is optional, so none carries it)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| verb | top-level blocks | `params` keys | `tolerances` keys |") + 2
    listed = {}
    for line in itertools.takewhile(lambda l: l.startswith("|"), lines[start:]):
        verb, blocks, params, tols = (
            re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:5]
        )
        listed[verb[0]] = (set(blocks), set(params), set(tols))
    common = {"schema_version", "command", "params", "params?", "tolerances?"}
    shapes = {
        verb: (
            set(shape) - common,
            set(shape.get("params", shape.get("params?"))),
            {key.rstrip("?") for key in shape["tolerances?"]},
        )
        for verb, shape in _CONFIG_SHAPES.items()
    }
    assert listed == shapes
