import json
import math

import numpy as np
import pytest

from bitraj.cli import main

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
    code, report, out = run(tmp_path, "sample", cfg, "--threads", "2")
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
    assert (out / "classical.csv").exists()


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


def test_bad_threads(tmp_path):
    cfg = dict(ZX_BASE, command="sample")
    cfg["params"] = {"n_samples": 10}
    code = main(
        ["sample", "--config", write_config(tmp_path, cfg), "--threads", "0"]
    )
    assert code == 2


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
    # --force-large lifts it
    code = main(["verify", "--config", cfg_path, "--out", str(out), "--force-large"])
    assert code == 0


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
