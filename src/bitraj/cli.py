"""Config-driven command-line runner.

One JSON config file describes the system, the measuring devices, the
schedule and the command to run; the runner validates it strictly against
the keys that command reads (any other key, a device or init that does not
give exactly one of its forms, and a key given without the partner it is read
with, is rejected, bad entries are reported with JSON-pointer locations),
executes the requested computation, and writes a machine-readable
``report.json`` plus per-command CSV artifacts into the output directory.
This module parses the arguments, reads the config, checks its shape and
writes the report, and imports nothing numeric: ``bitraj._verbs``, which
``main`` imports only for a config that passed, loads NumPy and runs the verb.
Each verb's entry in ``_VERB_KEYS`` also declares its checks, the name and
comparator of the check that each of its tolerance keys bounds, so a verb
names a check only by that key.

Exit codes: 0 — every asserted check held; 1 — a check failed (the report
records which); 2 — the config was rejected or a size/dimension guard fired.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Any, Iterator

__all__ = ["main"]

REPORT_SCHEMA_VERSION = 1

# every check's default bound, all echoed in report.json; ``classical_threshold``
# is the default of the classical verb's ``params.threshold``
DEFAULT_TOLERANCES = {
    "normalization": 1e-8,
    "biconsistency": 1e-10,
    "causality": 1e-12,
    "hermitianity": 1e-10,
    "gram_min": -1e-10,
    "diagonal_negativity": 1e-10,
    "pairwise": 1e-9,
    "interference_routes": 1e-10,
    "factorization": 1e-9,
    "markov": 1e-10,
    "uncertainty_stochastic": 1e-10,
    "map_tp": 1e-8,
    "map_choi_min": -1e-9,
    "map_residual_slack": 1e-12,
    "map_cross_check": 1e-10,
    "classical_consistency": 1e-9,
    "classical_threshold": 1e-8,
}


class CliError(Exception):
    """Fatal configuration, usage or guard problem: the process exits 2."""


@contextlib.contextmanager
def _config_error(where: str) -> Iterator[None]:
    """Re-raise a ``ValueError`` of the body as ``config error at <where>: <message>``."""
    try:
        yield
    except ValueError as exc:
        raise CliError(f"config error at {where}: {exc}") from None


# --------------------------------------------------------------------------
# config shape

# A shape is a leaf name from ``_LEAVES``; ``[item, min_len, max_len]`` for an
# array (``max_len`` None: unbounded); or a dict of key -> shape for an object,
# where a key ending in ``?`` is optional and any key not listed is rejected.
# An object's ``"|"`` entry lists its forms, groups of its optional keys: the
# object gives exactly one group, whole, and no key of another.
_LABEL = "a label (string, number or boolean)"


def _number(x) -> bool:
    """An int or float within float range: ``json.load`` also yields NaN, infinities
    and integers too large for ``float()``."""
    big = sys.float_info.max
    return isinstance(x, (int, float)) and not isinstance(x, bool) and -big <= x <= big


def _integer(x) -> bool:
    return _number(x) and (isinstance(x, int) or x.is_integer())


_LEAVES = {
    "a number": _number,
    "a number >= 0": lambda x: _number(x) and not x < 0,
    "an integer >= 0": lambda x: _integer(x) and not x < 0,
    "an integer >= 1": lambda x: _integer(x) and not x < 1,
    "a string": lambda x: isinstance(x, str),
    "a boolean": lambda x: isinstance(x, bool),
    "true": lambda x: x is True,
    _LABEL: lambda x: isinstance(x, (str, bool)) or _number(x),
    "schema version 1": lambda x: _number(x) and x == 1,
}
_MATRIX = [[["a number", 2, 2], 1, None], 1, None]  # rows of [re, im] pairs
_LABELS = [_LABEL, 1, None]
_SYSTEM = {"dim": "an integer >= 1", "hamiltonian": _MATRIX}
_DEVICE = {
    "name": "a string",
    "observable?": _MATRIX,
    "outcomes?": _LABELS,
    "projectors?": [_MATRIX, 1, None],
    "|": (("observable",), ("outcomes", "projectors")),
}
_DEVICES = [_DEVICE, 1, None]
_RESOLUTION = {"blocks": [_LABELS, 1, None], "labels?": [_LABEL, 0, None]}
_SCHEDULE = {
    "entries": [{"time": "a number", "device": "a string", "resolution?": _RESOLUTION}, 1, None]
}
_WEIGHTS = [{"device": "a string", "outcome": _LABEL, "weight": "a number"}, 1, None]
_INIT = {
    "density?": _MATRIX,
    "maximally_mixed?": "true",
    "weights?": _WEIGHTS,
    "time?": "a number",
    "|": (("density",), ("weights",), ("maximally_mixed",)),
}
_FACTOR = {"system": _SYSTEM, "devices": _DEVICES, "schedule": _SCHEDULE, "init?": _INIT}
_BI = {"plus": _LABELS, "minus": _LABELS}

# verb -> (the top-level blocks it reads, the ``params`` keys it reads, its
# checks); a block or ``params`` key without ``?`` is required.  The checks map
# each ``tolerances`` key the verb reads, all optional, to the name and the
# comparator of the check whose bound it sets; ``{}`` in a name takes the
# slice count of map-compare's per-slice checks.  The compose verb reads no
# top-level ``system``, but its configs have always carried one, so it stays
# required.
_VERB_KEYS = {
    "table": (_FACTOR, {}, {"hermitianity": ("hermitianity", "<=")}),
    "verify": (
        _FACTOR,
        {},
        {
            "normalization": ("normalization", "<="),
            "biconsistency": ("biconsistency", "<="),
            "causality": ("causality", "<="),
            "hermitianity": ("hermitianity", "<="),
            "gram_min": ("gram_min_eigenvalue", ">="),
            "diagonal_negativity": ("diagonal_negativity", "<="),
        },
    ),
    "coarse": (
        _FACTOR,
        {"outcomes": [_LABEL, 0, None], "pair?": [_LABEL, 2, 2], "position?": "an integer >= 0"},
        {
            "pairwise": ("pairwise_recurrence", "<="),
            "interference_routes": ("interference_routes", "<="),
        },
    ),
    "compose": (
        {
            "system": _SYSTEM,
            "composite": {
                "a": _FACTOR,
                "b": _FACTOR,
                "couplings?": [
                    {"op_a": _MATRIX, "op_b": _MATRIX, "strength?": "a number"}, 0, None
                ],
            },
        },
        {"bi_a?": _BI, "bi_b?": _BI},
        {"factorization": ("factorization", "<=")},
    ),
    "markov": (
        {
            "system": _SYSTEM,
            "devices": _DEVICES,
            "init": {"weights": _WEIGHTS, "time?": "a number"},
        },
        {"device": "a string", "times": ["a number", 2, None]},
        {"markov": ("markov_factorization", "<=")},
    ),
    "zeno": (
        {"system": _SYSTEM, "devices": _DEVICES},
        {
            "device": "a string",
            "outcome": _LABEL,
            "T": "a number >= 0",
            "n_list": ["an integer >= 1", 1, None],
        },
        {},
    ),
    "uncertainty": (
        {"system": _SYSTEM, "devices": _DEVICES},
        {
            "device_k": "a string",
            "device_l": "a string",
            "t?": "a number",
            "dt?": "a number >= 0",
            "n_samples?": "an integer >= 1",
            "seed?": "an integer >= 0",
        },
        {"uncertainty_stochastic": ("doubly_stochastic", "<=")},
    ),
    "map-compare": (
        {
            "system": _SYSTEM,
            "environment": _SYSTEM,
            "couplings?": [
                {"op_system": _MATRIX, "op_environment": _MATRIX, "strength?": "a number"}, 0, None
            ],
            "env_init": {"density": _MATRIX},
        },
        {"t": "a number", "slices": ["an integer >= 1", 1, None], "cross_check?": "a boolean"},
        {
            "map_tp": ("tp_error_slices_{}", "<="),
            "map_choi_min": ("choi_min_slices_{}", ">="),
            "map_residual_slack": ("residual_refinement", "<="),
            "map_cross_check": ("enumeration_vs_transfer", "<="),
        },
    ),
    "sample": (_FACTOR, {"n_samples": "an integer >= 1", "seed?": "an integer >= 0"}, {}),
    "classical": (
        _FACTOR,
        {"threshold?": "a number"},
        {"classical_consistency": ("kolmogorov_consistency", "<=")},
    ),
}
VERBS = tuple(_VERB_KEYS)


def _config_shape(verb: str, blocks: dict, params: dict, checks: dict) -> dict:
    """The whole config shape of ``verb``, with a new ``command`` leaf that admits only ``verb``."""
    command = f"{verb!r}, the verb on the command line"
    _LEAVES[command] = lambda x: x == verb
    params_key = "params?" if all(key.endswith("?") for key in params) else "params"
    return {
        "schema_version": "schema version 1",
        "command": command,
        **blocks,
        params_key: params,
        "tolerances?": {key + "?": "a number" for key in checks},
    }


_CONFIG_SHAPES = {verb: _config_shape(verb, *keys) for verb, keys in _VERB_KEYS.items()}

# verb -> ``params`` key -> the key without which it is not read, in checking order
_PARTNERS = {
    "coarse": {"pair": "position", "position": "pair"},
    "compose": {"bi_a": "bi_b", "bi_b": "bi_a"},
    "uncertainty": {"dt": "n_samples", "seed": "n_samples"},
}


def _shaped(value: Any, shape: Any, ptr: str, errors: list[str]) -> Any:
    """A copy of ``value`` with every integer leaf made an ``int`` (``2.0`` -> ``2``).

    Appends ``<pointer>: <problem>`` to ``errors`` for every place ``value``
    breaks ``shape``; the copy is meaningful only when none was appended.
    """
    at = ptr or "/"
    if isinstance(shape, str):
        if not _LEAVES[shape](value):
            errors.append(f"{at}: expected {shape}, got {value!r}")
            return value
        return int(value) if shape.startswith("an integer") else value
    if isinstance(shape, list):
        item, lo, hi = shape
        if not isinstance(value, list):
            errors.append(f"{at}: expected an array, got {value!r}")
            return value
        if len(value) < lo or (hi is not None and len(value) > hi):
            want = f"at least {lo}" if hi is None else f"{lo}" if lo == hi else f"{lo} to {hi}"
            errors.append(f"{at}: expected {want} items, got {len(value)}")
        return [_shaped(v, item, f"{ptr}/{i}", errors) for i, v in enumerate(value)]
    if not isinstance(value, dict):
        errors.append(f"{at}: expected an object, got {value!r}")
        return value
    out = dict(value)  # keeps the config's key order
    fields = {key.rstrip("?"): (key.endswith("?"), sub) for key, sub in shape.items() if key != "|"}
    for key, (optional, sub) in fields.items():
        if key in value:
            out[key] = _shaped(value[key], sub, f"{ptr}/{key}", errors)
        elif not optional:
            errors.append(f"{at}: missing required key {key!r}")
    forms = shape.get("|", ())
    given = [form for form in forms if any(key in value for key in form)]
    if forms and (len(given) != 1 or not all(key in value for key in given[0])):
        names = ["+".join(map(repr, form)) for form in forms]
        errors.append(f"{at}: give exactly one of {', '.join(names[:-1])} or {names[-1]}")
    for key in value:
        if key not in fields:
            errors.append(f"{at}: unknown key {key!r}")
    return out


def _validate_schema(cfg: Any, verb: str) -> dict:
    """Reject ``cfg`` unless it fits ``verb``'s shape and has no ``params`` key without its
    partner; returns it with integer leaves as ints."""
    errors: list[str] = []
    cfg = _shaped(cfg, _CONFIG_SHAPES[verb], "", errors)
    if errors:
        raise CliError("\n".join(f"config error at {e}" for e in errors))
    params = cfg.get("params", {})
    for key, partner in _PARTNERS.get(verb, {}).items():
        if key in params and partner not in params:
            raise CliError(
                f"config error at /params/{key}: {key!r} is read only together with "
                f"{partner!r}, which is missing"
            )
    return cfg


# --------------------------------------------------------------------------
# checks

def _check(name: str, value: float, bound: float, comparator: str) -> dict:
    """A check of ``value <= bound`` (comparator ``"<="``) or ``value >= bound``; NaN fails."""
    value, bound = float(value), float(bound)
    return {
        "name": name,
        "value": value,
        "bound": bound,
        "comparator": comparator,
        "pass": value <= bound if comparator == "<=" else value >= bound,
    }


# --------------------------------------------------------------------------
# entry point

# the thread-count variables OpenBLAS reads when NumPy loads
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _one_blas_thread() -> None:
    """Let OpenBLAS start one thread, unless NumPy is loaded or the caller chose a count.

    A verb's matrices are small, and a fresh pool of OpenBLAS workers costs a
    CLI call more to start (its threads spin-wait) than it saves.
    """
    if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _json_ready(obj: Any) -> Any:
    import numpy as np  # a report is written after the verb, which loaded it

    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bitraj",
        description="Multi-time measurement statistics from a JSON experiment config.",
    )
    parser.add_argument("verb", choices=VERBS, help="command to run")
    parser.add_argument("--config", required=True, help="path to the JSON config file")
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise CliError(f"config is not valid JSON: {exc}") from None

        written, cfg = cfg, _validate_schema(cfg, args.verb)

        tolerances = dict(DEFAULT_TOLERANCES)
        tolerances.update(cfg.get("tolerances", {}))

        _one_blas_thread()
        from ._verbs import run
        from .serialize import canonical_digest

        ctx = run(args.verb, cfg, tolerances)

        ok = all(c["pass"] for c in ctx.checks)
        report = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "command": args.verb,
            "config_digest": canonical_digest(written),
            "tolerances": tolerances,
            "results": _json_ready(ctx.results),
            "checks": _json_ready(ctx.checks),
            "ok": ok,
        }
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        for name, content in ctx.artifacts.items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
                if callable(content):  # a writer that streams the artifact
                    content(fh)
                else:
                    fh.write(content)
        return 0 if ok else 1
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    # ``python -m bitraj.cli`` runs this file as ``__main__``, a second copy of
    # the module; the verbs raise ``bitraj.cli.CliError``, which only the
    # importable module's ``main`` catches
    from bitraj.cli import main

    sys.exit(main())
