"""Replay CLI calls on two ``src/`` trees and report every byte that differs.

Usage: ``python tests/replay.py OLD_SRC NEW_SRC [--seeds 0 7]``

Each call of perfbench's ``cli_configs`` at the given seeds runs as
``python -m bitraj.cli`` in a fresh process on each tree, with the same config
file.  The exit code, stderr, ``report.json`` and every other file the call
writes must match byte for byte.  The configs are built once, by this
repository's own ``src/`` and ``perfbench/``, which are imported and not
changed.  Exits 0 when nothing differs and 1 listing each difference.

This is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def perfbench_calls(seeds: list[int]) -> list[tuple[str, str, dict]]:
    """(name, verb, config) of every ``cli_configs`` entry at ``seeds``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import cli_configs

    return [
        (f"seed {seed} {key}", verb, cfg)
        for seed in seeds
        for key, (verb, cfg, _) in cli_configs(seed).items()
    ]


def run_call(src: Path, verb: str, config: Path, out: Path) -> dict[str, bytes]:
    """What ``bitraj <verb>`` on ``src`` leaves: its exit code, its stderr and each file it wrote."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "bitraj.cli", verb, "--config", str(config), "--out", str(out)]
    proc = subprocess.run(argv, env=env, cwd=config.parent, capture_output=True)
    left = {"exit code": str(proc.returncode).encode(), "stderr": proc.stderr}
    if out.is_dir():
        left.update((path.name, path.read_bytes()) for path in sorted(out.iterdir()))
    return left


def differences(old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    out = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            out.append(f"{name}: written only by the old tree")
        elif name not in old:
            out.append(f"{name}: written only by the new tree")
        elif old[name] != new[name]:
            shown = name in ("exit code", "stderr")
            out.append(f"{name}: {old[name]!r} != {new[name]!r}" if shown else f"{name} differs")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="the src/ directory of the old tree")
    parser.add_argument("new", type=Path, help="the src/ directory of the new tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    args = parser.parse_args(argv)
    calls = perfbench_calls(args.seeds)
    found = 0
    with tempfile.TemporaryDirectory(prefix="bitraj-replay-") as tmp:
        for i, (name, verb, cfg) in enumerate(calls):
            config = Path(tmp) / f"{i}" / "config.json"
            config.parent.mkdir()
            config.write_text(json.dumps(cfg))
            old, new = (
                run_call(src.resolve(), verb, config, config.parent / side)
                for side, src in (("old", args.old), ("new", args.new))
            )
            for line in differences(old, new):
                print(f"{name} ({verb}): {line}")
                found += 1
    print(f"{len(calls)} calls replayed, {found} differences", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
