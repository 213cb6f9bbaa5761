#!/usr/bin/env python3
"""Byte-identity check: run one matrix of commands on a baseline checkout and
on this one, and compare everything they print and write.

    python3 scripts/fingerprint.py --baseline HEAD~1 [--out DIR]

``--baseline`` is a checkout directory or a git revision, whose tree ``git
archive`` extracts into a temporary directory (``bench_pair.checkout_of``),
and each side keeps its bytecode under its own fresh
``PYTHONPYCACHEPREFIX``.  Every case of ``MATRIX`` runs ``python -m
switchgame`` in a fresh interpreter on the side's own shipped config,
edited as the case says, with its output directed to one fixed scratch
directory, so that the paths a command prints are the same on both sides.
A side's fingerprint maps each case to its exit code, stdout, stderr and
the sha256 of every file it wrote.

The script exits 0 when the two fingerprints are equal, and 1 at the first
difference in matrix order, which it names.  ``--out`` writes the fingerprints
to ``baseline.json`` and ``change.json`` there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pair import ROOT, SIDES, checkout_of, fresh_python_env  # noqa: E402

SHIPPED = ("e0_heat", "e1_equality_2x2", "e1_separated_2x2", "e5_oracle_2x2", "g1_game_2x2",
           "fail_consistency", "fail_nonseparated", "fail_triangle", "fail_zero_cost_loop")
# name -> (subcommand arguments, config, edits of the config's top-level
# sections, CPUs the command is pinned to or None)
MATRIX = {
    **{f"validate-{config}": (["validate"], config, {}, None) for config in SHIPPED},
    # player-2 costs of t and x: cost non-negativity and the triangle fail
    # with witness values that vary over the sample lattice
    "validate-fail_triangle-tx": (["validate"], "fail_triangle", {"costs": {"player2": {
        "1->2": "0.5 + 0.5*x", "2->1": "1 - t*x", "2->3": "1 + 0.2*sin(3*x)", "3->2": "1",
        "1->3": "2 + t*x", "3->1": "3 - 0.25*x^2"}}}, None),
    "solve-e0": (["solve"], "e0_heat", {}, None),
    "solve-e1": (["solve"], "e1_equality_2x2", {}, None),
    "solve-e1-minmax": (["solve", "--system", "minmax"], "e1_equality_2x2", {}, None),
    "solve-e1-maxmin": (["solve", "--system", "maxmin"], "e1_equality_2x2", {}, None),
    "solve-e1-601x481": (["solve"], "e1_equality_2x2", {"grid": {"nt": 601, "nx": 481}}, None),
    "solve-e1-separated": (["solve"], "e1_separated_2x2", {}, None),
    "solve-e5": (["solve"], "e5_oracle_2x2", {}, None),
    "oracle-e5": (["oracle"], "e5_oracle_2x2", {}, None),
    "game-g1": (["game"], "g1_game_2x2", {}, None),
    "game-g1-seed7": (["game"], "g1_game_2x2", {"simulation": {"seed": 7}}, None),
    "game-g1-one-cpu": (["game"], "g1_game_2x2", {}, [0]),
    "solve-fail_consistency": (["solve"], "fail_consistency", {}, None),
    "solve-fail_zero_cost_loop": (["solve"], "fail_zero_cost_loop", {}, None),
    "game-fail_nonseparated": (["game"], "fail_nonseparated", {}, None),
    "game-fail_triangle": (["game"], "fail_triangle", {}, None),
}


def run_case(checkout: Path, name: str, run_dir: Path, pycache: str) -> dict:
    """Run case ``name`` on ``checkout`` in the emptied ``run_dir``: its
    exit code, stdout and stderr, and the output files it left there."""
    args, config, edits, cpus = MATRIX[name]
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    doc = json.loads((checkout / "configs" / f"{config}.json").read_text())
    for section, values in edits.items():
        doc[section] = {**doc[section], **values}
    doc["output"] = str(run_dir / "out")
    config_path = run_dir / f"{config}.json"
    config_path.write_text(json.dumps(doc))
    env = fresh_python_env(pycache)
    env["PYTHONPATH"] = str(checkout / "src")
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    done = subprocess.run([sys.executable, "-m", "switchgame", *args, str(config_path)],
                          cwd=run_dir, env=env, capture_output=True, text=True, preexec_fn=pin)
    return {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr}


def file_digests(directory: Path) -> dict:
    """The sha256 of every file under ``directory``, by relative path."""
    return {str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def fingerprint(checkout: Path, cases: list[str], scratch: Path, pycache: str) -> dict:
    result = {}
    for name in cases:
        result[name] = run_case(checkout, name, scratch / "run", pycache)
        result[name]["files"] = file_digests(scratch / "run" / "out")
        print(f"{checkout}: {name} exited {result[name]['exit']}", flush=True)
    return result


def first_difference(baseline: dict, change: dict) -> str | None:
    """The first case, in the baseline's order, whose exit code, stdout,
    stderr or files differ between the two fingerprints, and what differs."""
    for name, old in baseline.items():
        new = change[name]
        for key in ("exit", "stdout", "stderr"):
            if old[key] != new[key]:
                return f"{name}: {key} differs: {old[key]!r} -> {new[key]!r}"
        for path in sorted(old["files"].keys() | new["files"].keys()):
            if old["files"].get(path) != new["files"].get(path):
                return f"{name}: file {path} differs"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="a checkout directory or a git revision of this repository")
    parser.add_argument("--out", type=Path, default=None,
                        help="write baseline.json and change.json into this directory")
    args = parser.parse_args(argv)
    cases = list(MATRIX)

    prints = {}
    with checkout_of(args.baseline) as baseline, \
            tempfile.TemporaryDirectory(prefix="fingerprint-") as scratch:
        checkouts = {"baseline": baseline, "change": ROOT}
        for side in SIDES:
            prints[side] = fingerprint(checkouts[side], cases, Path(scratch),
                                       os.path.join(scratch, f"pycache-{side}"))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for side in SIDES:
            (args.out / f"{side}.json").write_text(json.dumps(prints[side], indent=1) + "\n")
    difference = first_difference(prints["baseline"], prints["change"])
    if difference is not None:
        print(f"fingerprint: {difference}", file=sys.stderr)
        return 1
    print(f"fingerprint: {len(cases)} cases identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
