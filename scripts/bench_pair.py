#!/usr/bin/env python3
"""Paired before/after benchmark: alternate ``perfbench/run.py --trace 0``
between a baseline checkout and this one, and write one BENCH file.

    python3 scripts/bench_pair.py --baseline HEAD~1 --out BENCH_label.json \\
        --workload g1-game --pairs 10 --seconds 10

``--baseline`` is either a directory holding a source checkout or a git
revision, whose tree ``git archive`` then extracts into a temporary
directory that is removed afterwards.  Pair i runs the baseline first when
i is even and this checkout first when it is odd, so a drift of the machine
over the run does not favour one side.  Each run is a fresh
process; a run that exits non-zero, prints no result line or reports
``correct: false`` stops the script.  ``--cpus 0`` (a comma-separated list
of CPU numbers) pins each run and every process it starts to those CPUs.

Each side keeps its bytecode under its own fresh ``PYTHONPYCACHEPREFIX``
directory, with ``PYTHONDONTWRITEBYTECODE`` unset: both sides compile on
their first run and read their cache afterwards, and a ``__pycache__`` left
in either tree is not read.  A side that imports from a cache and one that
compiles differ by about 1 MB of ``peak_rss_mb``.  Each side's environment
record names its prefix.

Next to run.py's own metrics, each run records ``cpu_s``: the user and
system CPU seconds of the run.py process and of every descendant it waited
for (the forked children of the commands, the setup interpreters), as
``os.wait4`` reports them.  It covers the whole run, not one call, so it is
compared at the same ``--seconds`` only; ``calls`` is the number of calls
the run made.  ``max_rss_mb`` is the same call's ``ru_maxrss`` in MB: the
peak resident set of the largest single process of the run's tree, so a
forked child that outgrows the run.py process it belongs to is seen, where
run.py's own ``peak_rss_mb`` reads only that process.

The BENCH file holds the environment record of each side, the command, and
per workload and metric: both sides' median, q1 and q3 (inclusive
quartiles), the ratio of the medians, and in how many pairs this checkout
was better ("wins"), next to every raw run; and the line count of each
side's ``src/switchgame/*.py`` ("src_lines").
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# every one of them is better lower
METRICS = ("wall_s", "setup_s", "peak_rss_mb", "cpu_s", "max_rss_mb")
SIDES = ("baseline", "change")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per metric, each side's median and quartiles, the change's median
    over the baseline's, and the pairs in which the change was lower.

    ``runs`` maps "baseline" and "change" to equally long lists of the
    ``metrics`` objects that perfbench/run.py prints, pair i at index i.
    """
    if len(runs["baseline"]) != len(runs["change"]) or not runs["change"]:
        raise ValueError("need one or more complete pairs")
    out = {}
    for metric in METRICS:
        values = {side: [run[metric]["value"] for run in runs[side]] for side in SIDES}
        entry = {}
        for side in SIDES:
            q1, median, q3 = _quartiles(values[side])
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        entry["ratio"] = entry["change"]["median"] / entry["baseline"]["median"]
        entry["wins"] = sum(c < b for b, c in zip(values["baseline"], values["change"]))
        entry["pairs"] = len(values["change"])
        out[metric] = entry
    return out


def src_lines(checkout: Path) -> int:
    """The line count of the package's modules in ``checkout``, as
    ``wc -l src/switchgame/*.py`` totals it."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "switchgame").glob("*.py"))


@contextmanager
def checkout_of(baseline: str):
    """``baseline`` as a source checkout directory: the directory itself, or
    the tree of a git revision of this repository, which ``git archive``
    extracts into a temporary directory that is removed on exit.  Nothing is
    registered with git, so a killed run leaves no worktree behind."""
    if Path(baseline).is_dir():
        yield Path(baseline).resolve()
        return
    with tempfile.TemporaryDirectory(prefix="bench-baseline-") as tree:
        archive = subprocess.run(["git", "archive", baseline], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        yield Path(tree).resolve()


def fresh_python_env(pycache: str) -> dict:
    """This environment for a child interpreter that keeps its bytecode
    under ``pycache`` and writes it there."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = pycache
    return env


def _run(checkout: Path, workload: str, seed: int, seconds: float,
         cpus: list[int] | None, pycache: str) -> tuple[dict, dict]:
    """run.py's result line, with ``cpu_s`` and ``max_rss_mb`` added to its
    metrics, and its environment record; bytecode goes under ``pycache``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    env = fresh_python_env(pycache)
    with tempfile.TemporaryFile("w+") as stdout, tempfile.TemporaryFile("w+") as stderr:
        proc = subprocess.Popen(command, cwd=checkout, stdout=stdout, stderr=stderr, text=True,
                                preexec_fn=pin, env=env)
        # wait4, not wait: its usage counts the children run.py waited for
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        out, err = stdout.read(), stderr.read()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {workload} exited {proc.returncode}: {err}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} was not correct: {out}")
    result["metrics"]["cpu_s"] = {"value": usage.ru_utime + usage.ru_stime, "unit": "s"}
    # ru_maxrss counts KiB on Linux
    result["metrics"]["max_rss_mb"] = {"value": usage.ru_maxrss / 1024, "unit": "MB"}
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), {})
    return result, env


def bench(baseline: Path, change: Path, workloads: list[str], pairs: int, seed: int,
          seconds: float, cpus: list[int] | None = None) -> dict:
    checkouts = {"baseline": baseline, "change": change}
    doc = {"command": f"perfbench/run.py --seed {seed} --seconds {seconds} --trace 0",
           "cpus": cpus, "environment": {}, "workloads": {},
           "src_lines": {side: src_lines(checkouts[side]) for side in SIDES}}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as caches:
        pycache = {side: os.path.join(caches, side) for side in SIDES}
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            raw = {side: [] for side in SIDES}
            for i in range(pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    result, env = _run(checkouts[side], workload, seed, seconds, cpus,
                                       pycache[side])
                    doc["environment"].setdefault(side,
                                                  {**env, "PYTHONPYCACHEPREFIX": pycache[side]})
                    metrics = result["metrics"]
                    runs[side].append(metrics)
                    raw[side].append({**{m: metrics[m]["value"] for m in METRICS},
                                      "calls": result["attempted"]})
                    print(f"{workload} pair {i} {side}: wall_s {metrics['wall_s']['value']:.3f} "
                          f"cpu_s {metrics['cpu_s']['value']:.1f}", flush=True)
            doc["workloads"][workload] = {"summary": summarize(runs), "runs": raw}
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="a checkout directory or a git revision of this repository")
    parser.add_argument("--baseline-name", default=None,
                        help="how the BENCH file names the baseline (default: --baseline)")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", action="append", required=True,
                        choices=("e1-solve", "e1-solve-large", "g1-game"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=20240811)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--cpus", type=lambda text: [int(c) for c in text.split(",")],
                        default=None, help="pin every run to these CPUs, such as 0 or 0,1")
    args = parser.parse_args(argv)

    with checkout_of(args.baseline) as baseline:
        doc = bench(baseline, ROOT, args.workload, args.pairs, args.seed, args.seconds, args.cpus)
    doc["baseline"] = args.baseline_name or args.baseline
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for workload, entry in doc["workloads"].items():
        for metric, s in entry["summary"].items():
            print(f"{workload:15s} {metric:12s} baseline {s['baseline']['median']:.4f} "
                  f"change {s['change']['median']:.4f} ratio {s['ratio']:.3f} "
                  f"wins {s['wins']}/{s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
