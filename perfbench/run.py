"""End-to-end and per-layer benchmark of the switchgame command line.

    python3 perfbench/run.py --workload e1-solve --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is one command run in-process through
``switchgame.cli.main``, again and again for ``--seconds`` seconds, each
call on a freshly written config with a fresh output directory that is
deleted outside the timed region.  (Rewriting the files of an earlier call in
place took ``e1-solve`` from 0.92 s to 1.1-2.0 s per call on ext4 mounted with
``discard``, 2-core AMD EPYC.)  Every call's exit code and reports are
checked; ``fail_ratio`` is failed calls over attempted ones.

Workloads (why each is here):

* ``e1-solve``: ``solve --system both`` on the shipped E1 config (151x121,
  2x2 modes, 5 penalty levels).  Per-call solver overhead dominates it.
* ``e1-solve-large``: the same problem at 601x481.  16x the nodes of E1, so
  per-call and per-node solver cost can be told apart; output writing is a
  large share.
* ``g1-game``: ``game`` on the shipped G1 config (50k paths x 200 steps) with
  ``simulation.seed`` set to ``--seed``.  Simulation and strategy realization
  do the work; the solver is a small share, so solver changes should not
  move it.

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` alternates traced and untraced calls and
prints the per-layer metrics taken from ``spans.instrument``.  Human-readable
lines (environment, summary with ``fail_ratio``, per-layer table with parent
spans) come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The process exits 2
without a result when the checkout lacks the package or the configs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_SAMPLES = 7
GAP_TOLERANCE = 1e-2  # the E1 acceptance tolerance on the min-max / max-min gap
SOLVE_OUTPUTS = (
    "gap_minmax_maxmin.csv",
    "solve_report_maxmin.json", "solve_report_minmax.json",
    "value_maxmin.csv", "value_maxmin_meta.json",
    "value_minmax.csv", "value_minmax_meta.json",
)
GAME_OUTPUTS = ("game_report.json", "payoffs.csv")


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    grid: dict | None = None
    seeded: bool = False

    def argv(self, config_path: Path) -> list[str]:
        if self.command == "solve":
            return ["solve", str(config_path), "--system", "both"]
        return ["game", str(config_path)]

    def outputs(self) -> tuple[str, ...]:
        return SOLVE_OUTPUTS if self.command == "solve" else GAME_OUTPUTS


WORKLOADS = {
    "e1-solve": Workload("solve", "configs/e1_equality_2x2.json"),
    "e1-solve-large": Workload("solve", "configs/e1_equality_2x2.json",
                               grid={"nt": 601, "nx": 481}),
    "g1-game": Workload("game", "configs/g1_game_2x2.json", seeded=True),
}

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import switchgame.cli
from switchgame.config import load_config
load_config(sys.argv[2])
print(time.perf_counter() - start)
"""


@dataclass
class Call:
    wall_s: float
    problems: list[str]
    traced: bool
    layers: dict = field(default_factory=dict)
    where: dict = field(default_factory=dict)  # metric -> "span <- parent span"


def _config_doc(workload: Workload, seed: int, output: Path) -> dict:
    doc = json.loads((ROOT / workload.config).read_text())
    if workload.grid is not None:
        doc["grid"] = dict(workload.grid)
    if workload.seeded:
        doc["simulation"]["seed"] = seed
    doc["output"] = str(output)
    return doc


def _check_outputs(workload: Workload, out: Path, doc: dict) -> list[str]:
    missing = [name for name in workload.outputs() if not (out / name).is_file()]
    if missing:
        return [f"missing outputs {missing}"]
    problems = []
    if workload.command == "solve":
        # each level's fixed point stops once its residual is below
        # fixed_point_tol, so the sweep is monotone only up to that scale
        # (601x481 gives 1.2e-14 where 151x121 gives exactly 0)
        monotone_tol = doc["penalties"]["fixed_point_tol"]
        for system in ("minmax", "maxmin"):
            report = json.loads((out / f"solve_report_{system}.json").read_text())
            if report["monotonicity_violation"] > monotone_tol:
                problems.append(f"{system}: monotonicity_violation "
                                f"{report['monotonicity_violation']}")
            if report["final_gap"] is None or report["final_gap"] > GAP_TOLERANCE:
                problems.append(f"{system}: final_gap {report['final_gap']}")
    else:
        report = json.loads((out / "game_report.json").read_text())
        if report["all_passed"] is not True or report["pde_ok"] is not True:
            problems.append(f"game: all_passed {report['all_passed']}, pde_ok {report['pde_ok']}")
    return problems


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _output_counts(name: str, workload: Workload, seed: int, out: Path, doc: dict) -> dict:
    """Counters read from the files a traced call wrote."""
    counts = {"cli.bytes_written": sum(p.stat().st_size for p in out.iterdir())}
    recorded = json.loads(DIGESTS.read_text())[name]
    comparable = recorded["seed"] is None or recorded["seed"] == seed
    counts["cli.outputs_identical"] = sum(
        comparable and _sha256(out / fname) == digest
        for fname, digest in recorded["files"].items()
    )
    iters = 0
    if workload.command == "solve":
        for system in ("minmax", "maxmin"):
            iters += sum(json.loads((out / f"solve_report_{system}.json").read_text())["iterations"])
    counts["solver.fixed_point_iters"] = iters
    counts["solver.pairs"] = len(doc["modes"]["player1"]) * len(doc["modes"]["player2"])
    switches = 0
    if workload.command == "game":
        with open(out / "payoffs.csv") as handle:
            next(handle)
            for line in handle:
                cols = line.split(",")
                switches += int(cols[2]) + int(cols[3])
    counts["game.switches"] = switches
    return counts


def _invoke(name: str, workload: Workload, seed: int, work: Path, index: int,
            tracer=None) -> Call:
    from switchgame import cli

    call_dir = work / f"call{index}"
    call_dir.mkdir()
    out = call_dir / "out"
    doc = _config_doc(workload, seed, out)
    config_path = call_dir / "config.json"
    config_path.write_text(json.dumps(doc))
    argv = workload.argv(config_path)
    problems = []
    gc.collect()
    start = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            import spans

            with spans.instrument(tracer):
                code = tracer.call("cli.main", cli.main, argv)
    except Exception as exc:  # a crash is a failed call, not a failed benchmark
        code = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if code != 0:
        problems.append(f"exit {code}")
    else:
        try:
            problems.extend(_check_outputs(workload, out, doc))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable outputs: {type(exc).__name__}: {exc}")
    call = Call(wall_s=wall, problems=problems, traced=tracer is not None)
    if tracer is not None and not problems:
        call.layers = _layer_values(tracer, _output_counts(name, workload, seed, out, doc))
        call.where = _layer_spans(tracer)
        call.problems.extend(tracer.nesting_problems())
    shutil.rmtree(call_dir)
    return call


def _span_total(span):
    return lambda tr, c: tr.total(span), [span]


def _span_calls(span):
    return lambda tr, c: tr.calls(span), [span]


def _output(key):
    return lambda tr, c: c[key], []


SOLVER_SPANS = ("solver.minmax", "solver.maxmin", "solver.single")


def _tridiag_per_pair_step(tr, c):
    steps = c["solver.fixed_point_iters"] * c["solver.pairs"]
    return tr.calls("solver.tridiag") / steps if steps else 0.0


# metric -> (unit, read(tracer, output counts), spans it is read from).  Spans
# are named after their layer module; no span means the number is read from
# the files the call wrote.
LAYER_METRICS = {
    "solver.minmax_s": ("s", *_span_total("solver.minmax")),
    "solver.maxmin_s": ("s", *_span_total("solver.maxmin")),
    "solver.single_s": ("s", *_span_total("solver.single")),
    "solver.self_s": ("s", lambda tr, c: sum(tr.self_time(s) for s in SOLVER_SPANS),
                      list(SOLVER_SPANS)),
    "solver.tridiag_calls": ("count", *_span_calls("solver.tridiag")),
    "solver.tridiag_s": ("s", *_span_total("solver.tridiag")),
    "solver.fixed_point_iters": ("count", *_output("solver.fixed_point_iters")),
    "solver.tridiag_per_pair_step": ("ratio", _tridiag_per_pair_step, ["solver.tridiag"]),
    "grid.discretize_calls": ("count", *_span_calls("grid.discretize")),
    "grid.discretize_s": ("s", *_span_total("grid.discretize")),
    "expressions.evaluate_calls": ("count", *_span_calls("expressions.evaluate")),
    "expressions.evaluate_s": ("s", *_span_total("expressions.evaluate")),
    "simulate.paths_s": ("s", *_span_total("simulate.paths")),
    "simulate.increments_s": ("s", *_span_total("simulate.increments")),
    "simulate.clamp_events": ("count", lambda tr, c: tr.counters.get("simulate.clamp_events", 0),
                              ["simulate.paths"]),
    "game.verify_s": ("s", *_span_total("game.verify")),
    "game.realize_calls": ("count", *_span_calls("game.realize")),
    "game.realize_s": ("s", *_span_total("game.realize")),
    "game.interp_calls": ("count", *_span_calls("game.interp")),
    "game.interp_s": ("s", *_span_total("game.interp")),
    "game.payoff_calls": ("count", *_span_calls("game.payoff")),
    "game.payoff_self_s": ("s", lambda tr, c: tr.self_time("game.payoff"), ["game.payoff"]),
    "game.switch_costs_s": ("s", *_span_total("game.switch_costs")),
    "game.switches": ("count", *_output("game.switches")),
    "cli.to_csv_s": ("s", *_span_total("cli.to_csv")),
    "cli.bytes_written": ("bytes", *_output("cli.bytes_written")),
    "cli.self_s": ("s", lambda tr, c: tr.self_time("cli.main"), ["cli.main"]),
    "cli.outputs_identical": ("count", *_output("cli.outputs_identical")),
}
EXACT_UNITS = ("count", "bytes", "ratio")


def _layer_values(tracer, counts: dict) -> dict:
    return {metric: read(tracer, counts) for metric, (_, read, _) in LAYER_METRICS.items()}


def _layer_spans(tracer) -> dict:
    out = {}
    for metric, (_, _, spans_read) in LAYER_METRICS.items():
        if not spans_read:
            out[metric] = "read from outputs"
        elif not any(tracer.calls(span) for span in spans_read):
            out[metric] = "span not entered"
        else:
            parents = sorted({p for span in spans_read for p in tracer.parents(span)})
            out[metric] = f"{', '.join(spans_read)} <- {', '.join(parents) or 'root'}"
    return out


def _setup_seconds(config_path: Path) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _mount_fstype(path: Path) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                parts = line.split()
                mount = parts[1]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "SWITCHGAME_WORKERS")
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {var: os.environ.get(var) for var in thread_vars},
    }


def _measure(name: str, seed: int, seconds: float, traced: bool, work: Path) -> list[Call]:
    """Calls until the next one would pass ``seconds``; with ``traced``, every
    other call is traced, starting with a traced one.

    No call is left out as a warm-up: a first call in a fresh process measured
    no slower than later ones, and a command-line user pays it on every run.
    """
    from spans import Tracer

    workload = WORKLOADS[name]
    calls: list[Call] = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if traced and len(calls) % 2 == 0 else None
        calls.append(_invoke(name, workload, seed, work, len(calls), tracer))
        estimate = statistics.median(c.wall_s for c in calls)
        enough = not traced or len(calls) >= 2
        if enough and time.perf_counter() - start + estimate > seconds:
            return calls


def _end_to_end_report(calls: list[Call], setup: list[float]) -> dict:
    timed = [c.wall_s for c in calls]
    failed = sum(bool(c.problems) for c in calls)
    metrics = {
        "wall_s": {"value": statistics.median(timed), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    print(f"wall_s       {metrics['wall_s']['value']:.4f} s   median of {len(timed)} calls: "
          + " ".join(f"{t:.4f}" for t in timed))
    print(f"setup_s      {metrics['setup_s']['value']:.4f} s   median of {len(setup)} fresh "
          f"interpreters, range {min(setup):.4f}-{max(setup):.4f} s")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"fail_ratio   {failed / len(calls):.4f}     {failed} of {len(calls)} calls failed")
    return metrics


def _layer_report(calls: list[Call]) -> tuple[list[str], dict]:
    """Per-layer metrics from the traced calls; counts must agree between them."""
    traced = [c for c in calls if c.traced and c.layers]
    problems = [] if traced else ["no traced call succeeded"]
    metrics = {}
    for metric, (unit, _, _) in LAYER_METRICS.items():
        values = [c.layers[metric] for c in traced]
        if unit in EXACT_UNITS:
            if len(set(values)) > 1:
                problems.append(f"{metric} differs between traced calls: {values}")
            value = values[0] if values else 0
        else:
            value = statistics.median(values) if values else 0.0
        metrics[metric] = {"value": value, "unit": unit}
    untraced = [c.wall_s for c in calls if not c.traced]
    metrics["trace.overhead_s"] = {
        "value": statistics.median(c.wall_s for c in traced) - statistics.median(untraced)
        if traced else 0.0,
        "unit": "s",
    }
    where = traced[-1].where if traced else {}
    where["trace.overhead_s"] = "traced minus untraced wall_s"
    print(f"traced calls {len(traced)}, untraced calls {len(untraced)}; times are medians; "
          f"last column: span <- its parent span")
    for metric, entry in metrics.items():
        value = entry["value"]
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"{metric:30s} {shown:>14s} {entry['unit']:6s} {where.get(metric, '')}")
    return problems, metrics


def _result_line(correct: bool, calls: list[Call], metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": len(calls),
        "failed": sum(bool(c.problems) for c in calls),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [SRC / "switchgame" / "cli.py", ROOT / WORKLOADS[args.workload].config]
    absent = [str(p) for p in needed if not p.is_file()]
    if absent:
        print(f"perfbench: not a switchgame checkout, missing {absent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import switchgame

    if Path(switchgame.__file__).resolve().parent != SRC / "switchgame":
        print(f"perfbench: imported switchgame from {switchgame.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = _environment()  # before the pop below, so the record shows what the caller set
    os.environ.pop("SWITCHGAME_WORKERS", None)  # the workloads are single-threaded

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    env["output_fs"] = _mount_fstype(work)
    print("environment " + json.dumps(env, sort_keys=True))
    try:
        calls = _measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
        if args.trace:
            problems, metrics = _layer_report(calls)
        else:
            setup_config = work / "setup.json"
            setup_config.write_text(json.dumps(
                _config_doc(WORKLOADS[args.workload], args.seed, work / "setup-out")))
            setup = [_setup_seconds(setup_config) for _ in range(SETUP_SAMPLES)]
            problems, metrics = [], _end_to_end_report(calls, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    for call in calls:
        for problem in call.problems:
            print(f"FAILED call: {problem}")
    for problem in problems:
        print(f"FAILED run: {problem}")
    correct = not problems and not any(c.problems for c in calls)
    print(_result_line(correct, calls, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
