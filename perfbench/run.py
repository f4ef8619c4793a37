"""The exactqt benchmark: one workload per run, every answer checked.

    python3 perfbench/run.py --workload modal-finite --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout that holds src/exactqt.  A run is a
fixed list of passes (one pass = one task per slot of the workload's
round).  --seconds sets the length of that list through a fixed
passes-per-second figure per workload, never through the clock, so two
runs of the same code do the same work; every run holds at least
MIN_TASKS timed tasks.  The passes are shared out over WORKERS workload
processes started one after another; each sets itself up, runs one untimed
warm-up pass on inputs of its own and then its timed passes.

--trace 0 prints the end-to-end metrics, --trace 1 runs one traced process
on the first share of passes and prints the per-layer metrics (see
README.md).  A table goes first; the last line of stdout is one JSON
object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from cli_oneshot import CliOneshot  # noqa: E402
from modal import ModalFinite, ModalGaussian  # noqa: E402
from tower import TowerClosure  # noqa: E402

WORKLOADS = {w.name: w for w in (ModalFinite, ModalGaussian, TowerClosure, CliOneshot)}
WORKERS = 3
MIN_TASKS = 100
DEADLINE_S = 170

END_TO_END = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "starfield.add_ns": "ns", "starfield.mul_ns": "ns", "starfield.inv_ns": "ns",
    "starfield.conj_ns": "ns", "starfield.ops": "count",
    "starfield.elements_enumerated": "count", "starfield.field_build_ms": "ms",
    "fppoly.rabin_tests": "count",
    "forms.char_poly.self_ms": "ms", "forms.eigen_decompose.self_ms": "ms",
    "forms.null_space.self_ms": "ms", "forms.matmul.self_ms": "ms",
    "forms.herm_form.calls": "count", "forms.root_candidates": "count",
    "forms.roots_per_candidate": "ratio",
    "qcore.make_observable.self_ms": "ms", "qcore.measure.self_ms": "ms",
    "qcore.collapse.self_ms": "ms", "qcore.evolve.self_ms": "ms",
    "compose.is_product.self_ms": "ms",
    "tower.lift.calls": "count", "tower.lift.self_ms": "ms",
    "tower.elements_enumerated": "count", "tower.field_misses": "count",
    "tower.generator_image_misses": "count",
    "lefschetz.parse_sentence.self_ms": "ms", "lefschetz.eval_closure.self_ms": "ms",
    "lefschetz.curves_meet.self_ms": "ms", "lefschetz.sqrt_table_entries": "count",
    "embed.build_embedding.self_ms": "ms", "embed.inclusions_built": "count",
    "autocode.fixed_points.self_ms": "ms", "autocode.points_scanned": "count",
    "autocode.points_per_scanned": "ratio",
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.entrypoint.self_ms": "ms",
    "jsonio.dumps_canonical.self_ms": "ms", "jsonio.parse.self_ms": "ms",
    "trace.overhead": "ratio",
}


def plan(workload, seconds: int) -> int:
    """Timed passes in a run: a whole number per worker, MIN_TASKS at least."""
    passes = max(math.ceil(MIN_TASKS / len(workload.round)),
                 round(seconds * workload.passes_per_second))
    return math.ceil(passes / WORKERS) * WORKERS


def start_worker(args, passes: list[int], warm: int, deadline: float) -> dict:
    # Fixed hash seed, so traced counts repeat; bytecode cache on, as for an
    # installed package (the first run in a checkout writes src/**/__pycache__).
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--passes", ",".join(map(str, passes)),
           "--warm", str(warm), "--trace", str(args.trace), "--root", ROOT, "--out", OUT]
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(cmd + ["--spawn-ns", str(spawn_ns)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("benchmark: a workload process overran the run's time limit")
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        raise SystemExit(f"benchmark: workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(workload, docs: list[dict]) -> tuple[dict, list[str]]:
    """Latencies are wall time; busy time is CPU time (see README.md)."""
    lat_ms = [ns / 1e6 for d in docs for ns in d["latencies_ns"]]
    busy_s = sum(ns for d in docs for ns in d["cpu_ns"]) / 1e9
    rss_key = "child_rss_kb" if workload is CliOneshot else "rss_kb"
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    values = {
        "tasks_per_s": len(lat_ms) / busy_s,
        "task_p50_ms": statistics.median(lat_ms),
        "task_p90_ms": p90,
        "setup_s": statistics.median(d["setup_ns"] for d in docs) / 1e9,
        "peak_rss_mb": statistics.median(d[rss_key] for d in docs) / 1024,
    }
    notes = [
        f"{len(lat_ms)} timed tasks over {busy_s:.2f} CPU s busy",
        f"median of {len(lat_ms)} samples",
        f"p90 of {len(lat_ms)} samples, {sum(x > p90 for x in lat_ms)} above it",
        f"median of {len(docs)} process starts",
        f"median of {len(docs)} processes" + (", largest child of each"
                                              if workload is CliOneshot else ""),
    ]
    return values, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "exactqt", "__init__.py")):
        print(f"benchmark: no exactqt sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    total = plan(workload, args.seconds)
    shares = [list(range(w, total, WORKERS)) for w in range(WORKERS)]
    if args.trace:
        docs = [start_worker(args, shares[0], total, deadline)]
        metrics, units, notes = docs[0]["metrics"], PER_LAYER, [""] * len(PER_LAYER)
    else:
        docs = [start_worker(args, share, total + w, deadline) for w, share in enumerate(shares)]
        values, note_list = end_to_end(workload, docs)
        metrics, units, notes = values, END_TO_END, note_list
    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    for d in docs:
        for line in d["errors"]:
            print(f"benchmark: {line}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {total} passes of "
          f"{len(workload.round)} tasks, {len(docs)} process(es), trace {args.trace}")
    for (name, unit), note in zip(units.items(), notes):
        print(f"  {name:34s} {metrics[name]:14.6g} {unit:6s} {note}")
    print(f"  attempted {attempted}, failed {failed}")
    result = {
        "correct": all(d["wrong"] == 0 for d in docs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
