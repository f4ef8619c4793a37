"""One workload process: set-up, one warm-up pass, timed passes, checks.

run.py starts this file once per share of a run's passes, with the clock
reading taken just before the start, and reads the JSON object it prints
as its last line.  With --trace 1 the timed passes run under the tracer,
then again untraced for the overhead, followed by the per-layer
microbenchmarks.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import ref

OPS_PER_SAMPLE = 512
SAMPLES = 5


def make_workload(name: str, exactqt, seed: int, root: str, scratch: str, traced: bool):
    if name in ("modal-finite", "modal-gaussian"):
        import modal
        return (modal.ModalFinite if name == "modal-finite" else modal.ModalGaussian)(exactqt, seed)
    if name == "tower-closure":
        import tower
        return tower.TowerClosure(exactqt, seed)
    import cli_oneshot
    return cli_oneshot.CliOneshot(exactqt, seed, root, scratch, in_process=traced)


class Tally:
    """Operations attempted and failed; a failed check also marks the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []

    def fail(self, kind: str, what: str, exc: BaseException, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {what}: {type(exc).__name__}: {exc}")


def _cpu_ns() -> int:
    """CPU time of this thread plus that of every child waited for so far."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time_ns() + int((kids.ru_utime + kids.ru_stime) * 1e9)


def run_tasks(wl, tasks, tally: Tally, latencies: list | None, tracer=None, check=True,
              cpu: list | None = None) -> None:
    clock = time.perf_counter_ns
    for t in tasks:
        c0 = _cpu_ns()
        t0 = clock()
        try:
            result = wl.run(t)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        t1 = clock()
        if cpu is not None:
            cpu.append(_cpu_ns() - c0)
        if latencies is not None:
            latencies.append(t1 - t0)
        if not check:
            continue
        tally.attempted += 1
        if error is not None:
            tally.fail(t.kind, "raised", error, wrong=False)
            continue
        if tracer is not None:
            tracer.active = False
        try:
            wl.check(t, wl.answer(t, result))
        except ref.CheckFailed as exc:
            tally.fail(t.kind, "wrong answer", exc, wrong=True)
        except Exception as exc:  # an answer the checks cannot read is wrong too
            tally.fail(t.kind, "unreadable answer", exc, wrong=True)
        finally:
            if tracer is not None:
                tracer.active = True


def _sample_element(rng: random.Random, k):
    while True:
        if isinstance(k, ref.GaussField):
            x = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        else:
            x = tuple(rng.randrange(k.p) for _ in range(k.n))
        if not k.is_zero(x):
            return x


def _median_ns(fn, per_call: int) -> float:
    times = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / per_call


def element_op_ns(exactqt, specs, seed: int) -> dict:
    """Mean ns per add, mul, inv and conj over the workload's own fields."""
    per_field = {"add": [], "mul": [], "inv": [], "conj": []}
    for i, spec in enumerate(specs):
        f, k = exactqt.parse_field(spec), ref.field(spec)
        rng = random.Random(f"ops:{seed}:{i}")
        xs = [f.element(k.format(_sample_element(rng, k))) for _ in range(64)]
        pairs = list(zip(xs, xs[1:] + xs[:1])) * (OPS_PER_SAMPLE // len(xs))
        singles = [a for a, _ in pairs]
        loops = {
            "add": lambda: [a + b for a, b in pairs],
            "mul": lambda: [a * b for a, b in pairs],
            "inv": lambda: [a.inverse() for a in singles],
            "conj": lambda: [a.conj() for a in singles],
        }
        for op, fn in loops.items():
            per_field[op].append(_median_ns(fn, len(pairs)))
    return {f"starfield.{op}_ns": statistics.fmean(v) for op, v in per_field.items()}


def field_build_ms(exactqt, specs) -> float:
    return _median_ns(lambda: [exactqt.parse_field(s) for s in specs], 1) / 1e6


def cli_start_ms(root: str) -> dict:
    """Bare interpreter start (wall) and `import exactqt.cli` (timed inside the child)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    bare, imports = [], []
    probe = ("import time; t = time.perf_counter(); import exactqt.cli; "
             "print(time.perf_counter() - t)")
    for _ in range(SAMPLES):
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        bare.append((time.perf_counter_ns() - t0) / 1e6)
        out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=root, check=True,
                             capture_output=True, text=True, timeout=60)
        imports.append(float(out.stdout) * 1e3)
    return {"cli.interpreter_ms": statistics.median(bare), "cli.import_ms": statistics.median(imports)}


def traced_metrics(tracer, n_tasks: int, traced_ns: int, untraced_ns: int) -> dict:
    per_task = {name: ns / n_tasks / 1e6 for name, ns in tracer.self_times(1).items()}
    calls = tracer.calls()
    c = tracer.counts
    out = {
        "starfield.ops": c["starfield.ops"],
        "starfield.elements_enumerated": c["starfield.elements_enumerated"],
        "fppoly.rabin_tests": c["fppoly.rabin_tests"],
        "forms.herm_form.calls": calls.get("forms.herm_form", 0),
        "forms.root_candidates": c["forms.root_candidates"],
        "forms.roots_per_candidate": (c["forms.roots_found"] / c["forms.root_candidates"]
                                      if c["forms.root_candidates"] else 0.0),
        "tower.lift.calls": calls.get("tower.lift", 0),
        "tower.elements_enumerated": c["tower.elements_enumerated"],
        "tower.field_misses": c["tower.field_misses"],
        "tower.generator_image_misses": c["tower.generator_image_misses"],
        "lefschetz.sqrt_table_entries": c["lefschetz.sqrt_table_entries"],
        "embed.inclusions_built": c["embed.inclusions_built"],
        "autocode.points_scanned": c["autocode.points_scanned"],
        "autocode.points_per_scanned": (c["autocode.fixed_points_found"]
                                        / c["autocode.points_scanned"]
                                        if c["autocode.points_scanned"] else 0.0),
        "jsonio.parse.self_ms": sum(per_task.get(f"jsonio.{f}_from_json", 0.0)
                                    for f in ("matrix", "vector", "bipartite")),
        "trace.overhead": traced_ns / untraced_ns,
    }
    for span in ("forms.char_poly", "forms.eigen_decompose", "forms.null_space", "forms.matmul",
                 "qcore.make_observable", "qcore.measure", "qcore.collapse", "qcore.evolve",
                 "compose.is_product", "tower.lift", "lefschetz.parse_sentence",
                 "lefschetz.eval_closure", "lefschetz.curves_meet", "embed.build_embedding",
                 "autocode.fixed_points", "cli.entrypoint", "jsonio.dumps_canonical"):
        out[f"{span}.self_ms"] = per_task.get(span, 0.0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", required=True, help="comma-separated timed pass indices")
    ap.add_argument("--warm", type=int, required=True, help="index of the warm-up pass")
    ap.add_argument("--spawn-ns", type=int, required=True, help="monotonic clock at spawn")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import exactqt
    if not os.path.abspath(exactqt.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"exactqt came from {exactqt.__file__}, not from {src}", file=sys.stderr)
        return 3
    traced = bool(args.trace)
    scratch = os.path.join(args.out, f"work-{os.getpid()}")
    wl = make_workload(args.workload, exactqt, args.seed, args.root, scratch, traced)
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer(exactqt)
        tracer.install()

    tally = Tally()
    wl.setup()
    run_tasks(wl, wl.make_pass(args.warm), tally, None, tracer)
    passes = [int(i) for i in args.passes.split(",")]
    latencies: list[int] = []
    cpu: list[int] = []
    setup_ns = None
    for index in passes:
        tasks = wl.make_pass(index)
        if setup_ns is None:
            setup_ns = time.monotonic_ns() - args.spawn_ns
            if tracer is not None:
                tracer.phase = 1
        run_tasks(wl, tasks, tally, latencies, tracer, cpu=cpu)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    doc = {"attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
           "errors": tally.errors, "setup_ns": setup_ns, "latencies_ns": latencies, "cpu_ns": cpu,
           "rss_kb": usage.ru_maxrss, "child_rss_kb": children.ru_maxrss}

    if tracer is not None:
        tracer.uninstall()
        untraced: list[int] = []
        for index in passes:
            run_tasks(wl, wl.make_pass(index), tally, untraced, check=False)
        metrics = traced_metrics(tracer, len(latencies), sum(latencies), sum(untraced))
        metrics.update(element_op_ns(exactqt, wl.field_specs, args.seed))
        metrics["starfield.field_build_ms"] = field_build_ms(exactqt, wl.field_specs)
        metrics.update(cli_start_ms(args.root))
        doc = {"attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
               "errors": tally.errors, "metrics": metrics}
        path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "passes": passes,
                           "timed_tasks": len(latencies), "metrics": metrics})
    if os.path.isdir(scratch):
        for name in os.listdir(scratch):
            os.remove(os.path.join(scratch, name))
        os.rmdir(scratch)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
