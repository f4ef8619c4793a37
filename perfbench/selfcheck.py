"""Show that no answer check is vacuous.

    python3 perfbench/selfcheck.py [--seed N]

For every workload, one pass runs once.  Its true answers must all pass;
then each deliberate corruption of an answer (a wrong eigenvalue, a witness
off its equation, a non-canonical JSON layout, ...) is fed through the same
path the benchmark uses, and every task it touches must come out as a
failed operation.  Also checks that BENCHMARK.json lists the metrics run.py
prints.  Exits 1 if anything is not caught.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from worker import Tally, make_workload, run_tasks  # noqa: E402


class _Replay:
    """The workload with its answers replayed from one real run, optionally corrupted."""

    def __init__(self, wl, results: dict, corrupt=None, kinds=None):
        self.wl, self.results, self.corrupt, self.kinds = wl, results, corrupt, kinds

    def run(self, t):
        return self.results[id(t)]

    def answer(self, t, result):
        ans = self.wl.answer(t, result)
        if self.corrupt is not None:
            self.corrupt(t, ans)
        return ans

    def check(self, t, ans):
        self.wl.check(t, ans)


def check_workload(name: str, exactqt, seed: int) -> list[str]:
    scratch = os.path.join(run.OUT, f"selfcheck-{os.getpid()}")
    wl = make_workload(name, exactqt, seed, run.ROOT, scratch, traced=False)
    wl.setup()
    tasks = wl.make_pass(0)
    results = {id(t): wl.run(t) for t in tasks}
    problems = []
    tally = Tally()
    run_tasks(_Replay(wl, results), tasks, tally, None)
    if tally.failed:
        problems.append(f"{name}: true answers fail: {tally.errors}")
    for label, corrupt, kinds in wl.corruptions():
        chosen = [t for t in tasks if kinds is None or t.kind in kinds]
        tally = Tally()
        run_tasks(_Replay(wl, results, corrupt), chosen, tally, None)
        caught = tally.failed == tally.wrong == tally.attempted == len(chosen) > 0
        print(f"  {name:15s} {label:20s} {tally.failed}/{len(chosen)} reported failed")
        if not caught:
            problems.append(f"{name}: corruption {label!r} caught on {tally.failed} of "
                            f"{len(chosen)} tasks")
    if os.path.isdir(scratch):
        for entry in os.listdir(scratch):
            os.remove(os.path.join(scratch, entry))
        os.rmdir(scratch)
    return problems


def check_manifest() -> list[str]:
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in doc[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(table.items()))}")
    if sorted(w["name"] for w in doc["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import exactqt
    os.makedirs(run.OUT, exist_ok=True)
    problems = check_manifest()
    for name in run.WORKLOADS:
        problems += check_workload(name, exactqt, args.seed)
    for line in problems:
        print(f"NOT CAUGHT: {line}")
    print("selfcheck: " + ("every corruption was reported as a failed operation"
                           if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
