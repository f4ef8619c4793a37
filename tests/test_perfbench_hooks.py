"""The benchmark in perfbench/ traces exactqt from outside the package.

Its tracer wraps named functions and the per-class `elements` methods; a
refactor that moves or renames one of them must show up here, not as a
crash or a silently missing counter in a benchmark run.
"""

import importlib
from pathlib import Path

import exactqt
from exactqt import QuadExt, _tower
from exactqt._tower import TowerField

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_installs_every_hook_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    originals = (QuadExt.__dict__["elements"], TowerField.__dict__["elements"], _tower.lift)
    tracer = spans.Tracer(exactqt)
    try:
        tracer.install()
        assert _tower.lift is not originals[2]
    finally:
        tracer.uninstall()
    # the targets of these three hooks are gone from exactqt; the tracer
    # records them as missing, and any other lost hook still fails here
    assert tracer.missing == ["_gaussint.gaussian_divisors", "autocode._projective_reps",
                              "lefschetz.sqrt_table_entries"]
    restored = (QuadExt.__dict__["elements"], TowerField.__dict__["elements"], _tower.lift)
    assert all(now is then for now, then in zip(restored, originals))
