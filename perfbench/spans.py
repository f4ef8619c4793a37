"""Spans and counters around exactqt's layers, installed from outside.

Tracer.install() rebinds, in every loaded exactqt module, each public
function of the traced modules (plus Matrix.__matmul__ and _tower.lift) to
a wrapper that records a span: name, start, end, parent and phase.  Element
operators, field enumeration and a few private entry points get counting
wrappers only, because spans there would outnumber the work.  Spans stay in
memory until the run ends; self time is a span's duration minus the time
its direct children cover.  Nothing under src/ changes.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

# Modules whose public functions get spans.
SPAN_MODULES = ("starfield", "forms", "qcore", "compose", "embed", "lefschetz", "autocode",
                "jsonio")
PHASES = ("setup", "timed")
_ELEMENT_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "inverse", "conj")
# Useful outcomes, counted from the results of these spans.
_OUTCOMES = {"forms.eigen_decompose": ("forms.roots_found", lambda r: len(r.pairs)),
             "autocode.fixed_points": ("autocode.fixed_points_found", lambda r: len(r.points))}


class Tracer:
    def __init__(self, exactqt):
        self.E = exactqt
        self.active = False
        self.phase = 0
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_phase = array("b")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list = []
        self._cache_base: dict = {}
        self.missing: list[str] = []   # hooks this version of exactqt lacks

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        nid = self.name_ids.setdefault(name, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(name)
        tr = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = len(tr.span_name)
            tr.span_name.append(nid)
            tr.span_parent.append(tr.stack[-1] if tr.stack else -1)
            tr.span_phase.append(tr.phase)
            tr.span_end.append(0)
            tr.stack.append(idx)
            tr.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.span_end[idx] = clock()
                tr.stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, key: str, fn, measure=None):
        tr = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tr.active:
                tr.counts[key] += 1 if measure is None else measure(result)
            return result

        return wrapper

    def _enumerating(self, key: str, fn):
        """Wrap a generator so each item it yields is counted, and charged
        as a root candidate when the innermost span is eigen_decompose."""
        tr = self
        eigen = "forms.eigen_decompose"

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tr.active:
                    tr.counts[key] += 1
                    if tr.stack and tr.names[tr.span_name[tr.stack[-1]]] == eigen:
                        tr.counts["forms.root_candidates"] += 1
                yield item

        return wrapper

    def _op_counter(self, fn):
        tr = self

        def wrapper(*args):
            if tr.active:
                tr.counts["starfield.ops"] += 1
            return fn(*args)

        return wrapper

    def _outcome(self, name: str):
        if name not in _OUTCOMES:
            return None
        key, measure = _OUTCOMES[name]

        def count(result):
            self.counts[key] += measure(result)

        return count

    # -- installation --------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        """Point every exactqt module's reference to original at replacement."""
        for name, mod in list(sys.modules.items()):
            if name == "exactqt" or name.startswith("exactqt."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, replacement)

    def _hook(self, module: str, attr: str, make) -> None:
        """Wrap a private entry point if this version of exactqt has it."""
        mod = sys.modules[f"exactqt.{module}"]
        target = getattr(mod, attr, None)
        if target is None:
            self.missing.append(f"{module}.{attr}")
        elif isinstance(target, type):
            make(target)
        else:
            self._rebind(target, make(target))

    def install(self) -> None:
        E = self.E
        for short in SPAN_MODULES:
            mod = importlib.import_module(f"exactqt.{short}")
            for attr, fn in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    self._rebind(fn, self._span(name, fn, self._outcome(name)))
        cli = sys.modules.get("exactqt.cli")
        if cli is not None:
            self._rebind(cli.entrypoint, self._span("cli.entrypoint", cli.entrypoint))
        self._set(E.Matrix, "__matmul__", self._span("forms.matmul", E.Matrix.__matmul__))
        for cls in (E.QuadExt, E.PrimeField):
            self._set(cls, "elements", self._enumerating("starfield.elements_enumerated",
                                                         cls.elements))
        for op in _ELEMENT_OPS:
            self._set(E.Element, op, self._op_counter(getattr(E.Element, op)))
        self._hook("_tower", "lift", lambda fn: self._span("tower.lift", fn))
        self._hook("_tower", "TowerField", lambda cls: self._set(
            cls, "elements", self._enumerating("tower.elements_enumerated", cls.elements)))
        self._hook("_fppoly", "is_irreducible",
                   lambda fn: self._counting("fppoly.rabin_tests", fn))
        self._hook("embed", "_build_inclusion",
                   lambda fn: self._counting("embed.inclusions_built", fn))
        self._hook("_gaussint", "gaussian_divisors",
                   lambda fn: self._counting("forms.root_candidates", fn, len))
        self._hook("autocode", "_projective_reps",
                   lambda fn: self._enumerating("autocode.points_scanned", fn))
        self._hook("autocode", "_eigen_points",
                   lambda fn: self._counting("autocode.points_scanned", fn, lambda r: len(r[0])))
        self._cache_base = {key: info.misses for key, info in self._cache_infos()}
        self.active = True

    def _cache_infos(self):
        tower = sys.modules["exactqt._tower"]
        for key, attr in (("tower.field_misses", "tower_field"),
                          ("tower.generator_image_misses", "_generator_image")):
            fn = getattr(tower, attr, None)
            if hasattr(fn, "cache_info"):
                yield key, fn.cache_info()
            elif key not in self.missing:
                self.missing.append(key)

    def uninstall(self) -> None:
        self.active = False
        for key, info in self._cache_infos():
            self.counts[key] = info.misses - self._cache_base[key]
        lefschetz = sys.modules["exactqt.lefschetz"]
        tables = [getattr(lefschetz, name, None) for name in ("_SQRT_TABLES", "_AS_TABLES")]
        if None in tables:
            self.missing.append("lefschetz.sqrt_table_entries")
        self.counts["lefschetz.sqrt_table_entries"] = sum(
            len(t) for group in tables if group for t in group.values())
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -------------------------------------------------------

    def self_times(self, phase: int) -> dict[str, int]:
        """Total self time in ns per span name, over spans of one phase."""
        n = len(self.span_name)
        covered = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += self.span_end[i] - self.span_start[i]
        out: Counter = Counter()
        for i in range(n):
            if self.span_phase[i] == phase:
                dur = self.span_end[i] - self.span_start[i]
                out[self.names[self.span_name[i]]] += dur - covered[i]
        return dict(out)

    def calls(self) -> dict[str, int]:
        """Spans recorded per name, over every phase."""
        return dict(Counter(self.names[n] for n in self.span_name))

    def dump(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["phases"] = list(PHASES)
        doc["names"] = self.names
        doc["spans"] = [[self.span_name[i], self.span_start[i], self.span_end[i],
                         self.span_parent[i], self.span_phase[i]]
                        for i in range(len(self.span_name))]
        doc["counters"] = dict(sorted(self.counts.items()))
        doc["missing_hooks"] = self.missing
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
