"""cli-oneshot: one `python -m exactqt ...` child process per task.

A pass runs field info, form, eigen, measure (with JSON files), lefschetz
eval, curves-meet and noclone once each, on small seeded inputs drawn
run-wide without repeats.  Children run one at a time.  Every answer must
exit 0, print canonical JSON and pass the same property check as its
library counterpart.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import ref
from modal import _Tables, _similar
from ref import expect
from tower import _Distinct, _eval_form, _format_form

_FIELD_PRIMES = tuple(p for p in range(2, 200) if all(p % d for d in range(2, p)))
_SMALL = ((3, 1), (5, 1), (7, 1))   # (p, e) of the fields that carry vectors
_EVAL_PRIMES = (3, 5, 7)
_CURVE_PRIMES = (3, 5)
_CHILD_TIMEOUT_S = 60


@dataclass
class CliTask:
    kind: str
    spec: dict
    argv: list


def _field_json(p: int, e: int) -> dict:
    return {"kind": "quadext", "p": p, "e": e, "modulus": list(ref.canonical_modulus(p, 2 * e))}


class CliOneshot:
    name = "cli-oneshot"
    round = ("field-info", "form", "eigen", "measure", "lefschetz-eval", "curves-meet", "noclone")
    passes_per_second = 0.63

    def __init__(self, exactqt, seed: int, root: str, scratch: str, in_process: bool = False):
        self.E = exactqt
        self.seed = seed
        self.root = root
        self.scratch = scratch
        # A traced run calls the entry point in-process, where spans can see it.
        self.cli = importlib.import_module("exactqt.cli") if in_process else None

    def setup(self) -> None:
        self.tables = {pe: _Tables(ref.FiniteField.quadext(*pe)) for pe in _SMALL}
        self.draws = {kind: _Distinct(random.Random(f"{self.name}:{self.seed}:{kind}"),
                                      lambda rng, kind=kind: self._draw(kind, rng), repr)
                      for kind in self.round}
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        os.makedirs(self.scratch, exist_ok=True)

    field_specs = [f"quadext:{p}:{e}" for p, e in _SMALL]

    # -- inputs ----------------------------------------------------------

    def _draw(self, kind: str, rng: random.Random):
        if kind == "field-info":
            return (rng.choice(_FIELD_PRIMES), 1)
        if kind == "noclone":
            return (rng.choice(_FIELD_PRIMES[:24]), rng.choice((2, 3)))
        if kind == "lefschetz-eval":
            return (rng.choice(_EVAL_PRIMES), rng.randrange(1, 10**6))
        if kind == "curves-meet":
            p = rng.choice(_CURVE_PRIMES)
            line = {m: c for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) if (c := rng.randrange(p))}
            conic = {m: c for m in ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1),
                                    (0, 1, 1)) if (c := rng.randrange(p))}
            return (p, tuple(sorted(line.items())) or (((1, 0, 0), 1),),
                    tuple(sorted(conic.items())) or (((2, 0, 0), 1),))
        pe = rng.choice(_SMALL)
        n = 3
        if kind == "form":
            return (pe, self.tables[pe].state(rng, n), self.tables[pe].state(rng, n))
        tables = self.tables[pe]
        lams = tuple(rng.sample(tables.fixed, n))
        h = _similar(tables.k, tables.unitary(rng, n),
                     tuple(tuple(lams[i] if i == j else tables.k.zero for j in range(n))
                           for i in range(n)))
        psi = self.tables[pe].state(rng, n) if kind == "measure" else None
        return (pe, lams, h, psi)

    def make_pass(self, index: int) -> list[CliTask]:
        tasks = []
        for kind in self.round:
            spec = self.draws[kind].get(index)
            tasks.append(self._task(kind, spec, index))
        return tasks

    def _task(self, kind: str, spec, index: int) -> CliTask:
        if kind == "field-info":
            p, e = spec
            return CliTask(kind, {"p": p, "e": e}, ["field", "info", "--field", f"quadext:{p}:{e}"])
        if kind == "noclone":
            p, d = spec
            return CliTask(kind, {"p": p, "dim": d},
                           ["noclone", "--field", f"quadext:{p}:1", "--dim", str(d)])
        if kind == "lefschetz-eval":
            p, a = spec
            return CliTask(kind, {"p": p, "a": a},
                           ["lefschetz", "eval", "--sentence", f"E x . x*x + {a} = 0", "--p", str(p)])
        if kind == "curves-meet":
            p, f, g = spec
            f, g = dict(f), dict(g)
            return CliTask(kind, {"p": p, "f": f, "g": g},
                           ["curves-meet", "--prime", str(p), "--f", _format_form(f),
                            "--g", _format_form(g)])
        pe = spec[0]
        k = self.tables[pe].k
        field = f"quadext:{pe[0]}:{pe[1]}"
        compact = lambda v: ",".join(k.format(x) for x in v)  # noqa: E731
        if kind == "form":
            _, x, y = spec
            return CliTask(kind, {"k": k, "pe": pe, "x": x, "y": y},
                           ["form", "--field", field, "--left", compact(x), "--right", compact(y)])
        _, lams, h, psi = spec
        info = {"k": k, "pe": pe, "lams": lams, "H": h, "psi": psi}
        if kind == "eigen":
            return CliTask(kind, info, ["eigen", "--field", field,
                                        "--matrix", ";".join(compact(r) for r in h)])
        # measure reads its observable and state from JSON files
        n = len(h)
        obs_doc = {"field": _field_json(*pe), "rows": n, "cols": n,
                   "entries": [k.format(x) for r in h for x in r]}
        psi_doc = {"field": _field_json(*pe), "rows": n, "cols": 1,
                   "entries": [k.format(x) for x in psi]}
        paths = []
        for label, doc in (("obs", obs_doc), ("psi", psi_doc)):
            path = os.path.join(self.scratch, f"{label}-{index}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            paths.append(path)
        return CliTask(kind, info, ["measure", "--obs", paths[0], "--state", paths[1]])

    # -- the timed work ------------------------------------------------

    def run(self, t: CliTask):
        """(exit code, stdout) of one child process, or of one in-process call
        with stdout captured when the run is traced."""
        if self.cli is not None:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.cli.entrypoint(list(t.argv))
            return code, out.getvalue()
        proc = subprocess.run([sys.executable, "-m", "exactqt", *t.argv], cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=_CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout

    # -- answers and checks --------------------------------------------

    def answer(self, t: CliTask, result) -> dict:
        code, stdout = result
        return {"code": code, "stdout": stdout}

    def check(self, t: CliTask, ans: dict) -> None:
        expect(ans["code"] == 0, f"exit code {ans['code']}")
        try:
            doc = json.loads(ans["stdout"])
        except ValueError:
            raise ref.CheckFailed("stdout is not JSON") from None
        expect(ans["stdout"] == json.dumps(doc, sort_keys=True, indent=2) + "\n",
               "stdout is not canonical JSON")
        getattr(self, "_check_" + t.kind.replace("-", "_"))(t.spec, doc)

    def _check_field_info(self, s: dict, doc: dict) -> None:
        p, e = s["p"], s["e"]
        q = p**e
        expect(doc["field"] == _field_json(p, e), "field descriptor is not the canonical one")
        expect((doc["characteristic"], doc["order"], doc["q"], doc["fixed_field_order"],
                doc["involution_order"], doc["generator"]) == (p, q * q, q, q, 2, "t"),
               "field facts are wrong")

    def _check_form(self, s: dict, doc: dict) -> None:
        k = s["k"]
        expect(doc["field"] == _field_json(*s["pe"]), "form reports the wrong field")
        expect(k.parse(doc["value"]) == ref.herm(k, s["x"], s["y"]), "form value is wrong")

    def _check_pairs(self, s: dict, pairs: list) -> None:
        k = s["k"]
        expect(sorted(k.parse(pr["value"]) for pr in pairs) == sorted(s["lams"]),
               "spectrum differs from the planted eigenvalues")
        for pr in pairs:
            lam = k.parse(pr["value"])
            expect(pr["multiplicity"] == len(pr["basis"]) == 1, "planted eigenvalues are simple")
            for b in pr["basis"]:
                v = tuple(k.parse(c) for c in b)
                expect(v != (k.zero,) * len(v), "zero eigenvector")
                expect(ref.matvec(k, s["H"], v) == ref.scale(k, lam, v), "H v != lam v")

    def _check_eigen(self, s: dict, doc: dict) -> None:
        expect(doc["complete"] and doc["total_dimension"] == len(s["H"]), "spectrum incomplete")
        self._check_pairs(s, doc["pairs"])

    def _check_measure(self, s: dict, doc: dict) -> None:
        k, h, psi = s["k"], s["H"], s["psi"]
        norm = ref.herm(k, psi, psi)
        expect(k.parse(doc["total_form_value"]) == norm, "total form value != <psi, psi>")
        expect(sorted(k.parse(o["eigenvalue"]) for o in doc["outcomes"]) == sorted(s["lams"]),
               "outcomes differ from the planted eigenvalues")
        total, proj_sum = k.zero, (k.zero,) * len(psi)
        for o in doc["outcomes"]:
            lam = k.parse(o["eigenvalue"])
            proj = tuple(k.parse(c) for c in o["projected_state"])
            expect(ref.matvec(k, h, proj) == ref.scale(k, lam, proj),
                   "projection leaves its eigenspace")
            expect(o["modal_possible"] == (proj != (k.zero,) * len(psi)), "modal verdict is wrong")
            expect(o["born_weight"] is not None, "Born weight undefined")
            total = k.add(total, k.parse(o["born_weight"]))
            proj_sum = ref.vadd(k, proj_sum, proj)
        expect(total == norm, "Born weights do not sum to <psi, psi>")
        expect(proj_sum == psi, "projections do not sum to psi")

    def _check_lefschetz_eval(self, s: dict, doc: dict) -> None:
        p, a = s["p"], s["a"]
        expect(doc["verdict"] is True and doc["certified"] and doc["prime"] == p,
               "E x . x*x + a = 0 must be certified True")
        level = doc["levels"]
        k = ref.FiniteField.tower(p, level)
        x = k.parse(doc["witness"]["x"])
        expect(k.is_zero(k.add(k.mul(x, x), k.from_int(a))), "witness fails its equation")
        square = -a % p == 0 or pow(-a % p, (p - 1) // 2, p) == 1
        expect((level == 1) == square, "witness level disagrees with Euler's criterion")

    def _check_curves_meet(self, s: dict, doc: dict) -> None:
        rep = doc["report"]
        expect(rep["meet"] is True and not rep["bound_too_small"], "plane curves must meet")
        k = ref.FiniteField.tower(s["p"], rep["level"])
        point = tuple(k.parse(c) for c in rep["point"])
        expect(next((c for c in point if not k.is_zero(c)), None) == k.one,
               "point is not a normalized projective point")
        expect(k.is_zero(_eval_form(k, s["f"], point)) and k.is_zero(_eval_form(k, s["g"], point)),
               "point is not a common zero")

    def _check_noclone(self, s: dict, doc: dict) -> None:
        d = s["dim"]
        k = ref.FiniteField.quadext(s["p"], 1)
        e = [tuple(k.one if i == j else k.zero for i in range(d)) for j in range(2)]
        sup = ref.vadd(k, e[0], e[1])
        read = lambda key: tuple(k.parse(c) for c in doc[key])  # noqa: E731
        expect(read("superposition") == sup, "superposition != e1 + e2")
        expect(read("linear_image") == ref.vadd(k, ref.kron(k, e[0], e[0]), ref.kron(k, e[1], e[1])),
               "linear image != e1 e1 + e2 e2")
        expect(read("required_clone") == ref.kron(k, sup, sup), "required clone != s s")
        expect((doc["linear_image_rank"], doc["required_clone_rank"], doc["cloning_impossible"])
               == (2, 1, True), "ranks of the witness are wrong")

    # -- self-check ----------------------------------------------------

    def corruptions(self) -> list:
        def exit_code(t, a):
            a["code"] = 1

        def layout(t, a):
            a["stdout"] = json.dumps(json.loads(a["stdout"]), sort_keys=True) + "\n"

        def payload(t, a):
            doc = json.loads(a["stdout"])
            _BREAK[t.kind](doc)
            a["stdout"] = json.dumps(doc, sort_keys=True, indent=2) + "\n"

        return [("exit-code", exit_code, None), ("canonical-json", layout, None),
                ("answer", payload, None)]


def _bump(text: str) -> str:
    return text + "+1" if text != "0" else "1"


def _break_pairs(doc):
    doc["pairs"][0]["value"] = _bump(doc["pairs"][0]["value"])


def _break_measure(doc):
    o = doc["outcomes"][0]
    o["born_weight"] = _bump(o["born_weight"])


def _break_witness(doc):
    doc["witness"]["x"] = "1" if doc["witness"]["x"] == "0" else "0"


def _break_point(doc):
    doc["report"]["point"] = ["0", "0", "0"]


_BREAK = {
    "field-info": lambda doc: doc.update(order=doc["order"] + 1),
    "form": lambda doc: doc.update(value=_bump(doc["value"])),
    "eigen": _break_pairs,
    "measure": _break_measure,
    "lefschetz-eval": _break_witness,
    "curves-meet": _break_point,
    "noclone": lambda doc: doc.update(linear_image_rank=1),
}
