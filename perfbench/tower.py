"""tower-closure: one query per task that walks a tower of fields.

A pass holds, in this order: closure sentences from three templates with a
seeded constant (lefschetz_sample over a fixed prime list), line/conic and
conic/conic intersections (curves_meet), odd-degree embeddings of F_4 and
F_9 that then carry a seeded matrix up (build_embedding, extend_matrix),
and projective fixed points of a linear and an antilinear map over F_9
(fixed_points).  Seeded inputs are drawn run-wide without repeats, so no
task input occurs twice in a run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import ref
from ref import expect

PRIMES = (2, 3, 5)
TEMPLATES = {
    "square": "E x . x*x + {a} = 0",
    "sum": "E x . E y . x*x + y*y + {a} = 0",
    "forall": "A x . E y . y*y = x + {a}",
}
EMBEDDINGS = {"embed-4-3": (2, 3), "embed-4-5": (2, 5), "embed-9-3": (3, 3)}
CONCLUSION = "true over every algebraically closed field of characteristic 0"
_Q, _DIM = 3, 2          # fixed points live over F_9 = F_{3^2}, dimension 2
_MAX_EXT = 3
_MONOS = {1: ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
          2: ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))}


@dataclass
class TowerTask:
    kind: str
    spec: dict           # benchmark-side description of the input
    prog: dict           # the same input as exactqt arguments


def _format_form(coeffs: dict) -> str:
    names = "xyz"
    terms = []
    for expo, c in coeffs.items():
        factors = [str(c)] + [names[v] if e == 1 else f"{names[v]}^{e}"
                              for v, e in enumerate(expo) if e]
        terms.append("*".join(factors))
    return " + ".join(terms)


def _eval_form(k, coeffs: dict, point) -> tuple:
    total = k.zero
    for expo, c in coeffs.items():
        term = k.from_int(c)
        for x, e in zip(point, expo):
            for _ in range(e):
                term = k.mul(term, x)
        total = k.add(total, term)
    return total


class _Distinct:
    """Run-wide draws without repeats: draw i is the same in every worker."""

    def __init__(self, rng: random.Random, draw, key):
        self.rng, self.draw, self.key = rng, draw, key
        self.items: list = []
        self.seen: set = set()

    def get(self, i: int):
        misses = 0
        while len(self.items) <= i:
            item = self.draw(self.rng)
            if self.key(item) in self.seen:
                misses += 1
                if misses > 10000:
                    raise RuntimeError("input space exhausted; shorten the run")
                continue
            self.seen.add(self.key(item))
            self.items.append(item)
        return self.items[i]


class TowerClosure:
    name = "tower-closure"
    # Five light tasks, five cheap and steady F_4 -> F_64 embeddings, five
    # heavy tasks: the median lands in the middle of the cluster of equal
    # embeddings, not on the edge between two clusters of different cost.
    round = ("square", "sum", "curves-line", "curves-conic", "curves-conic",
             "embed-4-3", "embed-4-3", "embed-4-3", "embed-4-3", "embed-4-3",
             "forall", "embed-4-5", "embed-9-3", "fixed-linear", "fixed-antilinear")
    passes_per_second = 1.5

    def __init__(self, exactqt, seed: int):
        self.E = exactqt
        self.seed = seed
        self._ref: dict = {}

    # -- reference fields ----------------------------------------------

    def tower_field(self, p: int, n: int):
        return self._ref.setdefault(("tower", p, n), ref.FiniteField.tower(p, n))

    def quad_field(self, p: int, e: int):
        return self._ref.setdefault(("quad", p, e), ref.FiniteField.quadext(p, e))

    def image_of_t(self, p: int, e: int, m: int):
        """exactqt's image of t under F_{q^2} -> F_{q^2m}: the first root."""
        key = ("root", p, e, m)
        if key not in self._ref:
            self._ref[key] = ref.first_root(self.quad_field(p, e * m),
                                            ref.canonical_modulus(p, 2 * e))
        return self._ref[key]

    # -- set-up and inputs ---------------------------------------------

    def setup(self) -> None:
        E = self.E
        self.f9 = E.QuadExt(_Q, 1)
        self.small = {name: E.QuadExt(p, 1) for name, (p, _) in EMBEDDINGS.items()}
        counts = {kind: self.round.count(kind) for kind in self.round}
        self.per_pass = counts
        self.draws = {kind: _Distinct(random.Random(f"{self.name}:{self.seed}:{kind}"),
                                      lambda rng, kind=kind: self._draw(kind, rng), repr)
                      for kind in counts}

    # the fields embeddings and fixed points start from and build
    field_specs = ["quadext:2:1", "quadext:3:1", "quadext:2:3", "quadext:2:5", "quadext:3:3"]

    def _draw(self, kind: str, rng: random.Random):
        if kind in TEMPLATES:
            return rng.randrange(1, 10**6)
        if kind.startswith("curves"):
            return self._draw_curves(rng, kind)
        if kind.startswith("embed"):
            p, _ = EMBEDDINGS[kind]
            return tuple(tuple(rng.randrange(p) for _ in range(2)) for _ in range(9))
        return self._draw_fixed(rng, kind)

    def _draw_curves(self, rng, kind):
        p = rng.choice(PRIMES)
        degrees = (1, 2) if kind == "curves-line" else (2, 2)
        forms = []
        for d in degrees:
            while True:
                coeffs = {m: rng.randrange(p) for m in _MONOS[d]}
                coeffs = {m: c for m, c in coeffs.items() if c}
                if coeffs:
                    break
            forms.append(coeffs)
        return (p, forms[0], forms[1])

    def _invertible(self, rng):
        k = self.quad_field(_Q, 1)
        while True:
            m = tuple(tuple(rng.choice(list(k.elements())) for _ in range(_DIM))
                      for _ in range(_DIM))
            if not k.is_zero(ref.det(k, m)):
                return m

    def _draw_fixed(self, rng, kind):
        m = self._invertible(rng)
        if kind == "fixed-antilinear":
            # A (A^gamma)^-1 is conjugate to the pure conjugation psi -> psi^gamma,
            # so its fixed points are counted by a closed formula.
            k = self.quad_field(_Q, 1)
            ca = tuple(tuple(k.conj(x) for x in row) for row in m)
            det = ref.det(k, ca)
            inv = ((ca[1][1], k.neg(ca[0][1])), (k.neg(ca[1][0]), ca[0][0]))
            inv = tuple(tuple(k.mul(x, k.inv(det)) for x in row) for row in inv)
            m = ref.matmul(k, m, inv)
        return m

    def make_pass(self, index: int) -> list[TowerTask]:
        tasks = []
        seen = dict.fromkeys(self.per_pass, 0)
        for kind in self.round:
            spec = self.draws[kind].get(index * self.per_pass[kind] + seen[kind])
            seen[kind] += 1
            tasks.append(self._task(kind, spec))
        return tasks

    def _task(self, kind: str, spec) -> TowerTask:
        E = self.E
        if kind in TEMPLATES:
            return TowerTask(kind, {"a": spec}, {"sentence": TEMPLATES[kind].format(a=spec)})
        if kind.startswith("curves"):
            p, f, g = spec
            return TowerTask(kind, {"p": p, "f": f, "g": g},
                             {"p": p, "f": _format_form(f), "g": _format_form(g)})
        if kind.startswith("embed"):
            p, m = EMBEDDINGS[kind]
            k = self.quad_field(p, 1)
            rows = [[k.format(spec[3 * i + j]) for j in range(3)] for i in range(3)]
            return TowerTask(kind, {"p": p, "m": m, "matrix": spec},
                             {"small": self.small[kind], "m": m,
                              "matrix": E.Matrix(self.small[kind], rows)})
        k = self.quad_field(_Q, 1)
        twist = 1 if kind == "fixed-antilinear" else 0
        matrix = E.Matrix(self.f9, [[k.format(x) for x in row] for row in spec])
        return TowerTask(kind, {"matrix": spec, "twist": twist},
                         {"map": E.SemilinearMap(matrix, twist)})

    # -- the timed work ------------------------------------------------

    def run(self, t: TowerTask):
        E, p = self.E, t.prog
        if t.kind in TEMPLATES:
            return E.lefschetz_sample(p["sentence"], primes=PRIMES)
        if t.kind.startswith("curves"):
            return E.curves_meet(p["p"], p["f"], p["g"])
        if t.kind.startswith("embed"):
            emb = E.build_embedding(p["small"], p["m"])
            return emb, E.extend_matrix(emb, p["matrix"])
        return E.fixed_points(p["map"], max_ext=_MAX_EXT)

    # -- answers and checks --------------------------------------------

    def answer(self, t: TowerTask, result) -> dict:
        if t.kind in TEMPLATES:
            return {"verdicts": {p: (v.value, v.certified, v.witness_level,
                                     None if v.witness is None else dict(v.witness))
                                 for p, v in result.verdicts},
                    "certified_true": result.certified_true,
                    "conjecture": result.conjecture}
        if t.kind.startswith("curves"):
            return dict(result.to_json())
        if t.kind.startswith("embed"):
            emb, extended = result
            doc = emb.to_json()
            doc["extended"] = [str(extended.entry(i, j)) for i in range(3) for j in range(3)]
            return doc
        doc = result.to_json()
        doc["points"] = [dict(pt) for pt in doc["points"]]
        return doc

    def check(self, t: TowerTask, ans: dict) -> None:
        if t.kind in TEMPLATES:
            self._check_sentence(t, ans)
        elif t.kind.startswith("curves"):
            self._check_curves(t, ans)
        elif t.kind.startswith("embed"):
            self._check_embedding(t, ans)
        else:
            self._check_fixed(t, ans)

    def _check_sentence(self, t: TowerTask, ans: dict) -> None:
        a = t.spec["a"]
        expect(sorted(ans["verdicts"]) == list(PRIMES), "verdicts do not cover the primes")
        for p, (value, certified, level, witness) in ans["verdicts"].items():
            expect(value is True, f"{t.kind} sentence not True at p = {p}")
            if t.kind == "forall":
                expect(not certified, "an A-E sentence cannot be certified")
                continue
            expect(certified, f"{t.kind} sentence not certified at p = {p}")
            expect(isinstance(level, int) and 1 <= level, "bad witness level")
            k = self.tower_field(p, level)
            x = k.parse(witness["x"])
            total = k.add(k.mul(x, x), k.from_int(a))
            if t.kind == "sum":
                y = k.parse(witness["y"])
                total = k.add(total, k.mul(y, y))
            expect(k.is_zero(total), f"witness fails its equation at p = {p}")
            if t.kind == "square":
                minus_a = -a % p
                square = p == 2 or minus_a == 0 or pow(minus_a, (p - 1) // 2, p) == 1
                expect((level == 1) == square, "witness level disagrees with Euler's criterion")
        if t.kind != "forall":
            expect(ans["certified_true"] == len(PRIMES) and ans["conjecture"] == CONCLUSION,
                   "summary disagrees with the verdicts")

    def _check_curves(self, t: TowerTask, ans: dict) -> None:
        expect(ans["meet"] is True and not ans["bound_too_small"], "plane curves must meet")
        level = ans["level"]
        expect(isinstance(level, int) and 1 <= level == ans["levels_scanned"], "bad level")
        k = self.tower_field(t.spec["p"], level)
        point = tuple(k.parse(c) for c in ans["point"])
        first = next((c for c in point if not k.is_zero(c)), None)
        expect(first == k.one, "point is not a normalized projective point")
        expect(k.is_zero(_eval_form(k, t.spec["f"], point))
               and k.is_zero(_eval_form(k, t.spec["g"], point)), "point is not a common zero")

    def _check_embedding(self, t: TowerTask, ans: dict) -> None:
        p, m = t.spec["p"], t.spec["m"]
        small, big = self.quad_field(p, 1), self.quad_field(p, m)
        order = small.order
        cert = ans["certificate"]
        expect(cert["elements_checked"] == order and cert["addition_pairs"] == order**2
               and cert["multiplication_pairs"] == order**2, "certificate counts are wrong")
        expect(cert["injective"] and cert["involution_compatible"], "certificate flags are wrong")
        expect(tuple(ans["small"]["modulus"]) == small.f and tuple(ans["big"]["modulus"]) == big.f,
               "fields are not the canonical ones")
        image = big.parse(ans["generator_image"])
        expect(big.is_zero(ref.embed_element(big, image, small.f)),
               "generator image is not a root of the small modulus")
        for text, x in zip(ans["extended"], t.spec["matrix"]):
            y = big.parse(text)
            expect(y == ref.embed_element(big, image, x), "extend_matrix disagrees")
            expect(ref.embed_element(big, image, small.conj(x)) == big.conj(y),
                   "embedding does not carry the conjugation")

    def _check_fixed(self, t: TowerTask, ans: dict) -> None:
        twist, base = t.spec["twist"], t.spec["matrix"]
        k1 = self.quad_field(_Q, 1)
        by_level: dict = {}
        for pt in ans["points"]:
            m = pt["level"]
            expect(m in (1, _MAX_EXT), "fixed point on an even level")
            k = self.quad_field(_Q, m)
            image = self.image_of_t(_Q, 1, m)
            mhat = tuple(tuple(ref.embed_element(k, image, x) for x in row) for row in base)
            psi = tuple(k.parse(c) for c in pt["coordinates"])
            mu = k.parse(pt["multiplier"])
            first = next((c for c in psi if not k.is_zero(c)), None)
            expect(first == k.one and not k.is_zero(mu), "point is not normalized")
            arg = tuple(k.conj(c) for c in psi) if twist else psi
            expect(ref.matvec(k, mhat, arg) == ref.scale(k, mu, psi), "point is not fixed")
            expect(pt["form_compatible"] == (m % 2 == 1), "form compatibility flag is wrong")
            by_level.setdefault(m, []).append(psi)
        for pts in by_level.values():
            expect(len(set(pts)) == len(pts), "a fixed point is listed twice")
        low, high = by_level.get(1, []), by_level.get(_MAX_EXT, [])
        kh, image = self.quad_field(_Q, _MAX_EXT), self.image_of_t(_Q, 1, _MAX_EXT)
        lifted = {tuple(ref.embed_element(kh, image, c) for c in psi) for psi in low}
        expect(not lifted & set(high), "a level-1 point is listed again at level 3")
        if twist:
            expect(tuple(ans["levels_scanned"]) == (1, _MAX_EXT), "levels scanned")
            q, n = _Q, _DIM
            at1 = (q**n - 1) // (q - 1)
            at3 = (q ** (3 * n) - 1) // (q**3 - 1) - at1
            expect((len(low), len(high)) == (at1, at3), "fixed point counts are wrong")
            return
        # Linear: level-1 points are the eigenlines over F_9; a non-scalar 2x2
        # has no new ones at level 3 (its eigenvalues lie in F_9 or F_81).
        roots = [lam for lam in k1.elements()
                 if k1.is_zero(ref.det(k1, tuple(
                     tuple(k1.sub(x, lam) if i == j else x for j, x in enumerate(row))
                     for i, row in enumerate(base))))]
        scalar = base[0][1] == base[1][0] == k1.zero and base[0][0] == base[1][1]
        if scalar:
            # a scalar map fixes every point: P^1 over F_9, then over F_729
            want = (k1.order + 1, kh.order - k1.order)
        else:
            want = (len(roots), 0)
        expect((len(low), len(high)) == want, "eigenline counts are wrong")
        # the eigenlines span the plane only for two distinct roots or a scalar map
        expect(ans["bound_too_small"] == (len(roots) < 2 and not scalar),
               "bound flag disagrees with the spectrum")

    # -- self-check ----------------------------------------------------

    def corruptions(self) -> list:
        """(name, fn, kinds) triples; each fn breaks one answer in place."""
        def verdict(t, a):
            a["verdicts"][2] = (False,) + a["verdicts"][2][1:]

        def certified(t, a):
            value, cert, level, w = a["verdicts"][3]
            a["verdicts"][3] = (value, not cert, level, w)

        def witness(t, a):
            value, cert, level, w = a["verdicts"][5]
            w = dict(w, x="1" if w["x"] == "0" else "0")
            a["verdicts"][5] = (value, cert, level, w)

        def level(t, a):
            value, cert, lvl, w = a["verdicts"][5]
            a["verdicts"][5] = (value, cert, 3 - lvl, w)

        def summary(t, a):
            a["certified_true"] -= 1

        def point(t, a):
            # the first z that takes the point off one of the curves
            k = self.tower_field(t.spec["p"], a["level"])
            x, y, _ = (k.parse(c) for c in a["point"])
            a["point"] = ["0", "0", "0"]
            for z in k.elements():
                if not (k.is_zero(_eval_form(k, t.spec["f"], (x, y, z)))
                        and k.is_zero(_eval_form(k, t.spec["g"], (x, y, z)))):
                    a["point"] = [k.format(x), k.format(y), k.format(z)]
                    break

        def certificate(t, a):
            a["certificate"] = dict(a["certificate"],
                                    addition_pairs=a["certificate"]["addition_pairs"] - 1)

        def generator(t, a):
            a["generator_image"] = a["generator_image"] + "+1"

        def extended(t, a):
            a["extended"] = [a["extended"][0] + "+1"] + a["extended"][1:]

        def fixed_point(t, a):
            if not a["points"]:
                a["points"].append({"level": 1, "coordinates": ["1", "1"], "multiplier": "t",
                                    "form_compatible": True})
                return
            pt = dict(a["points"][-1])
            pt["coordinates"] = [pt["coordinates"][0], pt["coordinates"][1] + "+t"]
            a["points"][-1] = pt

        def fixed_count(t, a):
            a["points"].append(dict(a["points"][0]) if a["points"] else
                               {"level": 3, "coordinates": ["1", "0"], "multiplier": "1",
                                "form_compatible": True})

        sentences, curves = tuple(TEMPLATES), ("curves-line", "curves-conic")
        fixed = ("fixed-linear", "fixed-antilinear")
        return [("verdict", verdict, sentences), ("certified-flag", certified, sentences),
                ("witness", witness, ("square", "sum")), ("witness-level", level, ("square",)),
                ("summary", summary, ("square", "sum")), ("curve-point", point, curves),
                ("certificate", certificate, tuple(EMBEDDINGS)),
                ("generator-image", generator, tuple(EMBEDDINGS)),
                ("extended-matrix", extended, tuple(EMBEDDINGS)),
                ("fixed-point", fixed_point, fixed), ("fixed-count", fixed_count, fixed)]
