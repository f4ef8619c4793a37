"""modal-finite and modal-gaussian: one modal experiment per task.

A task builds an observable H = U diag(lam) U* with make_observable,
measures a state, collapses onto every outcome that can occur, evolves the
first post-measurement state under a unitary, tensors it with a second
state and factors the product again.  modal-gaussian also asks for the
spectrum of one generic Hermitian matrix of dimension 3.

Inputs come from the benchmark's own generators in ref arithmetic, and the
program sees them only as element strings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import ref
from ref import expect

# Pythagorean triples: Q(i) elements of norm one are (a + b i) / c.
_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))
# Eigenvalue magnitudes over Q(i).  Only the signs and the order are drawn,
# so the divisor search on the constant term +-prod(_MAGNITUDES[:n]) costs
# the same for every seed.
_MAGNITUDES = (1, 2, 3, 5, 7)
# Generic Hermitian base matrices over Q(i): each task conjugates one of
# them by a seeded unitary, which keeps its characteristic polynomial, so
# the Gaussian divisor search costs the same for every seed while no input
# repeats.  The bases are the first six draws of the generator, unselected.
_GENERIC_BASES = 6


@dataclass
class ModalTask:
    kind: str
    k: object            # reference field
    lams: list
    H: tuple
    psi: tuple
    V: tuple
    phi: tuple
    G: tuple | None
    prog: dict           # the same inputs as exactqt objects


class _Tables:
    """Phases and norm splits for the unitary generator of one field."""

    def __init__(self, k):
        self.k = k
        if isinstance(k, ref.GaussField):
            units = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
                     (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))]
            self.units = units
            self.phases = units + [(Fraction(x, c), Fraction(y, c)) for a, b, c in _TRIPLES
                                   for x, y in ((a, b), (a, -b), (-a, b), (-a, -b),
                                                (b, a), (b, -a), (-b, a), (-b, -a))]
            self.fixed = None
            return
        elements = list(k.elements())
        norms: dict = {}
        self.fixed = []
        for x in elements:
            cx = k.conj(x)
            norms.setdefault(k.mul(cx, x), []).append(x)
            if cx == x:
                self.fixed.append(x)
        self.elements = elements
        self.norms = norms
        self.phases = norms[k.one]

    def split(self, rng: random.Random):
        """(a, b) with N(a) + N(b) = 1."""
        k = self.k
        if isinstance(k, ref.GaussField):
            a, b, c = _TRIPLES[rng.randrange(len(_TRIPLES))]
            if rng.random() < 0.5:
                a, b = b, a
            ua, ub = rng.choice(self.units), rng.choice(self.units)
            return (k.mul((Fraction(a, c), Fraction(0)), ua),
                    k.mul((Fraction(b, c), Fraction(0)), ub))
        a = rng.choice(self.elements)
        rest = k.sub(k.one, k.mul(k.conj(a), a))
        return a, rng.choice(self.norms[rest])

    def unitary(self, rng: random.Random, n: int):
        """A product of n + 2 elementary unitaries, applied as row operations."""
        k = self.k
        u = [list(r) for r in ref.identity(k, n)]
        for _ in range(n + 2):
            kind = rng.randrange(3)
            if kind == 0:
                i, j = rng.sample(range(n), 2)
                u[i], u[j] = u[j], u[i]
            elif kind == 1:
                for i in range(n):
                    d = rng.choice(self.phases)
                    u[i] = [k.mul(d, x) for x in u[i]]
            else:
                i, j = sorted(rng.sample(range(n), 2))
                a, b = self.split(rng)
                d = rng.choice(self.phases)
                b01 = k.neg(k.mul(k.conj(b), d))
                b11 = k.mul(k.conj(a), d)
                ri, rj = u[i], u[j]
                u[i] = [k.add(k.mul(a, x), k.mul(b01, y)) for x, y in zip(ri, rj)]
                u[j] = [k.add(k.mul(b, x), k.mul(b11, y)) for x, y in zip(ri, rj)]
        return tuple(tuple(r) for r in u)

    def element(self, rng: random.Random):
        k = self.k
        if isinstance(k, ref.GaussField):
            return (Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        return rng.choice(self.elements)

    def state(self, rng: random.Random, n: int):
        while True:
            v = tuple(self.element(rng) for _ in range(n))
            if any(not self.k.is_zero(x) for x in v):
                return v


def _similar(k, u, d):
    """u @ d @ u*."""
    return ref.matmul(k, ref.matmul(k, u, d), ref.adjoint(k, u))


class ModalWorkload:
    """Shared task, answer and check code for both modal workloads."""

    name = ""
    round: tuple = ()
    passes_per_second = 1.0

    def __init__(self, exactqt, seed: int):
        self.E = exactqt
        self.seed = seed
        self.fields: dict = {}

    # -- set-up and inputs ---------------------------------------------

    @property
    def field_specs(self) -> list[str]:
        return list(dict.fromkeys(spec for spec, _ in self.round))

    def setup(self) -> None:
        """Field construction in the program; generator tables on our side."""
        for spec in self.field_specs:
            k = ref.field(spec)
            self.fields[spec] = (self.E.parse_field(spec), k, _Tables(k))

    def _to_prog(self, f, k, m):
        return self.E.Matrix(f, [[k.format(x) for x in row] for row in m])

    def _vec_to_prog(self, f, k, v):
        return self.E.StateVector(f, [k.format(x) for x in v])

    def _eigenvalues(self, rng, tables, n):
        return rng.sample(tables.fixed, n)

    def _generic(self, rng, slot, k, tables):
        return None

    def make_pass(self, index: int) -> list[ModalTask]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        tasks = []
        for slot, (spec, n) in enumerate(self.round):
            f, k, tables = self.fields[spec]
            lams = self._eigenvalues(rng, tables, n)
            u = tables.unitary(rng, n)
            diag = tuple(tuple(lams[i] if i == j else k.zero for j in range(n)) for i in range(n))
            h = _similar(k, u, diag)
            psi = tables.state(rng, n)
            v = tables.unitary(rng, n)
            phi = tables.state(rng, 3)
            g = self._generic(rng, slot, k, tables)
            prog = {"H": self._to_prog(f, k, h), "psi": self._vec_to_prog(f, k, psi),
                    "V": self._to_prog(f, k, v), "phi": self._vec_to_prog(f, k, phi),
                    "G": None if g is None else self._to_prog(f, k, g)}
            tasks.append(ModalTask(f"{spec}/{n}", k, lams, h, psi, v, phi, g, prog))
        return tasks

    # -- the timed work ------------------------------------------------

    def run(self, t: ModalTask):
        E, p = self.E, t.prog
        obs = E.make_observable(p["H"])
        rep = E.measure(obs, p["psi"])
        posts = [(o.eigenvalue, E.collapse(obs, p["psi"], o.eigenvalue))
                 for o in rep.outcomes if o.modal_possible]
        evolved = E.evolve(p["V"], posts[0][1])
        bip = E.tensor_state(evolved, p["phi"])
        product = E.is_product(bip)
        generic = None if p["G"] is None else E.eigen_decompose(p["G"])
        return obs, rep, posts, evolved, bip, product, generic

    # -- answers and checks --------------------------------------------

    def answer(self, t: ModalTask, result) -> dict:
        """The program's answers as reference values (read from their text)."""
        obs, rep, posts, evolved, bip, product, generic = result
        k = t.k
        el = lambda x: k.parse(str(x))  # noqa: E731
        vec = lambda v: tuple(el(x) for x in v)  # noqa: E731
        ok, factors = product
        ans = {
            "obs": obs,
            "complete": obs.complete,
            "pairs": [(el(pr.value), [vec(b) for b in pr.basis]) for pr in obs.spectrum.pairs],
            "outcomes": [(el(o.eigenvalue), vec(o.projected_state), o.modal_possible,
                          None if o.born_weight is None else el(o.born_weight))
                         for o in rep.outcomes],
            "total": el(rep.total_form_value),
            "posts": [(el(lam), vec(post)) for lam, post in posts],
            "evolved": vec(evolved),
            "bip": (tuple(bip.dims), vec(bip.vector)),
            "product": (ok, None if factors is None else vec(factors[0]),
                        None if factors is None else vec(factors[1])),
            "generic": None,
        }
        if generic is not None:
            cp = self.E.char_poly(t.prog["G"])
            ans["generic"] = {
                "pairs": [(el(pr.value), [vec(b) for b in pr.basis]) for pr in generic.pairs],
                "char_poly": [el(c) for c in cp.coeffs],
            }
        return ans

    def check(self, t: ModalTask, ans: dict) -> None:
        k, n = t.k, len(t.lams)
        zero_vec = (k.zero,) * n
        # The spectrum is the eigenvalue set put into U diag(lam) U*.
        expect(ans["complete"], "spectrum reported incomplete")
        expect(sorted(lam for lam, _ in ans["pairs"]) == sorted(t.lams),
               "spectrum differs from the planted eigenvalues")
        for lam, basis in ans["pairs"]:
            expect(len(basis) == 1, "planted eigenvalues are simple")
            for b in basis:
                expect(b != zero_vec, "zero eigenvector")
                expect(ref.matvec(k, t.H, b) == ref.scale(k, lam, b), "H v != lam v")
        # Born weights: N(<b, psi>) / <b, b> each, summing to <psi, psi>.
        psi_norm = ref.herm(k, t.psi, t.psi)
        expect(ans["total"] == psi_norm, "total form value != <psi, psi>")
        expect([o[0] for o in ans["outcomes"]] == [lam for lam, _ in ans["pairs"]],
               "outcomes do not follow the spectrum")
        total, proj_sum = k.zero, zero_vec
        for (lam, proj, possible, weight), (_, basis) in zip(ans["outcomes"], ans["pairs"]):
            b = basis[0]
            c = ref.herm(k, b, t.psi)
            expect(weight is not None, "Born weight undefined on a non-isotropic eigenspace")
            expect(weight == k.mul(k.mul(k.conj(c), c), k.inv(ref.herm(k, b, b))),
                   "Born weight != N(<b, psi>) / <b, b>")
            expect(ref.matvec(k, t.H, proj) == ref.scale(k, lam, proj),
                   "projection leaves its eigenspace")
            expect(possible == (proj != zero_vec), "modal verdict disagrees with the projection")
            total = k.add(total, weight)
            proj_sum = ref.vadd(k, proj_sum, proj)
        expect(total == psi_norm, "Born weights do not sum to <psi, psi>")
        expect(proj_sum == t.psi, "projections do not sum to psi")
        # collapse lands in its eigenspace, equals the projection, is idempotent.
        projections = {o[0]: o[1] for o in ans["outcomes"] if o[2]}
        expect([lam for lam, _ in ans["posts"]] == list(projections), "collapse missed an outcome")
        f = t.prog["H"].owner
        for lam, post in ans["posts"]:
            expect(post == projections[lam], "collapse != projection")
            expect(ref.matvec(k, t.H, post) == ref.scale(k, lam, post),
                   "collapse leaves its eigenspace")
            again = self.E.collapse(ans["obs"], self._vec_to_prog(f, k, post),
                                    f.element(k.format(lam)))
            expect(tuple(k.parse(str(x)) for x in again) == post, "collapse is not idempotent")
        # evolve: U*U = I and the form value is kept.
        post = ans["posts"][0][1]
        expect(ref.matmul(k, ref.adjoint(k, t.V), t.V) == ref.identity(k, n), "U*U != I")
        expect(ans["evolved"] == ref.matvec(k, t.V, post), "evolve != U psi")
        expect(ref.herm(k, ans["evolved"], ans["evolved"]) == ref.herm(k, post, post),
               "<U psi, U psi> != <psi, psi>")
        # tensor and product detection give back the factors.
        dims, vector = ans["bip"]
        expect(dims == (n, len(t.phi)) and vector == ref.kron(k, ans["evolved"], t.phi),
               "tensor_state != Kronecker product")
        ok, left, right = ans["product"]
        expect(ok and left is not None and right is not None, "a tensor of states not a product")
        expect(ref.kron(k, left, right) == vector, "factors do not rebuild the state")
        expect(ref.proportional(k, left, ans["evolved"]) and ref.proportional(k, right, t.phi),
               "factors are not the original states")
        if t.G is not None:
            self._check_generic(t, ans["generic"])

    def _check_generic(self, t: ModalTask, gen: dict) -> None:
        k, g = t.k, t.G
        n = len(g)
        cp = gen["char_poly"]
        expect(len(cp) == n + 1 and cp[n] == k.one, "char_poly not monic of degree n")
        expect(cp[n - 1] == k.neg(ref.trace(k, g)), "x^(n-1) coefficient != -trace")
        det = ref.det(k, g)
        expect(cp[0] == (det if n % 2 == 0 else k.neg(det)), "constant term != (-1)^n det")
        for lam, basis in gen["pairs"]:
            for b in basis:
                expect(b != (k.zero,) * n, "zero eigenvector")
                expect(ref.matvec(k, g, b) == ref.scale(k, lam, b), "G v != lam v")

    # -- self-check ----------------------------------------------------

    def corruptions(self) -> list:
        """(name, fn, kinds) triples; each fn breaks one answer in place."""
        def bump(k, x):
            return k.add(x, k.one)

        def vec_bump(k, v):
            return (bump(k, v[0]),) + tuple(v[1:])

        def spectrum(t, a):
            lam, basis = a["pairs"][0]
            a["pairs"][0] = (bump(t.k, lam), basis)

        def eigenvector(t, a):
            lam, basis = a["pairs"][0]
            a["pairs"][0] = (lam, [vec_bump(t.k, basis[0])])

        def weight(t, a):
            lam, proj, possible, w = a["outcomes"][0]
            a["outcomes"][0] = (lam, proj, possible, bump(t.k, w))

        def projection(t, a):
            lam, proj, possible, w = a["outcomes"][-1]
            a["outcomes"][-1] = (lam, vec_bump(t.k, proj), possible, w)

        def collapsed(t, a):
            lam, post = a["posts"][0]
            a["posts"][0] = (lam, vec_bump(t.k, post))

        def evolved(t, a):
            a["evolved"] = vec_bump(t.k, a["evolved"])

        def factor(t, a):
            ok, left, right = a["product"]
            a["product"] = (ok, left, vec_bump(t.k, right))

        return [(name, fn, None) for name, fn in (
            ("spectrum", spectrum), ("eigenvector", eigenvector), ("born-weight", weight),
            ("projection", projection), ("collapse", collapsed), ("evolve", evolved),
            ("product-factor", factor))]


class ModalFinite(ModalWorkload):
    name = "modal-finite"
    # Orders 81, 169, 256 and 625; dimensions 4 and 5.
    round = tuple((spec, n) for spec in ("quadext:3:2", "quadext:13:1", "quadext:2:4",
                                         "quadext:5:2") for n in (4, 5))
    passes_per_second = 2.8


class ModalGaussian(ModalWorkload):
    name = "modal-gaussian"
    round = tuple(("gaussian", n) for n in (3, 4, 5, 3, 4, 5))
    passes_per_second = 0.85

    def setup(self) -> None:
        super().setup()
        _, k, tables = self.fields["gaussian"]
        self.bases = []
        for b in range(_GENERIC_BASES):
            rng = random.Random(f"generic-hermitian:{b}")
            m = [[k.zero] * 3 for _ in range(3)]
            for i in range(3):
                m[i][i] = k.from_int(rng.randint(-9, 9))
                for j in range(i + 1, 3):
                    x = tables.element(rng)
                    m[i][j], m[j][i] = x, k.conj(x)
            self.bases.append(tuple(tuple(r) for r in m))

    def _eigenvalues(self, rng, tables, n):
        lams = [tables.k.from_int(m * rng.choice((1, -1))) for m in _MAGNITUDES[:n]]
        rng.shuffle(lams)
        return lams

    def _generic(self, rng, slot, k, tables):
        return _similar(k, tables.unitary(rng, 3), self.bases[slot % len(self.bases)])

    def corruptions(self) -> list:
        def char_poly_const(t, a):
            cp = a["generic"]["char_poly"]
            cp[0] = t.k.add(cp[0], t.k.one)

        def char_poly_trace(t, a):
            cp = a["generic"]["char_poly"]
            cp[-2] = t.k.add(cp[-2], t.k.one)

        def generic_pair(t, a):
            a["generic"]["pairs"].append((t.k.zero, [(t.k.one, t.k.zero, t.k.zero)]))

        return super().corruptions() + [("char-poly-constant", char_poly_const, None),
                                        ("char-poly-trace", char_poly_trace, None),
                                        ("generic-eigenpair", generic_pair, None)]
