"""Sentence language, bounded closure evaluation, and curve intersection."""

import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from exactqt import (
    Polynomial,
    PrimeField,
    QuadExt,
    alpha_rename,
    curves_meet,
    eval_closure,
    eval_finite,
    expand_literals,
    free_variables,
    lefschetz_sample,
    parse_sentence,
    parse_ternary_polynomial,
    pretty,
)
from exactqt import lefschetz
from exactqt.errors import NotHomogeneous, ParseError
from exactqt.lefschetz import (
    Add, And, Eq, Exists, Forall, Lit, Mul, Not, Or, Sub, Var, _smallest_common_root,
)
from exactqt._tower import lift, tower_field

F3 = PrimeField(3)
F5 = PrimeField(5)


# Random sentences in one or two variables, for the oracles below.

def _random_term(rng: random.Random, names, depth: int):
    if depth == 0 or rng.random() < 0.4:
        if names and rng.random() < 0.7:
            return Var(rng.choice(names))
        return Lit(rng.randrange(3))
    ctor = rng.choice((Add, Sub, Mul))
    return ctor(_random_term(rng, names, depth - 1), _random_term(rng, names, depth - 1))


def _random_matrix(rng: random.Random, names, depth: int):
    if depth == 0 or rng.random() < 0.5:
        return Eq(_random_term(rng, names, 2), _random_term(rng, names, 2))
    r = rng.random()
    if r < 0.25:
        return Not(_random_matrix(rng, names, depth - 1))
    ctor = And if r < 0.625 else Or
    return ctor(_random_matrix(rng, names, depth - 1), _random_matrix(rng, names, depth - 1))


def _random_sentence(rng: random.Random):
    names = ["x", "y"][: rng.choice((1, 1, 2))]
    body = _random_matrix(rng, names, 2)
    for name in reversed(names):
        body = (Exists if rng.random() < 0.5 else Forall)(name, body)
    return body


def test_parse_basic_shapes():
    f = parse_sentence("E x . x*x + 1 = 0")
    assert f == Exists("x", Eq(Add(Mul(Var("x"), Var("x")), Lit(1)), Lit(0)))
    g = parse_sentence("A x . E y . y*y = x")
    assert g == Forall("x", Exists("y", Eq(Mul(Var("y"), Var("y")), Var("x"))))


def test_parse_subtraction_left_associative():
    f = parse_sentence("E x . x - 1 - 1 = 0")
    assert f == Exists("x", Eq(Sub(Sub(Var("x"), Lit(1)), Lit(1)), Lit(0)))
    g = parse_sentence("E x . x - (1 - x) = 0")
    assert g == Exists("x", Eq(Sub(Var("x"), Sub(Lit(1), Var("x"))), Lit(0)))


def test_parse_precedence():
    f = parse_sentence("E x . x = 0 | x = 1 & !(x = 2)")
    # & binds tighter than |, ! tighter than &
    assert pretty(f) == "E x . x = 0 | x = 1 & !(x = 2)"
    g = parse_sentence("E x . (x = 0 | x = 1) & x = 2")
    assert pretty(g) == "E x . (x = 0 | x = 1) & x = 2"


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_sentence("E x . x = ")
    assert exc.value.position == 10
    assert "column 10" in str(exc.value)
    with pytest.raises(ParseError):
        parse_sentence("E x . x ? 0")
    with pytest.raises(ParseError):
        parse_sentence("x + ) = 0")


def test_parse_refuses_deep_nesting_with_a_column():
    ok = parse_sentence("E x . " + "(" * 99 + "x = 0" + ")" * 99)
    assert pretty(ok) == "E x . x = 0"
    for inner in ("x = 0", "x) = (0"):
        with pytest.raises(ParseError) as exc:
            parse_sentence("E x . " + "(" * 400 + inner + ")" * 400)
        assert exc.value.position == 105
        assert "column 105" in str(exc.value)
    with pytest.raises(ParseError):
        parse_sentence("E x . " + "!" * 400 + "x = 0")
    with pytest.raises(ParseError):
        parse_sentence("E x . " * 400 + "x = 0")


def test_parse_refuses_long_flat_chains_with_a_column():
    # the 501st token is the '=' or '+' at column 1000 in both sentences
    for text in ("E x . " + "x = 0 & " * 1500 + "x = 0", "E x . x = " + "x + " * 1500 + "x"):
        with pytest.raises(ParseError) as exc:
            parse_sentence(text)
        assert exc.value.position == 1000
        assert "500 tokens" in str(exc.value)


@pytest.mark.parametrize("text", [
    "E x . x = " + "x + " * 247 + "x",
    "E x . " + "x = 0 & " * 123 + "x = 0",
    "E x . " + "!" * 98 + "(x = " + "x*" * 197 + "x)",
])
def test_sentences_at_the_token_cap_survive_every_pass(text):
    f = parse_sentence(text)
    assert pretty(f) == text
    assert free_variables(f) == frozenset()
    assert alpha_rename(f) == parse_sentence(pretty(alpha_rename(f)))
    assert eval_closure(f, 2).value is not None
    assert eval_finite(f, F3) in (True, False)


@pytest.mark.parametrize("text", [
    "E x . " + "!" * 99 + "x = 0",                          # 100 levels deep
    "E x . " + "!" * 98 + "x = " + "x*" * 198 + "x",        # 500 tokens
])
def test_printed_form_of_a_sentence_at_the_limits_parses_back(text):
    # pretty writes !(x = 0) where the text had !x = 0; those brackets are free
    f = parse_sentence(text)
    assert pretty(f).endswith(")")
    assert parse_sentence(pretty(f)) == f


@given(st.integers(0, 101), st.integers(0, 200), st.booleans(), st.booleans(),
       st.integers(0, 3))
@example(99, 0, False, False, 0)
@example(100, 0, False, False, 0)
@example(98, 198, False, False, 0)
@example(98, 199, False, False, 0)
@example(98, 197, True, False, 0)
@example(97, 194, False, True, 0)
@example(1, 120, False, False, 3)
def test_printed_form_parses_whenever_the_text_does(nots, factors, bracketed, term_bracket,
                                                     conjuncts):
    equation = ("(x + 1)*" if term_bracket else "") + "x = " + "x*" * factors + "x"
    negated = "!" * nots + (f"({equation})" if bracketed else equation)
    text = "E x . " + " & ".join([negated] + ["!x = 0"] * conjuncts)
    try:
        f = parse_sentence(text)
    except ParseError:
        return
    assert parse_sentence(pretty(f)) == f


def test_parse_renames_rebound_variables():
    f = parse_sentence("E x . (E x . x = 0) & x = 1")
    assert pretty(f) == "E x . (E x0 . x0 = 0) & x = 1"
    g = parse_sentence("A x . E x . x = 0")
    assert pretty(g) == "A x . E x0 . x0 = 0"
    # the rename is semantics-preserving: the inner binder shadows the outer
    assert eval_finite(g, F3) is True
    assert eval_finite("A y . E y . y = 0", F3) is True


# The parser names binders as it reads them.  The oracle below renames them
# after the fact, in a separate walk over the finished tree: a quantifier
# rebinding a name already bound takes the first name{k} found nowhere in the
# tree and not handed out before.


def _all_names(formula) -> set[str]:
    if isinstance(formula, Var):
        return {formula.name}
    if isinstance(formula, Lit):
        return set()
    if isinstance(formula, (Add, Sub, Mul, Eq, And, Or)):
        return _all_names(formula.left) | _all_names(formula.right)
    if isinstance(formula, Not):
        return _all_names(formula.body)
    return {formula.var} | _all_names(formula.body)


def _rename_binders(formula, fresh):
    """Rebind each quantifier to fresh(its name), renaming its bound occurrences."""

    def walk(node, env):
        if isinstance(node, Var):
            return Var(env.get(node.name, node.name))
        if isinstance(node, Lit):
            return node
        if isinstance(node, (Add, Sub, Mul, Eq, And, Or)):
            return type(node)(walk(node.left, env), walk(node.right, env))
        if isinstance(node, Not):
            return Not(walk(node.body, env))
        new = fresh(node.var)
        return type(node)(new, walk(node.body, {**env, node.var: new}))

    return walk(formula, {})


def _unique_binders(formula):
    """Rename any re-bound variable so each quantifier binds a fresh name."""
    used: set[str] = set()
    taken = _all_names(formula)

    def fresh(name: str) -> str:
        if name in used:
            k = 0
            while f"{name}{k}" in taken:
                k += 1
            name = f"{name}{k}"
        used.add(name)
        taken.add(name)
        return name

    return _rename_binders(formula, fresh)


# one name bound again and again, with "x0" and "x1" in the text to clash
# with the names a rebinding would take
_NAMES = st.sampled_from(["x", "x", "x", "x0", "x1", "y"])
_TERMS = st.recursive(
    st.one_of(st.builds(Var, _NAMES), st.builds(Lit, st.integers(0, 2))),
    lambda sub: st.one_of(st.builds(Add, sub, sub), st.builds(Sub, sub, sub),
                          st.builds(Mul, sub, sub)),
    max_leaves=3)
_FORMULAS = st.recursive(
    st.builds(Eq, _TERMS, _TERMS),
    lambda sub: st.one_of(st.builds(Not, sub), st.builds(And, sub, sub), st.builds(Or, sub, sub),
                          st.builds(Exists, _NAMES, sub), st.builds(Forall, _NAMES, sub)),
    max_leaves=6)


@settings(max_examples=300)
@given(_FORMULAS)
@example(Exists("x", And(Exists("x", Eq(Var("x"), Lit(0))), Forall("x", Eq(Var("x"), Var("x0"))))))
@example(Forall("x", Not(Exists("x", Or(Eq(Var("x"), Lit(1)), Exists("x", Eq(Var("x"), Var("x"))))))))
def test_parser_names_binders_as_the_rename_oracle_does(tree):
    assert parse_sentence(pretty(tree)) == _unique_binders(tree)


def test_a_failed_bracketed_subformula_that_bound_a_quantifier_fails_the_parse():
    # atom() backtracks from a subformula to a term at '('; no term spans a keyword
    for text in ("E x . (E x . x = 0 & ) = 1", "(E x . x = 0 & x) = 1",
                 "E x . (x = 0 | (E x . x = 1) x) = 0"):
        with pytest.raises(ParseError):
            parse_sentence(text)


def test_pretty_parse_round_trip_canonical():
    for text in [
        "E x . x*x + 1 = 0",
        "A x . E y . y*y = x",
        "E x . !(x = 0 | x = 1)",
        "A x . x*(x + 1) = x*x + x",
        "E x . A y . x*y = y*x",
        "E x . x + 1 = 0 & 1 + 1 = 0 | x = 1",
        "A x . x - 1 - 1 = x - 2",
        "E x . x - (1 - x) = 0",
        "A x . !(x*x - 2 = 0)",
    ]:
        assert pretty(parse_sentence(text)) == text


def test_pretty_parse_round_trip_random():
    rng = random.Random(71)
    for _ in range(200):
        f = _random_sentence(rng)
        text = pretty(f)
        assert parse_sentence(text) == f


def test_free_variables_and_alpha_rename():
    f = parse_sentence("E x . x*y = z")
    assert free_variables(f) == frozenset({"y", "z"})
    renamed = alpha_rename(f)
    assert free_variables(renamed) == frozenset({"y", "z"})
    assert pretty(renamed) == "E v0 . v0*y = z"
    # bound names never capture the free ones
    g = alpha_rename(parse_sentence("E v0 . v0 = v1"))
    assert free_variables(g) == frozenset({"v1"})
    assert pretty(g) != "E v1 . v1 = v1"


def test_expand_literals():
    f = expand_literals(parse_sentence("E x . x = 3"))
    assert pretty(f) == "E x . x = 1 + 1 + 1"
    z = expand_literals(parse_sentence("E x . x = 0"))
    assert pretty(z) == "E x . x = 0"
    s = expand_literals(parse_sentence("E x . x - 2 = 0"))
    assert pretty(s) == "E x . x - (1 + 1) = 0"


def test_eval_finite_known_sentences():
    sq = parse_sentence("E x . x*x + 1 = 0")
    assert eval_finite(sq, F5) is True          # 2^2 + 1 = 5
    assert eval_finite(sq, F3) is False
    assert eval_finite(sq, PrimeField(2)) is True
    assert eval_finite(sq, QuadExt(3, 1)) is True   # t^2 = -1 by the modulus
    comm = parse_sentence("A x . A y . x*y = y*x")
    assert eval_finite(comm, F5) is True
    assert eval_finite("A x . x - x = 0", F5) is True
    assert eval_finite("E x . x - 1 = 1", F3) is True  # x = 2


def test_eval_finite_requires_closed():
    with pytest.raises(ValueError):
        eval_finite(parse_sentence("E x . x = y"), F3)


def test_existential_monotone_along_inclusions():
    rng = random.Random(73)
    checked = 0
    for _ in range(60):
        f = _random_sentence(rng)
        if not isinstance(f, Exists):
            continue
        lo = eval_finite(f, tower_field(3, 1))
        hi = eval_finite(f, tower_field(3, 2))
        if lo:
            assert hi
            checked += 1
    assert checked >= 3


def test_closure_at_level_one_agrees_with_finite_evaluation():
    rng = random.Random(83)
    for p in (2, 3):
        for _ in range(60):
            f = _random_sentence(rng)
            verdict = eval_closure(f, p, max_level=1, ambient_bound=1)
            assert verdict.value == eval_finite(f, tower_field(p, 1))


def test_closure_square_root_of_minus_one():
    sq = parse_sentence("E x . x*x + 1 = 0")
    for p in (2, 3, 5, 7, 11, 13):
        v = eval_closure(sq, p)
        assert v.value is True and v.certified
        expect_level = 1 if (p % 4 == 1 or p == 2) else 2
        assert v.witness_level == expect_level
        assert set(v.witness) == {"x"}


def test_closure_witness_is_checkable():
    v = eval_closure(parse_sentence("E x . x*x + 1 = 0"), 3)
    fld = tower_field(3, v.witness_level)
    x = fld.element(v.witness["x"])
    assert (x * x + fld.one()).is_zero()


def test_closure_bounded_universal_truth_is_uncertified():
    v = eval_closure(parse_sentence("A x . x*1 = x"), 5)
    assert v.value is True
    assert not v.certified


def test_closure_universal_counterexample_is_certified():
    v = eval_closure(parse_sentence("A x . x*x = x"), 5)
    assert v.value is False and v.certified
    assert v.witness_level == 1


def test_closure_relative_degrees_multiply():
    # each inner quantifier expands relative to the field the outer one
    # settled on, so the all-squares sentence at p = 3 stays True within
    # max_level 2 (the inner search from F_9 reaches F_81 = degree 4) ...
    s = parse_sentence("A x . E y . y*y = x")
    v = eval_closure(s, 3, max_level=2, ambient_bound=4)
    assert v.value is True and not v.certified
    # ... goes Unknown when deeper per-variable expansion pushes the needed
    # ambient degree past the cap ...
    deeper = eval_closure(s, 3, max_level=4, ambient_bound=4)
    assert deeper.value is None and not deeper.certified
    # ... and goes Unknown under a tighter ambient cap as well
    narrow = eval_closure(s, 3, max_level=2, ambient_bound=2)
    assert narrow.value is None and not narrow.certified


def test_closure_vacuous_quantifiers_certify_ground_truths():
    for p in (2, 3, 5, 7):
        v = eval_closure("E x . 1 = 0", p)
        assert v.value is False and v.certified
        w = eval_closure("A x . 1 = 0", p)
        assert w.value is False and w.certified
        t = eval_closure("E x . 0 = 0", p)
        assert t.value is True and t.certified
        u = eval_closure("A x . 1 + 1 = 2", p)
        assert u.value is True and u.certified


def test_negation_flips_how_a_quantifier_acts():
    for p in (2, 3, 5):
        # E under ! acts universally: a True verdict is not proved by finite search
        v = eval_closure("!(E x . x = 1 & x = 0)", p)
        assert v.value is True and not v.certified
        # A under ! acts existentially: its counterexample proves the negation
        w = eval_closure("!(A x . x = 0)", p)
        assert w.value is True and w.certified


def test_certified_verdicts_stable_under_larger_bounds():
    rng = random.Random(79)
    sampled = [_random_sentence(rng) for _ in range(40)]
    for f in sampled:
        base = eval_closure(f, 3, max_level=2, ambient_bound=4)
        if not base.certified:
            continue
        wider = eval_closure(f, 3, max_level=3, ambient_bound=6)
        assert wider.value == base.value
        assert wider.certified


def test_certified_existential_root_matches_direct_scan():
    # E x . f(x) = 0 is certified-True exactly when f has a root in some
    # F_{p^m} with m <= max_level
    polys = ["x*x + 1", "x*x + x + 2", "x*x*x + x + 1", "x + 1",
             "x*x + 2*x + 1", "x*x - 2"]
    for p in (2, 3, 5):
        for ptxt in polys:
            s = parse_sentence(f"E x . {ptxt} = 0")
            v = eval_closure(s, p, max_level=3, ambient_bound=3)
            body = s.body
            found = False
            for m in (1, 2, 3):
                fld = tower_field(p, m)
                for x in fld.elements():
                    if eval_finite_body(body, {"x": x}, fld):
                        found = True
                        break
                if found:
                    break
            assert (v.value is True and v.certified) == found


def eval_finite_body(body, env, fld):
    return _ref_eval_term(body.left, env, fld) == _ref_eval_term(body.right, env, fld)


def test_sample_per_prime_verdicts():
    primes = (2, 3, 5, 7, 11, 13)
    rep = lefschetz_sample("E x . x*x + 1 = 0", primes=primes)
    assert [p for p, _ in rep.verdicts] == list(primes)
    assert all(v.value is True and v.certified for _, v in rep.verdicts)
    assert rep.certified_true == 6 and rep.certified_false == 0
    assert rep.conjecture == (
        "true over every algebraically closed field of characteristic 0")
    doc = rep.to_json()
    assert doc["sentence"] == "E x . x*x + 1 = 0"
    assert doc["summary"]["primes_sampled"] == 6
    assert doc["summary"]["certified_true_fraction"] == "1"
    assert set(doc["verdicts"]) == {str(p) for p in primes}


def test_sample_certified_false_conjecture():
    rep = lefschetz_sample("E x . 1 = 0", primes=(2, 3, 5))
    assert rep.certified_false == 3 and rep.certified_true == 0
    assert rep.conjecture == (
        "false over every algebraically closed field of characteristic 0")


def test_sample_without_certificates_has_no_conjecture():
    rep = lefschetz_sample("A x . x*1 = x", primes=(2, 3))
    assert all(v.value is True and not v.certified for _, v in rep.verdicts)
    assert rep.certified_true == 0 and rep.conjecture is None


def test_sample_mixed_certification_fraction():
    # x = 1 with x + 1 = 0 holds exactly in characteristic 2; the p = 2
    # verdict is a certified True, the p = 3 search ends uncertified False
    rep = lefschetz_sample("E x . x + 1 = 0 & x = 1", primes=(2, 3))
    by_prime = dict(rep.verdicts)
    assert by_prime[2].value is True and by_prime[2].certified
    assert by_prime[3].value is False and not by_prime[3].certified
    assert rep.to_json()["summary"]["certified_true_fraction"] == "1/2"
    assert rep.conjecture == (
        "true over every algebraically closed field of characteristic 0")


def test_sample_sorts_and_dedups_primes():
    rep = lefschetz_sample("E x . x = 0", primes=(5, 3, 3, 2))
    assert [p for p, _ in rep.verdicts] == [2, 3, 5]
    with pytest.raises(ValueError):
        lefschetz_sample("E x . x = 0", primes=())


def _naive_truth(f, field, env):
    """Truth over one finite field, by the textbook recursion on the tree as built."""
    if isinstance(f, Eq):
        return _ref_eval_term(f.left, env, field) == _ref_eval_term(f.right, env, field)
    if isinstance(f, Not):
        return not _naive_truth(f.body, field, env)
    if isinstance(f, (And, Or)):
        left, right = _naive_truth(f.left, field, env), _naive_truth(f.right, field, env)
        return (left and right) if isinstance(f, And) else (left or right)
    values = [_naive_truth(f.body, field, {**env, f.var: x}) for x in field.elements()]
    return any(values) if isinstance(f, Exists) else all(values)


X = Var("x")

# built without the parser: inner binders shadow outer ones of the same name,
# and some quantifiers bind a variable their body never uses
SHADOWED_OR_VACUOUS = [
    Exists("x", Exists("x", Eq(Mul(X, X), Lit(2)))),
    Forall("x", And(Exists("x", Eq(X, Lit(1))), Eq(Add(X, X), Mul(Lit(2), X)))),
    Not(Exists("y", Forall("x", Eq(X, X)))),
    Exists("x", Or(Forall("x", Eq(Mul(X, X), X)), Eq(X, Lit(0)))),
    Forall("x", Not(Exists("y", Eq(Lit(1), Lit(0))))),
    Forall("y", Exists("x", Forall("x", Not(Eq(Mul(X, X), Add(X, Lit(1))))))),
    Exists("x", Forall("y", Or(Eq(Mul(X, X), Var("y")), Not(Eq(X, X))))),
    Exists("y", Exists("x", Eq(Add(Mul(X, X), X), Lit(1)))),
]


@pytest.mark.parametrize("tree", SHADOWED_OR_VACUOUS, ids=pretty)
def test_sample_verdicts_equal_closure_verdicts_on_shadowed_and_vacuous_trees(tree):
    primes = (2, 3, 5)
    rep = lefschetz_sample(tree, primes=primes)
    assert rep.sentence == pretty(tree)
    assert rep.verdicts == tuple((p, eval_closure(tree, p)) for p in primes)
    for field in (tower_field(2, 1), tower_field(2, 2), tower_field(3, 1)):
        assert eval_finite(tree, field) == _naive_truth(tree, field, {})


# The search as it was before it was compiled: an interpreter over Elements,
# the oracle for lefschetz._search.


def _ref_eval_term(t, env: dict, field):
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise ValueError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Lit):
        return field.element(t.value)
    a = _ref_eval_term(t.left, env, field)
    b = _ref_eval_term(t.right, env, field)
    if isinstance(t, Add):
        return a + b
    if isinstance(t, Sub):
        return a - b
    return a * b


def _ref_search(sentence, field_at, extensions):
    """(value, witness, level) by walking the tree with Elements, lifting the
    outer values with _tower.lift whenever a quantifier moves up a degree."""

    def ev(f, env: dict, ambient: int):
        if isinstance(f, Eq):
            fld = field_at(ambient)
            return _ref_eval_term(f.left, env, fld) == _ref_eval_term(f.right, env, fld), {}, ambient
        if isinstance(f, Not):
            v, w, lvl = ev(f.body, env, ambient)
            return (None if v is None else not v), w, lvl
        if isinstance(f, (And, Or)):
            decisive = isinstance(f, Or)  # the value that short-circuits
            lv, lw, ll = ev(f.left, env, ambient)
            if lv is decisive:
                return lv, lw, ll
            rv, rw, rl = ev(f.right, env, ambient)
            if rv is decisive:
                return rv, rw, rl
            if lv is None or rv is None:
                return None, None, None
            return (not decisive), {**lw, **rw}, max(ll, rl)
        hunting = isinstance(f, Exists)  # the decisive value for this quantifier
        ambients, blocked = extensions(ambient)
        saw_unknown = False
        survivor_level = ambient
        for m in ambients:
            env_m = env if m == ambient else {k: lift(v, m) for k, v in env.items()}
            for x in field_at(m).elements():
                v, w, lvl = ev(f.body, {**env_m, f.var: x}, m)
                if v is hunting:
                    return v, {f.var: str(x), **w}, max(m, lvl)
                if v is None:
                    saw_unknown = True
                else:
                    survivor_level = max(survivor_level, lvl)
        if blocked or saw_unknown:
            return None, None, None
        return (not hunting), {}, survivor_level

    return ev(sentence, {}, 1)


_FINITE_FIELDS = (PrimeField(5), QuadExt(3, 1), tower_field(2, 2))
_TEMPLATES = [text.format(a=a) for text in (
    "E x . x*x + {a} = 0", "E x . E y . x*x + y*y + {a} = 0", "A x . E y . y*y = x + {a}")
    for a in range(1, 13)]


def _search_outputs(tree) -> list:
    """Everything the search decides about tree, as JSON text where it is a
    report: lefschetz_sample at (2, 3, 5), eval_closure at a wider and at a
    tighter bound, and eval_finite over three finite fields."""
    return [json.dumps(lefschetz_sample(tree, primes=(2, 3, 5)).to_json()),
            json.dumps(eval_closure(tree, 2, max_level=3, ambient_bound=6).to_json()),
            json.dumps(eval_closure(tree, 3, max_level=2, ambient_bound=2).to_json())] + [
        eval_finite(tree, field) for field in _FINITE_FIELDS]


def _closed(tree):
    """tree with its free variables bound, alternately A and E."""
    for k, name in enumerate(sorted(free_variables(tree))):
        tree = (Exists if k % 2 else Forall)(name, tree)
    return tree


def _quantifier_depth(f) -> int:
    if isinstance(f, Eq):
        return 0
    if isinstance(f, Not):
        return _quantifier_depth(f.body)
    if isinstance(f, (And, Or)):
        return max(_quantifier_depth(f.left), _quantifier_depth(f.right))
    return 1 + _quantifier_depth(f.body)


def _with_template_examples(test):
    for text in _TEMPLATES:
        test = example(parse_sentence(text))(test)
    return test


@_with_template_examples
@given(st.one_of(st.integers(0, 2**32 - 1).map(lambda seed: _random_sentence(random.Random(seed))),
                 _FORMULAS.map(_closed).filter(lambda f: _quantifier_depth(f) <= 2)))
@example(SHADOWED_OR_VACUOUS[0])
@example(SHADOWED_OR_VACUOUS[5])
# an inner binder shadows x, then the outer x is read again
@example(Exists("x", And(Exists("x", Eq(X, Lit(1))), Eq(X, Lit(0)))))
# an inner quantifier lifts x to a bigger field, then x is read at its own degree
@example(Exists("x", And(Forall("y", Eq(Var("y"), Var("y"))), Eq(X, Lit(1)))))
# two witnesses merge, the left one's names first, at the higher of their levels
# (2 for x*x + 1 = 0 at p = 3); a name found twice keeps the right value
@example(And(Exists("y", Eq(Var("y"), Lit(0))), Exists("x", Eq(Add(Mul(X, X), Lit(1)), Lit(0)))))
@example(And(Exists("x", Eq(X, Lit(1))), Exists("x", Eq(X, Lit(0)))))
def test_compiled_search_matches_the_element_search(tree):
    compiled = _search_outputs(tree)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lefschetz, "_search", _ref_search)
        assert _search_outputs(tree) == compiled


def test_ternary_form_parsing():
    f = parse_ternary_polynomial("x^2 + 2*y^2 + z^2", F3)
    assert f.degree == 2
    two = F3.element(2)
    one = F3.one()
    zero = F3.zero()
    assert f.evaluate(one, one, zero) == zero  # 1 + 2 = 0 mod 3
    assert f.evaluate(one, zero, one) == two
    g = parse_ternary_polynomial("x*y*z - x^3", F5)
    assert g.degree == 3
    assert g.evaluate(F5.one(), F5.one(), F5.one()).is_zero()


def test_ternary_form_rejects_bad_input():
    with pytest.raises(NotHomogeneous):
        parse_ternary_polynomial("x^2 + y", F3)
    with pytest.raises(NotHomogeneous):
        parse_ternary_polynomial("x - x", F3)  # cancels to zero
    with pytest.raises(ParseError):
        parse_ternary_polynomial("x^2 + ", F3)
    with pytest.raises(ParseError):
        parse_ternary_polynomial("w^2", F3)


def test_curves_meet_level_one():
    r = curves_meet(3, "x*y", "x*z")
    assert r.meet is True
    assert r.level == 1
    assert r.point == ("0", "0", "1")


def test_curves_meet_needs_extension():
    # x^2 = 2 z^2 has no rational point over F_3 together with the line y = 0
    r = curves_meet(3, "x^2 - 2*z^2", "y")
    assert r.meet is True
    assert r.level == 2
    x, y, z = (tower_field(3, 2).element(c) for c in r.point)
    assert (x * x - z * z - z * z).is_zero() and y.is_zero()


def test_curves_meet_point_is_lex_first():
    report = curves_meet(5, "x^2 + y^2 + z^2", "x*y + y*z")
    fld = tower_field(5, report.level)
    fparsed = parse_ternary_polynomial("x^2 + y^2 + z^2", F5)
    gparsed = parse_ternary_polynomial("x*y + y*z", F5)
    naive = naive_projective_scan(fparsed, gparsed, fld)
    assert naive == tuple(str(c) for c in report.point)


def naive_projective_scan(f, g, fld):
    from exactqt.lefschetz import TernaryForm

    fd = TernaryForm(fld, {e: fld.element(c.payload) for e, c in f.monomials.items()})
    gd = TernaryForm(fld, {e: fld.element(c.payload) for e, c in g.monomials.items()})
    zero, one = fld.zero(), fld.one()
    points = [(zero, zero, one)]
    points += [(zero, one, z) for z in fld.elements()]
    points += [(one, y, z) for y in fld.elements() for z in fld.elements()]
    for pt in points:
        if fd.evaluate(*pt).is_zero() and gd.evaluate(*pt).is_zero():
            return tuple(str(c) for c in pt)
    return None


def test_curves_meet_cubic_gcd_roots_without_a_field_scan(monkeypatch):
    calls = []
    evaluate = Polynomial.evaluate

    def counting(self, x):
        calls.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(Polynomial, "evaluate", counting)
    r = curves_meet(7, "z^3 - x^3", "z^3 - x^3 + y^3", 3)
    assert (r.meet, r.level, r.point) == (True, 1, ("1", "0", "1"))
    assert calls == []


def _first_common_zero_by_scan(f, g, field):
    for z in field.elements():
        if f.evaluate(z).is_zero() and g.evaluate(z).is_zero():
            return z
    return None


@st.composite
def _planted_pairs(draw):
    """(p, n, c, a, b): f = c*a and g = c*b over tower_field(p, n), with c the
    monic polynomial of lower coefficients c (degree 0-3) and a, b of degree
    below 4 or zero; every coefficient is a payload tuple, low degree first."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 4))
    coeff = st.tuples(*[st.integers(0, p - 1)] * n)
    c = draw(st.lists(coeff, max_size=3))
    a, b = draw(st.lists(coeff, max_size=4)), draw(st.lists(coeff, max_size=4))
    return p, n, tuple(c), tuple(a), tuple(b)


def test_smallest_common_root_matches_a_scan_in_element_order():
    shapes = set()

    @settings(max_examples=200)
    @given(_planted_pairs())
    @example((2, 1, ((1,), (0,)), ((1,),), ((1,),)))          # z^2 + 1 = (z + 1)^2
    @example((2, 2, ((0, 1), (0, 0)), ((1, 0),), ((1, 0),)))  # z^2 = t
    @example((2, 1, ((0,), (1,)), ((1,),), ((1,),)))          # z^2 + z, roots 0 and 1
    @example((2, 1, ((1,), (1,)), ((1,),), ((1,),)))          # z^2 + z + 1, no root in F_2
    @example((2, 2, ((1, 0), (1, 0)), ((1, 0),), ((0, 1),)))  # z^2 + z + 1 over F_4
    @example((3, 1, ((1,), (0,)), ((1,),), ((1,),)))          # z^2 + 1, no root in F_3
    @example((5, 1, ((4,), (0,)), ((1,),), ((1,),)))          # z^2 - 1
    @example((3, 2, ((1, 0),), (), ()))                       # both zero
    @example((3, 2, ((1, 0),), (), ((1, 1),)))                # one zero
    def check(case):
        p, n, c, a, b = case
        field = tower_field(p, n)
        common = Polynomial(field, list(c) + [1])
        f, g = common * Polynomial(field, a), common * Polynomial(field, b)
        got = _smallest_common_root(list(f.coeffs), list(g.coeffs), field)
        want = _first_common_zero_by_scan(f, g, field)
        assert (got is None) == (want is None)
        assert got is None or got == want
        h = f.gcd(g)
        if p == 2 and h.degree == 2:
            shapes.add("z^2 = u" if h.coeffs[1].is_zero() else "Artin-Schreier")

    check()
    assert shapes == {"z^2 = u", "Artin-Schreier"}


def test_curves_meet_exhausted_bound_reports_unknown():
    # a conic and a cubic with no common point below level 2
    r = curves_meet(3, "x^2 - 2*z^2", "y", max_level=1)
    assert r.meet is None
    assert r.bound_too_small
    assert r.levels_scanned == 1


def test_curves_meet_bezout_no_unknowns_for_conics():
    rng = random.Random(83)
    monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    for p in (3, 5, 7):
        field = PrimeField(p)
        for _ in range(12):
            f = random_conic(rng, field, monos)
            g = random_conic(rng, field, monos)
            r = curves_meet(p, f, g, max_level=4)
            assert r.meet is True
            assert r.level <= 4


def random_conic(rng, field, monos):
    from exactqt.lefschetz import TernaryForm

    while True:
        coeffs = {m: field.element(rng.randrange(field.order)) for m in monos}
        if any(not c.is_zero() for c in coeffs.values()):
            return TernaryForm(field, coeffs)
