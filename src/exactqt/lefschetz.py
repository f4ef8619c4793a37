"""First-order field sentences: finite evaluation and bounded closure search.

The language has terms built from variables, nonnegative integer literals,
+, - and *, atomic equalities, the connectives ! & |, and quantifiers
written "E x . body" and "A x . body".  Both evaluators run one quantifier
search, which compiles the sentence to functions on field payloads, once
per ambient degree, and loops its quantifiers over payloads in element
order; an innermost quantifier, whose body holds no quantifier, evaluates
its body as columns over blocks of payloads instead.  It builds no Element
(the inclusions' generator images, which _tower caches, aside).
eval_finite brute-forces a sentence over any finite field.
eval_closure approximates truth over the algebraic closure of F_p: a
quantifier whose ambient field has degree n may range over any extension
of relative degree d = 1..max_level, moving the ambient up to degree n*d,
capped by ambient_bound.  The result is three-valued, with Unknown
whenever the search was cut off by a bound or an inner Unknown before a
decisive answer appeared.

A decisive answer is promoted to a certified one exactly when finite search
proves it for the full closure: value True with every quantifier effectively
existential, or value False with every quantifier effectively universal,
where "effectively" accounts for the parity of enclosing negations.

The parser names every quantifier apart as it reads it.  One walk prepares
a sentence for search (free-variable check, vacuous-quantifier strip and
certification flags), once per call; lefschetz_sample shares it between
its primes.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction
from operator import and_, eq, itemgetter, or_
from typing import Callable, NamedTuple

from ._ffroots import _Ring, field_roots
from ._record import _Record
from ._tower import lift_payload, tower_field
from .errors import NotHomogeneous, ParseError
from .forms import Polynomial
from .starfield import _TABLE_CAP, Element, FieldDescriptor, PrimeField


class Var(_Record):
    name: str


class Lit(_Record):
    value: int


class _Binary(_Record):
    """The two-child nodes: the term operators, equations and connectives."""

    left: object
    right: object


class Add(_Binary):
    pass


class Sub(_Binary):
    pass


class Mul(_Binary):
    pass


class Eq(_Binary):
    pass


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Not(_Record):
    body: object


class _Quantifier(_Record):
    var: str
    body: object


class Exists(_Quantifier):
    pass


class Forall(_Quantifier):
    pass


_KEYWORDS = {"E", "A"}


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(("kw" if word in _KEYWORDS else "name", word, i))
            i = j
            continue
        if c in "+-*=().&|!":
            toks.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("end", "", len(text)))
    return toks


# Deeper or longer sentences are refused with a ParseError before Python's
# own recursion limit is reached, here or in the recursive passes after
# parsing: free_variables, alpha_rename, expand_literals, pretty, the
# preparation walk of _closed_sentence, and _search, which compiles a tree
# and then runs the compiled code, both one frame per level as well.
# Every tree node owns a token of its own (an operator, keyword or leaf), so
# the token cap also bounds the height of the tree, flat chains such as
# x + x + ... + x included, and each pass recurses once, one Python frame,
# per level.
# The brackets of a negated equation, !(a = b), count neither as a level nor
# as tokens: pretty always writes them, and a text written without them
# must still parse back from its printed form within the same limits.  They
# hold one equation, which nests no further formula, so they cost the parser
# at most one bracket's recursion.
_MAX_NESTING = 100
_MAX_TOKENS = 500


class _Parser:
    """Recursive descent; it backtracks only at a '(' in atom position, which
    may open either a subformula or a parenthesized term, and at a '(' right
    after '!', which is first read as the free brackets of one equation.

    Each quantifier binds a name of its own: the first binding of a name
    keeps it, a later one takes the first name{k} that occurs nowhere in the
    text and was not handed out before.  Free variables keep their names.
    """

    def __init__(self, toks):
        self.toks = toks
        self.i = 0
        self.free = 0  # tokens read so far that the token cap does not count
        self.depth = 0
        self.over_limit: ParseError | None = None
        self.in_text = {v for k, v, _ in toks if k == "name"}
        self.used: set[str] = set()  # binder names handed out so far
        self.scope: dict[str, str] = {}  # written name -> its binder's name

    def refuse(self, message: str, pos: int):
        """A size limit was hit; no backtrack can get round it."""
        self.over_limit = ParseError(message, pos)
        raise self.over_limit

    def nested(self, parse, pos: int):
        """parse() one level deeper: a quantifier body, a '!' or a '('."""
        if self.depth == _MAX_NESTING:
            self.refuse(f"nesting deeper than {_MAX_NESTING} levels", pos)
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        t = self.toks[self.i]
        if self.i - self.free == _MAX_TOKENS and t[0] != "end":
            self.refuse(f"sentence longer than {_MAX_TOKENS} tokens", t[2])
        self.i += 1
        return t

    def expect(self, kind: str):
        t = self.advance()
        if t[0] != kind:
            raise ParseError(f"expected {kind!r}", t[2])
        return t

    def bind(self, name: str) -> str:
        if name in self.used:
            k = 0
            while f"{name}{k}" in self.in_text or f"{name}{k}" in self.used:
                k += 1
            name = f"{name}{k}"
        self.used.add(name)
        return name

    def formula(self):
        k, v, pos = self.peek()
        if k == "kw":
            self.advance()
            name = self.advance()
            if name[0] != "name":
                raise ParseError("expected a variable name after the quantifier", name[2])
            self.expect(".")
            var = self.bind(name[1])
            outer = self.scope
            self.scope = {**outer, name[1]: var}
            body = self.nested(self.formula, pos)
            self.scope = outer
            return (Exists if v == "E" else Forall)(var, body)
        return self.or_f()

    def or_f(self):
        f = self.and_f()
        while self.peek()[0] == "|":
            self.advance()
            f = Or(f, self.and_f())
        return f

    def and_f(self):
        f = self.not_f()
        while self.peek()[0] == "&":
            self.advance()
            f = And(f, self.not_f())
        return f

    def not_f(self):
        k, _, pos = self.peek()
        if k == "!":
            self.advance()
            return Not(self.nested(self.negated, pos))
        return self.atom()

    def negated(self):
        """The operand of '!': first as a bracketed equation, whose brackets
        are free, then as any not_f."""
        if self.peek()[0] == "(":
            mark = (self.i, self.free)
            self.i += 1
            self.free += 1
            try:
                eq = self.equation()
                if self.peek()[0] == ")":
                    self.i += 1
                    self.free += 1
                    return eq
            except ParseError as exc:
                if exc is self.over_limit:
                    raise  # charged brackets would only reach the limit sooner
            self.i, self.free = mark
        return self.not_f()

    def atom(self):
        k, _, pos = self.peek()
        if k == "(":
            # a subformula that bound a quantifier and failed fails the whole
            # parse (no term spans a keyword); the names are restored anyway
            mark = (self.i, self.free, self.scope, set(self.used))
            self.advance()
            try:
                f = self.nested(self.formula, pos)
                self.expect(")")
                return f
            except ParseError as exc:
                if exc is self.over_limit:
                    raise  # a backtrack would only hit the same limit
                self.i, self.free, self.scope, self.used = mark
        return self.equation()

    def equation(self):
        left = self.term()
        self.expect("=")
        return Eq(left, self.term())

    def term(self):
        t = self.product()
        while self.peek()[0] in ("+", "-"):
            ctor = Add if self.advance()[0] == "+" else Sub
            t = ctor(t, self.product())
        return t

    def product(self):
        t = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            t = Mul(t, self.factor())
        return t

    def factor(self):
        k, v, pos = self.advance()
        if k == "name":
            return Var(self.scope.get(v, v))
        if k == "int":
            return Lit(v)
        if k == "(":
            t = self.nested(self.term, pos)
            self.expect(")")
            return t
        raise ParseError("expected a variable, literal, or parenthesized term", pos)


def parse_sentence(text: str):
    p = _Parser(_tokenize(text))
    f = p.formula()
    k, _, pos = p.peek()
    if k != "end":
        raise ParseError("trailing input after the sentence", pos)
    return f


_OR_PREC, _AND_PREC, _NOT_PREC = 1, 2, 3


def _fmt_term(t, prec: int) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lit):
        return str(t.value)
    if isinstance(t, (Add, Sub)):
        op = "+" if isinstance(t, Add) else "-"
        s = f"{_fmt_term(t.left, 0)} {op} {_fmt_term(t.right, 1)}"
        return f"({s})" if prec > 0 else s
    s = f"{_fmt_term(t.left, 1)}*{_fmt_term(t.right, 2)}"
    return f"({s})" if prec > 1 else s


def _fmt_formula(f, prec: int) -> str:
    if isinstance(f, Eq):
        s = f"{_fmt_term(f.left, 0)} = {_fmt_term(f.right, 0)}"
        return f"({s})" if prec > _NOT_PREC + 1 else s
    if isinstance(f, Not):
        return "!" + _fmt_formula(f.body, _NOT_PREC + 2)
    if isinstance(f, And):
        s = f"{_fmt_formula(f.left, _AND_PREC)} & {_fmt_formula(f.right, _AND_PREC + 1)}"
        return f"({s})" if prec > _AND_PREC else s
    if isinstance(f, Or):
        s = f"{_fmt_formula(f.left, _OR_PREC)} | {_fmt_formula(f.right, _OR_PREC + 1)}"
        return f"({s})" if prec > _OR_PREC else s
    letter = "E" if isinstance(f, Exists) else "A"
    s = f"{letter} {f.var} . {_fmt_formula(f.body, 0)}"
    return f"({s})" if prec > 0 else s


def pretty(formula) -> str:
    """Canonical text that parse_sentence maps back to the same tree."""
    return _fmt_formula(formula, 0)


def free_variables(formula) -> frozenset[str]:
    if isinstance(formula, Var):
        return frozenset((formula.name,))
    if isinstance(formula, Lit):
        return frozenset()
    if isinstance(formula, _Binary):
        return free_variables(formula.left) | free_variables(formula.right)
    if isinstance(formula, Not):
        return free_variables(formula.body)
    return free_variables(formula.body) - {formula.var}


def alpha_rename(formula, prefix: str = "v"):
    """Rename bound variables to prefix0, prefix1, ... in binding order.

    Free variables keep their names, and fresh names skip over them, so two
    sentences differing only in bound names get identical trees.
    """
    free = free_variables(formula)
    names = (f"{prefix}{k}" for k in itertools.count())
    fresh = (name for name in names if name not in free)

    def walk(node, env):
        if isinstance(node, Var):
            return Var(env.get(node.name, node.name))
        if isinstance(node, Lit):
            return node
        if isinstance(node, _Binary):
            return type(node)(walk(node.left, env), walk(node.right, env))
        if isinstance(node, Not):
            return Not(walk(node.body, env))
        new = next(fresh)
        return type(node)(new, walk(node.body, {**env, node.var: new}))

    return walk(formula, {})


def expand_literals(formula):
    """Rewrite every literal above 1 as a left-nested sum of ones."""
    if isinstance(formula, Lit) and formula.value > 1:
        acc = Lit(1)
        for _ in range(formula.value - 1):
            acc = Add(acc, Lit(1))
        return acc
    if isinstance(formula, _Binary):
        return type(formula)(expand_literals(formula.left), expand_literals(formula.right))
    if isinstance(formula, Not):
        return Not(expand_literals(formula.body))
    if isinstance(formula, _Quantifier):
        return type(formula)(formula.var, expand_literals(formula.body))
    return formula


class _Prepared(NamedTuple):
    tree: object
    stripped: object  # tree without vacuous quantifiers
    flags: list[bool]  # per quantifier of stripped: does it act existentially?


def _closed_sentence(sentence) -> _Prepared:
    """Parse sentence if it is text, reject free variables, and prepare it.

    One bottom-up walk returns each subtree without its vacuous quantifiers,
    those whose variable is not free in their stripped body, together with
    its free variables.  Every field is nonempty, so E x . phi and A x . phi
    both mean phi there, and stripping first makes ground sentences
    certifiable in either direction.
    """
    if isinstance(sentence, str):
        sentence = parse_sentence(sentence)
    flags: list[bool] = []

    def walk(f, positive: bool):
        if isinstance(f, Eq):
            return f, free_variables(f)
        if isinstance(f, Not):
            body, free = walk(f.body, not positive)
            return Not(body), free
        if isinstance(f, _Binary):
            left, left_free = walk(f.left, positive)
            right, right_free = walk(f.right, positive)
            return type(f)(left, right), left_free | right_free
        body, free = walk(f.body, positive)
        if f.var not in free:
            return body, free
        flags.append(positive == isinstance(f, Exists))
        return type(f)(f.var, body), free - {f.var}

    stripped, free = walk(sentence, True)
    if free:
        raise ValueError(f"sentence has free variables: {', '.join(sorted(free))}")
    return _Prepared(sentence, stripped, flags)


_UNBOUND = object()  # marks a quantifier variable that shadows nothing

# A field above starfield._TABLE_CAP elements is searched in blocks of this
# many payloads, so a column never holds more.
_BLOCK = 1024

# The shapes of a compiled node of a quantifier-free body, by what it reads:
# shape & 1 the outer variables, shape & 2 the quantified one.  The code of a
# _CONST node is its value (a payload or a truth value), of a _SCALAR node a
# function of the environment, of a _VARONLY node a function of a block (a
# list of the variable's payloads) that keeps its column for the last block
# it saw, and of a _COLUMN node a function of the environment that returns a
# function of a block.
_CONST, _SCALAR, _VARONLY, _COLUMN = 0, 1, 2, 3


def _quantifier_free(f) -> bool:
    if isinstance(f, Eq):
        return True
    if isinstance(f, Not):
        return _quantifier_free(f.body)
    return isinstance(f, _Binary) and _quantifier_free(f.left) and _quantifier_free(f.right)


def _stage(node):
    """A compiled column node as a function of the environment that returns
    a function of a block; a value the block does not change repeats."""
    shape, code = node
    if shape == _CONST:
        fixed = itertools.repeat(code)
        return lambda env: lambda block: fixed
    if shape == _SCALAR:
        return lambda env: (lambda block, value=itertools.repeat(code(env)): value)
    if shape == _VARONLY:
        return lambda env: code
    return code


def _combine(op, left, right):
    """The compiled node op(left, right): one map of op over a block where
    either side reads the quantified variable."""
    (ls, lc), (rs, rc) = left, right
    shape = ls | rs
    if shape == _CONST:
        return _CONST, op(lc, rc)
    if shape == _SCALAR:
        if ls == _CONST:
            return _SCALAR, lambda env: op(lc, rc(env))
        if rs == _CONST:
            return _SCALAR, lambda env: op(lc(env), rc)
        return _SCALAR, lambda env: op(lc(env), rc(env))
    if shape == _VARONLY:  # each side is a constant or a column of the block
        memo = [None, None]

        def column(block):
            if memo[0] is not block:
                memo[:] = block, list(map(op, lc(block) if ls else itertools.repeat(lc),
                                          rc(block) if rs else itertools.repeat(rc)))
            return memo[1]

        return _VARONLY, column
    left_at, right_at = _stage(left), _stage(right)

    def bind(env):
        lb, rb = left_at(env), right_at(env)
        return lambda block: list(map(op, lb(block), rb(block)))

    return _COLUMN, bind


def _index(col: list, value):
    """The first index of value in col, or None."""
    try:
        return col.index(value)
    except ValueError:
        return None


def _lookup(column, value, hunting: bool):
    """find(env) for the equation column == value, column a _VARONLY code
    and value a node that does not read var: the first index of the value
    in the column, or of a payload other than the value."""
    shape, code = value

    def find(env):
        s = code if shape == _CONST else code(env)
        if hunting:
            return lambda block: _index(column(block), s)
        return lambda block: next((i for i, c in enumerate(column(block)) if c != s), None)

    return find


def _finder(f, fld: FieldDescriptor, var: str, hunting: bool):
    """Compile a quantifier-free body in var to find(env), a function of a
    block that returns the first index where the body's value is hunting,
    or None.  An equation between a _VARONLY term and a side that does not
    read var goes to _lookup, which compares payloads with the value
    directly; any other body searches its column of truth values."""
    if isinstance(f, Eq):
        left, right = _columns(f.left, fld, var), _columns(f.right, fld, var)
        if right[0] == _VARONLY:
            left, right = right, left  # == is symmetric
        if left[0] == _VARONLY and right[0] in (_CONST, _SCALAR):
            return _lookup(left[1], right, hunting)
        shape, code = _combine(eq, left, right)
    else:
        shape, code = _columns(f, fld, var)

    def find(env):
        body = code(env) if shape == _COLUMN else code
        return lambda block: _index(body(block), hunting)

    return find


def _columns(f, fld: FieldDescriptor, var: str):
    """Compile a term or quantifier-free formula over fld for the column
    path of the quantifier binding var: (shape, code), shapes as above.
    Terms combine by the field's payload operations, equations by ==, and
    connectives by & and | on truth values; !b is b == False."""
    if isinstance(f, Var):
        return (_VARONLY, lambda block: block) if f.name == var else (_SCALAR, itemgetter(f.name))
    if isinstance(f, Lit):
        return _CONST, fld.payload_from_int(f.value)
    if isinstance(f, Not):
        return _combine(eq, _columns(f.body, fld, var), (_CONST, False))
    op = (fld.payload_add if isinstance(f, Add) else fld.payload_sub if isinstance(f, Sub)
          else fld.payload_mul if isinstance(f, Mul) else eq if isinstance(f, Eq)
          else and_ if isinstance(f, And) else or_)
    return _combine(op, _columns(f.left, fld, var), _columns(f.right, fld, var))


def _search(sentence, field_at, extensions):
    """The one quantifier search: (value, witness, level), value None for Unknown.

    field_at(n) is the field at ambient degree n; extensions(n) returns the
    ambient degrees a quantifier at degree n ranges over, n itself first,
    and whether a bound cut any of them off.

    The search runs compiled code, not the tree.  Each node is compiled
    once per ambient degree n, when the search first reaches it there, into
    a function of one mutable environment (variable name -> payload in
    field_at(n)); a quantifier compiles its body at each degree it ranges
    over.  Literals become payloads once, the term operators are the
    field's payload_add, payload_sub and payload_mul, and an equation
    compares payloads.  A quantifier writes each payload of its field, in
    element order, into the environment and restores the shadowed value on
    exit.  When it moves to a bigger ambient field it lifts the outer
    values with lift_payload, and puts them back afterwards.  A witness
    travels as a tuple of (name, text) pairs, outer binders first; dict()
    of the final tuple keeps each name's first position and last value, as
    merging dicts at every step would.

    A quantifier whose body has no quantifier evaluates that body over a
    whole block of payloads at once instead (_columns).  The sentence has
    no vacuous quantifier (_closed_sentence strips them), so the body reads
    the variable.  A term without the variable is a scalar, computed once
    per entry after the lift; any other term is a column, one map of the
    payload operation over the block; a term in the variable and literals
    alone is computed once per block object.  A field of at most
    _TABLE_CAP elements is one block, listed once per search, so those
    columns serve every entry; a larger one is streamed in blocks of
    _BLOCK payloads.  The witness is the payload at the first index where
    the body's value is the decisive one (_finder); with none, the
    quantifier is Unknown if a bound cut it off, and otherwise not decisive
    at the last ambient degree, the level the element loop would report.
    """
    compiled: dict[tuple[int, int], Callable] = {}  # (id(node), degree) -> code
    finders: dict[tuple[int, int], Callable] = {}  # (id(quantifier), degree) -> _finder code
    listed: dict[int, list] = {}  # degree -> its field's payloads, for fields of one block

    def code(f, n: int):
        key = (id(f), n)
        fn = compiled.get(key)
        if fn is None:
            fn = compiled[key] = formula(f, n)
        return fn

    def blocks(m: int):
        """field_at(m)'s payloads in element order: one list, listed once per
        search, up to _TABLE_CAP elements, and fresh blocks of _BLOCK above."""
        block = listed.get(m)
        if block is not None:
            return (block,)
        fld = field_at(m)
        payloads = fld.payloads()  # raises FieldNotFinite for an infinite field
        if fld.order > _TABLE_CAP:
            return iter(lambda: list(itertools.islice(payloads, _BLOCK)), [])
        block = listed[m] = list(payloads)
        return (block,)

    def term(t, fld: FieldDescriptor):
        if isinstance(t, Var):
            return itemgetter(t.name)
        if isinstance(t, Lit):
            c = fld.payload_from_int(t.value)
            return lambda env: c
        op = (fld.payload_add if isinstance(t, Add)
              else fld.payload_sub if isinstance(t, Sub) else fld.payload_mul)
        left, right = term(t.left, fld), term(t.right, fld)
        return lambda env: op(left(env), right(env))

    def formula(f, n: int):
        if isinstance(f, Eq):
            fld = field_at(n)
            left, right = term(f.left, fld), term(f.right, fld)
            true, false = (True, (), n), (False, (), n)
            return lambda env: true if left(env) == right(env) else false
        if isinstance(f, Not):
            body = formula(f.body, n)

            def negation(env):
                v, w, lvl = body(env)
                return (None if v is None else not v), w, lvl

            return negation
        if isinstance(f, (And, Or)):
            decisive = isinstance(f, Or)  # the value that short-circuits
            first, second = formula(f.left, n), formula(f.right, n)

            def connective(env):
                lv, lw, ll = first(env)
                if lv is decisive:
                    return lv, lw, ll
                rv, rw, rl = second(env)
                if rv is decisive:
                    return rv, rw, rl
                if lv is None or rv is None:
                    return None, None, None
                return (not decisive), lw + rw, max(ll, rl)

            return connective
        return quantifier(f, n)

    def quantifier(f: _Quantifier, n: int):
        var, hunting = f.var, isinstance(f, Exists)  # hunting: this quantifier's decisive value
        ambients, blocked = extensions(n)
        small = field_at(n)
        if _quantifier_free(f.body):
            return column_search(f, var, hunting, ambients, blocked, small)

        def search(env):
            shadowed = env.get(var, _UNBOUND)
            outer = None  # the degree-n values of the other variables, once a lift replaces them
            saw_unknown = False
            survivor_level = n
            found = None
            for m in ambients:
                if m != n:
                    if outer is None:
                        outer = {k: v for k, v in env.items() if k != var}
                    env.update({k: lift_payload(small, v, m) for k, v in outer.items()})
                body, fld = code(f.body, m), field_at(m)
                for x in fld.payloads():
                    env[var] = x
                    v, w, lvl = body(env)
                    if v is hunting:
                        found = v, ((var, fld.payload_format(x)),) + w, max(m, lvl)
                        break
                    if v is None:
                        saw_unknown = True
                    elif lvl > survivor_level:
                        survivor_level = lvl
                if found is not None:
                    break
            if outer is not None:
                env.update(outer)
            if shadowed is _UNBOUND:
                del env[var]
            else:
                env[var] = shadowed
            if found is not None:
                return found
            if blocked or saw_unknown:
                return None, None, None
            return (not hunting), (), survivor_level

        return search

    def column_search(f: _Quantifier, var, hunting, ambients, blocked, small):
        """The quantifier over a quantifier-free body in var: each block's
        column of body values, searched for the first one that decides."""
        n = ambients[0]

        def search(env):
            lifted = env
            for m in ambients:
                if m != n:
                    lifted = {k: lift_payload(small, v, m) for k, v in env.items() if k != var}
                key = (id(f), m)
                find = finders.get(key)
                if find is None:
                    find = finders[key] = _finder(f.body, field_at(m), var, hunting)
                first = find(lifted)
                for block in blocks(m):
                    i = first(block)
                    if i is not None:
                        return hunting, ((var, field_at(m).payload_format(block[i])),), m
            if blocked:
                return None, None, None
            return (not hunting), (), ambients[-1]

        return search

    value, witness, level = code(sentence, 1)({})
    return value, None if witness is None else dict(witness), level


def eval_finite(sentence, field: FieldDescriptor) -> bool:
    """Brute-force truth value over one finite field."""
    stripped = _closed_sentence(sentence).stripped
    return _search(stripped, lambda n: field, lambda n: ([n], False))[0]


class TowerVerdict(_Record):
    """Outcome of a bounded closure search.  value None means Unknown."""

    value: bool | None
    certified: bool
    witness_level: int | None
    witness: dict[str, str] | None


def eval_closure(sentence, p: int, max_level: int = 2, ambient_bound: int = 4) -> TowerVerdict:
    """Three-valued truth of a sentence over the algebraic closure of F_p.

    Each quantifier tries relative extension degrees 1..max_level over the
    field its outer quantifiers settled on: degree d from ambient degree n
    moves the search to degree n*d.  Ambient degrees past ambient_bound are
    skipped, and any skip makes a non-decisive answer Unknown instead of
    False/True.
    """
    if not isinstance(sentence, _Prepared):  # lefschetz_sample prepares once for every prime
        sentence = _closed_sentence(sentence)
    _, stripped, flags = sentence
    if max_level < 1 or ambient_bound < 1:
        raise ValueError("max_level and ambient_bound must be positive")
    tower_field(p, 1)  # validates p

    def extensions(n: int):
        ambients = [n * d for d in range(1, max_level + 1)]
        return [m for m in ambients if m <= ambient_bound], ambients[-1] > ambient_bound

    value, witness, level = _search(stripped, lambda n: tower_field(p, n), extensions)
    if value is None:
        return TowerVerdict(None, False, None, None)
    certified = all(flags) if value else not any(flags)
    return TowerVerdict(value, certified, level, witness)


class SampleReport(_Record):
    """Per-prime closure verdicts for one sentence, with a summary."""

    sentence: str
    verdicts: tuple[tuple[int, TowerVerdict], ...]
    certified_true: int
    certified_false: int
    conjecture: str | None

    def to_json(self) -> dict:
        n = len(self.verdicts)
        return {
            "sentence": self.sentence,
            "verdicts": {str(p): v.to_json() for p, v in self.verdicts},
            "summary": {
                "primes_sampled": n,
                "certified_true": self.certified_true,
                "certified_false": self.certified_false,
                "certified_true_fraction": str(Fraction(self.certified_true, n)),
                "conjecture": self.conjecture,
            },
        }


def lefschetz_sample(sentence, primes=(2, 3, 5, 7, 11, 13, 17, 19, 23, 29),
                     max_level: int = 2, ambient_bound: int = 4) -> SampleReport:
    """Evaluate one sentence over the closures of several primes.

    When at least one prime yields a certified answer and every certified
    answer agrees, the report carries a transfer-style conjecture about
    algebraically closed fields of characteristic zero; disagreement or a
    total lack of certificates leaves the conjecture empty.
    """
    prepared = _closed_sentence(sentence)
    ps = sorted(set(primes))
    if not ps:
        raise ValueError("at least one prime is required")
    canon = pretty(prepared.tree)
    verdicts = tuple((q, eval_closure(prepared, q, max_level, ambient_bound)) for q in ps)
    certified = [v.value for _, v in verdicts if v.certified]
    n_true = sum(1 for v in certified if v is True)
    n_false = sum(1 for v in certified if v is False)
    conjecture = None
    if certified and all(v is True for v in certified):
        conjecture = "true over every algebraically closed field of characteristic 0"
    elif certified and all(v is False for v in certified):
        conjecture = "false over every algebraically closed field of characteristic 0"
    return SampleReport(canon, verdicts, n_true, n_false, conjecture)


# ----------------------------------------------------------------------
# Plane curves: homogeneous ternary forms and their common zeros.

_VAR_INDEX = {"x": 0, "y": 1, "z": 2}
_VAR_TOKEN = re.compile(r"^([xyz])(?:\^(\d+))?$")


class TernaryForm:
    """A nonzero homogeneous polynomial in x, y, z over one field."""

    def __init__(self, owner: FieldDescriptor, monomials: dict):
        self.owner = owner
        cleaned = {}
        for expo, coeff in monomials.items():
            c = owner.element(coeff)
            if not c.is_zero():
                cleaned[tuple(expo)] = cleaned.get(tuple(expo), owner.zero()) + c
        cleaned = {e: c for e, c in cleaned.items() if not c.is_zero()}
        if not cleaned:
            raise NotHomogeneous("the zero polynomial does not define a curve")
        degrees = {sum(e) for e in cleaned}
        if len(degrees) != 1:
            raise NotHomogeneous(
                f"monomial degrees {sorted(degrees)} are mixed; the form must be homogeneous")
        self.monomials = cleaned
        self.degree = degrees.pop()

    def evaluate(self, x: Element, y: Element, z: Element) -> Element:
        total = self.owner.zero()
        for (i, j, k), c in self.monomials.items():
            total = total + c * x**i * y**j * z**k
        return total


def _split_top(text: str, seps: str) -> list[tuple[str, int, bool]]:
    """Split on separators outside parentheses.

    Returns (piece, offset, is_separator) triples; chunk pieces may be empty
    when separators are adjacent, which the callers police.
    """
    out = []
    depth = 0
    start = 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'", i)
        elif depth == 0 and c in seps:
            out.append((text[start:i], start, False))
            out.append((c, i, True))
            start = i + 1
    if depth:
        raise ParseError("unbalanced '('", len(text) - 1)
    out.append((text[start:], start, False))
    return out


def parse_ternary_polynomial(text: str, field: FieldDescriptor) -> TernaryForm:
    """Parse a sum of monomials in x, y, z with '*'-separated factors.

    Coefficients are field element literals; wrap any containing + or - in
    parentheses, e.g. (1+2t)*x*y.  Exponents use ^ as in x^2.
    """
    # fold +/- runs into a sign for the following term, unary signs included
    terms: list[tuple[int, str, int]] = []
    sign = 1
    pending_sign = False
    for piece, offset, is_sep in _split_top(text.strip(), "+-"):
        if is_sep:
            if piece == "-":
                sign = -sign
            pending_sign = True
            continue
        piece = piece.strip()
        if piece:
            terms.append((sign, piece, offset))
            sign = 1
            pending_sign = False
    if pending_sign:
        raise ParseError("dangling sign at end of polynomial", len(text.rstrip()) - 1)
    if not terms:
        raise ParseError("empty polynomial", 0)

    monomials: dict[tuple[int, int, int], Element] = {}
    for sgn, chunk, offset in terms:
        coeff = field.element(sgn)
        expo = [0, 0, 0]
        for factor, fo, is_sep in _split_top(chunk, "*"):
            if is_sep:
                continue
            factor = factor.strip()
            if not factor:
                raise ParseError("empty factor", offset + fo)
            m = _VAR_TOKEN.match(factor)
            if m:
                expo[_VAR_INDEX[m.group(1)]] += int(m.group(2) or 1)
                continue
            if factor.startswith("(") and factor.endswith(")"):
                factor = factor[1:-1]
            try:
                coeff = coeff * field.element(factor)
            except ParseError:
                raise ParseError(f"bad coefficient {factor!r}", offset + fo) from None
        key = tuple(expo)
        monomials[key] = monomials.get(key, field.zero()) + coeff
    return TernaryForm(field, monomials)


def _smallest_common_root(f1: list[Element], g1: list[Element], field) -> Element | None:
    f, g = Polynomial(field, f1), Polynomial(field, g1)
    if f.is_zero() and g.is_zero():
        return field.zero()
    roots = f.gcd(g).roots()
    return roots[0] if roots else None


def _specialize_x1(mono: dict, field, degree: int, y: Element) -> list[Element]:
    out = [field.zero()] * (degree + 1)
    ypow = [field.one()]
    for _ in range(degree):
        ypow.append(ypow[-1] * y)
    for (i, j, k), c in mono.items():
        out[k] = out[k] + c * ypow[j]
    return out


def _chart_scan(fm: TernaryForm, gm: TernaryForm, field,
                resultant: Callable[[], list | None]) -> tuple[Element, Element, Element] | None:
    """First common projective zero in lex order over the normalized charts
    (0:0:1), then (0:1:z) with z ascending, then (1:y:z) with (y, z)
    ascending.  The y tried there are the roots in field of resultant(),
    the prime-field payloads of _z_resultant, or every y when it is None;
    it is called only when the search reaches that chart."""
    zero, one = field.zero(), field.one()
    fz = fm.monomials.get((0, 0, fm.degree))
    gz = gm.monomials.get((0, 0, gm.degree))
    if (fz is None or fz.is_zero()) and (gz is None or gz.is_zero()):
        return (zero, zero, one)
    fx0 = {e: c for e, c in fm.monomials.items() if e[0] == 0}
    gx0 = {e: c for e, c in gm.monomials.items() if e[0] == 0}
    z0 = _smallest_common_root(_specialize_x1(fx0, field, fm.degree, one),
                               _specialize_x1(gx0, field, gm.degree, one), field)
    if z0 is not None:
        return (zero, one, z0)
    r = resultant()
    if r is None:
        ys = field.elements()
    else:
        lifted = [field.payload_from_int(c) for (c,) in r]
        ys = [Element(field, y) for y in field_roots(field, lifted)]
    for y in ys:
        z0 = _smallest_common_root(
            _specialize_x1(fm.monomials, field, fm.degree, y),
            _specialize_x1(gm.monomials, field, gm.degree, y), field)
        if z0 is not None:
            return (one, y, z0)
    return None


def _z_resultant(f: TernaryForm, g: TernaryForm) -> list | None:
    """R(y) = Res_z(f(1, y, z), g(1, y, z)) over the prime field, up to sign,
    as payloads low degree first; None when R is zero (a common component)
    or a form has no z, where every y must be scanned.

    The determinant of the Sylvester matrix in z, whose entries lie in
    F_p[y], by fraction-free Bareiss elimination (each step's division by
    the previous pivot is exact).  A y with a common zero is a root of R:
    specialising at y gives the Sylvester matrix of the two specialisations
    at the degrees of f and g in z, singular when they share a root and, when
    both leading coefficients vanish, with a zero first column.
    """
    ring = _Ring(f.owner)

    def z_coefficients(form: TernaryForm) -> list[list]:
        """Highest z-degree first, each a polynomial in y."""
        coeffs: dict[int, list] = {}
        for (_, j, k), c in form.monomials.items():
            row = coeffs.setdefault(k, [])
            row += [ring.zero] * (j + 1 - len(row))
            row[j] = c.payload
        return [ring.trim(coeffs.get(k, [])) for k in range(max(coeffs), -1, -1)]

    a, b = z_coefficients(f), z_coefficients(g)
    da, db = len(a) - 1, len(b) - 1
    if da == 0 or db == 0:
        return None
    n = da + db
    rows = [[[]] * i + a + [[]] * (db - 1 - i) for i in range(db)]
    rows += [[[]] * i + b + [[]] * (da - 1 - i) for i in range(da)]
    previous = [ring.one]
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        for row in rows[k + 1:]:
            row[k + 1:] = [ring.exact_div(ring.combine(ring.sub, ring.product(row[j], top[k]),
                                                       ring.product(row[k], top[j])), previous)
                           for j in range(k + 1, n)]
        previous = top[k]
    return rows[n - 1][n - 1] or None


class CurvesMeetReport(_Record):
    """Result of searching extension levels for a common projective zero."""

    meet: bool | None
    level: int | None
    point: tuple[str, str, str] | None
    levels_scanned: int
    bound_too_small: bool


def curves_meet(p: int, f, g, max_level: int = 4) -> CurvesMeetReport:
    """Search F_{p^d} for d = 1..max_level for a common zero of two curves.

    Two plane curves always intersect over the full closure, so the verdict
    is either a concrete point (meet=True) or Unknown with bound_too_small
    set; it is never False.  The point is the first common zero in the
    order of _chart_scan.  In the (1:y:z) chart only the roots in F_{p^d}
    of one resultant R(y) can carry a zero, so only they are tried.  R is
    computed over F_p (_z_resultant) once, when the search first reaches
    that chart; every y is scanned when R is zero or a form has no z.
    """
    base = PrimeField(p)
    if isinstance(f, str):
        f = parse_ternary_polynomial(f, base)
    if isinstance(g, str):
        g = parse_ternary_polynomial(g, base)
    if f.owner != base or g.owner != base:
        raise ValueError("curve coefficients must live in the prime field")
    if f.degree < 1 or g.degree < 1:
        raise ValueError("curves must have positive degree")
    if max_level < 1:
        raise ValueError("max_level must be positive")
    f_int = {e: c.payload for e, c in f.monomials.items()}
    g_int = {e: c.payload for e, c in g.monomials.items()}
    resultant = functools.cache(lambda: _z_resultant(f, g))  # once, if a chart needs it
    for d in range(1, max_level + 1):
        fld = tower_field(p, d)
        fd = TernaryForm(fld, {e: fld.element(c) for e, c in f_int.items()})
        gd = TernaryForm(fld, {e: fld.element(c) for e, c in g_int.items()})
        hit = _chart_scan(fd, gd, fld, resultant)
        if hit is not None:
            assert fd.evaluate(*hit).is_zero() and gd.evaluate(*hit).is_zero()
            return CurvesMeetReport(
                meet=True, level=d, point=tuple(str(c) for c in hit),
                levels_scanned=d, bound_too_small=False)
    return CurvesMeetReport(meet=None, level=None, point=None,
                            levels_scanned=max_level, bound_too_small=True)
