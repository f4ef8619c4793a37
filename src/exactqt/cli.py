"""Command line interface.

All results are canonical JSON on stdout.  Exit codes: 0 success, 1 a
domain error (reported as an error object), 2 usage errors from argparse.
Vector, matrix, and map arguments accept a path to a JSON file, inline
JSON, or compact text ("1,t" for vectors, "0,t;2t,0" for matrices) next
to --field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from ._intnum import is_prime
from .autocode import SCAN_LIMIT, SemilinearMap, fixed_points
from .compose import BipartiteState, is_product, no_cloning_witness, tensor_state
from .embed import build_embedding
from .errors import ExactQTError
from .forms import Matrix, StateVector, eigen_decompose, herm_form, is_hermitian, is_unitary
from .jsonio import (bipartite_from_json, bipartite_to_json, dumps_canonical,
                     matrix_from_json, vector_from_json, vector_to_json)
from .lefschetz import curves_meet, eval_closure, lefschetz_sample, parse_sentence, pretty
from .qcore import evolve, make_observable, measure
from .selftest import run_selftest
from .starfield import GaussianRationals, QuadExt, parse_field


def _need_field(args) -> object:
    if args.field is None:
        raise ValueError("compact entries need --field")
    return parse_field(args.field)


def _read_maybe_file(text: str) -> str:
    if not text.lstrip().startswith("{") and os.path.isfile(text):
        with open(text, encoding="utf-8") as fh:
            return fh.read()
    return text


def _load_vector(text: str, args) -> StateVector:
    text = _read_maybe_file(text)
    if text.lstrip().startswith("{"):
        return vector_from_json(json.loads(text))
    return StateVector(_need_field(args), [s.strip() for s in text.split(",")])


def _load_matrix(text: str, args) -> Matrix:
    text = _read_maybe_file(text)
    if text.lstrip().startswith("{"):
        return matrix_from_json(json.loads(text))
    rows = [[s.strip() for s in row.split(",")] for row in text.split(";")]
    return Matrix(_need_field(args), rows)


def _cmd_field_info(args) -> dict:
    f = parse_field(args.field)
    out = {
        "field": f.to_json(),
        "characteristic": f.characteristic,
        "order": f.order,
        "involution_order": f.involution_order,
    }
    if isinstance(f, QuadExt):
        out["q"] = f.q
        out["fixed_field_order"] = f.q
        out["generator"] = str(f.generator())
    if isinstance(f, GaussianRationals):
        out["fixed_field"] = "rationals"
    return out


def _cmd_form(args) -> dict:
    x = _load_vector(args.left, args)
    y = _load_vector(args.right, args)
    return {"value": str(herm_form(x, y)), "field": x.owner.to_json()}


def _cmd_unitary_check(args) -> dict:
    return {"unitary": is_unitary(_load_matrix(args.matrix, args))}


def _cmd_hermitian_check(args) -> dict:
    return {"hermitian": is_hermitian(_load_matrix(args.matrix, args))}


def _cmd_eigen(args) -> dict:
    dec = eigen_decompose(_load_matrix(args.matrix, args))
    return {
        "complete": dec.complete,
        "total_dimension": dec.total_dimension,
        "pairs": [{
            "value": str(p.value),
            "multiplicity": len(p.basis),
            "basis": [[str(c) for c in v] for v in p.basis],
        } for p in dec.pairs],
    }


def _cmd_measure(args) -> dict:
    obs = make_observable(_load_matrix(args.obs, args))
    psi = _load_vector(args.state, args)
    rep = measure(obs, psi)
    return {
        "total_form_value": str(rep.total_form_value),
        "outcomes": [{
            "eigenvalue": str(o.eigenvalue),
            "modal_possible": o.modal_possible,
            "born_weight": None if o.born_weight is None else str(o.born_weight),
            "projected_state": [str(c) for c in o.projected_state],
        } for o in rep.outcomes],
    }


def _cmd_evolve(args) -> dict:
    u = _load_matrix(args.matrix, args)
    psi = _load_vector(args.state, args)
    return {"state": vector_to_json(evolve(u, psi))}


def _cmd_tensor(args) -> dict:
    x = _load_vector(args.left, args)
    y = _load_vector(args.right, args)
    return {"state": bipartite_to_json(tensor_state(x, y))}


def _load_bipartite(args) -> BipartiteState:
    text = _read_maybe_file(args.state)
    if text.lstrip().startswith("{"):
        return bipartite_from_json(json.loads(text))
    if args.dims is None:
        raise ValueError("compact bipartite states need --dims d1,d2")
    d1, d2 = (int(s) for s in args.dims.split(","))
    return BipartiteState((d1, d2), _load_vector(text, args))


def _cmd_schmidt(args) -> dict:
    state = _load_bipartite(args)
    ok, factors = is_product(state)
    return {
        "product": ok,
        "factors": None if factors is None else
        [[str(c) for c in factors[0]], [str(c) for c in factors[1]]],
    }


def _cmd_noclone(args) -> dict:
    return no_cloning_witness(parse_field(args.field), args.dim).to_json()


def _cmd_embed(args) -> dict:
    f = parse_field(args.source)
    if not isinstance(f, QuadExt):
        raise ValueError("embeddings start from a quadext field")
    return build_embedding(f, args.m).to_json()


def _parse_primes(text: str) -> tuple[int, ...]:
    """Prime lists: either "a..b" (inclusive range) or "2,3,5"."""
    text = text.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = int(lo_s), int(hi_s)
        ps = tuple(n for n in range(max(lo, 2), hi + 1) if is_prime(n))
        if not ps:
            raise ValueError(f"no primes in the range {lo}..{hi}")
        return ps
    ps = tuple(int(s) for s in text.split(","))
    for n in ps:
        if not is_prime(n):
            raise ValueError(f"{n} is not prime")
    return ps


def _cmd_lefschetz_eval(args) -> dict:
    ast = parse_sentence(args.sentence)
    verdict = eval_closure(ast, args.p, max_level=args.expand, ambient_bound=args.levels)
    return {
        "sentence": pretty(ast),
        "prime": args.p,
        "verdict": verdict.value,
        "certified": verdict.certified,
        "witness": verdict.witness,
        "levels": verdict.witness_level,
    }


def _cmd_lefschetz_sample(args) -> dict:
    report = lefschetz_sample(args.sentence, primes=_parse_primes(args.primes),
                              max_level=args.expand, ambient_bound=args.levels)
    return report.to_json()


def _cmd_curves_meet(args) -> dict:
    rep = curves_meet(args.prime, args.f, args.g, args.max_level)
    return {"f": args.f, "g": args.g, "prime": args.prime, "report": rep.to_json()}


def _cmd_fixpoints(args) -> dict:
    obj = json.loads(_read_maybe_file(args.map))
    twist = obj.get("aut_exponent") if isinstance(obj, dict) else None
    if type(twist) is not int or twist not in (0, 1):
        raise ValueError('the map JSON needs an "aut_exponent" of 0 or 1')
    phi = SemilinearMap(matrix_from_json(obj), twist)
    rep = fixed_points(phi, max_ext=args.max_ext,
                       include_form_incompatible=args.include_form_incompatible)
    out = rep.to_json()
    out["scan_limit"] = SCAN_LIMIT
    return out


def _cmd_selftest(_args) -> dict:
    return run_selftest()


def _add_field(p: argparse.ArgumentParser, required: bool = True):
    p.add_argument("--field", required=required,
                   help="field spec: prime:p, quadext:p:e, or gaussian")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="exactqt",
                                  description="exact linear quantum mechanics over "
                                              "fields with involution")
    top.add_argument("--version", action="version", version=f"exactqt {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="field level utilities")
    fsub = p.add_subparsers(dest="field_command", required=True)
    q = fsub.add_parser("info", help="describe a field")
    _add_field(q)
    q.set_defaults(fn=_cmd_field_info)

    q = sub.add_parser("form", help="hermitian form value <x, y>")
    _add_field(q, required=False)
    q.add_argument("--left", required=True)
    q.add_argument("--right", required=True)
    q.set_defaults(fn=_cmd_form)

    q = sub.add_parser("unitary-check", help="does U* U = I hold exactly")
    _add_field(q, required=False)
    q.add_argument("--matrix", required=True)
    q.set_defaults(fn=_cmd_unitary_check)

    q = sub.add_parser("hermitian-check", help="does A* = A hold exactly")
    _add_field(q, required=False)
    q.add_argument("--matrix", required=True)
    q.set_defaults(fn=_cmd_hermitian_check)

    q = sub.add_parser("eigen", help="exact eigenvalues and eigenspaces")
    _add_field(q, required=False)
    q.add_argument("--matrix", required=True)
    q.set_defaults(fn=_cmd_eigen)

    q = sub.add_parser("measure", help="modal outcomes and born weights")
    _add_field(q, required=False)
    q.add_argument("--obs", required=True, help="observable matrix (file, JSON, or compact)")
    q.add_argument("--state", required=True)
    q.set_defaults(fn=_cmd_measure)

    q = sub.add_parser("evolve", help="apply a unitary to a state")
    _add_field(q, required=False)
    q.add_argument("--matrix", required=True)
    q.add_argument("--state", required=True)
    q.set_defaults(fn=_cmd_evolve)

    q = sub.add_parser("tensor", help="tensor two states")
    _add_field(q, required=False)
    q.add_argument("--left", required=True)
    q.add_argument("--right", required=True)
    q.set_defaults(fn=_cmd_tensor)

    q = sub.add_parser("schmidt", help="decide productness and factor")
    _add_field(q, required=False)
    q.add_argument("--state", required=True)
    q.add_argument("--dims", help="d1,d2 for compact state entries")
    q.set_defaults(fn=_cmd_schmidt)

    q = sub.add_parser("noclone", help="the linearity obstruction to cloning")
    _add_field(q)
    q.add_argument("--dim", type=int, default=2)
    q.set_defaults(fn=_cmd_noclone)

    q = sub.add_parser("embed", help="build a verified odd-degree field embedding")
    q.add_argument("--from", dest="source", required=True, metavar="FIELD",
                   help="base field spec, e.g. quadext:3:1")
    q.add_argument("--m", type=int, required=True, help="odd extension degree")
    q.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("lefschetz", help="first-order sentences over closures")
    lsub = p.add_subparsers(dest="lefschetz_command", required=True)
    q = lsub.add_parser("eval", help="bounded closure evaluation")
    q.add_argument("--sentence", required=True)
    q.add_argument("--p", type=int, required=True, help="prime characteristic")
    q.add_argument("--levels", type=int, default=4, help="largest ambient degree")
    q.add_argument("--expand", type=int, default=2, help="relative degree per quantifier")
    q.set_defaults(fn=_cmd_lefschetz_eval)
    q = lsub.add_parser("sample", help="one sentence across many primes")
    q.add_argument("--sentence", required=True)
    q.add_argument("--primes", default="2..29", help='"a..b" range or "2,3,5" list')
    q.add_argument("--levels", type=int, default=4)
    q.add_argument("--expand", type=int, default=2)
    q.set_defaults(fn=_cmd_lefschetz_sample)

    q = sub.add_parser("curves-meet", help="search extension levels for a common zero")
    q.add_argument("--prime", type=int, required=True)
    q.add_argument("--f", required=True)
    q.add_argument("--g", required=True)
    q.add_argument("--max-level", type=int, default=4)
    q.set_defaults(fn=_cmd_curves_meet)

    q = sub.add_parser("fixpoints", help="projective fixed points of a semilinear map")
    q.add_argument("--map", required=True,
                   help='matrix JSON (file or inline) with an "aut_exponent" of 0 or 1')
    q.add_argument("--max-ext", type=int, default=3)
    q.add_argument("--include-form-incompatible", action="store_true")
    q.set_defaults(fn=_cmd_fixpoints)

    q = sub.add_parser("selftest", help="deterministic invariant suite")
    q.set_defaults(fn=_cmd_selftest)

    return top


def entrypoint(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.fn(args)
    except (ExactQTError, ValueError, ArithmeticError, json.JSONDecodeError) as exc:
        code = exc.code if isinstance(exc, ExactQTError) else type(exc).__name__
        sys.stdout.write(dumps_canonical({"error": {"type": code, "message": str(exc)}}))
        return 1
    sys.stdout.write(dumps_canonical(out))
    if args.command == "selftest" and not out["passed"]:
        return 1
    return 0
