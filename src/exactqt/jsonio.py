"""JSON encoding of fields, matrices, and states.

The wire format stores elements as their canonical strings together with a
field descriptor, row-major.  Vectors are d x 1 matrices; bipartite states
additionally carry their factor dimensions.  dumps_canonical pins key order
and indentation so equal objects serialize byte-identically.
"""

from __future__ import annotations

import json

from .forms import Matrix, StateVector
from .starfield import FieldDescriptor, parse_field


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def matrix_to_json(m: Matrix) -> dict:
    return {
        "field": m.owner.to_json(),
        "rows": m.rows,
        "cols": m.cols,
        "entries": [str(c) for row in m.entries for c in row],
    }


def vector_to_json(v: StateVector) -> dict:
    return {
        "field": v.owner.to_json(),
        "rows": v.dim,
        "cols": 1,
        "entries": [str(c) for c in v],
    }


def bipartite_to_json(b: BipartiteState) -> dict:
    out = vector_to_json(b.vector)
    out["dims"] = list(b.dims)
    return out


def _shape(obj) -> tuple[FieldDescriptor, int, int, list]:
    if not isinstance(obj, dict):
        raise ValueError("a matrix or vector document must be a JSON object")
    missing = [key for key in ("field", "rows", "cols", "entries") if key not in obj]
    if missing:
        raise ValueError(f"the document has no {', '.join(missing)}")
    if not isinstance(obj["field"], (str, dict)):
        raise ValueError("field must be a shorthand string or a descriptor object")
    field = parse_field(obj["field"])
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    if type(rows) is not int or type(cols) is not int:
        raise ValueError("rows and cols must be integers")
    if type(entries) is not list or any(type(c) not in (str, int) for c in entries):
        raise ValueError("entries must be a list of strings and integers")
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    return field, rows, cols, entries


def matrix_from_json(obj: dict) -> Matrix:
    field, rows, cols, entries = _shape(obj)
    return Matrix(field, [[entries[i * cols + j] for j in range(cols)]
                          for i in range(rows)])


def vector_from_json(obj: dict) -> StateVector:
    field, rows, cols, entries = _shape(obj)
    if cols != 1:
        raise ValueError(f"a state vector must have cols = 1, got {cols}")
    return StateVector(field, entries)


def bipartite_from_json(obj: dict) -> BipartiteState:
    from .compose import BipartiteState  # here, so that loading a matrix skips compose
    v = vector_from_json(obj)
    dims = obj.get("dims")
    if not (isinstance(dims, (list, tuple)) and len(dims) == 2):
        raise ValueError("bipartite states need dims = [d1, d2]")
    if any(type(d) is not int for d in dims):
        raise ValueError("dims must be integers")
    return BipartiteState(tuple(dims), v)
