"""Command-line surface: JSON outputs, exit codes, wire-format round trips."""

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from exactqt.cli import entrypoint
from exactqt.jsonio import dumps_canonical, matrix_from_json, vector_to_json
from exactqt import QuadExt, StateVector


def run_cli(capsys, *argv):
    code = entrypoint(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_field_info(capsys):
    code, doc = run_cli(capsys, "field", "info", "--field", "quadext:3:1")
    assert code == 0
    assert doc["field"]["kind"] == "quadext"
    assert doc["field"]["modulus"] == [1, 0, 1]
    assert doc["q"] == 3
    assert doc["order"] == 9
    assert doc["fixed_field_order"] == 3


def test_field_info_gaussian(capsys):
    code, doc = run_cli(capsys, "field", "info", "--field", "gaussian")
    assert code == 0
    assert doc["fixed_field"] == "rationals"


def test_form_compact_input(capsys):
    code, doc = run_cli(capsys, "form", "--field", "quadext:3:1",
                        "--left", "1,1+t", "--right", "1,1+t")
    assert code == 0
    assert doc["value"] == "0"  # (1, 1+t) is isotropic over F_9


def test_unitary_check(capsys):
    code, doc = run_cli(capsys, "unitary-check", "--field", "quadext:3:1",
                        "--matrix", "1,1;0,1")
    assert code == 0
    assert doc["unitary"] is False


def test_hermitian_check(capsys):
    code, doc = run_cli(capsys, "hermitian-check", "--field", "quadext:3:1",
                        "--matrix", "0,t;2t,0")
    assert code == 0
    assert doc["hermitian"] is True
    code, doc = run_cli(capsys, "hermitian-check", "--field", "quadext:3:1",
                        "--matrix", "0,1;t,0")
    assert doc["hermitian"] is False


def test_eigen_report(capsys):
    code, doc = run_cli(capsys, "eigen", "--field", "quadext:3:1",
                        "--matrix", "0,t;2t,0")
    assert code == 0
    assert doc["complete"] is True
    assert doc["total_dimension"] == 2
    assert [p["value"] for p in doc["pairs"]] == ["1", "2"]


def test_measure_report_from_files(capsys, tmp_path):
    obs = tmp_path / "obs.json"
    obs.write_text(dumps_canonical({
        "field": "quadext:3:1", "rows": 2, "cols": 2,
        "entries": ["0", "t", "2t", "0"],
    }))
    psi = tmp_path / "psi.json"
    psi.write_text(dumps_canonical({
        "field": "quadext:3:1", "rows": 2, "cols": 1, "entries": ["1", "0"],
    }))
    code, doc = run_cli(capsys, "measure", "--obs", str(obs), "--state", str(psi))
    assert code == 0
    assert doc["total_form_value"] == "1"
    weights = {o["eigenvalue"]: o["born_weight"] for o in doc["outcomes"]}
    assert weights == {"1": "2", "2": "2"}


def test_measure_compact_input(capsys):
    code, doc = run_cli(capsys, "measure", "--field", "quadext:3:1",
                        "--obs", "0,t;2t,0", "--state", "1,0")
    assert code == 0
    assert doc["total_form_value"] == "1"


def test_measure_incomplete_spectrum_exits_one(capsys):
    code, doc = run_cli(capsys, "measure", "--field", "quadext:3:1",
                        "--obs", "0,t,0;2t,0,t;0,2t,1", "--state", "1,0,0")
    assert code == 1
    assert doc["error"]["type"] == "IncompleteSpectrum"


def test_evolve(capsys):
    code, doc = run_cli(capsys, "evolve", "--field", "quadext:3:1",
                        "--matrix", "0,1;1,0", "--state", "1,t")
    assert code == 0
    assert doc["state"]["entries"] == ["t", "1"]


def test_evolve_rejects_shear(capsys):
    code, doc = run_cli(capsys, "evolve", "--field", "quadext:3:1",
                        "--matrix", "1,1;0,1", "--state", "1,0")
    assert code == 1
    assert doc["error"]["type"] == "NotUnitary"


def test_tensor_then_schmidt_round_trip(capsys, tmp_path):
    code, doc = run_cli(capsys, "tensor", "--field", "gaussian",
                        "--left", "2,3i", "--right", "1,5")
    assert code == 0
    assert doc["state"]["dims"] == [2, 2]
    blob = tmp_path / "pair.json"
    blob.write_text(dumps_canonical(doc["state"]))
    code, verdict = run_cli(capsys, "schmidt", "--state", str(blob))
    assert code == 0
    assert verdict["product"] is True
    assert verdict["factors"][0] == ["1", "3/2i"]
    assert verdict["factors"][1] == ["2", "10"]


def test_schmidt_detects_entanglement(capsys):
    code, doc = run_cli(capsys, "schmidt", "--field", "quadext:3:1",
                        "--state", "1,0,0,1", "--dims", "2,2")
    assert code == 0
    assert doc["product"] is False
    assert doc["factors"] is None


def test_noclone(capsys):
    code, doc = run_cli(capsys, "noclone", "--field", "prime:7", "--dim", "3")
    assert code == 0
    assert doc["cloning_impossible"] is True
    assert doc["linear_image_rank"] == 2


def test_noclone_reference_backend(capsys):
    code, doc = run_cli(capsys, "noclone", "--field", "quadext:3:1", "--dim", "2")
    assert code == 0
    assert doc["cloning_impossible"] is True
    assert sorted((doc["required_clone_rank"], doc["linear_image_rank"])) == [1, 2]


def test_embed_certificate(capsys):
    code, doc = run_cli(capsys, "embed", "--from", "quadext:3:1", "--m", "3")
    assert code == 0
    assert doc["certificate"]["elements_checked"] == 9
    assert doc["certificate"]["injective"] is True
    assert doc["big"]["e"] == 3
    code, doc = run_cli(capsys, "embed", "--from", "quadext:3:1", "--m", "2")
    assert code == 1
    assert doc["error"]["type"] == "EvenExtensionDegree"


def test_lefschetz_eval(capsys):
    code, doc = run_cli(capsys, "lefschetz", "eval",
                        "--sentence", "E x . x*x + 1 = 0", "--p", "3")
    assert code == 0
    assert doc["sentence"] == "E x . x*x + 1 = 0"
    assert doc["verdict"] is True
    assert doc["certified"] is True
    assert doc["levels"] == 2
    assert doc["witness"] == {"x": "t"}


def test_lefschetz_eval_parse_error(capsys):
    code, doc = run_cli(capsys, "lefschetz", "eval",
                        "--sentence", "E x . x = ", "--p", "3")
    assert code == 1
    assert doc["error"]["type"] == "ParseError"
    assert "column 10" in doc["error"]["message"]


def test_lefschetz_eval_deep_nesting_is_a_parse_error(capsys):
    sentence = "E x . " + "(" * 400 + "x = 0" + ")" * 400
    code, doc = run_cli(capsys, "lefschetz", "eval", "--sentence", sentence, "--p", "2")
    assert code == 1
    assert doc["error"]["type"] == "ParseError"
    assert "column 105" in doc["error"]["message"]


def test_lefschetz_eval_long_chain_is_a_parse_error(capsys):
    sentence = "E x . x = " + "x + " * 1500 + "x"
    code, doc = run_cli(capsys, "lefschetz", "eval", "--sentence", sentence, "--p", "2")
    assert code == 1
    assert doc["error"]["type"] == "ParseError"
    assert "column 1000" in doc["error"]["message"]


def test_lefschetz_sample_range_grammar(capsys):
    code, first = run_cli(capsys, "lefschetz", "sample",
                          "--sentence", "E x . x*x + 1 = 0", "--primes", "2..13")
    assert code == 0
    code, second = run_cli(capsys, "lefschetz", "sample",
                           "--sentence", "E x . x*x + 1 = 0",
                           "--primes", "2,3,5,7,11,13")
    assert first == second
    assert first["summary"]["primes_sampled"] == 6
    assert first["summary"]["certified_true"] == 6
    assert first["summary"]["certified_true_fraction"] == "1"
    assert first["summary"]["conjecture"].startswith("true over every")
    assert all(v["certified"] for v in first["verdicts"].values())


def test_lefschetz_sample_rejects_composite(capsys):
    code, doc = run_cli(capsys, "lefschetz", "sample",
                        "--sentence", "E x . x = 0", "--primes", "2,4")
    assert code == 1
    assert "not prime" in doc["error"]["message"]


def test_seed_flag_is_reserved(capsys):
    with pytest.raises(SystemExit) as exc:
        entrypoint(["lefschetz", "sample", "--sentence", "E x . x = 0",
                    "--seed", "7"])
    assert exc.value.code == 2


def test_curves_meet(capsys):
    code, doc = run_cli(capsys, "curves-meet", "--prime", "3",
                        "--f", "x^2 - 2*z^2", "--g", "y")
    assert code == 0
    assert doc["report"]["meet"] is True
    assert doc["report"]["level"] == 2


def test_fixpoints(capsys, tmp_path):
    blob = tmp_path / "map.json"
    # the canonical F_9 modulus t^2 + 1, then t^2 + 2t + 2, which is not canonical
    for modulus in ([1, 0, 1], [2, 2, 1]):
        blob.write_text(dumps_canonical({
            "field": {"kind": "quadext", "p": 3, "e": 1, "modulus": modulus},
            "rows": 2, "cols": 2,
            "entries": ["1", "0", "0", "1"],
            "aut_exponent": 1,
        }))
        code, doc = run_cli(capsys, "fixpoints", "--map", str(blob), "--max-ext", "3")
        assert code == 0
        assert doc["twist"] == 1
        assert len(doc["points"]) == 28
        assert doc["scan_limit"] >= 1000


def test_fixpoints_requires_aut_exponent(capsys):
    code, doc = run_cli(capsys, "fixpoints", "--map", json.dumps({
        "field": "quadext:3:1", "rows": 2, "cols": 2,
        "entries": ["1", "0", "0", "1"],
    }))
    assert code == 1
    assert "aut_exponent" in doc["error"]["message"]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        entrypoint(["field", "info"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        entrypoint(["no-such-command"])
    assert exc.value.code == 2


def test_bad_json_input_exits_one(capsys, tmp_path):
    blob = tmp_path / "bad.json"
    blob.write_text("{not json")
    code, doc = run_cli(capsys, "schmidt", "--state", str(blob))
    assert code == 1
    assert "error" in doc


@pytest.mark.parametrize("shape", [
    {"rows": 2, "cols": 1, "entries": "34"},
    {"rows": 2.9, "cols": 1, "entries": ["3", "4"]},
    {"rows": 2, "cols": True, "entries": ["3", "4"]},
    {"rows": "2", "cols": 1, "entries": ["3", "4"]},
    {"rows": 2, "cols": 1, "entries": ["3", False]},
])
def test_wire_shape_is_strict(capsys, shape):
    left = json.dumps({"field": "prime:5", **shape})
    code, doc = run_cli(capsys, "form", "--left", left, "--right", "1,1", "--field", "prime:5")
    assert code == 1
    assert doc["error"]["type"] == "ValueError"


@pytest.mark.parametrize("field, aut_exponent", [
    ("quadext:3:1", 1.7),
    ("quadext:3:1", True),
    ("quadext:3:1", "1"),
    ("quadext:3:1", 2),
    ({"kind": "quadext", "p": 3, "e": True}, 1),
    ({"kind": "quadext", "p": 3, "e": 1.0}, 1),
    ({"kind": "quadext", "p": 3, "e": 1, "modulus": [1.9, "0", 1]}, 1),
    ({"kind": "quadext", "p": 3, "e": 1, "modulus": [True, 0, 1]}, 1),
    ({"kind": "quadext", "p": 3, "e": 1, "modulus": []}, 1),
    ({"kind": "quadext", "p": 3}, 1),
    ({"kind": "prime"}, 0),
    ({"p": 3}, 0),
])
def test_map_descriptor_is_strict(capsys, field, aut_exponent):
    code, doc = run_cli(capsys, "fixpoints", "--max-ext", "1", "--map", json.dumps({
        "field": field, "rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"],
        "aut_exponent": aut_exponent}))
    assert code == 1
    assert doc["error"]["type"] in ("ValueError", "ParseError")


@pytest.mark.parametrize("field", [
    {"kind": "prime", "p": "5"},
    {"kind": "prime", "p": 5.0},
    {"kind": "quadext", "p": True, "e": 1},
    {"kind": "prime", "p": 5, "e": 9},
    {"kind": "gaussian", "p": 5},
])
def test_field_descriptor_is_strict(capsys, field):
    left = json.dumps({"field": field, "rows": 1, "cols": 1, "entries": ["1"]})
    code, doc = run_cli(capsys, "form", "--left", left, "--right", "1", "--field", "prime:5")
    assert code == 1
    assert doc["error"]["type"] == "ValueError"


@pytest.mark.parametrize("argv", [
    ["form", "--left", '{"rows":1,"cols":1,"entries":["1"]}', "--right", "1",
     "--field", "prime:5"],
    ["form", "--left", '{"field":5,"rows":1,"cols":1,"entries":["1"]}', "--right", "1",
     "--field", "prime:5"],
    ["fixpoints", "--map", '{"aut_exponent":0,"rows":1,"cols":1,"entries":["1"]}'],
])
def test_document_needs_every_key_and_a_field_spec(capsys, argv):
    code, doc = run_cli(capsys, *argv)
    assert code == 1
    assert doc["error"]["type"] == "ValueError"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
# Values that pass some of _shape's checks, so that later checks run too.
_PLAUSIBLE = {
    "field": st.sampled_from(["prime:5", "quadext:3:1", "gaussian", {"kind": "prime", "p": 5},
                              {"kind": "quadext", "p": 3, "e": 1}, {"p": 3}]),
    "rows": st.integers(-1, 3),
    "cols": st.integers(-1, 3),
    "entries": st.lists(st.integers(-9, 9) | st.sampled_from(["1", "t", "i", "1/2", "x"]),
                        max_size=4),
}


@settings(max_examples=200)
@given(st.fixed_dictionaries({}, optional={key: values | _JSON_VALUES
                                           for key, values in _PLAUSIBLE.items()}))
def test_form_documents_end_in_json_with_a_typed_error(document):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = entrypoint(["form", "--left", json.dumps(document), "--right", "1",
                           "--field", "prime:5"])
    assert code in (0, 1)
    doc = json.loads(out.getvalue())
    if code == 1:
        assert doc["error"]["type"] not in ("KeyError", "TypeError")


@pytest.mark.parametrize("dims", [[2.7, "2"], [True, 2]])
def test_bipartite_dims_are_strict(capsys, dims):
    state = json.dumps({"field": "prime:5", "rows": 4, "cols": 1,
                        "entries": ["1", "0", "0", "1"], "dims": dims})
    code, doc = run_cli(capsys, "schmidt", "--state", state)
    assert code == 1
    assert doc["error"]["type"] == "ValueError"


def test_matrix_json_wire_round_trip(capsys, tmp_path):
    F9 = QuadExt(3, 1)
    doc = vector_to_json(StateVector(F9, ["1", "2t"]))
    blob = tmp_path / "vec.json"
    blob.write_text(dumps_canonical(doc))
    code, out = run_cli(capsys, "form", "--left", str(blob), "--right", str(blob))
    assert code == 0
    assert out["value"] == "2"
    parsed = matrix_from_json(json.loads(dumps_canonical(
        {"field": F9.to_json(), "rows": 1, "cols": 2, "entries": ["1", "t"]})))
    assert parsed.entry(0, 1) == F9.element("t")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        entrypoint(["--version"])
    assert exc.value.code == 0


def test_module_invocation_selftest_deterministic():
    runs = [
        subprocess.run([sys.executable, "-m", "exactqt", "selftest"],
                       capture_output=True, text=True)
        for _ in range(2)
    ]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    report = json.loads(runs[0].stdout)
    assert report["passed"] is True
    assert report["failures"] == 0
