"""What `import exactqt` and one CLI call load, checked in fresh children.

The package resolves its public names lazily, and each CLI handler imports
the modules it runs.  Inside pytest every module is already loaded, so the
module sets are read in a child: sys.modules before the first exactqt import
against sys.modules after one entrypoint call, which leaves out whatever
the interpreter's site setup imported.
"""

import json
import subprocess
import sys

import pytest

import exactqt

_PROBE = """
import sys
before = set(sys.modules)
import contextlib, io, json
from exactqt.cli import entrypoint
with contextlib.redirect_stdout(io.StringIO()):
    code = entrypoint(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

_BULKY = ["exactqt.lefschetz", "exactqt.autocode", "exactqt.embed", "exactqt.compose",
          "exactqt.qcore", "exactqt.sampling", "exactqt.selftest", "exactqt._tower",
          "dataclasses"]


def _run(*args: str) -> str:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout


def _loaded_by(argv: list) -> set:
    code, loaded = json.loads(_run("-c", _PROBE, json.dumps(argv)))
    assert code == 0
    return set(loaded)


@pytest.mark.parametrize("argv, absent", [
    (["form", "--field", "quadext:3:1", "--left", "1,t", "--right", "t,1"], _BULKY),
    (["lefschetz", "eval", "--sentence", "E x . x*x + 1 = 0", "--p", "3"],
     ["exactqt.autocode", "exactqt.embed", "exactqt.qcore", "exactqt.sampling",
      "exactqt.selftest"]),
], ids=["form", "lefschetz-eval"])
def test_cli_call_loads_only_its_subcommand(argv, absent):
    loaded = _loaded_by(argv)
    assert "exactqt.cli" in loaded
    assert sorted(loaded & set(absent)) == []


def test_every_public_name_is_its_home_module_object():
    """Resolved in a child, so each name goes through the lazy lookup."""
    probe = """
import importlib, json
import exactqt
wrong = []
for name in exactqt.__all__[:-1]:
    home = importlib.import_module("exactqt." + exactqt._HOME[name])
    value = getattr(exactqt, name)
    if value is not vars(home)[name] or getattr(value, "__module__", home.__name__) != home.__name__:
        wrong.append(name)
print(json.dumps(wrong))
"""
    assert exactqt.__all__[-1] == "__version__"
    assert json.loads(_run("-c", probe)) == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        exactqt.nope  # noqa: B018
    assert not hasattr(exactqt, "nope")


def test_submodules_still_import_from_the_package():
    out = _run("-c", "from exactqt import starfield, _tower; "
                     "print(starfield.__name__, _tower.__name__)")
    assert out.split() == ["exactqt.starfield", "exactqt._tower"]
