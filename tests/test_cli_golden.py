"""Byte-for-byte replay of recorded CLI calls.

tests/golden_cli.json holds, for each call, its argv, exit code and the
exact stdout the CLI printed: one call or more of every subcommand, plus
three malformed-document cases that exit 1 with a ValueError.  The calls
run in-process through `entrypoint`, so a refactor that changes one output
byte, one exit code or the order of any listed element fails here.

The same cases replay once more, one per leaf subcommand, through
`python -m exactqt` in a fresh child: in-process every module is already
loaded, so only a child shows that each subcommand imports what it runs.

A case is recorded before the source it covers is edited: run
`entrypoint(argv)` in-process on the unchanged tree with stdout captured
(contextlib.redirect_stdout), append {"argv": argv, "exit": code,
"stdout": captured} to the list, and write the file back as
json.dumps(cases, indent=1) followed by a newline, so the old cases keep
their bytes.

An intended change to an existing case's output is made on the changed
tree: run `entrypoint(case["argv"])` in-process the same way, check that
the exit code is unchanged, replace only that case's "stdout" with the
captured text, and write the file back as above, so every other case keeps
its bytes.  The old stdout, the new stdout and the reason for the change
go into CHANGES.md.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from exactqt.cli import entrypoint

CASES = json.loads((Path(__file__).with_name("golden_cli.json")).read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES,
                         ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(CASES)])
def test_cli_replays_golden_transcript(capsys, case):
    code = entrypoint(case["argv"])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]


LEAF_COMMANDS = [
    "field info", "form", "unitary-check", "hermitian-check", "eigen", "measure", "evolve",
    "tensor", "schmidt", "noclone", "embed", "lefschetz eval", "lefschetz sample",
    "curves-meet", "fixpoints", "selftest",
]


def _leaf(argv: list) -> str:
    return " ".join(argv[:2]) if argv[0] in ("field", "lefschetz") else argv[0]


FIRST_CASE = {}
for _case in CASES:
    FIRST_CASE.setdefault(_leaf(_case["argv"]), _case)


def test_golden_transcript_covers_every_leaf_subcommand():
    assert sorted(FIRST_CASE) == sorted(LEAF_COMMANDS)


def _child(argv: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "exactqt", *argv], capture_output=True,
                          timeout=120)


@pytest.mark.parametrize("leaf", LEAF_COMMANDS)
def test_fresh_child_replays_golden_case(leaf):
    case = FIRST_CASE[leaf]
    proc = _child(case["argv"])
    assert proc.stdout == case["stdout"].encode("utf-8")
    assert proc.returncode == case["exit"]


def test_fresh_child_prints_version(capsys):
    with pytest.raises(SystemExit) as exc:
        entrypoint(["--version"])
    proc = _child(["--version"])
    assert proc.stdout == capsys.readouterr().out.encode("utf-8")
    assert proc.returncode == exc.value.code == 0
