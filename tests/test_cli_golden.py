"""Byte-for-byte replay of recorded CLI calls.

tests/golden_cli.json holds, for each call, its argv, exit code and the
exact stdout the CLI printed: one call or more of every subcommand, plus
three malformed-document cases that exit 1 with a ValueError.  The calls
run in-process through `entrypoint`, so a refactor that changes one output
byte, one exit code or the order of any listed element fails here.

A case is recorded before the source it covers is edited: run
`entrypoint(argv)` in-process on the unchanged tree with stdout captured
(contextlib.redirect_stdout), append {"argv": argv, "exit": code,
"stdout": captured} to the list, and write the file back as
json.dumps(cases, indent=1) followed by a newline, so the old cases keep
their bytes.
"""

import json
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
