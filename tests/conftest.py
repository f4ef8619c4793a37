"""Shared test configuration.

Every suite must be deterministic: hypothesis runs derandomized so a red
test reproduces bit-for-bit on any machine.  pyproject.toml puts src/ on
pytest's own import path; PYTHONPATH carries it to the `python -m exactqt`
child processes some tests start, so a plain checkout needs no install.
"""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("exact", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("exact")

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
