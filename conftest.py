"""Configuration shared by ``tests/`` and ``pipebench/``.

``extbar.extract.bar_source_algebra`` keeps one bar tower per generator
rank per process, with the columns it has compiled and checked.  Every test
starts on new towers, as a one-command run of the CLI does, so a test's
counts and timings do not depend on which tests ran before it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

from extbar import extract  # noqa: E402


@pytest.fixture(autouse=True)
def cold_bar_towers():
    extract._towers = {}
