"""Golden files: the exact ``--json`` stdout of every README example.

Each ``tests/golden/<name>.json`` holds the report one README command
prints; the commands run from ``tests/golden`` so that the echoed input
paths (``points.json``, ``trace.json``) are the README's own.  Regenerate
a file only when a report is meant to change: run ``deepnest --json ...``
from ``tests/golden`` and write its stdout to the file.
"""

from __future__ import annotations

import pathlib

import pytest

from deepnest.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

EXAMPLES = {
    "parse": ["parse", "--scheme", "<J + 1<4 + 1<22>>>"],
    "check-rm": ["check-rm", "--scheme",
                 "<J + 1_-<3_+ + 9_- + 1_-<10_+ + 4_->>>"],
    "check-orevkov": ["check-orevkov", "--scheme",
                      "<J + 1_-<3_+ + 9_- + 1_-<10_+ + 4_->>>"],
    "solve-with-o1-jumps": ["solve", "--scenario", "with-o1-jumps"],
    "solve-no-jumps-odd-gamma": ["solve", "--scenario", "no-jumps-odd-gamma"],
    "prohibit-3-23": ["prohibit", "--scheme", "<J + 1<3 + 1<23>>>"],
    "prohibit-12-14": ["prohibit", "--scheme", "<J + 1<12 + 1<14>>>"],
    "theorem1": ["theorem1"],
    "theorem2-12": ["theorem2", "--beta", "12"],
    "lemma3-case2": ["lemma3", "--case", "2", "--samples", "20",
                     "--seed", "0"],
    "lemma3-config": ["lemma3", "--config", "points.json"],
    "audit": ["audit", "--trace", "trace.json"],
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_output_is_pinned(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(["--json", *EXAMPLES[name]])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{name}.json").read_text()
