"""Byte-identical ``lemma3`` reports over a fixed corpus of argv.

``tests/golden/lemma3-digests.json`` holds one SHA-256 digest of
(exit status, stdout, stderr) per argv: ``--json lemma3 --case K --seed S
--samples 40`` for K = 1..3 and S = 0..4, and ``--json lemma3 --config F``
for every stored template (the three base configurations and every
excluded pattern), with F's path masked as ``CONFIG``.  Regenerate the file
only when a report is meant to change:
``PYTHONPATH=src python tests/test_lemma3_corpus.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import tempfile

from deepnest.cli import main
from deepnest.configurations import BASE_CONFIGURATIONS, EXCLUSION_TEMPLATES

DIGESTS = pathlib.Path(__file__).parent / "golden" / "lemma3-digests.json"

TEMPLATES = {**{f"case{k}": cfg for k, cfg in BASE_CONFIGURATIONS.items()},
             **EXCLUSION_TEMPLATES}


def corpus_digests(workdir: pathlib.Path) -> dict[str, str]:
    """Run every corpus argv through `main`; name -> digest."""
    runs = {f"--case {k} --seed {s} --samples 40":
            ["--case", str(k), "--seed", str(s), "--samples", "40"]
            for k in (1, 2, 3) for s in range(5)}
    for kind, cfg in TEMPLATES.items():
        path = workdir / f"{kind}.json"
        path.write_text(json.dumps(
            [{"label": k, "point": list(p)} for k, p in cfg.items()]))
        runs[f"--config {kind}"] = ["--config", str(path)]
    out = {}
    for name, argv in runs.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(["--json", "lemma3", *argv])
        mask = argv[-1] if argv[0] == "--config" else None
        texts = [t.getvalue() for t in (stdout, stderr)]
        if mask:
            texts = [t.replace(mask, "CONFIG") for t in texts]
        blob = json.dumps([code, *texts]).encode()
        out[name] = hashlib.sha256(blob).hexdigest()
    return out


def test_lemma3_reports_match_their_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert len(expected) == 43
    assert corpus_digests(tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = corpus_digests(pathlib.Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
