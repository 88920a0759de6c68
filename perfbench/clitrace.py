"""Run one `deepnest` command in this process with its layer functions traced.

    python perfbench/clitrace.py SPANS_FILE [deepnest arguments...]

Behaves like `python -m deepnest.cli` (same output, same exit status, an
uncaught error still prints its traceback) and writes the recorded spans to
SPANS_FILE on the way out.
"""

import sys

from deepnest import cli

import tracer


def main() -> None:
    path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.dump(t.spans, path)
    sys.exit(code)


if __name__ == "__main__":
    main()
