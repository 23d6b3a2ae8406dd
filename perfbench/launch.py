"""Runs the goedellab CLI in a traced child process.

usage: python3 perfbench/launch.py SPANS_FILE [goedellab arguments...]

Records the import of `goedellab.cli`, `main` and the spans inside it,
and writes them to SPANS_FILE for the parent, which attaches them under
its span for this process.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    tracer = Tracer()
    idx = tracer.open("cli.import")
    import goedellab
    import goedellab.cli

    tracer.close(idx)
    tracer.install(goedellab)
    try:
        return goedellab.cli.main(argv)
    finally:
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
