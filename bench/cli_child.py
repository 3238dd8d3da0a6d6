"""Run one ``isoptic`` CLI command with the layer functions traced.

Usage: python3 bench/cli_child.py SPANS_FILE CLI_ARG...
Writes the spans to SPANS_FILE and exits with the CLI's exit code.
"""

import sys
from pathlib import Path

import tracing

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import isoptic.cli  # noqa: E402

tracer = tracing.Tracer()
try:
    with tracing.installed(tracer), tracer.op_span(0):
        code = isoptic.cli.main(sys.argv[2:])
finally:  # also when the CLI raises, so the spans of a crash are kept
    tracer.dump(sys.argv[1])
sys.exit(code)
