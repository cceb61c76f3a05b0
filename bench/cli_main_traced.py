"""`ramify <args>` with the benchmark's tracer installed.

Usage: cli_main_traced.py SPANS_PATH ARGS...  The spans are written to
SPANS_PATH when the process exits.
"""

import atexit
import sys

import tracer

path = sys.argv.pop(1)
spans = tracer.Tracer()
spans.install()
atexit.register(spans.dump, path)

import ramify.cli  # noqa: E402

ramify.cli.main()
