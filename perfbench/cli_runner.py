"""Traced stand-in for the ``tautjac`` console script.

Usage: cli_runner.py SPANS_PATH SPAWN_NS ARGS...

Imports ``tautjac.cli``, records the interpreter start plus that import
as the ``cli.startup`` span (from the parent's spawn time stamp),
installs the layer wrappers, runs ``tautjac.cli.main(ARGS)`` inside a
``cli.main`` span, writes the spans and exits with main's code.
"""

import sys

import tracer


def main(argv):
    spans_path, spawn_ns, args = argv[1], int(argv[2]), argv[3:]
    import tautjac.cli

    trace = tracer.Tracer()
    trace.record(tracer.STARTUP, spawn_ns, tracer.CLOCK())
    trace.install()
    try:
        return trace.wrap(tracer.MAIN, tautjac.cli.main)(args)
    finally:
        trace.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
