"""Start ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python serve_launcher.py --trace-out PATH -- serve [serve args]``.
Installs the layer wrappers of ``spans.py`` (plus the daemon's own serve
layers), hands over to ``repro.cli.main``, and writes the recorded spans
to PATH once the daemon shuts down.
"""

from __future__ import annotations

import sys

import spans


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print("usage: serve_launcher.py --trace-out PATH -- serve ...", file=sys.stderr)
        return 2
    path, serve_args = argv[1], argv[3:]
    spans.load_modules()
    tracer = spans.Tracer()
    spans.install(tracer, spans.LAYERS + spans.SERVE_LAYERS)
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_args)
    finally:
        tracer.dump(path, {"process": "daemon"})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
