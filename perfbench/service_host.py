"""Run ``nitrosketch serve`` with the layer wrappers installed.

Usage: ``python perfbench/service_host.py <spans.json> serve [serve args]``

The traced run's service process.  It installs the server-side span
wrappers (see :mod:`tracing`), hands the remaining arguments to the
unmodified CLI entry point exactly as ``nitrosketch serve`` would get
them, and writes the recorded spans once the service has stopped.
The untraced run starts ``python -m repro.cli serve`` directly.
"""

from __future__ import annotations

import sys

import tracing


def main(argv) -> int:
    spans_path, serve_argv = argv[0], argv[1:]
    recorder = tracing.Recorder()
    tracing.install_server(recorder)
    from repro.cli import main as cli_main

    code = cli_main(serve_argv)
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
