"""Run ``repro serve`` with the benchmark's span wrappers installed.

    PYTHONPATH=src python3 perfbench/serve_launcher.py SPANS.json serve ...

Everything after the spans path is handed to ``repro.cli.main``.  The
server stops on SIGINT like ``python -m repro serve``; the recorded spans
are then written to ``SPANS.json``.
"""

import sys

import tracing


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = tracing.install(tracing.Tracer())
    tracer.enabled = True
    from repro.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        tracer.enabled = False
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
