"""Run the factorgaps CLI with layer tracing.

    PYTHONPATH=src python3 perfbench/traced_cli.py PARTS_DIR SUBCOMMAND [ARGS...]

Each process of the command (the CLI and any forked workers) writes its
spans to PARTS_DIR/spans-<pid>.json when it ends; stdout is the CLI's own.
"""

import sys

from layers import Tracer, install


def main() -> int:
    tracer = Tracer(sys.argv[1])
    install(tracer)
    from factorgaps import cli

    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
