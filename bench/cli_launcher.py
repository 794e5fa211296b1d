"""Traced stand-in for ``python -m gameprice``.

    python3 bench/cli_launcher.py SUMMARY_JSON CLI_ARGS...

Installs the benchmark's wrappers, calls gameprice.cli.main(CLI_ARGS),
restores the originals and writes the span summary to SUMMARY_JSON. The exit
code is the CLI's own.
"""

from __future__ import annotations

import json
import sys

import gameprice.cli

import spans


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = gameprice.cli.main(cli_args)
    finally:
        tracer.restore()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
