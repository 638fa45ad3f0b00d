"""Traced launcher for the campaign daemon.

Usage::

    python3 perfbench/serve.py SPANS_JSON campaign serve --db DB --port 0

Installs the layer wrappers of :mod:`spans`, then calls the same entry
point as ``repro-experiments campaign serve``.  When the daemon stops
(SIGINT), the spans and counters go to ``SPANS_JSON``; run.py keeps the
spans of the measured window.  Untraced rounds run the entry point
directly, without this launcher.
"""

from __future__ import annotations

import sys

import spans


def main(argv: list[str]) -> int:
    out, cli_args = argv[1], argv[2:]
    recorder = spans.Recorder()
    spans.install(recorder)
    from repro.experiments.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.active = False
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
