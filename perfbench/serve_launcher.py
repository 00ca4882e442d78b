"""Start ``repro serve`` for the serve-mixed workload.

Usage: ``python3 -u perfbench/serve_launcher.py [--trace-dir DIR] -- <serve args>``

Without ``--trace-dir`` this is exactly ``repro serve <serve args>``.
With it, the layer wrappers of :mod:`tracer` are installed before the
server forks its workers, so the workers inherit them; each worker
writes its spans to ``DIR`` when it drains, and the front writes its own
when the server has shut down (SIGTERM).
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    tracer = None
    if trace_dir:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.install_worker_dump(trace_dir)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *argv])
    finally:
        if tracer is not None:
            tracer.dump(os.path.join(trace_dir, f"spans-front-{os.getpid()}.json"))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
