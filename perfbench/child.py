"""One ``mimosel mc`` process as the benchmark runs it.

Usage: ``python3 child.py ROOT CONFIG OUT [TRACE_DIR]``

Imports ``mimosel`` from ``ROOT/src``, calls the ``mc`` console entry point
(``mimosel.cli:main``) on ``CONFIG`` with ``--out OUT``, and prints one JSON
line with ``time.monotonic()`` marks (system-wide on Linux, so comparable
with the parent's clock) and peak RSS. With ``TRACE_DIR`` the wrappers of
``tracer.py`` are installed first and the spans are written there.

The parent sets ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` before this
process starts, so they hold before numpy is imported.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    root, config, out = argv[:3]
    trace_dir = argv[3] if len(argv) > 3 else None
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import mimosel
    import mimosel.cli as cli

    package_dir = os.path.dirname(os.path.abspath(mimosel.__file__))
    if package_dir != os.path.join(os.path.abspath(src), "mimosel"):
        print(f"error: mimosel imported from {package_dir}, not {src}", file=sys.stderr)
        return 2

    marks: dict[str, float] = {}
    run_monte_carlo = cli.run_monte_carlo

    def timed_sweep(cfg):
        marks["sweep_start"] = time.monotonic()
        try:
            return run_monte_carlo(cfg)
        finally:
            marks["sweep_end"] = time.monotonic()

    cli.run_monte_carlo = timed_sweep
    tracer = None
    if trace_dir is not None:
        from tracer import Tracer

        tracer = Tracer(trace_dir)
        tracer.install()
    try:
        status = cli.main(["mc", "--config", config, "--out", out])
        marks["output_written"] = time.monotonic()
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.flush()
        cli.run_monte_carlo = run_monte_carlo
    # ru_maxrss is in KiB on Linux; for RUSAGE_CHILDREN it is the peak of the
    # largest waited-for child, here the largest pool worker.
    marks["rss_self_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    marks["rss_child_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps(marks))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
