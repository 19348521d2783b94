"""Set-up probe: time one fresh process's set-up and print it in seconds,
wall clock then CPU.

Usage: ``python3 compilebench/probe.py <workload>`` with ``src`` on
``PYTHONPATH``. For ``mono-*`` set-up is importing the library plus
building every fabric and engine the workload maps with; for ``cli-cold``
it is ``import repro.cli``. The interpreter's own start is not included.
"""

import sys
import time

# (rows, cols, opt level) of each engine a mapping workload builds
ENGINES = {
    "mono-large": [(10, 10, 0), (20, 20, 0), (10, 10, 2), (20, 20, 2)],
}
ENGINE_TIMEOUT_SECONDS = 60.0


def build_engines(workload: str) -> dict:
    from repro.arch.cgra import CGRA
    from repro.core.engine import create_engine

    return {
        (f"{rows}x{cols}", opt): create_engine(
            "monomorphism", CGRA(rows, cols),
            timeout_seconds=ENGINE_TIMEOUT_SECONDS, opt_level=opt)
        for rows, cols, opt in ENGINES[workload]
    }


if __name__ == "__main__":
    start, cpu_start = time.perf_counter(), time.process_time()
    workload = sys.argv[1]
    if workload == "cli-cold":
        import repro.cli  # noqa: F401
    else:
        import repro.frontend  # noqa: F401
        import repro.workloads.suite  # noqa: F401
        build_engines(workload)
    print(time.perf_counter() - start, time.process_time() - cpu_start)
