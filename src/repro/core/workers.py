"""Worker-process lifecycle helpers shared by the parallel runners.

The sweep batch runner and the service's process pool both hand work to
subprocesses and must eventually take them down -- on completion, on a
hard deadline, or when a worker stalls or its job is cancelled. A plain
``terminate(); join(timeout)`` is not enough: a worker stuck in a C-level
loop (exactly what the native solver backend makes possible) ignores
SIGTERM until it next returns to the interpreter, the join times out and
the process leaks. :func:`reap` escalates terminate -> kill -> join so
the worker is gone either way, and closes the parent's pipe end so the
OS resources go with it.
"""

from __future__ import annotations

import signal
from typing import Optional

#: per-stage join patience; two stages bound reap() at twice this
DEFAULT_REAP_GRACE_SECONDS = 5.0


def describe_exit(exitcode: Optional[int]) -> str:
    """Human-readable form of a ``Process.exitcode``.

    ``multiprocessing`` encodes death-by-signal as a negative exit code;
    supervisors attribute crashes in events and logs with this
    (``signal 9 (SIGKILL)``, ``exit 3``, ``no exit code``).
    """
    if exitcode is None:
        return "no exit code"
    if exitcode < 0:
        try:
            name = signal.Signals(-exitcode).name
        except ValueError:
            name = "?"
        return f"signal {-exitcode} ({name})"
    return f"exit {exitcode}"


def reap(
    process,
    connection=None,
    grace: float = DEFAULT_REAP_GRACE_SECONDS,
    terminate: bool = True,
) -> Optional[int]:
    """Bring a worker process down for certain; never hangs, never leaks.

    Escalation ladder: ``terminate()`` (skipped when ``terminate`` is
    False -- for workers that already delivered a result and should just
    be joined), ``join(grace)``, and if the worker ignored SIGTERM,
    ``kill()`` followed by a final ``join(grace)``. ``connection`` (the
    parent's pipe end) is closed in all cases, including when a join
    raises. Returns the worker's exit code, or ``None`` if it survived
    even SIGKILL (kernel-stuck; nothing more can be done from here).
    """
    try:
        if terminate and process.is_alive():
            process.terminate()
        process.join(timeout=grace)
        if process.is_alive():
            process.kill()
            process.join(timeout=grace)
    finally:
        if connection is not None:
            try:
                connection.close()
            except OSError:  # pragma: no cover - already closed by peer
                pass
    return process.exitcode
