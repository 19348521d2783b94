"""Crash-isolated worker processes for the compile service.

One :class:`ProcessWorker` is a *persistent* child process plus the
parent-side handle that supervises it.  The child runs a job loop --
receive a job spec, rebuild the request, run the job body
(:func:`repro.service.jobs.run_request`, the same one the degraded
in-thread path runs), stream events back, ship the result -- so repeated
jobs keep the child's warm fabric cache and (for the native backend) its
compiled solver state, while a segfaulting cffi call, an ``os._exit`` or
a SIGKILL takes down *only* that child.  The parent detects death three
ways and attributes it:

* ``crashed`` -- the process exited (nonzero exit code or a signal)
  while a job was in flight; the pipe reports EOF or the process stops
  being alive with nothing buffered.
* ``stalled`` -- the child's heartbeat thread (which beats only while a
  job is executing) went silent past the heartbeat timeout: the worker
  is wedged in a C-level loop that ignores everything short of SIGKILL.
* ``hard_timeout`` -- the job overran its budget plus grace; the
  engine's own budget enforcement failed and the supervisor is the
  backstop.

In every death case the parent escalates through
:func:`repro.core.workers.reap` (terminate -> kill -> join, pipe closed)
so nothing leaks, and the *next* :meth:`ProcessWorker.ensure` call
restarts a fresh child.  The retry/requeue policy on top of this --
bounded retries, exponential backoff, solver-backend demotion,
degradation to in-thread execution -- lives in
:class:`repro.service.jobs.MappingService`; this module only knows how
to run one job in one child and say exactly how it died.

Wire protocol (pickled tuples over one duplex pipe):

* parent -> child: ``("job", spec)`` and ``("stop",)``;
* child -> parent: ``("hb",)`` heartbeats, ``("event", payload)``
  engine/lifecycle events, ``("prof", counts)`` sampling-profiler
  folded-stack deltas (shipped by the heartbeat thread while a job
  burns CPU), ``("done", record, trace_snapshot, log_records,
  metric_dump)`` and ``("failed", message)`` -- an engine *exception*
  is a failed job on a healthy worker, never a crash.

The job spec carries the job's distributed trace context
(``trace_id``); the child pushes it before running the engine so every
span it records and every captured run-log record joins the request's
trace when the parent ingests them.

The fault-injection hooks (:mod:`repro.service.faults`) fire only in the
child, which marks itself via :func:`faults.mark_worker_process`.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.core.workers import describe_exit, reap
from repro.obs import logjson, metrics, profiler
from repro.obs import trace as obs_trace
from repro.service import faults

#: child heartbeat period while a job is executing
DEFAULT_HEARTBEAT_INTERVAL_SECONDS = 0.25

#: parent-side silence tolerance before a busy worker counts as stalled
DEFAULT_HEARTBEAT_TIMEOUT_SECONDS = 30.0

#: patience when stopping a worker gracefully
STOP_GRACE_SECONDS = 2.0

#: minimum spacing between a child's ("prof", ...) shipments
PROFILE_SHIP_INTERVAL_SECONDS = 1.0


class WorkerCrash(Exception):
    """The worker process died (or was put down) mid-job."""

    def __init__(self, reason: str, exitcode: Optional[int],
                 detail: str) -> None:
        super().__init__(f"{reason}: {detail} ({describe_exit(exitcode)})")
        self.reason = reason            # "crashed" | "stalled" | "hard_timeout"
        self.exitcode = exitcode
        self.detail = detail

    def describe(self) -> str:
        return describe_exit(self.exitcode)


class WorkerJobError(Exception):
    """The engine raised inside a healthy worker (no retry, no restart)."""


class WorkerCancelled(Exception):
    """The job was cancelled mid-run; the worker was killed to stop it."""


class WorkerStartError(Exception):
    """The worker process could not be started (pool unhealthy)."""


# --------------------------------------------------------------------- #
# Child side
# --------------------------------------------------------------------- #
def _child_send(connection, lock: threading.Lock, message: Tuple) -> bool:
    try:
        with lock:
            connection.send(message)
        return True
    except (BrokenPipeError, OSError):
        return False  # parent gone; the job loop will exit on recv EOF


def _child_main(connection, index: int, heartbeat_interval: float,
                profile_interval: float = 0.0) -> None:
    """Worker child entry point: the persistent job loop."""
    import signal

    # the daemon installs SIGTERM/SIGINT drain handlers; a forked worker
    # must not inherit them or reap()'s terminate() would be ignored
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (OSError, ValueError):  # pragma: no cover - non-main thread
            pass
    faults.mark_worker_process()
    # continuous profiling: SIGPROF ticks only while this child burns
    # CPU, so an idle worker costs nothing; sample deltas ship back on
    # the heartbeat thread below
    if profile_interval > 0:
        profiler.start(profile_interval)
    send_lock = threading.Lock()
    working = threading.Event()
    done = threading.Event()

    prof_lock = threading.Lock()
    prof_last: Dict[str, int] = {}

    def ship_prof() -> None:
        # deltas only ship while a job is in flight: that is when the
        # parent is actively draining the pipe (between jobs nobody
        # recvs and messages would pile up in the pipe buffer)
        if not profiler.running():
            return
        with prof_lock:
            counts = profiler.local_counts()
            delta = profiler.window(prof_last, counts)
            if delta and _child_send(connection, send_lock,
                                     ("prof", delta)):
                prof_last.clear()
                prof_last.update(counts)

    def beat() -> None:
        last_ship = time.monotonic()
        while not done.is_set():
            if working.is_set() and not faults.stalled():
                if not _child_send(connection, send_lock, ("hb",)):
                    return
                now = time.monotonic()
                if now - last_ship >= PROFILE_SHIP_INTERVAL_SECONDS:
                    ship_prof()
                    last_ship = now
            time.sleep(heartbeat_interval)

    beater = threading.Thread(target=beat, name="procpool-heartbeat",
                              daemon=True)
    beater.start()

    fabric_cache: Dict[str, object] = {}
    try:
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError):
                break
            if not isinstance(message, tuple) or not message:
                continue
            if message[0] == "stop":
                break
            if message[0] != "job":
                continue
            spec = message[1]
            working.set()
            try:
                record, snapshot, log_records, metric_dump = _execute(
                    spec, fabric_cache,
                    lambda m: _child_send(connection, send_lock, m))
                ship_prof()  # the tail of this job's samples
                _child_send(connection, send_lock,
                            ("done", record, snapshot, log_records,
                             metric_dump))
            except BaseException as exc:  # noqa: BLE001 - report, parent decides
                logjson.capture_end()  # discard the aborted run's capture
                obs_trace.pop_trace()
                _child_send(connection, send_lock, ("failed", repr(exc)))
            finally:
                working.clear()
    finally:
        done.set()
        try:
            connection.close()
        except OSError:
            pass
    os._exit(0)


def _execute(spec: Dict[str, object], fabric_cache: Dict[str, object],
             send: Callable[[Tuple], bool]):
    """Run one job spec in this child.

    The job body itself is :func:`repro.service.jobs.run_request`, the
    same one the degraded in-thread path runs; around it the child keeps
    only its own concerns: trace reset, log capture, the metrics delta
    and the fault-injection hooks.

    Returns ``(record, snapshot, log_records, metric_dump)`` -- the
    flattened result, the child's trace snapshot (or ``None``), the
    run-log records captured during the run (the child never writes the
    log file; the parent does, after re-stamping the job's ids), and
    the per-job metrics-registry delta for the parent to fold in.
    """
    # jobs.py imports this module; resolve the cycle at call time
    from repro.service.jobs import MapRequest, run_request

    attempt = int(spec.get("attempt", 0))
    plan = faults.plan()
    plan.maybe_kill("start", attempt)

    traced = bool(spec.get("traced"))
    if traced:
        # shed any fork-inherited buffer/stack state; this child's spans
        # ship back with the result and re-root under the parent's
        # worker.run span on ingest
        obs_trace.reset()
        obs_trace.enable()
    # the job's distributed trace context: every span and captured log
    # record this child produces joins the request's trace, across
    # retries (the parent sends the same trace_id on every attempt)
    obs_trace.push_trace(str(spec.get("job") or ""),
                         str(spec.get("trace_id") or ""))
    logjson.capture_begin()
    # per-job metric delta: cleared here, dumped with the result, folded
    # into the parent registry so /metrics carries engine-side series
    metrics.reset()

    request = MapRequest.from_payload(
        spec["payload"],
        default_budget_seconds=float(spec.get("default_budget_seconds", 30.0)),
        max_budget_seconds=float(spec.get("max_budget_seconds", 300.0)),
    )

    first_improvement = [True]

    def on_event(payload: Dict[str, object]) -> None:
        send(("event", payload))
        if payload.get("event") == "improvement" and first_improvement[0]:
            first_improvement[0] = False
            plan.maybe_kill("mid", attempt)

    def checkpoint(phase: str) -> None:
        if phase == "engine":
            slow = plan.slow_solver_seconds()
            if slow:
                time.sleep(slow)  # heartbeats keep flowing: slow is not stalled
            stall = plan.stall_seconds(attempt)
            if stall:
                faults.begin_stall()
                try:
                    time.sleep(stall)
                finally:
                    faults.end_stall()
        plan.maybe_kill(phase, attempt)

    # supervision-time overrides: the effective backend may have been
    # demoted by the parent after earlier crashes, and the stochastic
    # seed was resolved once at submission (not per attempt); improvement
    # events stream live, and the parent re-attaches its timestamped
    # copies to the record before storing it
    record = run_request(
        request, fabric_cache, on_event,
        solver_backend=spec.get("solver_backend", request.solver_backend),
        seed=spec.get("seed", request.seed),
        budget_seconds=float(spec.get("budget_seconds",
                                      request.budget_seconds)),
        profile=traced,
        started={"worker": spec.get("worker"), "mode": "process",
                 "attempt": attempt},
        checkpoint=checkpoint,
    )
    snapshot = obs_trace.snapshot() if traced else None
    log_records = logjson.capture_end()
    obs_trace.pop_trace()  # the persistent child reuses this thread
    return record, snapshot, log_records, metrics.dump()


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #
class ProcessWorker:
    """Parent-side handle: one supervised, restartable worker process."""

    def __init__(
        self,
        index: int,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT_SECONDS,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL_SECONDS,
        profile_interval: float = 0.0,
        context=None,
    ) -> None:
        import multiprocessing

        self.index = index
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_interval = heartbeat_interval
        self.profile_interval = profile_interval
        self._context = context or multiprocessing.get_context()
        self._process = None
        self._connection = None
        self._spawned = 0  # lifetime process count; spawned - 1 == restarts

    # ------------------------------------------------------------------ #
    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    @property
    def restarts(self) -> int:
        return max(self._spawned - 1, 0)

    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def ensure(self) -> str:
        """Start (or restart) the child if needed.

        Returns ``"alive"``, ``"started"`` or ``"restarted"``; raises
        :class:`WorkerStartError` when the OS refuses -- the signal the
        service uses to declare the pool unhealthy and degrade.
        """
        if self.alive():
            return "alive"
        self._dispose()
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        # not daemonic: a daemonic process may not start multiprocessing
        # children of its own, and a job running in the worker must stay
        # free to; orphaned workers exit on their own when the pipe
        # reports EOF
        process = self._context.Process(
            target=_child_main,
            args=(child_conn, self.index, self.heartbeat_interval,
                  self.profile_interval),
            name=f"repro-serve-procworker-{self.index}",
            daemon=False,
        )
        try:
            process.start()
        except (OSError, ValueError) as exc:
            for end in (parent_conn, child_conn):
                try:
                    end.close()
                except OSError:
                    pass
            raise WorkerStartError(
                f"worker {self.index} failed to start: {exc!r}") from exc
        child_conn.close()
        self._process, self._connection = process, parent_conn
        self._spawned += 1
        return "started" if self._spawned == 1 else "restarted"

    # ------------------------------------------------------------------ #
    def run(
        self,
        spec: Dict[str, object],
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
        deadline_seconds: float = 60.0,
        cancelled: Optional[Callable[[], bool]] = None,
    ):
        """Run one job in the child.

        Returns ``(record, snapshot, log_records, metric_dump)``.  Raises
        :class:`WorkerCrash` (child died / stalled / overran the hard
        deadline -- the child is already reaped),
        :class:`WorkerJobError` (engine exception on a healthy child) or
        :class:`WorkerCancelled` (``cancelled()`` went true; the child
        was killed to stop the job).
        """
        if not self.alive():
            raise WorkerCrash("crashed", self._exitcode(),
                              "worker not running at dispatch")
        connection = self._connection
        try:
            connection.send(("job", spec))
        except (BrokenPipeError, OSError):
            raise WorkerCrash("crashed", self._put_down(),
                              "pipe closed at dispatch") from None

        deadline = time.monotonic() + deadline_seconds
        last_beat = time.monotonic()
        while True:
            try:
                ready = connection.poll(0.05)
            except (BrokenPipeError, OSError):
                raise WorkerCrash("crashed", self._put_down(),
                                  "pipe error mid-job") from None
            if ready:
                try:
                    message = connection.recv()
                except (EOFError, OSError):
                    raise WorkerCrash("crashed", self._put_down(),
                                      "worker died mid-job") from None
                last_beat = time.monotonic()
                kind = message[0]
                if kind == "event":
                    if on_event is not None:
                        on_event(message[1])
                elif kind == "prof":
                    # folded-stack sample delta from the child's
                    # continuous profiler; fold into this process's
                    # merged aggregate (served by /v1/debug/profile)
                    merged = profiler.merge(message[1])
                    if merged:
                        metrics.inc("repro_profile_samples_total",
                                    float(merged))
                elif kind == "done":
                    record, snapshot = message[1], message[2]
                    log_records = message[3] if len(message) > 3 else []
                    metric_dump = message[4] if len(message) > 4 else None
                    return record, snapshot, log_records, metric_dump
                elif kind == "failed":
                    raise WorkerJobError(str(message[1]))
                # "hb" and anything unknown: liveness only
            elif not self.alive():
                if connection.poll(0):
                    continue  # final messages still buffered; drain them
                raise WorkerCrash("crashed", self._put_down(),
                                  "worker process died mid-job")
            if cancelled is not None and cancelled():
                self._put_down()
                raise WorkerCancelled()
            now = time.monotonic()
            if now > deadline:
                raise WorkerCrash(
                    "hard_timeout", self._put_down(),
                    f"exceeded the {deadline_seconds:.1f}s hard deadline")
            if now - last_beat > self.heartbeat_timeout:
                raise WorkerCrash(
                    "stalled", self._put_down(),
                    f"no heartbeat for {self.heartbeat_timeout:.1f}s")

    # ------------------------------------------------------------------ #
    def _exitcode(self) -> Optional[int]:
        return self._process.exitcode if self._process is not None else None

    def _put_down(self) -> Optional[int]:
        """Reap the child (terminate -> kill -> join) and drop the handle."""
        process, connection = self._process, self._connection
        self._process = self._connection = None
        if process is None:
            return None
        return reap(process, connection)

    def _dispose(self) -> None:
        if self._process is not None:
            self._put_down()

    def stop(self) -> None:
        """Graceful shutdown: ask the child to exit, then make sure."""
        process, connection = self._process, self._connection
        self._process = self._connection = None
        if process is None:
            return
        try:
            connection.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        process.join(timeout=STOP_GRACE_SECONDS)
        reap(process, connection, terminate=True,
             grace=STOP_GRACE_SECONDS)
