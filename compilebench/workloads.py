"""The benchmark's workloads: closed loops over seeded request orders.

Each ``run_*`` function drives one workload for ``ctx.seconds`` of
measured time and records every operation in the :class:`Context`:
its latency, its output check, and (in a traced run) the request the
ledger attributes spans to. See ``README.md`` for why each was chosen.
"""

from __future__ import annotations

import gc
import itertools
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import ledger
import probe
from verify import Checker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
TMP_ROOT = os.path.join(ROOT, ".compilebench_tmp")
SETUP_REPEATS = 7
DAEMON_SIZES = ("10x10", "20x20")
CLI_SIZE = "10x10"
#: warm-up requests outside every measured set, one per pool worker
WARMUP = [{"benchmark": "running_example", "cgra": "3x3"},
          {"benchmark": "running_example", "cgra": "4x4"}]
TERMINAL = ("done", "failed", "cancelled")
#: measured seconds between two timings of the reference loop
REFERENCE_EVERY = 0.5


def reference_loop() -> int:
    """A fixed piece of pure-Python work that never calls the program.

    Timed next to the workload, it shows how fast this host runs the
    interpreter at that moment (see ``end_to_end`` in ``run.py``). It
    walks about 3 MB of dictionary and integer objects: loops over less
    memory were slowed more by the host's drift than the mapper is.
    """
    table: Dict[int, int] = {}
    for i in range(30000):
        table[(i * 7919) % 200003] = i
    total = 0
    for i in range(30000):
        total += table.get((i * 104729) % 200003, 0)
    return total


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args: List[str], timeout: float = 120.0) -> str:
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{args}: exit {done.returncode}: "
                           f"{done.stderr.strip()[-400:]}")
    return done.stdout


def timed_child(args: List[str]) -> float:
    start = time.perf_counter()
    run_child(args)
    return time.perf_counter() - start


class Context:
    """Seed, time budget and everything one run measured."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 limit: Optional[int] = None, traced: bool = False,
                 probe_setup: bool = True) -> None:
        import random

        self.workload = workload
        self.probe_setup = probe_setup
        self.seed = seed
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.limit = limit
        self.traced = traced
        self.checker = Checker(seed)
        self.latencies: List[float] = []
        self.busy = 0.0          # sum of latencies: the measured time
        #: reference-loop timings, one per REFERENCE_EVERY measured seconds,
        #: and per operation the index of the timing taken next after it
        self.reference: List[float] = []
        self.reference_after: List[int] = []
        #: per operation, the CPU it burned here and in waited-for children
        self.cpu: List[float] = []
        self._cpu_start = 0.0
        self._referenced_at = -REFERENCE_EVERY
        #: operations per pass (one of each cell or request); throughput
        #: is taken per pass of consecutive operations
        self.block = 1
        self.attempted = 0
        self.failures: List[str] = []
        self.ii: Dict[str, int] = {}
        #: per set-up: wall clock, CPU and the next reference timing's index
        self.setup: List[tuple] = []
        self.requests: List[ledger.Request] = []
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._rids = itertools.count()
        self._lock = threading.Lock()
        #: wraps the workload's layers on a traced segment's tracer
        self.install: Callable[[ledger.Tracer], None] = lambda tracer: None
        self.tracer: Optional[ledger.Tracer] = None

    # -- bookkeeping --------------------------------------------------- #
    def next_rid(self) -> int:
        rid = next(self._rids)
        if self.tracer is not None:
            self.tracer.link(("req", rid))
        return rid

    def begin(self) -> float:
        """Start one operation: returns its start; notes the CPU clock."""
        self._cpu_start = cpu_seconds()
        return time.perf_counter()

    def done(self, rid: int, start: float, end: float,
             aliases=()) -> None:
        cpu = cpu_seconds() - self._cpu_start
        with self._lock:
            self.attempted += 1
            self.latencies.append(end - start)
            self.cpu.append(min(cpu, end - start))
            self.reference_after.append(len(self.reference))
            self.busy += end - start
            if self.traced:
                self.requests.append(
                    ledger.Request(rid, start, end, aliases))
        if self.busy - self._referenced_at >= REFERENCE_EVERY:
            self._referenced_at = self.busy
            self._time_reference()

    def _time_reference(self) -> None:
        """Time the reference loop outside the measured time, GC paused
        so that the workload's heap does not slow it."""
        gc.disable()
        try:
            start = time.perf_counter()
            reference_loop()
            self.reference.append(time.perf_counter() - start)
        finally:
            gc.enable()

    def fail(self, cell: str, why: str) -> None:
        with self._lock:
            self.failures.append(f"{cell}: {why}")

    def achieved(self, cell: str, ii: int) -> None:
        with self._lock:
            if self.ii.setdefault(cell, ii) != ii:
                self.failures.append(f"{cell}: II {ii} after "
                                     f"{self.ii[cell]} earlier")

    def limited(self, cells: list) -> list:
        cells = list(cells)
        if self.limit is not None:
            self.rng.shuffle(cells)
            cells = cells[:self.limit]
        return cells

    @contextmanager
    def measuring(self):
        """One measured segment; traced runs wrap the layers during it."""
        if self.traced:
            self.tracer = ledger.Tracer()
            self.install(self.tracer)
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
                self.spans.extend(self.tracer.spans)
                for name, value in self.tracer.counts.items():
                    self.counts[name] += value
                self.calls.update(self.tracer.calls)
                self.tracer = None

    def set_up(self, wall: float, cpu: float) -> None:
        """Record one set-up; the reference loop is timed right after it."""
        self.setup.append((wall, min(cpu, wall), len(self.reference)))
        self._time_reference()

    def measure_setup(self) -> None:
        if self.probe_setup:
            for _ in range(SETUP_REPEATS):
                out = run_child([os.path.join(HERE, "probe.py"),
                                 self.workload])
                self.set_up(*map(float, out.split()))


# ---------------------------------------------------------------------- #
# In-process mapping: mono-large
# ---------------------------------------------------------------------- #
def mono_cells() -> List[tuple]:
    """``(cell, benchmark or kernel, size, opt level, kernel source)``."""
    from repro.frontend import EXAMPLE_KERNELS
    from repro.workloads.suite import benchmark_names

    cells = [(f"{name}@{size}", name, size, 0, None)
             for size in DAEMON_SIZES for name in benchmark_names()]
    cells += [(f"{name}@{size}/O2", name, size, 2, source)
              for size in DAEMON_SIZES
              for name, source in sorted(EXAMPLE_KERNELS.items())]
    return cells


def run_mono(ctx: Context) -> None:
    import repro.frontend as frontend
    import repro.workloads.suite as suite

    ctx.install = ledger.Tracer.install_engine
    ctx.measure_setup()
    engines = probe.build_engines(ctx.workload)
    cells = ctx.limited(mono_cells())
    ctx.block = len(cells)
    # whole passes only, so every run maps the same mix of cells
    with ctx.measuring():
        while ctx.busy < ctx.seconds or not ctx.attempted:
            order = list(cells)
            ctx.rng.shuffle(order)
            for cell, name, size, opt, source in order:
                engine = engines[(size, opt)]
                rid = ctx.next_rid()
                start = ctx.begin()
                try:
                    if source is not None:
                        program = frontend.extract_dfg(source, name=name)
                        dfg = program.dfg
                    else:
                        program = None
                        dfg = suite.load_benchmark(name)
                    result = engine.map(dfg)
                except Exception as exc:  # e.g. the engine's own validation
                    ctx.done(rid, start, time.perf_counter())
                    ctx.fail(cell, f"raised {exc!r}")
                    continue
                ctx.done(rid, start, time.perf_counter())
                if not result.success:
                    ctx.fail(cell, result.summary())
                    continue
                if program is not None and result.opt is not None:
                    program = program.remapped(result.opt)
                why = ctx.checker.mapping(cell, result.mapping, program)
                if why:
                    ctx.fail(cell, why)
                ctx.achieved(cell, result.ii)


# ---------------------------------------------------------------------- #
# Fresh CLI processes: cli-cold
# ---------------------------------------------------------------------- #
def _check_cli_output(ctx: Context, cell: str, path: str) -> None:
    import json

    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        ctx.fail(cell, f"no readable --json output: {exc!r}")
        return
    why = ctx.checker.mapping_dict(cell, data)
    if why:
        ctx.fail(cell, why)
    else:
        ctx.achieved(cell, int(data["ii"]))


def run_cli(ctx: Context) -> None:
    from repro.workloads.suite import benchmark_names

    ctx.measure_setup()
    names = ctx.limited(benchmark_names())
    ctx.block = len(names)
    workdir = tempfile.mkdtemp(dir=TMP_ROOT)
    out = os.path.join(workdir, "mapping.json")
    env = child_env()
    try:
        seen = set()
        with ctx.measuring():
            # every sampled benchmark runs at least once
            while ctx.busy < ctx.seconds or len(seen) < len(names):
                order = list(names)
                ctx.rng.shuffle(order)
                for name in order:
                    seen.add(name)
                    cell = f"{name}@{CLI_SIZE}"
                    if os.path.exists(out):
                        os.remove(out)
                    if ctx.traced:
                        # timed from outside, next to each invocation so
                        # machine drift cancels: interpreter start, then
                        # interpreter plus import
                        interp = timed_child(["-c", "pass"])
                        ctx.counts["cli.interp"] += interp
                        ctx.counts["cli.import"] += timed_child(
                            ["-c", "import repro.cli"]) - interp
                    rid = ctx.next_rid()
                    start = ctx.begin()
                    done = subprocess.run(
                        [sys.executable, "-m", "repro.cli", "map",
                         "--benchmark", name, "--cgra", CLI_SIZE,
                         "--json", out],
                        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                        stderr=subprocess.PIPE, text=True, timeout=120)
                    ctx.done(rid, start, time.perf_counter())
                    if done.returncode != 0:
                        ctx.fail(cell, f"exit {done.returncode}: "
                                       f"{done.stderr.strip()[-200:]}")
                    else:
                        _check_cli_output(ctx, cell, out)
                    if ctx.busy >= ctx.seconds and len(seen) == len(names):
                        break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------- #
# The compile daemon: daemon-cold
# ---------------------------------------------------------------------- #
class Daemon:
    """An in-process service behind HTTP, with a fresh on-disk store.

    Construction is the daemon's set-up: start the service and the server,
    then wait until the pool has served the warm-up requests.
    """

    def __init__(self) -> None:
        from repro.service.client import ServiceClient
        from repro.service.jobs import MappingService
        from repro.service.server import create_server

        start = time.perf_counter()
        self.workdir = tempfile.mkdtemp(dir=TMP_ROOT)
        self.service = MappingService(
            store_path=os.path.join(self.workdir, "store"), workers=2,
            execution="process")
        self.server = create_server(self.service, port=0)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.url = "http://127.0.0.1:%d" % self.server.server_address[1]
        client = ServiceClient(self.url)
        jobs = [client.submit(payload) for payload in WARMUP]
        for job in jobs:
            if client.wait(job["id"], timeout=60)["status"] != "done":
                raise RuntimeError("daemon warm-up request failed")
        self.setup_s = time.perf_counter() - start

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.shutdown()
        self.thread.join()
        shutil.rmtree(self.workdir, ignore_errors=True)


def daemon_payloads(ctx: Context) -> List[dict]:
    from repro.workloads.suite import benchmark_names

    payloads = [{"benchmark": name, "cgra": size}
                for size in DAEMON_SIZES for name in benchmark_names()]
    return ctx.limited(payloads)


def _cell(payload: dict) -> str:
    return f"{payload['benchmark']}@{payload['cgra']}"


def _request(ctx: Context, client, payload: dict) -> Optional[dict]:
    """One closed-loop request: submit, then wait unless answered."""
    from repro.service.client import ServiceError

    rid = ctx.next_rid()
    trace_id = os.urandom(16).hex()
    start = ctx.begin()
    try:
        job = client.submit(payload,
                            traceparent=f"00-{trace_id}-{0:016x}-01")
        if job["status"] not in TERMINAL:
            job = client.wait(job["id"], timeout=60)
    except (ServiceError, OSError, TimeoutError) as exc:
        ctx.done(rid, start, time.perf_counter())
        ctx.fail(_cell(payload), f"request failed: {exc!r}")
        return None
    ctx.done(rid, start, time.perf_counter(),
             [("trace", trace_id), ("job", job["id"]), ("key", job["key"])])
    result = job.get("result") or {}
    if job["status"] != "done" or result.get("status") != "success":
        ctx.fail(_cell(payload), f"job {job['status']}, result "
                                 f"{result.get('status')}: {job.get('error')}")
        return None
    return job


def _cold_round(ctx: Context, daemon: Daemon,
                payloads: List[dict]) -> None:
    """Each payload once, one at a time, and every result checked."""
    from repro.service.client import ServiceClient

    client = ServiceClient(daemon.url)
    order = list(payloads)
    ctx.rng.shuffle(order)
    for payload in order:
        job = _request(ctx, client, payload)
        if job is None:
            continue
        cell, result = _cell(payload), job["result"]
        why = ctx.checker.mapping_dict(cell, result["mapping"])
        if why:
            ctx.fail(cell, why)
        ctx.achieved(cell, int(result["ii"]))


def _service_counts(ctx: Context, daemon: Daemon, before: dict) -> None:
    from repro.service.client import ServiceClient

    after = ServiceClient(daemon.url).health()["counters"]
    ctx.counts["service.retries"] += after["retries"] - before["retries"]


def run_daemon_cold(ctx: Context) -> None:
    """Rounds of the distinct requests, each against a fresh daemon."""
    ctx.install = ledger.Tracer.install_service
    payloads = daemon_payloads(ctx)
    ctx.block = len(payloads)
    while ctx.busy < ctx.seconds or not ctx.attempted:
        cpu = cpu_seconds()
        daemon = Daemon()
        try:
            ctx.set_up(daemon.setup_s, cpu_seconds() - cpu)
            before = dict(daemon.service.counters)
            with ctx.measuring():
                _cold_round(ctx, daemon, payloads)
            _service_counts(ctx, daemon, before)
        finally:
            daemon.close()


RUNNERS = {
    "mono-large": run_mono,
    "cli-cold": run_cli,
    "daemon-cold": run_daemon_cold,
}
