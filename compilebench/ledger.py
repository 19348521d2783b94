"""The traced run's latency ledger: spans recorded around public calls.

Tracing never edits the program. A :class:`Tracer` replaces each traced
function under the name its caller binds (a module global for functions,
the class attribute for methods) with a wrapper that records one span,
and :meth:`Tracer.uninstall` puts the originals back.

Every span carries a *link* naming the request it served. Client threads
set it explicitly (:meth:`Tracer.link`); a server handler derives it
from the request's ``traceparent`` header or the job id in its path and
lends it to the calls it makes on its own thread; worker-side calls are
linked through the job id or content key they receive.

:func:`attribute` then splits each request's latency into non-overlapping
layer self times: every instant of the request goes to the most specific
layer active at that instant (highest :data:`PRIORITY`), and whatever no
layer covers is ``unattributed``. The layers plus the unattributed rest
therefore sum to the measured latency exactly, also when the request's
work spans several threads.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional

#: layer -> priority; inside one request the highest active layer owns
#: each instant. Leaves of the mapper outrank the mapper itself, and the
#: server-side layers outrank the client calls that wait on them.
PRIORITY: Dict[str, int] = {
    "workloads.build": 5,
    "frontend.extract": 5,
    "core.mapper": 5,
    "opt": 9,
    "graphs.rec_ii": 9,
    "graphs.critical_path": 9,
    "core.feasibility": 9,
    "core.validate": 9,
    "time": 9,
    "space": 9,
    "client.submit": 3,
    "client.wait": 3,
    "http.handler": 5,
    "service.parse": 7,
    "store.get": 8,
    "store.put": 8,
    "procpool.run": 9,
}


def _trace_link(handler) -> Optional[tuple]:
    parts = (handler.headers.get("traceparent") or "").split("-")
    return ("trace", parts[1]) if len(parts) == 4 else None


def _job_path_link(handler) -> Optional[tuple]:
    parts = handler.path.split("?")[0].strip("/").split("/")
    if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
        return ("job", parts[2])
    return None


class Tracer:
    """Spans, counters and the patches of one traced segment."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []          # (layer, start, end, link)
        self.counts: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()       # wrapped function -> calls
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- recording ----------------------------------------------------- #
    def link(self, link: Optional[tuple]) -> None:
        """Link the calling thread's following spans to ``link``."""
        self._local.link = link

    def _current(self) -> Optional[tuple]:
        return getattr(self._local, "link", None)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def record(self, layer: str, name: str, start: float, end: float,
               link: Optional[tuple]) -> None:
        with self._lock:
            self.calls[name] += 1
        self.spans.append((layer, start, end, link))

    # -- wrapping ------------------------------------------------------ #
    def _patch(self, owner: object, name: str, replacement: object) -> None:
        original = (owner.__dict__[name] if isinstance(owner, type)
                    else getattr(owner, name))
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def timed(self, layer: str,
              link_of: Optional[Callable[..., Optional[tuple]]] = None,
              after: Optional[Callable[..., None]] = None,
              lend: bool = False) -> Callable:
        """Decorator: record a ``layer`` span around each call.

        ``link_of(*args)`` names the request from the call's arguments;
        ``after(result, *args)`` reads counters off the result; with
        ``lend`` the link is also lent to nested calls on the same thread.
        """
        def wrap(function: Callable) -> Callable:
            name = function.__qualname__

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                saved = self._current()
                link = (link_of(*args) if link_of is not None else None) \
                    or saved
                if lend:
                    self._local.link = link
                start = time.perf_counter()
                try:
                    result = function(*args, **kwargs)
                finally:
                    self.record(layer, name, start, time.perf_counter(), link)
                    if lend:
                        self._local.link = saved
                if after is not None:
                    after(result, *args)
                return result
            return wrapper
        return wrap

    def install_engine(self) -> None:
        """Wrap the mapper's layers, under the names ``mapper.py`` binds."""
        from repro.core import mapper
        from repro.core.space_solver import SpaceSolver
        from repro.core.time_solver import IncrementalTimeSolver
        import repro.frontend as frontend
        import repro.workloads.suite as suite

        timed, patch, count = self.timed, self._patch, self.count
        # the benchmark itself is the caller of these two: it calls them
        # through the module attribute, which is what gets patched
        patch(suite, "load_benchmark",
              timed("workloads.build")(suite.load_benchmark))
        patch(frontend, "extract_dfg",
              timed("frontend.extract")(frontend.extract_dfg))

        def opt_counts(result, *_args) -> None:
            _dfg, opt_result = result
            if opt_result is not None:
                count("opt.nodes_removed",
                      opt_result.nodes_before - opt_result.nodes_after)

        patch(mapper, "run_pre_mapping_opt",
              timed("opt", after=opt_counts)(mapper.run_pre_mapping_opt))
        patch(mapper, "rec_ii", timed("graphs.rec_ii")(mapper.rec_ii))
        patch(mapper, "critical_path_length",
              timed("graphs.critical_path")(mapper.critical_path_length))
        patch(mapper, "analyze_feasibility",
              timed("core.feasibility")(mapper.analyze_feasibility))
        patch(mapper, "assert_valid_mapping",
              timed("core.validate")(mapper.assert_valid_mapping))

        def map_counts(result, *_args) -> None:
            count("core.iis_tried", result.iis_tried)
            solver = (result.stats or {}).get("solver") or {}
            count("time.conflicts", solver.get("conflicts", 0))

        patch(mapper.MonomorphismMapper, "map",
              timed("core.mapper", after=map_counts)(
                  mapper.MonomorphismMapper.map))
        patch(IncrementalTimeSolver, "__init__",
              timed("time")(IncrementalTimeSolver.__init__))
        iter_schedules = IncrementalTimeSolver.iter_schedules

        def timed_schedules(inner):
            """Each ``next()`` of a schedule iterator is time-phase work."""
            while True:
                start = time.perf_counter()
                try:
                    schedule = next(inner)
                except StopIteration:
                    return
                finally:
                    self.record("time",
                                "IncrementalTimeSolver.iter_schedules",
                                start, time.perf_counter(), self._current())
                count("time.schedules")
                yield schedule

        @functools.wraps(iter_schedules)
        def traced_iter(solver, *args, **kwargs):
            return timed_schedules(iter_schedules(solver, *args, **kwargs))

        patch(IncrementalTimeSolver, "iter_schedules", traced_iter)

        def space_counts(result, *_args) -> None:
            count("space.nodes", result.stats.nodes_explored)
            count("space.backtracks", result.stats.backtracks)
            count("space.found", 1 if result.found else 0)

        patch(SpaceSolver, "solve",
              timed("space", after=space_counts)(SpaceSolver.solve))

    def install_client(self) -> None:
        """Wrap the daemon client's calls."""
        from repro.service.client import ServiceClient

        def poll_count(_result, *_args) -> None:
            self.count("client.polls")

        self._patch(ServiceClient, "submit",
                    self.timed("client.submit")(ServiceClient.submit))
        self._patch(ServiceClient, "wait",
                    self.timed("client.wait")(ServiceClient.wait))
        self._patch(ServiceClient, "job",
                    self.timed("client.wait", after=poll_count)(
                        ServiceClient.job))

    def install_server(self) -> None:
        """Wrap the daemon's server side: HTTP, parsing, store, pool."""
        from repro.service.jobs import MapRequest
        from repro.service.procpool import ProcessWorker
        from repro.service.server import ServiceHandler
        from repro.service.store import ResultStore

        timed, patch, count = self.timed, self._patch, self.count
        patch(ServiceHandler, "do_POST",
              timed("http.handler", link_of=_trace_link, lend=True)(
                  ServiceHandler.do_POST))
        patch(ServiceHandler, "do_GET",
              timed("http.handler", link_of=_job_path_link, lend=True)(
                  ServiceHandler.do_GET))
        from_payload = MapRequest.__dict__["from_payload"].__func__
        patch(MapRequest, "from_payload",
              classmethod(timed("service.parse")(from_payload)))

        def get_counts(_found, *_args) -> None:
            count("store.gets")

        patch(ResultStore, "get",
              timed("store.get", link_of=lambda _s, key: ("key", key),
                    after=get_counts)(ResultStore.get))
        patch(ResultStore, "put",
              timed("store.put", link_of=lambda _s, key, _r: ("key", key))(
                  ResultStore.put))

        def engine_seconds(result, *_args) -> None:
            count("engine_s", float(result[0].get("engine_seconds") or 0.0))

        patch(ProcessWorker, "run",
              timed("procpool.run",
                    link_of=lambda _s, spec, *_a, **_k: ("job", spec["job"]),
                    after=engine_seconds)(ProcessWorker.run))

    def install_service(self) -> None:
        """Wrap the daemon's layers on both sides of HTTP."""
        self.install_client()
        self.install_server()


# ---------------------------------------------------------------------- #
# Attribution
# ---------------------------------------------------------------------- #
class Request:
    """One measured operation: its interval and every id that names it."""

    __slots__ = ("rid", "start", "end", "aliases")

    def __init__(self, rid, start: float, end: float,
                 aliases: Iterable[tuple] = ()) -> None:
        self.rid = rid
        self.start = start
        self.end = end
        self.aliases = list(aliases)


def _self_times(start: float, end: float,
                spans: List[tuple]) -> Dict[str, float]:
    """Split ``[start, end]`` among ``spans`` by :data:`PRIORITY`."""
    clipped = [(max(s, start), min(e, end), layer)
               for layer, s, e in spans if min(e, end) > max(s, start)]
    bounds = sorted({start, end, *(s for s, _, _ in clipped),
                     *(e for _, e, _ in clipped)})
    shares: Dict[str, float] = defaultdict(float)
    for left, right in zip(bounds, bounds[1:]):
        owner, rank = "unattributed", -1
        for s, e, layer in clipped:
            if s <= left and e >= right and PRIORITY[layer] > rank:
                owner, rank = layer, PRIORITY[layer]
        shares[owner] += right - left
    return shares


def attribute(requests: List[Request],
              spans: List[tuple]) -> Dict[str, float]:
    """Sum the layer self times over ``requests``.

    A span links to a request through ``("req", rid)`` or one of the
    request's aliases (trace id, job id, content key). Job ids restart
    with every daemon and keys repeat, so an alias picks the request that
    carries it and whose interval contains the span's start. Spans that
    link to no measured request (warm-up, fill) are dropped.
    """
    by_alias: Dict[tuple, List[Request]] = defaultdict(list)
    for request in requests:
        by_alias[("req", request.rid)].append(request)
        for alias in request.aliases:
            by_alias[alias].append(request)
    grouped: Dict[object, List[tuple]] = defaultdict(list)
    for layer, start, end, link in spans:
        owner = next((request for request in by_alias.get(link, ())
                      if request.start <= start <= request.end), None)
        if owner is not None:
            grouped[owner.rid].append((layer, start, end))
    totals: Dict[str, float] = defaultdict(float)
    for request in requests:
        for layer, seconds in _self_times(
                request.start, request.end, grouped[request.rid]).items():
            totals[layer] += seconds
    return dict(totals)
