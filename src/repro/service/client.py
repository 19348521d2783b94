"""A thin stdlib client for the compile service (``urllib`` only).

:class:`ServiceClient` wraps the HTTP API of :mod:`repro.service.server`
one method per endpoint, decoding JSON and raising :class:`ServiceError`
with the server's error code on non-2xx answers. It is what the tests
and ``repro-map map --remote`` use; nothing in it depends on the server
being in-process.

Transient failures are retried: connection errors and 5xx answers on
idempotent requests (every GET, plus job submission -- the store is
content-addressed, so re-POSTing a payload lands on the same record)
back off exponentially with jitter, honoring a ``Retry-After`` header
when the server sends one (it does while draining for shutdown). After
the retry budget, or for anything non-retryable, the failure surfaces as
:class:`ServiceError` -- callers never see raw ``urllib`` exceptions.

Typical round trip::

    client = ServiceClient("http://127.0.0.1:8780")
    job = client.submit({"benchmark": "crc32", "approach": "heuristic",
                         "strategy": "refine"})
    for event in client.events(job["id"]):      # live NDJSON stream
        print(event)
    job = client.wait(job["id"])                # terminal job view
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Dict, Iterator, Optional

from repro.obs import trace as obs_trace

#: job statuses after which polling stops (matches jobs.TERMINAL_STATUSES)
TERMINAL = ("done", "failed", "cancelled", "journaled")

#: longest hold one ``wait`` poll asks for (matches the server's cap)
MAX_JOB_WAIT_SECONDS = 30.0

#: socket slack on top of a poll's hold, for the answer to arrive
_HOLD_MARGIN_SECONDS = 1.0


class ServiceError(RuntimeError):
    """A failed service interaction, carrying the server's error envelope.

    ``status`` is the HTTP status, or ``0`` when the server could not be
    reached at all (connection refused, reset, DNS failure); ``code`` is
    the server's machine-readable error code (``"unreachable"`` for the
    status-0 case).
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"{code} ({status}): {message}")
        self.status = status
        self.code = code

    @property
    def retryable(self) -> bool:
        """Whether retrying the same request could plausibly succeed."""
        return self.status == 0 or self.status >= 500 or self.status == 503


def _error_from_http(exc: urllib.error.HTTPError) -> ServiceError:
    try:
        envelope = json.loads(exc.read().decode("utf-8"))
        error = envelope.get("error", {})
        return ServiceError(exc.code, str(error.get("code", "unknown")),
                            str(error.get("message", "")))
    except (ValueError, AttributeError, OSError):
        return ServiceError(exc.code, "unknown", str(exc))


def _retry_after_seconds(exc: urllib.error.HTTPError) -> Optional[float]:
    value = exc.headers.get("Retry-After") if exc.headers else None
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


class ServiceClient:
    """One compile-service endpoint, addressed by base URL.

    Args:
        base_url: e.g. ``http://127.0.0.1:8780``.
        timeout: per-request socket timeout in seconds.
        retries: transient-failure retries per idempotent request
            (``0`` disables retrying entirely).
        backoff_seconds: first retry delay; doubles per attempt up to
            ``backoff_cap_seconds``, with up to 50% random jitter added.
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retries: int = 3, backoff_seconds: float = 0.2,
                 backoff_cap_seconds: float = 2.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_seconds = backoff_seconds
        self.backoff_cap_seconds = backoff_cap_seconds

    # ------------------------------------------------------------------ #
    def _backoff(self, attempt: int, retry_after: Optional[float]) -> None:
        if retry_after is not None:
            time.sleep(min(retry_after, self.backoff_cap_seconds * 4))
            return
        delay = min(self.backoff_seconds * (2 ** attempt),
                    self.backoff_cap_seconds)
        time.sleep(delay + random.uniform(0.0, delay / 2))

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, object]] = None,
                 headers: Optional[Dict[str, str]] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None):
        data = None
        send_headers = {"Accept": "application/json"}
        if headers:
            send_headers.update(headers)
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            send_headers["Content-Type"] = "application/json"
        # GETs are trivially idempotent; so is job submission, because
        # the request is content-addressed server-side -- a duplicate
        # POST lands on the same job/store record, never a second run
        idempotent = method in ("GET", "HEAD") or (
            method == "POST" and path == "/v1/jobs")
        budget = self.retries if retries is None else max(0, int(retries))
        if not idempotent:
            budget = 0
        attempt = 0
        while True:
            request = urllib.request.Request(
                self.base_url + path, data=data, headers=dict(send_headers),
                method=method)
            try:
                return urllib.request.urlopen(
                    request,
                    timeout=self.timeout if timeout is None else timeout)
            except urllib.error.HTTPError as exc:
                error = _error_from_http(exc)
                if error.retryable and attempt < budget:
                    self._backoff(attempt, _retry_after_seconds(exc))
                    attempt += 1
                    continue
                raise error from exc
            except (urllib.error.URLError, OSError, TimeoutError) as exc:
                if attempt < budget:
                    self._backoff(attempt, None)
                    attempt += 1
                    continue
                reason = getattr(exc, "reason", None) or exc
                raise ServiceError(
                    0, "unreachable",
                    f"{method} {self.base_url}{path}: {reason}") from exc

    def _json(self, method: str, path: str,
              payload: Optional[Dict[str, object]] = None,
              headers: Optional[Dict[str, str]] = None,
              timeout: Optional[float] = None,
              retries: Optional[int] = None) -> Dict[str, object]:
        with self._request(method, path, payload, headers=headers,
                           timeout=timeout, retries=retries) as response:
            return json.loads(response.read().decode("utf-8"))

    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, object]:
        return self._json("GET", "/healthz")

    def engines(self) -> Dict[str, object]:
        return self._json("GET", "/v1/engines")

    def store_stats(self) -> Dict[str, object]:
        return self._json("GET", "/v1/store/stats")

    def metrics(self) -> str:
        """``GET /metrics`` -- raw Prometheus text exposition."""
        with self._request("GET", "/metrics") as response:
            return response.read().decode("utf-8")

    def profile(self, seconds: Optional[float] = None) -> str:
        """``GET /v1/debug/profile`` -- collapsed-stack flame-graph text.

        ``seconds`` samples a live window server-side (the request
        blocks that long); ``None`` returns the cumulative table.
        """
        path = "/v1/debug/profile"
        request_timeout = self.timeout
        if seconds is not None:
            path += f"?seconds={float(seconds)}"
            request_timeout = self.timeout + float(seconds)
        with self._request("GET", path,
                           timeout=request_timeout) as response:
            return response.read().decode("utf-8")

    def submit(self, payload: Dict[str, object],
               traceparent: Optional[str] = None) -> Dict[str, object]:
        """POST a mapping request; returns the job view (maybe done).

        Every submission carries a ``traceparent`` header: the given
        one, or one minted from the calling thread's trace context (a
        fresh trace id when there is none).  The server adopts the
        trace id and echoes it back as ``job["trace_id"]``, so client
        spans and the service's spans/events/log records correlate.
        """
        if traceparent is None:
            trace_id = obs_trace.current_trace_id() or \
                obs_trace.new_trace_id()
            traceparent = obs_trace.format_traceparent(
                trace_id, obs_trace.current_span_id())
        return self._json("POST", "/v1/jobs", payload,
                          headers={"traceparent": traceparent})["job"]

    def jobs(self) -> Dict[str, object]:
        return self._json("GET", "/v1/jobs")

    def job(self, job_id: str, timeout: Optional[float] = None,
            retries: Optional[int] = None,
            wait: Optional[float] = None) -> Dict[str, object]:
        """``GET /v1/jobs/<id>`` -- the job view, result included once done.

        ``wait`` long-polls: the server holds the request until the job
        is terminal or ``wait`` seconds pass (capped server-side), then
        answers the current view either way.
        """
        path = f"/v1/jobs/{job_id}"
        if wait is not None:
            path += f"?wait={float(wait)}"
        return self._json("GET", path, timeout=timeout,
                          retries=retries)["job"]

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._json("DELETE", f"/v1/jobs/{job_id}")["job"]

    def events(self, job_id: str, start: int = 0,
               timeout: Optional[float] = None) -> Iterator[Dict[str, object]]:
        """Stream a job's NDJSON events live; ends at the terminal event.

        Every event carries the server's monotonic-anchored ``ts`` stamp
        (seconds since the Unix epoch, ordered even across clock steps)
        next to its payload fields; the ``--remote`` live printer shows
        it as a per-event offset.

        ``timeout`` bounds the *socket* idle time between lines, not the
        total stream duration -- a long-running job that keeps improving
        keeps the stream alive. Connection failures while opening the
        stream retry like any idempotent request; a drop mid-stream
        surfaces as :class:`ServiceError` (resume with ``start=``).
        """
        path = f"/v1/jobs/{job_id}/events"
        if start:
            path += f"?from={start}"
        response = self._request(
            "GET", path, headers={"Accept": "application/x-ndjson"},
            timeout=timeout)
        with response:
            try:
                for line in response:
                    line = line.strip()
                    if line:
                        yield json.loads(line.decode("utf-8"))
            except (OSError, ValueError) as exc:
                raise ServiceError(
                    0, "stream_interrupted",
                    f"event stream for {job_id} dropped: {exc}") from exc

    def wait(self, job_id: str, timeout: float = 120.0,
             poll_seconds: float = 0.05) -> Dict[str, object]:
        """Long-poll until the job is terminal; raises TimeoutError otherwise.

        Each poll is a ``job(wait=...)`` the server holds until the job
        finishes, so this returns as soon as it does. ``timeout`` is a
        monotonic *overall* deadline: it also bounds each poll's hold
        and socket timeout, so a hung server surfaces as ``TimeoutError``
        shortly after the deadline, not after the full per-request socket
        timeout on top of it. Transient poll failures (connection
        refused, 5xx) keep polling until the deadline, ``poll_seconds``
        apart; so do answers that come back sooner than that without the
        job being terminal (a server that ignores ``?wait``).
        """
        deadline = time.monotonic() + timeout
        status = "unknown"
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still {status} after {timeout}s")
            hold = min(remaining, MAX_JOB_WAIT_SECONDS)
            sent = time.monotonic()
            try:
                job = self.job(job_id, wait=hold,
                               timeout=hold + _HOLD_MARGIN_SECONDS,
                               retries=0)
            except ServiceError as exc:
                if not exc.retryable:
                    raise
                job = None
            if job is not None and job["status"] in TERMINAL:
                return job
            status = job["status"] if job is not None else "unreachable"
            if job is None or time.monotonic() - sent < poll_seconds:
                if time.monotonic() + poll_seconds > deadline:
                    raise TimeoutError(
                        f"job {job_id} still {status} after {timeout}s")
                time.sleep(poll_seconds)

    def map(self, payload: Dict[str, object],
            timeout: float = 120.0) -> Dict[str, object]:
        """Submit and block until terminal: the one-call remote ``map()``."""
        job = self.submit(payload)
        if job["status"] in TERMINAL:
            return job
        return self.wait(job["id"], timeout=timeout)
