"""Stdlib JSON-over-HTTP front end for the job service.

Endpoints (all JSON)::

    GET  /health            liveness probe
    GET  /presets           config presets, ECO presets, benchmark names
    GET  /jobs              every job, submission order
    POST /jobs              submit a route job  {"design": ..., "scale": ...}
                            or a batch          {"batch": [request, ...]}
    GET  /jobs/<id>         job snapshot with progress events
    GET  /jobs/<id>/result  result payload (409 until the job is done)
    POST /jobs/<id>/eco     ECO re-route of the job's session
                            {"preset": "tiny"} or {"delta": {...}},
                            plus optional "eco_seed"/"verify"
    GET  /batches/<id>      batch snapshot
    GET  /sessions          warm-session/store statistics

Built on ``http.server.ThreadingHTTPServer`` — no dependencies; jobs
still execute one at a time on the service's worker thread, so
concurrent HTTP clients observe a consistent, deterministic order.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.core.config import PRESETS
from repro.service.jobs import JobService
from repro.session.store import SessionStore


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs to the owning server's :class:`JobService`.

    The bound ``ThreadingHTTPServer`` carries ``service`` and
    ``log_lines`` attributes (set by :class:`RoutingAPIServer`).
    """

    protocol_version = "HTTP/1.1"

    # Silence the default stderr request log (tests and CI run quiet);
    # the server collects the lines instead.
    def log_message(self, fmt: str, *args) -> None:
        self.server.log_lines.append(fmt % args)

    # -------------------------------------------------------------- #
    # Plumbing
    # -------------------------------------------------------------- #
    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length == 0:
            return {}
        data = json.loads(self.rfile.read(length).decode())
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _service(self) -> JobService:
        return self.server.service

    # -------------------------------------------------------------- #
    # Verbs
    # -------------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        try:
            self._get(self.path.rstrip("/") or "/")
        except KeyError as exc:
            self._send(404, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            self._send(500, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802
        try:
            self._post(self.path.rstrip("/"))
        except KeyError as exc:
            self._send(404, {"error": str(exc)})
        except (ValueError, json.JSONDecodeError) as exc:
            self._send(400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            self._send(500, {"error": str(exc)})

    def _get(self, path: str) -> None:
        service = self._service()
        if path == "/health":
            self._send(200, {"ok": True})
        elif path == "/presets":
            from repro.netlist.benchmarks import benchmark_names
            from repro.netlist.generator import ECO_PRESETS

            self._send(200, {
                "configs": sorted(PRESETS),
                "eco_presets": sorted(ECO_PRESETS),
                "benchmarks": benchmark_names(),
            })
        elif path == "/jobs":
            self._send(200, {"jobs": service.jobs()})
        elif path == "/sessions":
            self._send(200, service.stats())
        elif path.startswith("/jobs/") and path.endswith("/result"):
            job_id = path[len("/jobs/"):-len("/result")]
            state = service.job(job_id, with_events=False)["state"]
            if state in ("submitted", "running"):
                self._send(409, {"error": f"job {job_id} is {state}",
                                 "state": state})
            elif state == "failed":
                self._send(500, {"error": service.job(job_id)["error"],
                                 "state": state})
            else:
                self._send(200, service.result(job_id))
        elif path.startswith("/jobs/"):
            self._send(200, service.job(path[len("/jobs/"):]))
        elif path.startswith("/batches/"):
            self._send(200, service.batch(path[len("/batches/"):]))
        else:
            self._send(404, {"error": f"unknown path {path!r}"})

    def _post(self, path: str) -> None:
        service = self._service()
        body = self._read_body()
        if path == "/jobs":
            if "batch" in body:
                batch_id = service.submit_batch(body["batch"])
                self._send(202, {"batch_id": batch_id,
                                 **service.batch(batch_id)})
            else:
                job_id = service.submit(**body)
                self._send(202, {"job_id": job_id})
        elif path.startswith("/jobs/") and path.endswith("/eco"):
            base_id = path[len("/jobs/"):-len("/eco")]
            job_id = service.submit_eco(job_id=base_id, **body)
            self._send(202, {"job_id": job_id, "base_job_id": base_id})
        else:
            self._send(404, {"error": f"unknown path {path!r}"})


class RoutingAPIServer:
    """A :class:`JobService` behind a threading HTTP server.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` reports
    the bound ``(host, port)``.  Use as a context manager, or call
    :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8356,
        service: Optional[JobService] = None,
        max_sessions: int = 4,
    ) -> None:
        self.service = service or JobService(
            store=SessionStore(max_sessions=max_sessions)
        )
        self.log_lines: list = []
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._httpd.log_lines = self.log_lines  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    def start(self) -> "RoutingAPIServer":
        """Serve in a daemon thread; returns immediately."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-api", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's blocking mode)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Stop serving and shut the job service down (idempotent)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(10.0)
            self._thread = None
        self.service.shutdown()

    def __enter__(self) -> "RoutingAPIServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(
    host: str = "127.0.0.1",
    port: int = 8356,
    max_sessions: int = 4,
) -> None:
    """Run the routing service until interrupted (the CLI entry)."""
    server = RoutingAPIServer(host, port, max_sessions=max_sessions)
    host_, port_ = server.address
    print(f"repro routing service on http://{host_}:{port_}  "
          f"(max {max_sessions} warm sessions; Ctrl-C stops)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()


__all__ = ["RoutingAPIServer", "serve"]
