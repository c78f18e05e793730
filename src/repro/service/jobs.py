"""Job lifecycle over warm routing sessions.

A :class:`JobService` is the in-process core of the routing service:
clients submit **jobs** (a full route of a benchmark design, or an ECO
re-route of a warm session) and poll or wait for results.  Jobs run on
a single worker thread — sessions serialize their runs anyway, and one
worker keeps the execution trajectory (and therefore every cache
replay) deterministic.

Lifecycle::

    submitted --> running --> done
                         \\-> failed

Every job carries **progress events**: the rip-up stage's
per-iteration statistics stream into the job record as they complete,
so a long route is observable before it finishes.  A **batch** is a
list of jobs submitted together and joined as one.

ECO jobs execute against the :class:`~repro.session.store.SessionStore`
warm tier: the same ``(design, config)`` session that routed the base
design replays its warm state, so only the edit's blast radius
recomputes.  With ``verify=True`` the job also cold-routes the edited
design and asserts the warm result bit-identical (route digest, demand
grids and score) — the service-level form of the parity guarantee.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import resolve_config
from repro.core.result import IterationStats, RoutingResult
from repro.netlist.delta import NetlistDelta
from repro.session.store import SessionStore


class JobState:
    """The four lifecycle states of a job."""

    SUBMITTED = "submitted"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass
class JobRecord:
    """One job's mutable state (snapshot it with :meth:`as_dict`)."""

    job_id: str
    kind: str  # "route" | "eco"
    design: str
    scale: float
    seed: int
    config: str
    state: str = JobState.SUBMITTED
    batch_id: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    events: List[dict] = field(default_factory=list)
    result: Optional[dict] = None
    error: Optional[str] = None
    eco_request: Optional[dict] = None
    done_event: threading.Event = field(default_factory=threading.Event)

    def as_dict(self, with_events: bool = True) -> dict:
        """A JSON-safe snapshot of the record (no result payload)."""
        out = {
            "job_id": self.job_id,
            "kind": self.kind,
            "design": self.design,
            "scale": self.scale,
            "seed": self.seed,
            "config": self.config,
            "state": self.state,
            "batch_id": self.batch_id,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "n_events": len(self.events),
            "error": self.error,
        }
        if with_events:
            out["events"] = list(self.events)
        return out


def _iteration_event(stats: IterationStats) -> dict:
    """Flatten one rip-up iteration into a progress event."""
    return {
        "type": "iteration",
        "iteration": stats.iteration,
        "n_ripped": stats.n_ripped,
        "n_failed": stats.n_failed,
        "engine": stats.engine,
        "nodes_visited": stats.nodes_visited,
        "makespan": stats.makespan,
    }


def _result_payload(result: RoutingResult) -> dict:
    """The JSON-safe summary of a finished route."""
    return {
        "design": result.design_name,
        "config": result.config_name,
        "score": result.metrics.score,
        "wirelength": result.metrics.wirelength,
        "n_vias": result.metrics.n_vias,
        "shorts": result.metrics.shorts,
        "pattern_time": result.pattern_time,
        "maze_time": result.maze_time,
        "total_time": result.total_time,
        "nets_to_ripup": result.nets_to_ripup,
        "n_iterations": len(result.iterations),
    }


class JobService:
    """Submit, run, and observe routing jobs over a warm session store."""

    def __init__(
        self,
        store: Optional[SessionStore] = None,
        default_config: str = "fastgr_l",
    ) -> None:
        self.store = store or SessionStore()
        self.default_config = default_config
        self._jobs: Dict[str, JobRecord] = {}
        self._batches: Dict[str, List[str]] = {}
        self._job_counter = 0
        self._batch_counter = 0
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._closed = False
        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-job-worker", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def _new_record(self, kind: str, design: str, scale: float, seed: int,
                    config: str) -> JobRecord:
        resolve_config(config)  # fail fast on unknown preset names
        with self._lock:
            if self._closed:
                raise RuntimeError("service is shut down")
            self._job_counter += 1
            record = JobRecord(
                job_id=f"job-{self._job_counter}",
                kind=kind, design=design, scale=float(scale),
                seed=int(seed), config=config,
            )
            self._jobs[record.job_id] = record
        return record

    def submit(
        self,
        design: str,
        scale: float = 1.0,
        seed: int = 0,
        config: Optional[str] = None,
    ) -> str:
        """Queue a full route of benchmark ``design``; return the job id."""
        record = self._new_record(
            "route", design, scale, seed, config or self.default_config
        )
        self._queue.put(record.job_id)
        return record.job_id

    def submit_batch(self, requests: List[dict]) -> str:
        """Queue several route jobs as one batch; return the batch id.

        Each request is the keyword dict :meth:`submit` takes.
        """
        with self._lock:
            self._batch_counter += 1
            batch_id = f"batch-{self._batch_counter}"
            self._batches[batch_id] = []
        for request in requests:
            job_id = self.submit(**request)
            with self._lock:
                self._jobs[job_id].batch_id = batch_id
                self._batches[batch_id].append(job_id)
        return batch_id

    def submit_eco(
        self,
        job_id: Optional[str] = None,
        design: Optional[str] = None,
        scale: float = 1.0,
        seed: int = 0,
        config: Optional[str] = None,
        preset: Optional[str] = None,
        delta: Optional[dict] = None,
        eco_seed: int = 0,
        verify: bool = False,
    ) -> str:
        """Queue an ECO re-route; return the new job id.

        The target session is named either by ``job_id`` (inherit a
        previous job's design/config) or by ``design``/``scale``/
        ``seed``/``config`` directly.  The edit is either a named
        generator ``preset`` (see
        :data:`~repro.netlist.generator.ECO_PRESETS`) drawn with
        ``eco_seed``, or an explicit ``delta`` dict in the
        :meth:`~repro.netlist.delta.NetlistDelta.to_dict` format.
        ``verify=True`` additionally cold-routes the edited design and
        asserts the warm result bit-identical.
        """
        if (preset is None) == (delta is None):
            raise ValueError("give exactly one of 'preset' or 'delta'")
        if preset is not None:
            from repro.netlist.generator import ECO_PRESETS

            if preset not in ECO_PRESETS:
                raise KeyError(
                    f"unknown ECO preset {preset!r}; "
                    f"choose from {sorted(ECO_PRESETS)}"
                )
        else:
            NetlistDelta.from_dict(delta)  # fail fast on malformed bodies
        if job_id is not None:
            base = self.job(job_id)  # raises KeyError on unknown ids
            design, scale = base["design"], base["scale"]
            seed, config = base["seed"], base["config"]
        elif design is None:
            raise ValueError("give 'job_id' or 'design'")
        record = self._new_record(
            "eco", design, scale, seed, config or self.default_config
        )
        record.eco_request = {
            "preset": preset,
            "delta": delta,
            "eco_seed": int(eco_seed),
            "verify": bool(verify),
        }
        self._queue.put(record.job_id)
        return record.job_id

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def _record(self, job_id: str) -> JobRecord:
        with self._lock:
            if job_id not in self._jobs:
                raise KeyError(f"unknown job {job_id!r}")
            return self._jobs[job_id]

    def job(self, job_id: str, with_events: bool = True) -> dict:
        """A snapshot of the job's state and progress events."""
        return self._record(job_id).as_dict(with_events=with_events)

    def result(self, job_id: str) -> dict:
        """The finished job's result payload (raises unless done)."""
        record = self._record(job_id)
        if record.state == JobState.FAILED:
            raise RuntimeError(f"job {job_id} failed: {record.error}")
        if record.state != JobState.DONE or record.result is None:
            raise RuntimeError(f"job {job_id} is {record.state}")
        return record.result

    def batch(self, batch_id: str) -> dict:
        """Snapshot every job of a batch (raises on unknown ids)."""
        with self._lock:
            if batch_id not in self._batches:
                raise KeyError(f"unknown batch {batch_id!r}")
            job_ids = list(self._batches[batch_id])
        jobs = [self.job(job_id, with_events=False) for job_id in job_ids]
        return {
            "batch_id": batch_id,
            "n_jobs": len(jobs),
            "n_done": sum(job["state"] == JobState.DONE for job in jobs),
            "n_failed": sum(job["state"] == JobState.FAILED for job in jobs),
            "jobs": jobs,
        }

    def wait(self, job_id: str, timeout: Optional[float] = None) -> dict:
        """Block until the job finishes; return its result payload."""
        record = self._record(job_id)
        if not record.done_event.wait(timeout):
            raise TimeoutError(f"job {job_id} still {record.state}")
        return self.result(job_id)

    def jobs(self) -> List[dict]:
        """Snapshots of every job, submission order."""
        with self._lock:
            records = list(self._jobs.values())
        return [record.as_dict(with_events=False) for record in records]

    def stats(self) -> dict:
        with self._lock:
            states = [record.state for record in self._jobs.values()]
        return {
            "n_jobs": len(states),
            "n_running": states.count(JobState.RUNNING),
            "n_done": states.count(JobState.DONE),
            "n_failed": states.count(JobState.FAILED),
            "store": self.store.stats(),
        }

    # ------------------------------------------------------------------ #
    # Execution (worker thread)
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            record = self._record(job_id)
            record.state = JobState.RUNNING
            record.started_at = time.time()
            try:
                record.result = self._execute(record)
                record.state = JobState.DONE
            except Exception as exc:  # job failure is data, not a crash
                record.error = (
                    f"{exc}\n{traceback.format_exc(limit=8)}"
                )
                record.state = JobState.FAILED
            finally:
                record.finished_at = time.time()
                record.done_event.set()

    def _session(self, record: JobRecord):
        handle = self.store.handle(record.design, record.scale, record.seed)
        config = resolve_config(record.config)
        return self.store.session(handle, config)

    def _execute(self, record: JobRecord) -> dict:
        session = self._session(record)

        def on_iteration(stats: IterationStats) -> None:
            record.events.append(_iteration_event(stats))

        if record.kind == "route":
            result = session.run(on_iteration=on_iteration)
            payload = _result_payload(result)
            payload["warm"] = session.n_runs > 1
            return payload

        request = record.eco_request
        if session.result is None:
            # ECO against a cold session: route the base design first
            # so there is warm state to edit.
            record.events.append({"type": "warmup", "design": record.design})
            session.run()
        if request["preset"] is not None:
            from repro.netlist.generator import ECO_PRESETS, perturb_design

            delta = perturb_design(
                session.design,
                ECO_PRESETS[request["preset"]],
                seed=request["eco_seed"],
            )
        else:
            delta = NetlistDelta.from_dict(request["delta"])
        eco = session.eco(delta, on_iteration=on_iteration)
        payload = _result_payload(eco.result)
        payload["eco"] = eco.summary()
        if request["verify"]:
            verified, cold_result = session.verify_cold()
            payload["verified"] = verified
            if not verified:
                raise AssertionError(
                    "ECO re-route diverged from the cold route "
                    f"(warm score {eco.result.metrics.score}, "
                    f"cold score {cold_result.metrics.score})"
                )
        return payload

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self, timeout: float = 30.0) -> None:
        """Drain the queue, stop the worker, close every session."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        self._worker.join(timeout)
        self.store.close()

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


__all__ = [
    "JobService",
    "JobRecord",
    "JobState",
]
