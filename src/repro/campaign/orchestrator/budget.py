"""Run budgets: wall-clock limits a campaign is held to at execution time.

The campaign's deterministic rows never carry wall-clock values, but the
*scheduling* of a production campaign is all about wall clock: a stuck or
pathologically slow spec must not hold a shard hostage.  This module holds
the campaign's worker pool and the limits it enforces:

* :class:`RunBudget` — the declarative limits: a per-spec timeout (each
  worker job is killed once it has run that long) and a whole-campaign
  budget (when the campaign has run that long, every outstanding and
  queued job is abandoned).
* :func:`run_in_pool` — the pool that runs every job of a
  :class:`~repro.campaign.runner.CampaignRunner` with more than one
  worker or with a budget.  Its long-lived workers take one job at a time
  over a private pipe, so the parent can kill the one worker whose job
  overruns (or that a budget abandons) without touching another's result
  channel, and notices a worker that dies mid-job instead of waiting for
  it forever.
* :class:`TimeoutRecord` — the deterministic outcome of a killed job.
  The row records the spec identity, the killed mode, the *configured*
  limit and the scope (``"spec"`` or ``"campaign"``) — never the elapsed
  wall time, which would break the byte-identical-aggregation guarantee.
  Timeout rows are first-class JSONL citizens: ``merge_jsonl`` accepts a
  timed-out spec in place of its run/pair rows, and ``--resume`` drops
  the timeout row and re-executes the spec, healing the file back to the
  uninterrupted fingerprint.

Determinism: *whether* a spec times out depends on the machine, so a
budgeted campaign is only reproducible when the overrun is deterministic
(the test suite seeds one with the ``slow_spin_ms`` knob of the bursty
workload).  A budgeted campaign in which nothing times out produces
byte-identical rows to an unbudgeted one.
"""

from __future__ import annotations

import math
import pickle
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from ..spec import ScenarioSpec

#: Scope values of a :class:`TimeoutRecord`.
SCOPE_SPEC = "spec"
SCOPE_CAMPAIGN = "campaign"
SCOPES = (SCOPE_SPEC, SCOPE_CAMPAIGN)


@dataclass(frozen=True)
class RunBudget:
    """Wall-clock limits of one campaign execution.

    ``spec_timeout_s``
        A single worker job (one spec in one mode) is terminated once it
        has run this long; the campaign continues with the other jobs.
    ``campaign_budget_s``
        Once the campaign as a whole has run this long, every running job
        is terminated and every queued job abandoned; each incomplete
        spec gets a ``scope="campaign"`` timeout row.
    """

    spec_timeout_s: Optional[float] = None
    campaign_budget_s: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("spec_timeout_s", "campaign_budget_s"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(
                    f"RunBudget.{name} must be positive, got {value!r}"
                )

    @property
    def active(self) -> bool:
        """True when at least one limit is set."""
        return self.spec_timeout_s is not None or self.campaign_budget_s is not None


@dataclass
class TimeoutRecord:
    """Deterministic outcome of a job killed by a :class:`RunBudget`.

    Carries the spec identity columns (so a resume can validate the row
    against the campaign definition exactly like a run row), the mode of
    the killed job, the scope of the limit that fired and the configured
    limit itself.  Elapsed wall time is deliberately absent.
    """

    name: str
    workload: str
    mode: str
    depth: int
    quantum_ns: Optional[int]
    seed: int
    timing: Optional[str]
    scope: str
    limit_s: float

    def deterministic_row(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "workload": self.workload,
            "mode": self.mode,
            "depth": self.depth,
            "quantum_ns": self.quantum_ns,
            "seed": self.seed,
            "timing": self.timing,
            "scope": self.scope,
            "limit_s": self.limit_s,
        }

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "TimeoutRecord":
        """Rebuild a record from a persisted deterministic row."""
        return cls(**{key: row[key] for key in (
            "name", "workload", "mode", "depth", "quantum_ns", "seed",
            "timing", "scope", "limit_s",
        )})

    @classmethod
    def for_spec(
        cls, spec: ScenarioSpec, mode: str, scope: str, limit_s: float
    ) -> "TimeoutRecord":
        if scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
        return cls(
            name=spec.name,
            workload=spec.workload,
            mode=mode,
            depth=spec.depth,
            quantum_ns=spec.quantum_ns,
            seed=spec.seed,
            timing=spec.timing,
            scope=scope,
            limit_s=limit_s,
        )


# ---------------------------------------------------------------------------
# The worker pool
# ---------------------------------------------------------------------------
def _worker_main(conn, func) -> None:
    """Pool-process body: run jobs from the private pipe until told to stop.

    Top-level so it is picklable under any start method.  A job's
    exception is shipped back (stringified into a ``RuntimeError`` when it
    does not pickle) for the parent to re-raise.
    """
    while True:
        try:
            job = conn.recv()
        except EOFError:  # the parent is gone
            return
        if job is None:
            return
        try:
            payload = ("ok", func(job))
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            try:
                pickle.dumps(exc)
            except Exception:  # noqa: BLE001 - any pickling failure
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            payload = ("error", exc)
        conn.send(payload)


class _Worker:
    """One long-lived pool process and the parent's end of its private pipe.

    ``job`` is the job it is running (``None`` while idle) and
    ``deadline`` the monotonic time at which a budget stops it.
    """

    def __init__(self, func) -> None:
        import multiprocessing

        self.conn, child_conn = multiprocessing.Pipe()
        self.proc = multiprocessing.Process(
            target=_worker_main, args=(child_conn, func), daemon=True
        )
        self.proc.start()
        child_conn.close()
        self.job = None
        self.deadline = math.inf

    def fileno(self) -> int:
        """Lets :func:`multiprocessing.connection.wait` select on workers."""
        return self.conn.fileno()

    def result(self):
        """Receive the running job's outcome; the worker is idle again.

        Re-raises the job's exception, and raises :class:`RuntimeError`
        naming the job when the worker died without reporting.
        """
        job, self.job = self.job, None
        try:
            status, payload = self.conn.recv()
        except EOFError:
            self.proc.join(timeout=2.0)
            raise RuntimeError(
                f"pool worker {self.proc.pid} died (exit code "
                f"{self.proc.exitcode}) without reporting a result for "
                f"job {job!r}"
            ) from None
        if status == "error":
            raise payload
        return payload

    def close(self, kill: bool) -> None:
        """Stop the worker: ask an idle one to exit, or ``kill`` it
        (SIGTERM, escalating to SIGKILL if it ignores that)."""
        if kill:
            self.proc.terminate()
        else:
            try:
                self.conn.send(None)
            except OSError:  # already dead
                pass
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():  # pragma: no cover - ignores SIGTERM
            self.proc.kill()
            self.proc.join()
        self.conn.close()


def run_in_pool(
    func,
    jobs,
    *,
    processes: int,
    budget: Optional[RunBudget],
    on_timeout: Callable[[object, str, float], object],
) -> Iterator:
    """Yield ``func(job)`` for every job, in completion order, from a pool
    of at most ``processes`` long-lived worker processes.

    Workers start as queued jobs need them and take one job at a time.
    Each owns a private pipe, so killing one cannot corrupt another's
    result channel.  With a ``budget``, the parent sleeps until the next
    per-job or campaign deadline.  A job that overruns
    ``budget.spec_timeout_s`` has its worker killed and yields
    ``on_timeout(job, "spec", limit_s)`` in place of its result; a fresh
    worker starts only if a queued job needs one.  Once
    ``budget.campaign_budget_s`` expires, every running job (unless its
    result is already in the pipe) and every queued job yields
    ``on_timeout(job, "campaign", limit_s)``.  A job that raises
    re-raises here; a worker that dies without reporting raises
    :class:`RuntimeError` naming its job.  Every worker is stopped when
    the generator finishes, raises or is abandoned.
    """
    # Imported on use: reading or merging timeout rows needs this module
    # but never the pool.
    from multiprocessing.connection import wait as _connection_wait

    budget = budget or RunBudget()
    spec_timeout = budget.spec_timeout_s or math.inf
    campaign_deadline = time.monotonic() + (
        budget.campaign_budget_s or math.inf
    )
    queue = deque(jobs)
    workers: List[_Worker] = []

    def submit(worker: _Worker) -> None:
        worker.job = queue.popleft()
        worker.deadline = min(
            time.monotonic() + spec_timeout, campaign_deadline
        )
        worker.conn.send(worker.job)

    def collect(worker: _Worker):
        # The next job goes out before the caller sees this result, so the
        # worker never waits on the caller.
        value = worker.result()
        if queue and time.monotonic() < campaign_deadline:
            submit(worker)
        return value

    try:
        while True:
            while queue and len(workers) < processes:
                workers.append(_Worker(func))
                submit(workers[-1])
            busy = [worker for worker in workers if worker.job is not None]
            if not busy:
                return
            # Every deadline is capped at the campaign deadline.
            nearest = min(worker.deadline for worker in busy)
            timeout = (
                None if nearest == math.inf
                else max(0.0, nearest - time.monotonic())
            )
            for worker in _connection_wait(busy, timeout):
                yield collect(worker)
            now = time.monotonic()
            campaign_over = now >= campaign_deadline
            if campaign_over:
                scope, limit = SCOPE_CAMPAIGN, budget.campaign_budget_s
            else:
                scope, limit = SCOPE_SPEC, budget.spec_timeout_s
            for worker in [w for w in workers if w.job is not None]:
                if now < worker.deadline:
                    continue
                if worker.conn.poll():
                    # Finished within its limit: honour the result
                    # instead of mislabelling it a timeout.
                    yield collect(worker)
                    continue
                workers.remove(worker)
                worker.close(kill=True)
                yield on_timeout(worker.job, scope, limit)
            if campaign_over:
                while queue:
                    yield on_timeout(queue.popleft(), scope, limit)
                return
    finally:
        for worker in workers:
            worker.close(kill=worker.job is not None)
