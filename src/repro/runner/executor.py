"""Parallel execution: a process-per-run pool with crash isolation.

Each grid point runs in its *own* worker process (points cost seconds to
minutes, so spawn overhead is noise).  That buys the strongest isolation
available: a per-run timeout is a ``terminate()`` of exactly one process,
and a segfault/OOM-kill takes down one point, never the pool.  Workers are
forked (where available) so a spec holding a built scenario (whose
builders are closures) rides along by memory inheritance instead of
pickling; only the *result* crosses the pipe, via
:meth:`ExperimentResult.detach`.

``jobs=1`` bypasses subprocesses entirely and executes in-process, in spec
order (no timeout enforcement, since there is no second process to do the
killing).
"""

from __future__ import annotations

import multiprocessing as mp
import resource
import time
import traceback
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.runner.records import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    RunRecord,
)
from repro.harness.experiment import ExperimentSpec, run_experiment

#: A work function maps a spec to a picklable result.
WorkFn = Callable[[ExperimentSpec], object]


def execute_spec(spec: ExperimentSpec):
    """Default work function: run the experiment, return a detached result."""
    return run_experiment(spec).detach()


def _peak_rss_kb() -> int:
    """Peak RSS of the calling process in KiB (Linux ru_maxrss unit)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _worker_main(conn, work_fn: WorkFn, spec: ExperimentSpec) -> None:
    """Worker entry: run one point, report exactly one message, exit."""
    try:
        result = work_fn(spec)
        message = ("ok", result, _peak_rss_kb())
    except BaseException as exc:  # noqa: BLE001 - reported, not swallowed
        tail = traceback.format_exc(limit=20)
        message = ("error", f"{exc!r}\n{tail}", _peak_rss_kb())
    try:
        conn.send(message)
    except Exception as exc:  # e.g. the result itself fails to pickle
        conn.send(("error", f"result not transferable: {exc!r}",
                   _peak_rss_kb()))
    finally:
        conn.close()


@dataclass
class _Slot:
    """One live worker and the bookkeeping to judge it."""

    index: int
    spec: ExperimentSpec
    attempt: int
    process: mp.process.BaseProcess
    conn: object
    started: float
    deadline: Optional[float]


@dataclass
class _PendingRetry:
    index: int
    spec: ExperimentSpec
    attempt: int
    not_before: float


class ProcessPoolRunner:
    """Fan specs out over worker processes.

    Parameters
    ----------
    jobs:
        Concurrent workers.  ``1`` means serial in-process execution.
    timeout:
        Per-run wall-clock budget in seconds (subprocess mode only); a
        run past its budget is killed and counts as a failed attempt.
    retries:
        Extra attempts after a failed/timed-out/crashed one.
    backoff:
        Base delay before attempt *n*'s relaunch (``backoff * n`` seconds).
    work_fn:
        Override the per-spec work (tests inject sleepers/crashers).
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.25,
        work_fn: WorkFn = execute_spec,
        poll_interval: float = 0.02,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.work_fn = work_fn
        self.poll_interval = poll_interval
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._ctx = mp.get_context()

    # -- serial path ------------------------------------------------------
    def _run_serial(self, specs: Sequence[ExperimentSpec],
                    on_record) -> List[RunRecord]:
        records: List[RunRecord] = []
        for spec in specs:
            started = time.perf_counter()
            errors: List[str] = []
            record = None
            for attempt in range(1, self.retries + 2):
                try:
                    result = self.work_fn(spec)
                except Exception:  # noqa: BLE001
                    errors.append(traceback.format_exc(limit=20))
                    if attempt <= self.retries:
                        time.sleep(self.backoff * attempt)
                    continue
                record = RunRecord(
                    spec=spec, status=STATUS_OK, result=result,
                    attempts=attempt,
                    wallclock=time.perf_counter() - started,
                    peak_rss_kb=_peak_rss_kb(),
                )
                break
            if record is None:
                record = RunRecord(
                    spec=spec, status=STATUS_FAILED,
                    attempts=self.retries + 1,
                    wallclock=time.perf_counter() - started,
                    peak_rss_kb=_peak_rss_kb(),
                    error="\n---\n".join(errors),
                )
            records.append(record)
            if on_record is not None:
                on_record(record)
        return records

    # -- parallel path ----------------------------------------------------
    def _launch(self, index: int, spec: ExperimentSpec,
                attempt: int) -> _Slot:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.work_fn, spec),
            daemon=True,
        )
        process.start()
        child_conn.close()
        now = time.perf_counter()
        deadline = None if self.timeout is None else now + self.timeout
        return _Slot(index=index, spec=spec, attempt=attempt,
                     process=process, conn=parent_conn, started=now,
                     deadline=deadline)

    @staticmethod
    def _reap(slot: _Slot, kill: bool = False) -> Optional[int]:
        """Join (killing first if asked) and release the slot's process;
        returns its exit code."""
        if kill and slot.process.is_alive():
            slot.process.terminate()
            slot.process.join(timeout=2.0)
            if slot.process.is_alive():  # pragma: no cover - stubborn child
                slot.process.kill()
                slot.process.join()
        else:
            slot.process.join()
        exitcode = slot.process.exitcode
        slot.conn.close()
        slot.process.close()
        return exitcode

    def _finish(self, slot: _Slot, status: str, result, error,
                errors_so_far: List[str], started_first: float,
                rss: Optional[int]) -> RunRecord:
        return RunRecord(
            spec=slot.spec, status=status, result=result,
            attempts=slot.attempt,
            wallclock=time.perf_counter() - started_first,
            peak_rss_kb=rss,
            error="\n---\n".join(errors_so_far + [error]) if error else None,
        )

    def _run_parallel(self, specs: Sequence[ExperimentSpec],
                      on_record) -> List[RunRecord]:
        records: List[Optional[RunRecord]] = [None] * len(specs)
        first_start = [0.0] * len(specs)
        attempt_errors: List[List[str]] = [[] for _ in specs]
        queue = list(enumerate(specs))
        queue.reverse()  # pop() from the front of the original order
        retries: List[_PendingRetry] = []
        active: List[_Slot] = []

        def settle(slot: _Slot, status: str, error: Optional[str],
                   result=None, rss: Optional[int] = None) -> None:
            """Record a terminal outcome or schedule a retry."""
            idx = slot.index
            if status != STATUS_OK and slot.attempt <= self.retries:
                if error:
                    attempt_errors[idx].append(f"[attempt {slot.attempt}: "
                                               f"{status}] {error}")
                retries.append(_PendingRetry(
                    index=idx, spec=slot.spec,
                    attempt=slot.attempt + 1,
                    not_before=time.perf_counter() + self.backoff * slot.attempt,
                ))
                return
            record = self._finish(slot, status, result, error,
                                  attempt_errors[idx], first_start[idx], rss)
            records[idx] = record
            if on_record is not None:
                on_record(record)

        while queue or retries or active:
            # Fill free slots: due retries first (they are oldest work).
            while len(active) < self.jobs and (queue or retries):
                now = time.perf_counter()
                due = [r for r in retries if r.not_before <= now]
                if due:
                    nxt = min(due, key=lambda r: r.not_before)
                    retries.remove(nxt)
                    slot = self._launch(nxt.index, nxt.spec, nxt.attempt)
                    active.append(slot)
                elif queue:
                    index, spec = queue.pop()
                    first_start[index] = time.perf_counter()
                    slot = self._launch(index, spec, attempt=1)
                    active.append(slot)
                else:
                    break  # only not-yet-due retries remain

            progressed = False
            for slot in list(active):
                now = time.perf_counter()
                if slot.conn.poll():
                    try:
                        kind, body, rss = slot.conn.recv()
                    except (EOFError, OSError):
                        # EOF with no message: the worker died before it
                        # could report (segfault, os._exit, OOM kill).
                        active.remove(slot)
                        exitcode = self._reap(slot)
                        progressed = True
                        settle(slot, STATUS_CRASHED,
                               f"worker died with exit code {exitcode}")
                        continue
                    active.remove(slot)
                    self._reap(slot)
                    progressed = True
                    if kind == "ok":
                        settle(slot, STATUS_OK, None, result=body, rss=rss)
                    else:
                        settle(slot, STATUS_FAILED, str(body), rss=rss)
                elif slot.deadline is not None and now > slot.deadline:
                    active.remove(slot)
                    self._reap(slot, kill=True)
                    progressed = True
                    settle(slot, STATUS_TIMEOUT,
                           f"exceeded {self.timeout:g} s budget")
                elif not slot.process.is_alive():
                    # Died without reporting: segfault, os._exit, OOM kill.
                    exitcode = slot.process.exitcode
                    # Drain any message that raced the exit check.
                    if slot.conn.poll():
                        continue
                    active.remove(slot)
                    self._reap(slot)
                    progressed = True
                    settle(slot, STATUS_CRASHED,
                           f"worker died with exit code {exitcode}")
            if not progressed:
                time.sleep(self.poll_interval)

        return [r for r in records if r is not None]

    def run(self, specs: Sequence[ExperimentSpec],
            on_record: Optional[Callable[[RunRecord], None]] = None,
            ) -> List[RunRecord]:
        """Execute every spec; returns records in input order.  The
        optional ``on_record`` callback fires as each point settles."""
        specs = list(specs)
        if not specs:
            return []
        if self.jobs == 1:
            return self._run_serial(specs, on_record)
        return self._run_parallel(specs, on_record)
