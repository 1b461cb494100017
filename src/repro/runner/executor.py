"""Execution: in-process in spec order, or one forked worker per run.

:func:`run_serial` (``jobs == 1``) executes every point in this process,
in spec order; there is no second process to enforce a timeout, so
:class:`~repro.runner.api.RunnerConfig` rejects one there.

:func:`run_parallel` (``jobs > 1``) runs each grid point in its *own*
worker process (points cost seconds to minutes, so spawn overhead is
noise).  That buys the strongest isolation available: a per-run timeout is
a ``terminate()`` of exactly one process, and a segfault/OOM-kill takes
down one point, never the sweep.  Workers are forked (where available) so
the spec and the work function ride along by memory inheritance instead
of pickling; only the *result* crosses the pipe, via
:meth:`ExperimentResult.detach`.

Both retry a failed point up to ``config.retries`` times, waiting
``BACKOFF * n`` seconds before attempt ``n + 1``, and hand one
:class:`RunRecord` per spec to ``on_record`` as the point settles.
"""

from __future__ import annotations

import multiprocessing as mp
import resource
import time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.runner.records import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    RunRecord,
)
from repro.harness.experiment import ExperimentSpec, run_experiment

if TYPE_CHECKING:  # pragma: no cover - annotation only (api imports us)
    from repro.runner.api import RunnerConfig

#: A work function maps a spec to a picklable result.
WorkFn = Callable[[ExperimentSpec], object]
OnRecord = Callable[[RunRecord], None]

#: Seconds before attempt ``n + 1`` of a failed point is ``BACKOFF * n``.
BACKOFF = 0.25
#: Seconds the parallel loop sleeps when no worker settled this pass.
POLL_S = 0.02


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


def run_serial(specs: Sequence[ExperimentSpec], config: "RunnerConfig",
               work_fn: WorkFn, on_record: OnRecord) -> None:
    """Run every spec in this process, in order; ``on_record`` fires as
    each point settles."""
    for spec in specs:
        started = time.perf_counter()
        errors: List[str] = []
        record = None
        for attempt in range(1, config.retries + 2):
            try:
                result = work_fn(spec)
            except Exception:  # noqa: BLE001
                errors.append(traceback.format_exc(limit=20))
                if attempt <= config.retries:
                    time.sleep(BACKOFF * attempt)
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
                attempts=config.retries + 1,
                wallclock=time.perf_counter() - started,
                peak_rss_kb=_peak_rss_kb(),
                error="\n---\n".join(errors),
            )
        on_record(record)


@dataclass
class _Slot:
    """One live worker and the bookkeeping to judge it."""

    index: int
    attempt: int
    process: mp.process.BaseProcess
    conn: object
    deadline: Optional[float]


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


def run_parallel(specs: Sequence[ExperimentSpec], config: "RunnerConfig",
                 work_fn: WorkFn, on_record: OnRecord) -> None:
    """Run every spec on its own forked worker, ``config.jobs`` at a time,
    with ``config.timeout`` per attempt; ``on_record`` fires as each point
    settles."""
    try:
        ctx = mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = mp.get_context()
    first_start = [0.0] * len(specs)
    attempt_errors: List[List[str]] = [[] for _ in specs]
    queue = list(range(len(specs)))
    queue.reverse()  # pop() from the front of the original order
    #: (not_before, index, attempt) of points waiting to be relaunched.
    retries: List[tuple] = []
    active: List[_Slot] = []

    def launch(index: int, attempt: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_worker_main,
                              args=(child_conn, work_fn, specs[index]),
                              daemon=True)
        process.start()
        child_conn.close()
        deadline = (None if config.timeout is None
                    else time.perf_counter() + config.timeout)
        active.append(_Slot(index=index, attempt=attempt, process=process,
                            conn=parent_conn, deadline=deadline))

    def settle(slot: _Slot, status: str, error: Optional[str],
               result=None, rss: Optional[int] = None) -> None:
        """Record a terminal outcome or schedule a retry."""
        idx = slot.index
        if status != STATUS_OK and slot.attempt <= config.retries:
            if error:
                attempt_errors[idx].append(f"[attempt {slot.attempt}: "
                                           f"{status}] {error}")
            retries.append((time.perf_counter() + BACKOFF * slot.attempt,
                            idx, slot.attempt + 1))
            return
        record = RunRecord(
            spec=specs[idx], status=status, result=result,
            attempts=slot.attempt,
            wallclock=time.perf_counter() - first_start[idx],
            peak_rss_kb=rss,
            error=("\n---\n".join(attempt_errors[idx] + [error])
                   if error else None),
        )
        on_record(record)

    while queue or retries or active:
        # Fill free slots: due retries first (they are oldest work).
        while len(active) < config.jobs and (queue or retries):
            now = time.perf_counter()
            due = [r for r in retries if r[0] <= now]
            if due:
                nxt = min(due)
                retries.remove(nxt)
                launch(nxt[1], nxt[2])
            elif queue:
                index = queue.pop()
                first_start[index] = time.perf_counter()
                launch(index, attempt=1)
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
                    exitcode = _reap(slot)
                    progressed = True
                    settle(slot, STATUS_CRASHED,
                           f"worker died with exit code {exitcode}")
                    continue
                active.remove(slot)
                _reap(slot)
                progressed = True
                if kind == "ok":
                    settle(slot, STATUS_OK, None, result=body, rss=rss)
                else:
                    settle(slot, STATUS_FAILED, str(body), rss=rss)
            elif slot.deadline is not None and now > slot.deadline:
                active.remove(slot)
                _reap(slot, kill=True)
                progressed = True
                settle(slot, STATUS_TIMEOUT,
                       f"exceeded {config.timeout:g} s budget")
            elif not slot.process.is_alive():
                # Died without reporting: segfault, os._exit, OOM kill.
                exitcode = slot.process.exitcode
                # Drain any message that raced the exit check.
                if slot.conn.poll():
                    continue
                active.remove(slot)
                _reap(slot)
                progressed = True
                settle(slot, STATUS_CRASHED,
                       f"worker died with exit code {exitcode}")
        if not progressed:
            time.sleep(POLL_S)

