"""The package's one fork-join path: forked children that each run one task.

The Monte Carlo study runs its replicates on it, and the dataset writer
formats a large sample's tail rows on it.  A child runs its task, sends the
result (or the exception the task raised) pickled through its own pipe, and
ends with os._exit, so it never unwinds into its parent's frames, such as a
caller's clean-up of a temp file, or runs the parent's exit handlers.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import sys


def _worker_count(workers: int, tasks: int) -> int:
    """Processes to fork: never more than tasks or the CPUs this process
    may use (every worker starts at once), and 1 where os.fork is missing or
    on macOS, whose system libraries are not fork-safe (CPython stopped
    forking there by default)."""
    if not hasattr(os, "fork") or sys.platform == "darwin":
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, tasks, cpus or 1)


class _WorkerDied(RuntimeError):
    """A forked worker ended without sending its task's result."""


def _worker(task, write_fd):
    """A forked child's whole life: call ``task``, write its result (or the
    exception it raised) pickled to ``write_fd``, and end with os._exit.
    Exit status 0 means the whole payload was written."""
    code = 1
    try:
        try:
            payload = pickle.dumps(task())
        except BaseException as exc:  # whatever a task raises, the parent re-raises
            try:
                payload = pickle.dumps(exc)
                pickle.loads(payload)  # some exceptions pickle but cannot be rebuilt
            except Exception:
                payload = pickle.dumps(RuntimeError(repr(exc)))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


@contextlib.contextmanager
def _forked(tasks):
    """Fork one child per task, a callable taking no argument, and yield
    ``join``, which returns the tasks' results in order.

    The caller may work between the fork and the join.  A task's exception
    is raised by ``join`` with its own type, and a child that ends without
    a result raises _WorkerDied.  Every child is reaped before the block is
    left; on any error, an interrupt included, the ones still running are
    killed first.
    """
    import signal  # only a forked run has children to shield and kill

    pids, pipes = [], []

    def join():
        results = []
        for pid, pipe in zip(list(pids), pipes):
            payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pids.remove(pid)
            if code or not payload:
                how = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise _WorkerDied(f"a worker process died ({how})")
            result = pickle.loads(payload)  # bytes only _worker wrote
            if isinstance(result, BaseException):
                raise result
            results.append(result)
        return results

    try:
        for task in tasks:
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            # SIGINT stays blocked until the pid is recorded, so an interrupt
            # cannot escape the kill below; the child keeps it blocked, as
            # the parent kills it on an interrupt
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(task, write_fd)  # never returns
                pids.append(pid)
            finally:
                # no later child inherits this write end, so each pipe
                # reaches EOF when its own child exits; it is closed before
                # a pending interrupt can be raised
                os.close(write_fd)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield join
    finally:
        for pid in pids:
            # an interrupt between a reap and its removal leaves a reaped pid
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
