"""One forked child that computes fn(x) for a list of items.

``_fork_stream(fn, items)`` forks a child that computes fn(x) for each x
in order and sends each result back through a pipe as soon as it has it;
the returned ``_ForkStream`` reads them one at a time.  It returns None
where no child can be forked (no ``os.fork``, fewer than two usable CPUs,
or a failed fork), and the caller then does the work itself.
``limit_sweep`` runs the estimates of every other h of its grid this way
(``quadrature``).
"""

from __future__ import annotations

import os
import pickle
import signal

from .errors import GradJumpError


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _ForkStream:
    """fn(x) for each x of a list, computed in order by one forked child
    and read back one at a time.

    ``_fork_stream`` starts the child, which sends each result through a
    pipe, pickled as (True, value), as soon as it has it; an exception is
    sent as (False, exception) and ends the child.  ``take`` reads the next
    result, raising a shipped exception again, or GradJumpError when the
    child ended without the result.  ``close`` (also on leaving a ``with``
    block) SIGKILLs a child that still owes results, without waiting for
    the one it is computing, and reaps it.
    """

    def __init__(self, pid: int, pipe, count: int):
        self.pid, self.pipe, self.owed = pid, pipe, count

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def take(self):
        try:
            ok, value = pickle.load(self.pipe)
        except Exception as exc:
            # at EOF the child has closed the pipe on its way out; anything
            # else is an unreadable payload from a child that may still run
            status = self._stop(kill=not isinstance(exc, EOFError))
            code = os.waitstatus_to_exitcode(status)
            raise GradJumpError(
                f"forked worker ended with exit code {code} and no result"
            ) from None
        self.owed -= 1
        if not ok:
            raise value
        return value

    def close(self):
        if self.pid is not None:
            self._stop(kill=self.owed > 0)

    def _stop(self, kill: bool) -> int:
        pid, self.pid = self.pid, None
        if kill:
            os.kill(pid, signal.SIGKILL)
        self.pipe.close()
        return os.waitpid(pid, 0)[1]


def _fork_stream(fn, items) -> _ForkStream | None:
    """A _ForkStream of fn(x) for each x of items, or None where no child
    can be forked (no os.fork, fewer than 2 usable CPUs, or a failed fork),
    so that the caller does the work itself.

    The child leaves only through os._exit, so no inherited buffer or exit
    hook runs twice.
    """
    if not hasattr(os, "fork") or _usable_cpus() < 2:
        return None
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process or memory to spare: the caller works serially
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as pipe:
                for x in items:
                    try:
                        payload = (True, fn(x))
                    except BaseException as exc:  # shipped to the parent, which raises it
                        payload = (False, exc)
                    pipe.write(pickle.dumps(payload))
                    pipe.flush()
                    if not payload[0]:
                        break
        finally:
            os._exit(0)
    os.close(write_fd)
    return _ForkStream(pid, os.fdopen(read_fd, "rb"), len(items))
