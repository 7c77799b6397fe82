"""Run one piece of work in a forked child while the caller goes on.

`verify_all` runs the game and prime identities this way beside the
table chain, and the CLI writes the upper half of a row export this way.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from typing import Callable


@contextmanager
def _in_child(work: Callable):
    """Start work() in a forked child; yield a function returning its result.

    The child sends work()'s result, or the exception it raised, back
    through a pipe as a pickle, and always leaves through ``os._exit``, so
    it never unwinds into its caller's frames or flushes their buffers a
    second time.  A parent that fails first, by any exception, SIGKILLs the
    child before it reaps it, so it never waits on a child blocked on a
    full pipe or still writing a file no reader will see.  The signal mask
    blocks SIGINT and SIGTERM across the fork, and each process restores
    it as the first step of its ``try`` (a failed fork, at once): a signal
    that arrives in between waits until the parent can stop and reap the
    child, and the child cannot be stopped short of its ``os._exit``.  Where
    ``os.fork`` is missing, work() runs inline when its result is asked
    for.  Only ``verify_all`` takes that fallback: without a fork the CLI
    writes an export whole, as a split would then buy nothing.
    """
    if not hasattr(os, "fork"):
        yield work
        return
    import pickle

    read_fd, write_fd = os.pipe()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
    try:
        pid = os.fork()
    except OSError:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        raise
    if pid == 0:
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(read_fd)
            try:
                outcome = (True, work())
            except BaseException as exc:  # raised again in the parent
                outcome = (False, exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(outcome))  # all or nothing reaches the pipe
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # a signal held since the fork lands here
        with open(read_fd, "rb") as pipe:

            def result():
                try:
                    done, value = pickle.load(pipe)
                except EOFError:
                    raise RuntimeError("the forked child ended without a result") from None
                if not done:
                    raise value
                return value

            yield result
    except BaseException:
        os.kill(pid, signal.SIGKILL)  # an unreaped child, even one that has exited, is there
        raise
    finally:
        os.waitpid(pid, 0)
