"""Run one piece of work in a forked child while the caller goes on.

`verify_all` runs the game and prime identities this way beside the
table chain, and the CLI writes the upper half of a row export this way.
"""

from __future__ import annotations

import os
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
    full pipe or still writing a file no reader will see.  Where
    ``os.fork`` is missing, work() runs inline when its result is asked for.
    """
    if not hasattr(os, "fork"):
        yield work
        return
    import pickle

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                outcome = (True, work())
            except BaseException as exc:  # raised again in the parent
                outcome = (False, exc)
            data = pickle.dumps(outcome)  # all or nothing reaches the pipe
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
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
        import signal  # only on this path: its import costs the benchmark's peak RSS

        os.kill(pid, signal.SIGKILL)  # an unreaped child, even one that has exited, is there
        raise
    finally:
        os.waitpid(pid, 0)
