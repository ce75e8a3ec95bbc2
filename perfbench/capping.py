"""Per-op time cap inside the one benchmark process.

SIGALRM interrupts the main thread between bytecodes, so a capped op needs
no helper thread or subprocess.  OpTimeout derives from BaseException so
that an `except Exception` in the code under test cannot swallow it.
"""

import signal


class OpTimeout(BaseException):
    pass


def _raise_timeout(signum, frame):
    raise OpTimeout()


def install():
    signal.signal(signal.SIGALRM, _raise_timeout)


def run_capped(fn, cap_s):
    """fn() with a wall-clock cap; raises OpTimeout when the cap is hit."""
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
