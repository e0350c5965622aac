"""Sample the host's speed while a measured stretch of code runs.

On a shared host the speed of a vCPU drifts by up to a factor of two, over
fractions of a second and over minutes, and the two vCPUs drift
independently, so a time taken at one moment says little about a time taken
at another.  A Sampler interrupts the measured code about every PERIOD_S
seconds (SIGALRM, at a jittered interval) and times a small fixed probe of
interpreter work.  The probes' time is left out of the measured time, and
their mean gives the host's slowness over the stretch, so that

    scaled time = measured time * (REFERENCE_PROBE_S / mean probe time) ** EXPONENT

estimates the time the stretch would have taken at the speed the host had
when REFERENCE_PROBE_S was measured.  The exponent is above 1 because the
workloads, whose data do not all fit in cache, slow down more than the
probe when the host is busy: over about 200 samples of the four workloads on
a 2-vCPU Intel Xeon KVM sandbox, the slope of log measured time against log
mean probe time was 1.14 to 1.27.  EXPONENT sits a little below that range;
there it narrowed the spread of the runs' median wall time, and the drift
of those medians from one set of ten runs to the next, on all four
workloads.  The probe uses only builtins, never
fkneuro, so no change to the program can move it.  Python runs the handler
between bytecodes of the main thread, so a probe due during a long call into
C runs right after that call returns.
"""

import random
import signal
import time

# About the mean probe time on a 2-vCPU Intel Xeon KVM sandbox while the
# workloads ran there, so that scaled times come out near measured ones.
REFERENCE_PROBE_S = 0.005
EXPONENT = 1.1
PERIOD_S = 0.1

_VALUES = [i / 7.0 for i in range(600)]


def probe():
    s = 0
    for i in range(50000):
        s += (i * i) % 7
    return s + len(",".join(f"{v:.10g}" for v in _VALUES))


class Sampler:
    """Measure the time of a stretch of code and the host's speed during it.

    ``stop()`` ends the stretch, which began at ``start()`` or at ``since``
    (a ``time.monotonic()`` reading), takes one last probe so that every
    stretch has at least one, and returns ``(seconds, scaled seconds)``,
    both without the probes.
    """

    def __init__(self):
        self._rng = random.Random(0)
        self._probes = 0
        self._probe_s = 0.0
        self._paused_s = 0.0
        self._previous = None

    def _arm(self):
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S * self._rng.uniform(0.5, 1.5))

    def _probe(self):
        t0 = time.monotonic()
        probe()
        self._probe_s += time.monotonic() - t0
        self._probes += 1

    def _handler(self, signum, frame):
        t0 = time.monotonic()
        self._probe()
        self._arm()
        self._paused_s += time.monotonic() - t0

    def start(self):
        self._t0 = time.monotonic()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._arm()
        return self

    def stop(self, since=None):
        elapsed = time.monotonic() - (self._t0 if since is None else since)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        seconds = elapsed - self._paused_s
        speed = REFERENCE_PROBE_S * self._probes / self._probe_s
        return seconds, seconds * speed**EXPONENT
