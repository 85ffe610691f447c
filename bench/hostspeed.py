"""Times rescaled to a fixed reference speed of the host.

The shared host the benchmark was written on runs the same pure-Python
loop at speeds up to about 2x apart.  A vCPU holds one speed for a few
seconds to a few tens of seconds, and the two vCPUs change independently
of each other, so neither a longer run nor a second process timing a
reference loop can take the change out of a measured time.

A process that starts a ``Sampler`` runs a fixed loop, ``spin``, from a
SIGALRM handler every ``PERIOD_S`` seconds: in the main thread, between
two bytecodes of whatever the program is doing.  It records when each spin
began and how long it took.  ``scaled`` then gives the seconds an interval
would have taken at the reference speed, at which ``spin`` takes
``REFERENCE_SPIN_S``: each stretch between two spins is multiplied by
``REFERENCE_SPIN_S`` over the median duration of the spins around it, and
the spins' own time is left out.  The spins cost about 1 % of the run.

A change to the program cannot move these factors: the loop is the
benchmark's own code and only the host's speed changes how long it takes.
"""
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.025
# exact rational arithmetic, as in most of the package; on the host below
# it followed the package's slow phases more closely than an integer loop
SPIN_TERMS = [Fraction(i, i + 1) for i in range(1, 42)]
# about the median duration of `spin` on the host the benchmark was
# written on (Python 3.11, 2 vCPUs); it only sets the scale
REFERENCE_SPIN_S = 0.00028
SMOOTH = 2               # median over a spin and SMOOTH on either side


def spin():
    acc = Fraction(0)
    for a, b in zip(SPIN_TERMS, SPIN_TERMS[1:]):
        acc = acc * a + b
    return acc


class Sampler:
    """Spins every PERIOD_S seconds between ``start`` and ``stop``.  It
    owns SIGALRM meanwhile, so a process runs one at a time."""

    def __init__(self):
        self.samples = []

    def _sample(self, *_):
        t = time.perf_counter()
        spin()
        self.samples.append((t, time.perf_counter() - t))

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop spinning and return the samples: (start, seconds) pairs in
        ``time.perf_counter`` time, which every process of the host
        shares."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return self.samples


def scaled(begin, end, samples):
    """Seconds from ``begin`` to ``end`` at the reference speed.  A
    stretch between two spins takes the mean factor of the two; a stretch
    before the first spin or after the last takes that spin's factor."""
    if not samples:
        raise ValueError("no speed samples")
    durations = [d for _, d in samples]
    total, t, before = 0.0, begin, None
    for i, (s, d) in enumerate(samples):
        window = durations[max(0, i - SMOOTH):i + SMOOTH + 1]
        factor = REFERENCE_SPIN_S / statistics.median(window)
        if s + d <= begin:
            before = factor
            continue
        mean = factor if before is None else (before + factor) / 2
        if s >= end:
            return total + (end - t) * mean
        total += (s - t) * mean
        t, before = s + d, factor
    return total + max(0.0, end - t) * before
