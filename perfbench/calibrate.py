"""A fixed slice of pure-Python work that gauges how fast the machine runs now.

The shared 2-core VM the benchmark was defined on changes speed by up to a
factor of two from one second to the next and drifts over minutes: the
same call took 0.27 s in one second and 0.42 s a few seconds later, and the
median of a whole ``moments`` pass moved by 40 % between runs a minute
apart.  Medians over a 36 s run do not remove drift that slow, so the timed
end-to-end metrics are scaled by the machine's speed at the moment they
were measured.

The runner times one slice before the first call of a pass and one after
every call, in its own process, which never imports ``wml``, while the worker
waits on a pipe.  Nothing the library does to its own interpreter (a large
heap, a changed ``gc`` setting) can slow the slice.  A call's latency is
then scaled by ``REFERENCE_S`` over the mean of the two slices around it:
the seconds the call would have taken with the slice at ``REFERENCE_S``.
The slice mixes the kinds of work the library does: bytecode arithmetic,
``Fraction`` gcds, dict and set hashing of tuples, and sorting.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The slice's typical time on the machine the benchmark was defined on (2
# vCPUs of an "Intel(R) Xeon(R) Processor", Python 3.11.7), so scaled times
# read close to wall seconds there.
REFERENCE_S = 0.040

# While the worker is busy inside an item the runner stops it this often to
# time a slice, so a call of several seconds is gauged along its length and
# not only at its two ends.
PERIOD_S = 0.3


def _work():
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    total = Fraction(0)
    for i in range(1, 350):
        total += Fraction(1, i * i + 1)
    table = {}
    for i in range(25_000):
        table[(i * 7919) % 100_003] = (i, i + 1)
    seen = {frozenset(pair) for pair in table.values()}
    return acc, total, sorted(table)[::5000], len(seen)


def slice_s():
    """Wall seconds of one slice."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scale(seconds, slice_seconds):
    """``seconds`` measured while a slice took ``slice_seconds``, scaled to
    a slice of ``REFERENCE_S``."""
    return seconds * REFERENCE_S / slice_seconds
