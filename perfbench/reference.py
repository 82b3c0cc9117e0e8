"""A fixed pure-Python workload that measures how fast the machine is now.

On a shared machine the same code can run at half speed for seconds at a
time (neighbours, CPU placement).  Each timed call is therefore scaled by
``REF_NS / t_ref``, where ``t_ref`` is the median time of :func:`reference`
measured just before it, in the same process.  Scaled times read as times on
a machine where the reference takes ``REF_NS``.  The reference mixes the
operations octofast spends its time in (list comprehensions over floats,
``Fraction`` arithmetic, small dicts and tuples, one wide-int product) and
uses no octofast code, so no change to the program can move it.
"""

import statistics
import time
from fractions import Fraction

REF_NS = 50_000
CALLS = 15
_WIDE = (3 ** 4000, 7 ** 2000)
_EIGHTH = Fraction(1, 8)


def reference():
    v = [k * 0.25 for k in range(16)]
    for _ in range(6):
        v = [a + b if i & 1 else a - b
             for i, (a, b) in enumerate(zip(v, v[8:] + v[:8]))]
    s = sum(Fraction(k) * _EIGHTH for k in range(-4, 4))
    d = {f"s{k}": k for k in range(8)}
    t = tuple(d[f"s{k}"] for k in range(8))
    return v, s, t, _WIDE[0] * _WIDE[1]


def reference_ns(calls: int = CALLS) -> float:
    """Median time of ``calls`` reference calls, now."""
    ts = []
    for _ in range(calls):
        t0 = time.perf_counter_ns()
        reference()
        ts.append(time.perf_counter_ns() - t0)
    return statistics.median(ts)
