"""A fixed reference computation that gauges how fast the host runs now.

The benchmark runs on a few cores of a shared host whose speed drifts: on a
2-vCPU Xeon virtual machine the same command took up to 1.7 times as long
for minutes at a time, and a fixed pure-Python loop drifted with it.  A run of one minute cannot average
that out, so the end-to-end timings are taken relative to this probe: it runs
between every two CLI commands, and each command's wall time is divided by
the mean of the probe times just before and just after it.  A slow spell on
the host slows both and cancels in the ratio.

The probe does, in about equal shares of its time, the kinds of work a job
does: parse "u v" text lines in Python, many small numpy calls from a Python
loop as in the exact triangle count and the reassignment, a sparse product
and mask as in the triangle count, and dense distances as in k-means.  It
never calls specsumm, so no change to specsumm can move it; its inputs are
fixed, so it does the same work in every run.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

_RNG = np.random.default_rng(20221108)
_N, _M = 3000, 12_000
_U, _V = _RNG.integers(0, _N, _M), _RNG.integers(0, _N, _M)
_TEXT = "".join(f"{u} {v}\n" for u, v in zip(_U[:10_000].tolist(),
                                             _V[:10_000].tolist()))
_A = sp.coo_matrix((np.ones(_M), (_U, _V)), shape=(_N, _N)).tocsr()
_A = (_A + _A.T).tocsr()
_LISTS = [np.sort(_RNG.choice(200, 12, replace=False)) for _ in range(400)]
_X = _RNG.standard_normal((1500, 32))
_C = _RNG.standard_normal((32, 32))


def _work() -> float:
    us, vs = [], []
    for line in _TEXT.splitlines():
        u, v = line.split()
        us.append(int(u))
        vs.append(int(v))
    common = 0
    for i in range(800):
        both = np.intersect1d(_LISTS[i % 400], _LISTS[i * 7 % 400],
                              assume_unique=True)
        common += int(np.count_nonzero(both > 50))
    closed = (_A @ _A).multiply(_A).sum()
    d2 = ((_X[:, None, :] - _C[None, :, :]) ** 2).sum(axis=2)
    return (float(closed) + float(d2.argmin(axis=1).sum()) + len(us)
            + len(vs) + common)


# The probe's result, checked on every call so that the work cannot be
# skipped or changed unnoticed.
_EXPECTED = _work()


def probe() -> float:
    """Wall seconds of one pass of the reference work."""
    t0 = time.perf_counter()
    result = _work()
    seconds = time.perf_counter() - t0
    if result != _EXPECTED:
        raise RuntimeError("host probe gave a different result")
    return seconds
