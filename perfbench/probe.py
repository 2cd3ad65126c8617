"""Host-speed probe for normalizing stage times.

The shared 2-core host switches between a fast and a slow phase every few
seconds to minutes; in the slow phase every stage takes 20-40% longer.  The
probe is a fixed piece of work that does not touch the package, timed right
before and right after each CLI call.  A call's normalized time is its wall
time scaled by ``CPU_REF_S / mean(probe before, probe after)``: the time the
call would take with the host at reference speed.  A change to the program
moves the call's time and not the probe, so it shows in full.

``CPU_REF_S`` is the probe's time in the fast phase of the 2-core host
the benchmark was tuned on (its 10th percentile over 35 repeats); on that
host a normalized second is about a wall second.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

CPU_REF_S = 0.0333

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(60, 20))
_W = _rng.normal(size=(100, 24))
_D = _rng.normal(size=(8, 24))
_IDX = np.clip(np.arange(60)[:, None] + np.arange(-2, 3)[None, :], 0, 59)


def cpu_probe(rounds=300):
    """Seconds for small numpy calls shaped like one trunk pass: a spliced
    gather, an affine map, a ReLU, soft assignment to 8 components and a
    sorted reduction over frames."""
    start = perf_counter()
    for _ in range(rounds):
        h = np.maximum(_X[_IDX].reshape(60, -1) @ _W, 0.0)
        r = h[:, None, :] - _D[None, :, :]
        w = np.exp(-0.01 * np.einsum("tkd,tkd->tk", r, r))
        np.sort(w[:, :, None] * r, axis=0).sum(axis=0)
    return perf_counter() - start
