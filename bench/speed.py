"""Host-speed probe that puts timings on one scale.

The benchmark host is a 2-vCPU guest on a shared machine. Neighbours slow
it by up to 1.8x for stretches of seconds to minutes, so two sets of runs of
the same code an hour apart can differ by more than any useful bound. A
fixed probe with the workloads' instruction mix, timed next to each round,
slows with them: the benchmark multiplies each round's times by
``REF_S / probe time`` and so reports seconds at the host's unslowed speed.
The probe touches no program code, so a change to the program moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# about the fastest one probe() ran on the reference host (2 vCPUs, OpenBLAS
# 0.3.31 on one thread), while nothing slowed it
REF_S = 0.045

_rng = np.random.default_rng(0)
_X = _rng.random((64, 51))
_W = [_rng.random((51, 256)) * 0.1, _rng.random((256, 128)) * 0.1,
      _rng.random((128, 12)) * 0.1]


def probe(reps: int = 40) -> float:
    """Seconds for ``reps`` steps of a small MLP (forward, softmax, backward,
    an Adam-style update) plus a Python sort of (index, value) pairs."""
    m = [np.zeros_like(w) for w in _W]
    v = [np.zeros_like(w) for w in _W]
    t0 = perf_counter()
    for _ in range(reps):
        a1 = np.maximum(_X @ _W[0], 0.0)
        a2 = np.maximum(a1 @ _W[1], 0.0)
        z = a2 @ _W[2]
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        d = p / len(_X)
        grads = [None, None, a2.T @ d]
        d = (d @ _W[2].T) * (a2 > 0)
        grads[1] = a1.T @ d
        d = (d @ _W[1].T) * (a1 > 0)
        grads[0] = _X.T @ d
        for i, g in enumerate(grads):
            m[i] = 0.9 * m[i] + 0.1 * g
            v[i] = 0.999 * v[i] + 0.001 * g * g
            _ = _W[i] - 1e-6 * m[i] / (np.sqrt(v[i]) + 1e-8)
        sorted(zip(range(len(p)), p[:, 0].tolist()), key=lambda t: (t[1], t[0]))
    return perf_counter() - t0
