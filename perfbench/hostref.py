"""Host-speed reference: a fixed kernel timed next to the program's ops.

On a shared machine the host's speed swings by up to 2x, in spells from
under a second to minutes: a 7x7 ``eigvalsh`` reads 7 µs in some and 13 µs
in others. The program slows with it. So raw wall time says more about the
host's spell than about the program.

The benchmark runs this kernel between ops and scales each op's wall time
by REF_US / (median wall time of the three kernel runs nearest it). The kernel
is small numpy work in the style of the program: a 7-joint chain, an
einsum, a 7x7 ``eigvalsh`` and ``solve``, and a JSON round trip. On the
2-core host this was tuned on, the scaled op time varied 3 to 9 times less
than the raw time over runs of 30 to 60 s.

The kernel never changes with the program. Changing it, or REF_US, changes
the benchmark.
"""

import json
import time

import numpy as np

REF_US = 120.0   # the kernel's wall time in the tuning host's fast spells

_eigvalsh, _solve = np.linalg.eigvalsh, np.linalg.solve   # bound before any trace wraps them
_rng = np.random.default_rng(0)
_W = _rng.normal(size=(7, 3, 3))
_W = _W - _W.transpose(0, 2, 1)
_W2 = _W @ _W
_HOME = np.tile(np.eye(4), (7, 1, 1))
_HOME[:, :3, 3] = _rng.normal(size=(7, 3))
_AXES = _rng.normal(size=(7, 6))
_Q = _rng.uniform(-1.0, 1.0, size=7)
_A = _rng.normal(size=(7, 7))
_SPD = _A @ _A.T + 7.0 * np.eye(7)


def kernel_us() -> float:
    """Wall time of one run of the reference kernel, in µs."""
    start = time.perf_counter_ns()
    s, c = np.sin(_Q), np.cos(_Q)
    rot = np.eye(3) + s[:, None, None] * _W + (1.0 - c)[:, None, None] * _W2
    t = np.eye(4)
    for i in range(7):
        link = _HOME[i].copy()
        link[:3, :3] = rot[i]
        t = t @ link
    jac = np.einsum("nab,nb->na", rot, _AXES[:, 3:])
    m = jac @ jac.T + _SPD
    _eigvalsh(m)
    _solve(m, _AXES[:, 0])
    np.cross(_AXES[:, :3], _AXES[:, 3:])
    json.loads(json.dumps(m.tolist()))
    return (time.perf_counter_ns() - start) / 1e3
