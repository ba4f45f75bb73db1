"""A fixed CPU kernel that measures how fast the host runs at the moment.

The machine this benchmark runs on shares its cores with other tenants: the
same work can take a third longer a minute later, and a slow phase can last
as long as a whole run.  ``run.py`` runs :func:`kernel_s` right before every
CLI invocation and scales each group's times by ``KERNEL_REF_S`` over the
kernel times measured for it, so that the host's speed largely cancels and
the program's does not.  The kernel does what the CLI spends its time on:
Python bytecode, and numpy calls on 3×3 arrays.  It never calls into
``homcontract``, so no change to the program moves it.
"""

from __future__ import annotations

import os
import time

# The kernel's eigvalsh must not start BLAS worker threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

PY_ITERS = 300_000   # pure-Python loop iterations
NP_ITERS = 1_500     # rounds of small-array numpy calls
# The kernel's time on the 2-CPU x86_64 machine of bench/README.md in a
# quiet phase of its host; scaled times are seconds at that speed.
KERNEL_REF_S = 0.050
_A = np.array([[0.0, -0.3, 0.2], [0.3, 0.0, -0.1], [-0.2, 0.1, 0.0]])


def kernel_s() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(PY_ITERS):
        s += (i % 7) * 0.5
    a = _A
    for _ in range(NP_ITERS):
        n = np.linalg.norm(a, axis=-1)
        b = np.stack([a, a.T]) @ a
        a = np.cos(a) * 0.5 - np.broadcast_to(a.T, (2, 3, 3))[0]
        s += float(np.linalg.eigvalsh(b[0] + b[0].T)[-1]) + float(n.max())
    elapsed = time.perf_counter() - t0
    if not s > 0.0:  # uses the result, and guards against a broken numpy
        raise RuntimeError("calibration kernel gave a wrong result")
    return elapsed
