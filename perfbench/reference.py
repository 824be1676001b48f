"""A fixed computation that gauges how fast the host runs right now.

The host runs in fast and slow phases, up to 1.6 times apart, that switch
within seconds and slow every process.  ``run.py`` times this computation
in the parent just before each child starts and the child times it right
after its run; their mean scales the child's times to the reference host.
"""

import time


def reference_s() -> dict:
    """Seconds for each part of a fixed computation, at sizes no workload uses.

    "python" is an interpreter loop, "fft" FFTs on a 4 MiB array: the two
    kinds of work the workloads are made of, which the host's slow phases
    slow by different amounts.
    """
    import numpy as np

    a = np.ones((1000, 256), complex)
    np.fft.fft2(a[:8, :8])
    t0 = time.perf_counter()
    s = 0
    for i in range(800_000):
        s += i * i % 7
    t1 = time.perf_counter()
    for _ in range(3):
        np.fft.ifft2(np.fft.fft2(a))
    return {"python": t1 - t0, "fft": time.perf_counter() - t1}
