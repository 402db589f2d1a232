"""A fixed kernel, timed between solves, that tracks how fast the machine runs at the moment.

On a virtual machine shared with other tenants, the same work takes more or
less time from one minute to the next: a fixed pass of `desk` solves, repeated
for four minutes in one process, read per-pass times from 0.49 s to 0.78 s,
and medians over 30 s windows from 0.58 s to 0.78 s. Process CPU time moves
with wall time to within 0.2%, so the slowdown is not time taken away by
the hypervisor but slower execution. The benchmark therefore times this kernel
right before every solve and after the last one, and scales each solve's
seconds by ``nominal_s`` over the mean of the two kernel times around it. The
kernel is the benchmark's own numpy code, so a change to the library moves
the scaled seconds by the same share as the wall seconds.

The kernel is plain FISTA with numpy on a fixed gaussian dictionary of the
workload's shape: the same mix of matrix-vector products and per-iteration
interpreter work as the solves it calibrates.
"""

from __future__ import annotations

import time

import numpy as np

ITERATIONS = 60


class Calibrator:
    """Times the calibration kernel; `scale` turns wall seconds into seconds at nominal speed."""

    def __init__(self, n, k, nominal_s):
        rng = np.random.default_rng(0)
        d = rng.standard_normal((n, k))
        d /= np.linalg.norm(d, axis=0)
        self.d = d
        self.y = d[:, : min(5, k)].sum(axis=1)
        self.lam = 0.5 * float(np.max(np.abs(d.T @ self.y)))
        self.step = 1.0 / float(np.linalg.norm(d, 2)) ** 2
        self.nominal_s = nominal_s
        self.probe()  # first call pays for page faults and caches

    def probe(self):
        """Seconds one run of the kernel takes now."""
        d, y, step = self.d, self.y, self.step
        thresh = self.lam * step
        t0 = time.perf_counter()
        x = np.zeros(d.shape[1])
        z = x.copy()
        t = 1.0
        for _ in range(ITERATIONS):
            u = z - step * (d.T @ (d @ z - y))
            x_new = np.sign(u) * np.maximum(np.abs(u) - thresh, 0.0)
            t_new = 0.5 * (1.0 + (1.0 + 4.0 * t * t) ** 0.5)
            z = x_new + ((t - 1.0) / t_new) * (x_new - x)
            x, t = x_new, t_new
        return time.perf_counter() - t0

    def scale(self, seconds, before, after):
        """`seconds` measured between kernel times `before` and `after`, at nominal speed."""
        return seconds * self.nominal_s / (0.5 * (before + after))
