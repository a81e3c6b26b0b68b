"""The gradient reference the analytic-gradient tests compare against."""

import numpy as np


def finite_difference_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = h
        fp = f(x + e)
        fm = f(x - e)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite function value near coordinate {i}")
        g.flat[i] = (fp - fm) / (2.0 * h)
    return g
