"""The split-conformal rank rule the quantile tests compare against."""

import math

import numpy as np


def conformal_quantile(scores, alpha):
    """k-th smallest score with k = ceil((n+1)(1-alpha)), or +inf when k
    exceeds n, by sorting the scores on every call."""
    s = np.sort(np.asarray(scores, dtype=float))
    k = math.ceil((s.size + 1) * (1.0 - alpha))
    return math.inf if k > s.size else float(s[k - 1])
