"""Textbook reference implementations that tests compare the package against,
and the flat parameter layout they check."""

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def gaussian_log_prior(c, s, labels, sigma):
    """Per-row log density of N(labels, sigma^2 I) on the attribute
    coordinates ``c`` times N(0, I) on the non-attribute block ``s``."""
    c, s, labels = (np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (c, s, labels))
    var = sigma * sigma
    const = -0.5 * c.shape[1] * (LOG_2PI + math.log(var)) - 0.5 * s.shape[1] * LOG_2PI
    return const - np.sum((c - labels) ** 2, axis=1) / (2.0 * var) - 0.5 * np.sum(s * s, axis=1)


def adam_step(p, m, v, g, t, cfg):
    """Step ``t`` of Adam with bias correction (Kingma and Ba, Algorithm 1)
    on one array, out of place: returns the new ``(p, m, v)``."""
    m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
    v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
    c1, c2 = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
    return p - cfg.lr * (m / c1) / (np.sqrt(v / c2) + cfg.eps), m, v


def flat_views_in_order(arrays, flat) -> bool:
    """Whether ``arrays`` are C-contiguous views of consecutive segments of
    the 1-D ``flat``, in order, that together cover all of it."""
    start = 0
    for a in arrays:
        if not (a.flags.c_contiguous and np.shares_memory(a, flat) and a.ctypes.data == flat[start:].ctypes.data):
            return False
        start += a.size
    return start == flat.size
