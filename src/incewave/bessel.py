"""Modified Bessel functions of the first kind, I_l(x), for x >= 0.

One backward pass gives e^(-x) I_l(x) for every order l = 0..lmax at once.
The ratios q_m = I_m / I_{m-1} = x / (2m + x q_{m+1}), started at q = 0 from
order lmax + 20 + ceil(12 sqrt(x)), are all at most 1, and the sum identity
e^x = I_0 + 2 sum_{m>=1} I_m normalizes them without overflow:
e^(-x) I_0 = 1 / (1 + 2 sum_m q_1...q_m). Relative accuracy is ~2e-13 or
better for x up to 1e7 (checked against scipy in the test suite). Negative
orders fold through I_{-l} = I_l.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

# Largest argument: the pass takes ~12 sqrt(x) steps, 0.3 s at 1e10.
_X_MAX = 1e10


def scaled_bessel_i_table(lmax: int, x: float) -> np.ndarray:
    """e^(-x) I_l(x) for l = 0..lmax, from one backward ratio recurrence."""
    x = float(x)
    if not 0 <= x <= _X_MAX:
        raise InvalidArgumentError(f"modified Bessel I_l requires 0 <= x <= {_X_MAX:g}, got {x}")
    start = int(lmax) + 20 + math.ceil(12.0 * math.sqrt(x))
    q = np.empty(start)
    qm = 0.0
    for m in range(start, 0, -1):
        qm = x / (2.0 * m + x * qm)
        q[m - 1] = qm
    ratios = np.cumprod(q)  # I_l / I_0 for l = 1..start
    i0 = 1.0 / (1.0 + 2.0 * float(np.sum(ratios)))
    return i0 * np.concatenate(([1.0], ratios[:lmax]))


def modified_bessel_i(l: int, x: float) -> float:
    """I_l(x) for real 0 <= x <= 1e10 and integer order l (negative l folds
    to |l|); OverflowError once e^x leaves float range (x > ~709.78)."""
    l = abs(int(l))
    return float(scaled_bessel_i_table(l, x)[l]) * math.exp(x)


def bilinear_weight_kernel(freqs, a: float):
    """Gram kernel of the weighted bilinear pairing in coefficient space,
    scaled by e^(-a/2): e^(-a/2) W with
    W[i, j] = (-1)**(f_i + f_j) * I_{|f_i + f_j|}(a/2) over the harmonic
    frequencies f of a layout; f_i + f_j is an integer for both families. W
    is the Fourier image of the weight exp(-(a/2) cos xi) on products of
    same-branch harmonics, so the scaled kernel is that of
    exp(-(a/2)(cos xi + 1)) and cannot overflow."""
    fs = np.asarray(freqs, dtype=float)
    msum = np.add.outer(fs, fs)
    orders = np.abs(msum).astype(int)
    table = scaled_bessel_i_table(int(orders.max()), a / 2.0)
    return np.where(msum % 2 == 0, 1.0, -1.0) * table[orders]
