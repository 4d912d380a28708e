"""A fixed calibration kernel that measures how fast the machine runs right now.

On a shared host the speed of one core drifts by a quarter and more
within a minute, as neighbours come and go; CPU time drifts with wall
time, so it is not descheduling but a slower core. A workload therefore
times this kernel between its units of work and reports each unit's
time scaled to a machine on which the kernel takes `REF_S`:

    scaled = measured * REF_S / kernel time around the unit

The kernel never calls orderlab, so a change to the program moves the
scaled time exactly as much as the measured one; only the machine's
drift is divided out. Its instruction mix follows the program's forward
path: small float64 numpy operations (matmul, softmax, layer norm, erf
GELU on a 50 x 22 x 32 batch) and Python list and dict work. The kernel
and `REF_S` are part of the benchmark's definition: change either and
every scaled figure changes scale.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.special import erf

REF_S = 0.05          # kernel time, in seconds, of the machine scaled figures refer to

_B, _T, _D, _H, _FF = 50, 22, 32, 2, 64
_rng = np.random.default_rng(20220706)
_X = _rng.standard_normal((_B, _T, _D))
_WQ = _rng.standard_normal((_D, _D)) / np.sqrt(_D)
_W1 = _rng.standard_normal((_D, _FF)) / np.sqrt(_D)
_W2 = _rng.standard_normal((_FF, _D)) / np.sqrt(_FF)
_MASK = np.zeros((_B, 1, 1, _T))
_WORDS = [f"w{i % 97}" for i in range(40)]
_VOCAB = {f"w{i}": i for i in range(97)}


def _block(x):
    q = (x @ _WQ).reshape(_B, _T, _H, _D // _H).transpose(0, 2, 1, 3)
    s = q @ q.transpose(0, 1, 3, 2) / np.sqrt(_D // _H) + _MASK
    s = np.exp(s - s.max(-1, keepdims=True))
    s /= s.sum(-1, keepdims=True)
    x = x + (s @ q).transpose(0, 2, 1, 3).reshape(_B, _T, _D)
    x = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-12)
    h = x @ _W1
    return x + (0.5 * h * (1.0 + erf(h / np.sqrt(2.0)))) @ _W2


def kernel_seconds() -> float:
    """Time one run of the kernel (about 50 ms on a 2-core Xeon VM)."""
    t0 = time.perf_counter()
    for _ in range(6):
        x = _X
        for _layer in range(2):
            x = _block(x)
        for _pair in range(_B):
            [_VOCAB.get(w, 0) for w in _WORDS]
    return time.perf_counter() - t0


class Speed:
    """Kernel times taken between units of work, for scaling each unit.

    `mark()` times the kernel `probes` times and keeps the median; the
    factor for a unit is REF_S over the mean of the marks before and
    after it.
    """

    def __init__(self, probes: int = 1):
        self.probes = probes
        self.last = self._probe()
        self.factors: list[float] = []

    def _probe(self) -> float:
        return statistics.median(kernel_seconds() for _ in range(self.probes))

    def mark(self) -> float:
        """Time the kernel now; return the factor for the unit since the last mark."""
        now = self._probe()
        factor = REF_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return factor
