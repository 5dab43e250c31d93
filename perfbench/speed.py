"""Machine-speed probes: fixed kernels timed right next to the measured work.

The benchmark runs on a shared host whose speed swings by tens of percent
within seconds and drifts as much over an hour (other tenants contend for
the cores' caches and memory), far more than any bound a regression check
could use.  Each timed operation is therefore bracketed by probes: a fixed
kernel, owned by the benchmark and independent of ``src/``, that does the
same kind of work as the operation.  The reported time is the operation's
CPU time scaled by ``REFERENCE / probe`` — seconds on a host where the probe
takes its reference time — so a slow phase of the host inflates the probe
and the operation alike and cancels out, while a change to the program
moves only the operation.

* ``sparse`` — SuperLU factorisation and block back-substitution on a 2-D
  grid Laplacian, the work of the ``sim`` layer;
* ``dense`` — an unfold / GEMM / fold convolution pass, the work of the
  ``nn`` kernels.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Probe CPU seconds on the reference host (2-vCPU x86 VM, Intel Xeon,
#: numpy 2.4 / scipy 1.17, single-threaded), medians in a quiet phase.
REFERENCE = {"sparse": 0.29, "dense": 0.22}


class SpeedProbe:
    """Fixed-size probe kernels; :meth:`time` returns one probe's CPU seconds."""

    GRID = 60
    RHS = 32
    SOLVES = 50
    CONV_SHAPE = (8, 16, 27, 27)
    KERNEL = 3
    FILTERS = 32
    CONV_PASSES = 16

    def __init__(self, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        n = self.GRID
        line = sp.diags([-1.0, 2.01, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.matrix = (sp.kron(eye, line) + sp.kron(line, eye)).tocsc()
        self.rhs = rng.random((n * n, self.RHS))
        batch, channels, height, width = self.CONV_SHAPE
        k = self.KERNEL
        self.image = rng.random((batch, channels, height + k - 1, width + k - 1))
        self.weights = rng.random((channels * k * k, self.FILTERS))

    def sparse(self) -> float:
        """Factor the grid Laplacian once and back-substitute a block of RHS repeatedly."""
        lu = spla.splu(self.matrix)
        total = 0.0
        for _ in range(self.SOLVES):
            total += float(lu.solve(self.rhs)[0, 0])
        return total

    def dense(self) -> float:
        """Unfold 3x3 windows, multiply by the filter bank, fold the gradient back."""
        k = self.KERNEL
        batch, channels, height, width = self.CONV_SHAPE
        total = 0.0
        for _ in range(self.CONV_PASSES):
            windows = np.lib.stride_tricks.sliding_window_view(self.image, (k, k), axis=(2, 3))
            columns = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
                batch * height * width, channels * k * k
            )
            out = columns @ self.weights
            grad = (out @ self.weights.T).reshape(batch, height, width, channels, k, k)
            folded = np.zeros_like(self.image)
            for i in range(k):
                for j in range(k):
                    folded[:, :, i : i + height, j : j + width] += grad[..., i, j].transpose(
                        0, 3, 1, 2
                    )
            total += float(folded[0, 0, 0, 0])
        return total

    def time(self, kind: str) -> float:
        """CPU seconds of one ``kind`` probe."""
        kernel = getattr(self, kind)
        began = time.process_time()
        kernel()
        return time.process_time() - began


def normalised(seconds: float, kind: str, probe_seconds: float) -> float:
    """``seconds`` of CPU time scaled to the reference host's speed.

    ``probe_seconds`` is the time of a ``kind`` probe taken next to the work.
    """
    return seconds * REFERENCE[kind] / probe_seconds


def bracketed(seconds: Sequence[float], probes: Sequence[Optional[float]], kind: str) -> list:
    """Scale each of a run of operations by the probes right before and after it.

    ``probes[i]`` was timed before ``seconds[i]`` and ``probes[i + 1]``
    after it, so ``probes`` is one longer than ``seconds``; each operation
    is scaled by the mean of its two probes, since the host's speed changes
    within seconds.  Unprobed runs (a ``None`` probe) give ``[]``.
    """
    if len(probes) != len(seconds) + 1:
        raise ValueError(f"{len(seconds)} operations need {len(seconds) + 1} probes")
    if None in probes:
        return []
    return [
        normalised(value, kind, (before + after) / 2)
        for value, before, after in zip(seconds, probes, probes[1:])
    ]
