"""Kernel dispatch: the single owner of matmul/im2col/col2im entry points.

Every dense kernel the network executes — the batched GEMM behind a
convolution, the im2col unfold, the col2im fold, the workspace pool feeding
them — routes through this module, so precision policy and backend
selection live in exactly one place:

* **Dtype policy.**  Kernels run in ``float64`` (the bit-exact reference,
  the only dtype the training path accepts) or ``float32`` (the serving
  fast path, roughly half the memory traffic and twice the GEMM
  throughput).  :data:`SUPPORTED_DTYPES` is the closed set; the workspace
  pool is keyed by ``(shape, dtype)`` so a float32 serving thread recycles
  buffers exactly like the float64 training loop does.
* **Backend registry.**  The pure-numpy :class:`NumpyBackend` is the
  reference implementation; an accelerated backend (a compiled extension,
  a GPU bridge) plugs in behind the same three entry points via
  :func:`register_backend` + :func:`set_backend`, without touching any
  caller.  The ``numpy`` backend can never be unregistered, so the
  bit-exact reference is always one :func:`set_backend` call away.

Callers (``repro.nn.conv``, ``repro.nn.tensor``) import the module-level
:func:`matmul` / :func:`im2col` / :func:`col2im` functions; they dispatch to
the active backend at call time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Union

import numpy as np

__all__ = [
    "DEFAULT_DTYPE",
    "SUPPORTED_DTYPES",
    "KernelBackend",
    "NumpyBackend",
    "canonical_dtype",
    "clear_workspace_pool",
    "col2im",
    "dtype_name",
    "get_backend",
    "get_backend_name",
    "im2col",
    "kernel_threads",
    "matmul",
    "register_backend",
    "release_workspace",
    "set_backend",
    "take_workspace",
    "workspace_pool_stats",
]

DtypeLike = Union[str, type, np.dtype]

#: The dtypes kernels may run in.  ``float64`` is the bit-exact reference
#: (and the only dtype the training path accepts); ``float32`` is the
#: low-precision inference path.
SUPPORTED_DTYPES: tuple[np.dtype, ...] = (np.dtype(np.float64), np.dtype(np.float32))

#: Dtype used when nothing selects one explicitly.
DEFAULT_DTYPE: np.dtype = np.dtype(np.float64)


def canonical_dtype(dtype: DtypeLike) -> np.dtype:
    """Validate and normalise a dtype spec to one of :data:`SUPPORTED_DTYPES`.

    Accepts the ``np.dtype`` itself, the scalar type (``np.float32``) or a
    string (``"float32"``); raises ``TypeError`` for anything outside the
    supported set so precision bugs fail loudly at the boundary instead of
    silently deoptimizing deep inside a forward pass.
    """
    resolved = np.dtype(dtype)
    if resolved not in SUPPORTED_DTYPES:
        supported = ", ".join(d.name for d in SUPPORTED_DTYPES)
        raise TypeError(f"unsupported kernel dtype {resolved.name!r}; expected one of: {supported}")
    return resolved


def dtype_name(dtype: DtypeLike) -> str:
    """Canonical string name (``"float32"`` / ``"float64"``) of a dtype spec."""
    return canonical_dtype(dtype).name


# ---------------------------------------------------------------------- #
# reference kernels (pure numpy)
# ---------------------------------------------------------------------- #


def _im2col_numpy(
    x_padded: np.ndarray, kernel: int, stride: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Unfold sliding windows into columns (reference implementation).

    Parameters
    ----------
    x_padded:
        Padded input, shape ``(N, C, H, W)``.
    kernel / stride:
        Square kernel size and stride.
    out:
        Optional preallocated C-contiguous destination of shape
        ``(N, C * kernel * kernel, OH * OW)`` (e.g. a pooled workspace);
        allocated when omitted.

    Returns
    -------
    Array of shape ``(N, C * kernel * kernel, OH * OW)`` (``out`` if given).
    """
    batch, channels, height, width = x_padded.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x_padded, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]  # (N, C, OH, OW, k, k)
    if out is None:
        out = np.empty((batch, channels * kernel * kernel, out_h * out_w), dtype=x_padded.dtype)
    # Write the transposed windows straight into the (pooled) destination —
    # one fused copy instead of reshape-copy + ascontiguousarray.
    np.copyto(
        out.reshape(batch, channels, kernel, kernel, out_h, out_w),
        windows.transpose(0, 1, 4, 5, 2, 3),
    )
    return out


def _col2im_numpy(
    columns: np.ndarray,
    padded_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Adjoint of :func:`_im2col_numpy`: scatter-add columns back into an array."""
    batch, channels, height, width = padded_shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    columns = columns.reshape(batch, channels, kernel, kernel, out_h, out_w)
    output = np.zeros(padded_shape, dtype=columns.dtype)
    for row_offset in range(kernel):
        row_end = row_offset + stride * out_h
        for col_offset in range(kernel):
            col_end = col_offset + stride * out_w
            output[:, :, row_offset:row_end:stride, col_offset:col_end:stride] += columns[
                :, :, row_offset, col_offset, :, :
            ]
    return output


class KernelBackend:
    """Interface an accelerated kernel backend implements.

    A backend owns the three dense entry points.  The contract mirrors the
    reference :class:`NumpyBackend` exactly: same shapes, same dtypes in and
    out, gradients produced by the same adjoint pairing (``im2col`` vs
    ``col2im``).  Accuracy may differ within the tolerance its users gate on
    (the smoke baseline for serving) — the pure-numpy backend remains the
    bit-exact reference an alternative is validated against.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product with numpy broadcasting semantics."""
        raise NotImplementedError

    def im2col(
        self, x_padded: np.ndarray, kernel: int, stride: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Unfold sliding windows into ``(N, C*k*k, OH*OW)`` columns."""
        raise NotImplementedError

    def col2im(
        self,
        columns: np.ndarray,
        padded_shape: tuple[int, int, int, int],
        kernel: int,
        stride: int,
    ) -> np.ndarray:
        """Adjoint of :meth:`im2col`: scatter-add columns into an image."""
        raise NotImplementedError


class NumpyBackend(KernelBackend):
    """The pure-numpy reference backend (always registered, never removed)."""

    name = "numpy"

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Plain ``np.matmul`` — BLAS GEMM, broadcast over leading axes."""
        return np.matmul(a, b)

    def im2col(
        self, x_padded: np.ndarray, kernel: int, stride: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Stride-tricks unfold with a single fused copy into ``out``."""
        return _im2col_numpy(x_padded, kernel, stride, out=out)

    def col2im(
        self,
        columns: np.ndarray,
        padded_shape: tuple[int, int, int, int],
        kernel: int,
        stride: int,
    ) -> np.ndarray:
        """Loop-over-kernel-offsets scatter-add (k*k strided additions)."""
        return _col2im_numpy(columns, padded_shape, kernel, stride)


# ---------------------------------------------------------------------- #
# backend registry
# ---------------------------------------------------------------------- #

_REGISTRY_LOCK = threading.Lock()
_BACKENDS: dict[str, KernelBackend] = {"numpy": NumpyBackend()}
_ACTIVE_BACKEND = "numpy"


def register_backend(name: str, backend: KernelBackend) -> None:
    """Register an accelerated backend under ``name``.

    Registration alone changes nothing — callers opt in per process with
    :func:`set_backend`.  Re-registering a name replaces the backend
    (except ``"numpy"``, which is the immutable reference implementation).
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    if name == "numpy":
        raise ValueError("the 'numpy' reference backend cannot be replaced")
    with _REGISTRY_LOCK:
        _BACKENDS[name] = backend


def set_backend(name: str) -> None:
    """Select the process-wide active backend by name."""
    with _REGISTRY_LOCK:
        if name not in _BACKENDS:
            raise KeyError(
                f"unknown kernel backend {name!r}; registered: {sorted(_BACKENDS)}"
            )
    global _ACTIVE_BACKEND
    _ACTIVE_BACKEND = name


def get_backend_name() -> str:
    """Name of the process-wide active backend."""
    return _ACTIVE_BACKEND


def get_backend() -> KernelBackend:
    """The active backend instance."""
    with _REGISTRY_LOCK:
        return _BACKENDS[_ACTIVE_BACKEND]


# ---------------------------------------------------------------------- #
# dispatch
# ---------------------------------------------------------------------- #


def kernel_threads() -> int:
    """Always ``1``: every kernel runs on the caller's thread."""
    return 1


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product via the active backend.

    The dispatch entry point behind every GEMM in the network (tensor
    ``MatMul``, conv forward/backward contractions).
    """
    return get_backend().matmul(a, b)


def im2col(
    x_padded: np.ndarray, kernel: int, stride: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Unfold sliding windows into columns via the active backend.

    See :func:`_im2col_numpy` for the shape contract.
    """
    return get_backend().im2col(x_padded, kernel, stride, out=out)


def col2im(
    columns: np.ndarray,
    padded_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col` via the active backend."""
    return get_backend().col2im(columns, padded_shape, kernel, stride)


# ---------------------------------------------------------------------- #
# workspace pool
# ---------------------------------------------------------------------- #
#
# The unfolded-columns buffer is by far the largest allocation of a
# convolution, and a training step re-creates one per layer per step with
# identical shapes.  Instead of paying the allocator (and page faults) every
# step, released buffers are parked in a per-thread pool keyed by
# (shape, dtype) and handed back out to the next forward pass that needs the
# same buffer.  Ownership is exclusive between take and release, so a buffer
# saved for a backward pass can never be overwritten by a concurrent forward.
#
# The pool dict is ordered by *recency* — taking or releasing a key moves it
# to the back — so when the byte cap forces eviction, the coldest shapes go
# first and a service whose request shapes drift keeps pooling its current
# hot set.

_WORKSPACES = threading.local()

#: Buffers parked per (shape, dtype) key; more than this and extras go to GC.
_MAX_POOLED_PER_KEY = 4

#: Total bytes parked per thread.  A long-lived serving thread sees many
#: distinct (batch, layer, design, dtype) keys over its lifetime; without a
#: global cap each would park up to ``_MAX_POOLED_PER_KEY`` buffers forever.
_MAX_POOLED_BYTES = 64 * 2**20


def _pool() -> "OrderedDict[tuple, list[np.ndarray]]":
    pool = getattr(_WORKSPACES, "pool", None)
    if pool is None:
        pool = _WORKSPACES.pool = OrderedDict()
        _WORKSPACES.pooled_bytes = 0
    return pool


def take_workspace(shape: tuple[int, ...], dtype: DtypeLike = np.float64) -> np.ndarray:
    """Pop a pooled buffer of ``(shape, dtype)``, or allocate a fresh one.

    Always returns a usable buffer: unsupported dtypes simply never hit the
    pool (allocate-only), so callers need no dtype gate of their own.
    """
    dtype = np.dtype(dtype)
    key = (tuple(shape), dtype)
    pool = _pool()
    stack = pool.get(key)
    if stack:
        buffer = stack.pop()
        if not stack:
            del pool[key]
        else:
            pool.move_to_end(key)  # reuse refreshes the key's recency
        _WORKSPACES.pooled_bytes -= buffer.nbytes
        return buffer
    return np.empty(shape, dtype=dtype)


def release_workspace(array: np.ndarray) -> None:
    """Park a buffer for reuse by a later :func:`take_workspace`.

    Only C-contiguous buffers of a :data:`SUPPORTED_DTYPES` member are
    pooled; anything else is left to the garbage collector.
    """
    if array.dtype not in SUPPORTED_DTYPES or not array.flags.c_contiguous:
        return
    pool = _pool()
    if array.nbytes > _MAX_POOLED_BYTES:
        return
    # Evict least-recently-*used* keys until the new buffer fits (the dict is
    # kept in recency order by take/release), so the hottest shapes survive
    # request-shape drift.
    while _WORKSPACES.pooled_bytes + array.nbytes > _MAX_POOLED_BYTES and pool:
        coldest_key = next(iter(pool))
        stack = pool[coldest_key]
        if stack:
            _WORKSPACES.pooled_bytes -= stack.pop().nbytes
        if not stack:
            del pool[coldest_key]
    key = (array.shape, array.dtype)
    stack = pool.setdefault(key, [])
    pool.move_to_end(key)  # releasing refreshes the key's recency too
    if len(stack) < _MAX_POOLED_PER_KEY:
        stack.append(array)
        _WORKSPACES.pooled_bytes += array.nbytes


def workspace_pool_stats() -> dict:
    """Pooled bytes and per-key buffer counts of the calling thread's pool."""
    pool = _pool()
    return {
        "pooled_bytes": int(getattr(_WORKSPACES, "pooled_bytes", 0)),
        "keys": {
            (shape, dtype.name): len(stack) for (shape, dtype), stack in pool.items()
        },
    }


def clear_workspace_pool() -> None:
    """Drop every pooled buffer of the calling thread (tests, memory pressure)."""
    _pool().clear()
    _WORKSPACES.pooled_bytes = 0
