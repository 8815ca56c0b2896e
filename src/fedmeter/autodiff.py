"""Reverse-mode differentiation of a chain of fused kernels, and the heap
policy that keeps their freed memory.

Each kernel in :mod:`fedmeter.models` returns its output and a backward
closure ``g -> (d_in, {name: grad})``; :func:`backward` runs a model's
closures in reverse.  Which gradients a closure gives, and which arrays it
saves, the caller chose when it ran the kernel (its ``want``).

Freed memory stays in the process heap for the next forward pass.  On
glibc, importing this module raises malloc's mmap threshold to 32 MiB and
its trim threshold to 256 MiB, so the 1-5 MB activation arrays come from
the heap and the arrays one forward pass saves
(``models.transformer_encoder`` gives their size for a 32-row Transformer
block, its ``ROW_BLOCK``) are not handed back to the kernel after every
backward pass, only to be faulted in again by the next forward pass.
Setting any of ``MALLOC_MMAP_THRESHOLD_``, ``MALLOC_TRIM_THRESHOLD_`` or
``MALLOC_TOP_PAD_`` leaves glibc's policy to the environment.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np

__all__ = ["ShapeError", "backward"]


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to a kernel's rules."""


# glibc malloc policy (see the module docstring).  Arrays below the mmap
# threshold come from the heap; 32 MiB is the largest value glibc accepts on
# 64-bit.  The heap top is returned to the kernel only once more than the
# trim threshold is free; it must exceed what one forward pass saves, or
# glibc still trims.  Setting the trim threshold alone would pin the mmap
# threshold at 128 KiB and mmap every large array, so the two are set
# together, mmap first.
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 256 << 20


def _retain_freed_memory() -> bool:
    """Apply the heap policy; True when glibc accepted both thresholds."""
    if any(var in os.environ for var in
           ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_")):
        return False
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return False
    import ctypes
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD is -3, M_TRIM_THRESHOLD is -1; mallopt returns 1 on success
    return mallopt(-3, _MMAP_THRESHOLD) == 1 and mallopt(-1, _TRIM_THRESHOLD) == 1


_HEAP_RETAINED = _retain_freed_memory()


def backward(steps: list[Callable]) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
    """Run the backward closures ``steps`` of a chain of kernels that ends in
    a scalar loss, last first.

    Returns the gradient of the chain's input (None when its first kernel
    gave none) and every weight gradient the closures gave, by name.  The
    list is emptied as it runs, so each closure's saved arrays are freed as
    soon as it has run.  A closure runs once, and each kernel's raises
    RuntimeError when called again: the LSTM's overwrites its saved gates
    with their gradients, and the Transformer's consumes what it saved, so a
    second gradient needs a fresh forward pass.
    """
    grad, weights = 1.0, {}
    while steps:
        grad, found = steps.pop()(grad)
        weights.update(found)
    return grad, weights
