"""Kernel selection for the mapper hot paths.

The performance-critical mappers (:class:`~repro.mapping.topolb.TopoLB`,
:class:`~repro.mapping.refine.RefineTopoLB`) each keep one production
implementation of their inner loop plus a scalar reference:

``"reference"``
    The original scalar loops, kept verbatim as the executable
    specification and test oracle. Slower, but trivially auditable against
    the paper's pseudocode; the equivalence suite
    (``tests/mapping/test_kernel_equivalence.py``) pins every production
    kernel to **bit-identical assignments** against this path.

``"vectorized"`` (the default) and ``"incremental"``
    The production path. For TopoLB both names run the reference cycle
    body compiled to C (``refine_kernel.c``, loaded by
    :mod:`repro.mapping._native`); when no compiler is available or
    ``REPRO_NO_NATIVE`` is set they run the reference body itself, so the
    fallback is the oracle. For RefineTopoLB both names resolve to the
    incremental sweep: per-task best-swap caches plus a dirty set keyed by
    the tasks an accepted swap touched, so each sweep after the first costs
    O(changed) instead of O(n^2). It runs as compiled C when a toolchain is
    available, with a bit-identical NumPy fallback.

So each mapper has two paths, ``reference`` and its production body;
RefineTopoLB reports ``"incremental"`` through its ``kernel`` property,
TopoLB reports the name it was given.

Mappers take ``kernel=None`` to mean "use the default", which
:func:`set_default_kernel` overrides (the CLI exposes it as ``--kernel``).
The override lives in a :class:`contextvars.ContextVar`, so it is
per-thread: concurrent engine requests in one process (``repro-serve --jobs
0``) each see only their own. See ``docs/PERFORMANCE.md`` for the kernel
design notes.
"""

from __future__ import annotations

import contextvars

from repro.exceptions import MappingError

__all__ = [
    "KERNELS",
    "DEFAULT_KERNEL",
    "get_default_kernel",
    "set_default_kernel",
    "resolve_kernel",
]

#: Every kernel name any mapper understands.
KERNELS = ("vectorized", "reference", "incremental")

DEFAULT_KERNEL = "vectorized"

_default_kernel: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_default_kernel", default=DEFAULT_KERNEL
)


def get_default_kernel() -> str:
    """The kernel used when a mapper is built with ``kernel=None``."""
    return _default_kernel.get()


def set_default_kernel(name: str) -> str:
    """Set the current context's default kernel; returns the previous one.

    The choice only affects mappers constructed *after* the call (kernel is
    resolved at construction time, so a mapper's behavior never changes
    mid-run), and only in the calling thread or context.
    """
    if name not in KERNELS:
        raise MappingError(f"kernel must be one of {KERNELS}, got {name!r}")
    previous = _default_kernel.get()
    _default_kernel.set(name)
    return previous


def resolve_kernel(kernel: str | None, allowed: tuple[str, ...] = KERNELS) -> str:
    """Resolve a constructor's ``kernel`` argument against ``allowed``."""
    if kernel is None:
        kernel = _default_kernel.get()
    if kernel not in allowed:
        raise MappingError(f"kernel must be one of {allowed}, got {kernel!r}")
    return kernel
