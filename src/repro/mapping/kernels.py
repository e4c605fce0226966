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

``"vectorized"`` (the default)
    TopoLB's batched NumPy kernel: neighbor-row updates and stale-argmin
    repair operate on whole index blocks per call instead of one
    Python-level element at a time. For RefineTopoLB the name resolves to
    the incremental sweep below.

``"incremental"``
    RefineTopoLB's production sweep: per-task best-swap caches plus a dirty
    set keyed by the tasks an accepted swap touched, so each sweep after
    the first costs O(changed) instead of O(n^2). Runs as compiled C when a
    toolchain is available, with a bit-identical NumPy fallback. TopoLB has
    no sweep-to-sweep state to reuse and treats ``"incremental"`` as
    ``"vectorized"``, so the name is valid process-wide — e.g. for
    ``multilevel`` specs, where only the per-level refine has a delta
    structure to exploit.

So RefineTopoLB has two paths, ``reference`` and ``incremental``, and
reports the one it resolved to through its ``kernel`` property; TopoLB has
``reference`` and ``vectorized``.

Mappers take ``kernel=None`` to mean "use the process-wide default", which
:func:`set_default_kernel` flips (the CLI exposes it as ``--kernel``). See
``docs/PERFORMANCE.md`` for the kernel design notes.
"""

from __future__ import annotations

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

_default_kernel = DEFAULT_KERNEL


def get_default_kernel() -> str:
    """The process-wide kernel used when a mapper is built with ``kernel=None``."""
    return _default_kernel


def set_default_kernel(name: str) -> str:
    """Set the process-wide default kernel; returns the previous default.

    The choice only affects mappers constructed *after* the call (kernel is
    resolved at construction time, so a mapper's behavior never changes
    mid-run).
    """
    global _default_kernel
    if name not in KERNELS:
        raise MappingError(f"kernel must be one of {KERNELS}, got {name!r}")
    previous = _default_kernel
    _default_kernel = name
    return previous


def resolve_kernel(kernel: str | None, allowed: tuple[str, ...] = KERNELS) -> str:
    """Resolve a constructor's ``kernel`` argument against ``allowed``."""
    if kernel is None:
        kernel = _default_kernel
    if kernel not in allowed:
        raise MappingError(f"kernel must be one of {allowed}, got {kernel!r}")
    return kernel
