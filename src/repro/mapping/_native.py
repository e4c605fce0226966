"""On-demand compiled kernels for TopoLB, the refine sweep and matching.

``repro.mapping.refine_kernel.c`` holds scalar C implementations of
TopoLB's placement cycle, of one RefineTopoLB sweep with the incremental
delta structure and of the multilevel coarsener's heavy-edge matching scan.
This module compiles it with the system C compiler (``cc``/``gcc``/
``clang``) the first time it is needed, caches the shared object under the
system temp directory keyed by a hash of the source and build flags, and
loads it through :mod:`ctypes` — no third-party build dependency.

The compiled path is strictly optional: when no toolchain is available (or
when ``REPRO_NO_NATIVE`` is set, which the test suite uses to pin both
paths) :class:`~repro.mapping.topolb.TopoLB` runs its reference cycle body,
and :class:`~repro.mapping.refine.RefineTopoLB` and
:func:`~repro.partition.coarsening.heavy_edge_matching` their
pure-Python/NumPy loops. ``-ffp-contract=off`` keeps the C arithmetic
bitwise identical to the NumPy reference kernels — no fused multiply-adds.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading

import numpy as np

__all__ = ["load", "available", "TopoLBState"]

_SOURCE = os.path.join(os.path.dirname(__file__), "refine_kernel.c")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_lock = threading.Lock()
_UNSET = object()
_cached: object = _UNSET


class TopoLBState(ctypes.Structure):
    """Mirror of ``topolb_state`` in ``refine_kernel.c``: sizes, options and
    the addresses of the arrays TopoLB's Python loop owns."""

    _ARRAYS = ("fest", "dist", "avg_all", "avg_free", "delta", "unplaced_comm",
               "penalty", "avail_f", "f_sum", "f_min", "res_vals", "volumes",
               "indptr", "indices", "weights", "f_argmin", "res_ids", "res_pos",
               "assignment", "dirty", "avail", "unassigned", "mark")
    #: Element types the C side reads; every other array holds the fest dtype.
    _TYPES = {"volumes": np.float64, "weights": np.float64,
              "indptr": np.int64, "indices": np.int64, "f_argmin": np.int64,
              "res_ids": np.int64, "res_pos": np.int64, "assignment": np.int64,
              "dirty": np.int64, "avail": np.uint8, "unassigned": np.uint8,
              "mark": np.uint8}
    _fields_ = (
        [(name, ctypes.c_int64) for name in
         ("n", "p", "reserve", "order", "selection", "avail_count")]
        + [("huge", ctypes.c_double)]
        + [(name, ctypes.c_void_p) for name in _ARRAYS]
        + [("stats", ctypes.c_int64 * 5)]
    )

    @classmethod
    def bind(cls, dtype, arrays: dict, **scalars) -> "TopoLBState":
        """Check every array's element type and contiguity, then store its
        address; the caller keeps ``arrays`` alive while C uses them."""
        if set(arrays) != set(cls._ARRAYS):
            raise ValueError(f"TopoLB state needs arrays {cls._ARRAYS}")
        for name, arr in arrays.items():
            want = np.dtype(cls._TYPES.get(name, dtype))
            if arr.dtype != want or not arr.flags.c_contiguous:
                raise ValueError(f"TopoLB state array {name!r} must be a "
                                 f"C-contiguous {want} array, got {arr.dtype}")
        return cls(**scalars,
                   **{name: arr.ctypes.data for name, arr in arrays.items()})


class NativeKernels:
    """Thin typed wrappers around the compiled functions."""

    def __init__(self, lib: ctypes.CDLL):
        fn = lib.refine_sweep_incremental
        i64 = ctypes.c_int64
        arr = np.ctypeslib.ndpointer
        fn.restype = i64
        fn.argtypes = [
            i64, i64,
            arr(np.float64, flags="C_CONTIGUOUS"),  # cost (n, p)
            arr(np.float64, flags="C_CONTIGUOUS"),  # dist (p, p)
            arr(np.int64, flags="C_CONTIGUOUS"),    # assign (n)
            arr(np.int64, flags="C_CONTIGUOUS"),    # indptr (n + 1)
            arr(np.int64, flags="C_CONTIGUOUS"),    # indices (nnz)
            arr(np.float64, flags="C_CONTIGUOUS"),  # weights (nnz)
            arr(np.int64, flags="C_CONTIGUOUS"),    # perm (n)
            arr(np.int64, flags="C_CONTIGUOUS"),    # best_b (n)
            arr(np.float64, flags="C_CONTIGUOUS"),  # best_val (n)
            arr(np.uint8, flags="C_CONTIGUOUS"),    # valid (n)
            arr(np.int64, flags="C_CONTIGUOUS"),    # stats (4)
        ]
        self._fn = fn
        match = lib.heavy_edge_matching
        match.restype = None
        match.argtypes = [
            i64,
            arr(np.int64, flags="C_CONTIGUOUS"),    # indptr (n + 1)
            arr(np.int64, flags="C_CONTIGUOUS"),    # indices (nnz)
            arr(np.float64, flags="C_CONTIGUOUS"),  # weights (nnz)
            arr(np.int64, flags="C_CONTIGUOUS"),    # perm (n)
            arr(np.int64, flags="C_CONTIGUOUS"),    # match (n), written
        ]
        self._match = match
        self._topolb = {}
        for dtype, sfx in ((np.float32, "f32"), (np.float64, "f64")):
            init = getattr(lib, f"topolb_init_{sfx}")
            init.restype = None
            cycle = getattr(lib, f"topolb_cycle_{sfx}")
            cycle.restype = i64
            for fn in (init, cycle):
                fn.argtypes = [ctypes.POINTER(TopoLBState)]
            self._topolb[np.dtype(dtype)] = (init, cycle)

    def topolb(self, dtype) -> tuple:
        """``(init, cycle)`` TopoLB entry points for a float32/float64 fest
        table; each takes ``ctypes.byref`` of a :class:`TopoLBState`."""
        return self._topolb[np.dtype(dtype)]

    def sweep(self, cost, dist, assign, indptr, indices, weights, perm,
              best_b, best_val, valid, stats) -> bool:
        n, p = cost.shape
        rc = self._fn(n, p, cost, dist, assign, indptr, indices, weights,
                      perm, best_b, best_val, valid, stats)
        if rc < 0:  # pragma: no cover - allocation failure inside C
            raise MemoryError("refine_sweep_incremental scratch allocation")
        return bool(rc)

    def heavy_edge_matching(self, indptr, indices, weights,
                            perm) -> np.ndarray:
        """``match`` for a CSR graph visited in ``perm`` order."""
        n = len(perm)
        match = np.empty(n, dtype=np.int64)
        self._match(
            n,
            np.ascontiguousarray(indptr, dtype=np.int64),
            np.ascontiguousarray(indices, dtype=np.int64),
            np.ascontiguousarray(weights, dtype=np.float64),
            np.ascontiguousarray(perm, dtype=np.int64),
            match,
        )
        return match


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    uid = getattr(os, "getuid", lambda: 0)()
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def _build() -> NativeKernels | None:
    cc = _compiler()
    if cc is None:
        return None
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(
        source + repr((_CFLAGS, os.path.basename(cc))).encode()
    ).hexdigest()[:16]
    outdir = _cache_dir()
    os.makedirs(outdir, exist_ok=True)
    so_path = os.path.join(outdir, f"refine_kernel_{key}.so")
    if not os.path.exists(so_path):
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=outdir)
        os.close(fd)
        try:
            subprocess.run(
                [cc, *_CFLAGS, "-o", tmp, _SOURCE],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp, so_path)  # atomic: concurrent builds both win
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return NativeKernels(ctypes.CDLL(so_path))


def load() -> NativeKernels | None:
    """The compiled kernels, or ``None`` when unavailable.

    ``REPRO_NO_NATIVE`` is consulted on every call (so tests can flip the
    fallback path with a plain env monkeypatch); the build itself — including
    failure — runs once and is remembered for the life of the process.
    """
    global _cached
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    with _lock:
        if _cached is _UNSET:
            try:
                _cached = _build()
            except Exception:
                _cached = None
        return _cached  # type: ignore[return-value]


def available() -> bool:
    """True when the compiled kernels can be used in this process."""
    return load() is not None
