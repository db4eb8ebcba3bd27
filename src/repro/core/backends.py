"""Pluggable compiled-kernel backends for the hot loops.

Every performance-critical inner loop of the reproduction — the
wavefront kernel's level recurrence (:mod:`repro.core.kernels`, the hot
loop of :mod:`repro.sim.engine`), the banded
correlation store's masked symmetric gathers
(:mod:`repro.estimators.correlation`) and the Clark moment-propagation
fold (:func:`repro.core.kernels.propagate_moments`) — bottoms out in
NumPy dispatch over many small per-level or per-window arrays.  This
module is the seam that lets those loops run as *fused compiled kernels*
instead, without changing any caller-visible semantics:

``numpy``
    The reference implementation that lives at each call site.  Always
    available, always the bit-reference of the differential tests.  The
    registry returns no callable for it — callers simply keep their
    vectorised NumPy path.

``numba``
    JIT-compiled fused loops (lazy ``@njit``, compiled on first use).
    The fused gather and the level recurrence perform *exactly* the same
    floating-point operations in the same order as the NumPy reference,
    so they are bit-identical.  The JIT Clark fold uses ``math.erfc``
    where the batched reference uses ``scipy.special.erfc`` and therefore
    matches to ulp-level rounding (≤ 1e-9 in the differential tests),
    exactly like the scalar reference it mirrors.

Selection precedence (the rule of every setting, see :mod:`repro.options`)::

    explicit argument  >  REPRO_KERNEL_BACKEND  >  "numpy"

Unrecognised ``REPRO_KERNEL_BACKEND`` values warn **once** per process
and fall back to ``numpy`` — a misspelt environment variable must not
kill a long batch job mid-run.  Explicit arguments are validated
strictly (a typo in code is a bug).

Graceful per-function fallback: :func:`get_kernel` returns ``None``
whenever a backend cannot serve an operation — backend not installed,
compilation failed, operation not ported — after warning once per
``(backend, op)`` pair.  Callers treat ``None`` (and any runtime failure
of a returned kernel) as "use the NumPy reference", so a missing compiler
degrades to exactly the behaviour the tier-1 suite tests.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Dict, Optional, Tuple

from ..exceptions import GraphError
from ..options import KNOBS, resolve

__all__ = [
    "KERNEL_BACKENDS",
    "DEFAULT_KERNEL_BACKEND",
    "normalize_kernel_backend",
    "env_kernel_backend",
    "resolve_kernel_backend",
    "backend_available",
    "kernel_backend_status",
    "get_kernel",
]

#: The compiled-kernel backends of the hot loops.
KERNEL_BACKENDS = KNOBS["KERNEL_BACKEND"].choices

#: The always-available reference backend.
DEFAULT_KERNEL_BACKEND = "numpy"

#: Operations a backend may serve (callers fall back per function).
KERNEL_OPS = ("band_gather", "propagate", "moment_fold")

#: ``(backend, op)`` pairs already warned about falling back to NumPy.
_WARNED_FALLBACKS: set = set()

#: Cached availability probes, keyed by backend name.
_AVAILABLE: Dict[str, bool] = {}

#: Cached per-``(backend, op)`` compiled callables (``None`` = fallback).
_OPS: Dict[Tuple[str, str], Optional[Callable]] = {}

#: Cached op tables built by the per-backend builders.
_TABLES: Dict[str, Optional[Dict[str, Callable]]] = {}

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normalize_kernel_backend(name) -> str:
    """Validate a kernel-backend name (strict: typos in code are bugs)."""
    return KNOBS["KERNEL_BACKEND"].parse(name, "kernel backend")


def env_kernel_backend(default: Optional[str] = None) -> Optional[str]:
    """``REPRO_KERNEL_BACKEND``, else ``default`` (an unrecognised value warns once)."""
    return resolve("KERNEL_BACKEND", fallback=default)


def resolve_kernel_backend(name: Optional[str] = None) -> str:
    """Resolve the backend knob: explicit arg > environment > ``numpy``."""
    return resolve("KERNEL_BACKEND", name, DEFAULT_KERNEL_BACKEND)


# ----------------------------------------------------------------------
# Capability probing
# ----------------------------------------------------------------------

def _probe(name: str) -> bool:
    if name == "numpy":
        return True
    if name == "numba":
        try:
            import numba  # noqa: F401
        except Exception:
            return False
        return True
    return False


def backend_available(name: str) -> bool:
    """Whether a backend's runtime requirements are met (cached probe)."""
    name = normalize_kernel_backend(name)
    cached = _AVAILABLE.get(name)
    if cached is None:
        cached = _probe(name)
        _AVAILABLE[name] = cached
    return cached


def kernel_backend_status() -> Dict[str, bool]:
    """Availability of every registered backend (probing as needed)."""
    return {name: backend_available(name) for name in KERNEL_BACKENDS}


def _reset_backend_state() -> None:
    """Drop every cached probe/compile/warn record (test hook)."""
    _AVAILABLE.clear()
    _OPS.clear()
    _TABLES.clear()
    KNOBS["KERNEL_BACKEND"].warned.clear()
    _WARNED_FALLBACKS.clear()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def _warn_fallback(backend: str, op: str, reason: str) -> None:
    key = (backend, op)
    if key in _WARNED_FALLBACKS:
        return
    _WARNED_FALLBACKS.add(key)
    warnings.warn(
        f"kernel backend {backend!r} cannot serve {op!r} ({reason}); "
        f"falling back to the NumPy reference",
        RuntimeWarning,
        stacklevel=3,
    )


def _table_for(backend: str) -> Optional[Dict[str, Callable]]:
    if backend in _TABLES:
        return _TABLES[backend]
    table: Optional[Dict[str, Callable]] = None
    try:
        if backend == "numba":
            table = _build_numba_ops()
    except Exception:
        table = None
    _TABLES[backend] = table
    return table


def get_kernel(op: str, backend: Optional[str] = None) -> Optional[Callable]:
    """The compiled kernel of one operation, or ``None`` to use NumPy.

    ``backend=None`` resolves through :func:`resolve_kernel_backend`.
    A ``None`` return means the caller should run its NumPy reference:
    the backend is ``numpy`` itself, is not installed, or does not
    implement the operation — each non-``numpy`` miss warns
    once per ``(backend, op)`` pair.
    """
    if op not in KERNEL_OPS:
        raise GraphError(f"unknown kernel op {op!r}; expected one of {KERNEL_OPS}")
    resolved = resolve_kernel_backend(backend)
    if resolved == "numpy":
        return None
    key = (resolved, op)
    if key in _OPS:
        return _OPS[key]
    fn: Optional[Callable] = None
    if not backend_available(resolved):
        _warn_fallback(resolved, op, "backend unavailable")
    else:
        table = _table_for(resolved)
        if table is None:
            _warn_fallback(resolved, op, "backend failed to initialise")
        else:
            fn = table.get(op)
            if fn is None:
                _warn_fallback(resolved, op, "operation not ported")
    _OPS[key] = fn
    return fn


# ----------------------------------------------------------------------
# numba backend
# ----------------------------------------------------------------------
#
# Bit-identity notes (load-bearing — the differential tests pin these):
#
# * ``band_gather`` is pure data movement and therefore bit-identical to
#   the chunked NumPy gather by construction.
# * ``propagate`` runs max/add in the buffer dtype, exactly like the
#   NumPy fold's row gathers, ``np.maximum`` and ``np.add``.  The Monte
#   Carlo batch it sweeps is sampled by the one NumPy sampler of
#   :mod:`repro.sim.engine` on every backend, so seeded estimates are
#   bit-identical across kernel backends.
# * ``moment_fold`` mirrors the scalar Clark fold; ``math.erfc`` and
#   ``scipy.special.erfc`` agree to ulp-level rounding, hence the ≤1e-9
#   (not bit-exact) contract for this op.


def _build_numba_ops() -> Dict[str, Callable]:
    import numba

    njit = numba.njit(cache=False, fastmath=False, nogil=True)

    sqrt2 = _SQRT2
    inv_sqrt_2pi = _INV_SQRT_2PI

    @njit
    def band_gather(
        out,
        data,
        rows,
        cols,
        col_off,
        col_wid,
        col_ptr,
        row_off,
        row_wid,
        row_ptr,
    ):
        m, w = out.shape
        for i in range(m):
            r = rows[i]
            off_r = row_off[r]
            wid_r = row_wid[r]
            ptr_r = row_ptr[r]
            for j in range(w):
                rel_r = cols[j] - off_r
                if 0 <= rel_r < wid_r:
                    out[i, j] = data[ptr_r + rel_r]
                else:
                    rel_c = r - col_off[j]
                    if 0 <= rel_c < col_wid[j]:
                        out[i, j] = data[col_ptr[j] + rel_c]
                    else:
                        out[i, j] = 0.0

    @njit
    def propagate(
        buffer,
        trials,
        group_start,
        group_stop,
        group_width,
        group_ptr,
        group_preds,
        scratch,
    ):
        for g in range(group_start.shape[0]):
            start = group_start[g]
            stop = group_stop[g]
            width = group_width[g]
            base = group_ptr[g]
            for i in range(stop - start):
                r = start + i
                row_base = base + i * width
                p0 = group_preds[row_base]
                for t in range(trials):
                    scratch[t] = buffer[p0, t]
                for j in range(1, width):
                    pj = group_preds[row_base + j]
                    for t in range(trials):
                        v = buffer[pj, t]
                        if v > scratch[t]:
                            scratch[t] = v
                for t in range(trials):
                    buffer[r, t] = buffer[r, t] + scratch[t]

    @njit
    def clark_max(mean1, var1, mean2, var2):
        a = math.sqrt(max(var1 + var2, 0.0))
        if a == 0.0:
            if mean1 >= mean2:
                return mean1, var1
            return mean2, var2
        alpha = (mean1 - mean2) / a
        phi = inv_sqrt_2pi * math.exp(-0.5 * alpha * alpha)
        cdf_pos = 0.5 * math.erfc(-alpha / sqrt2)
        cdf_neg = 0.5 * math.erfc(alpha / sqrt2)
        first = mean1 * cdf_pos + mean2 * cdf_neg + a * phi
        second = (
            (mean1 * mean1 + var1) * cdf_pos
            + (mean2 * mean2 + var2) * cdf_neg
            + (mean1 + mean2) * a * phi
        )
        variance = max(0.0, second - first * first)
        return first, variance

    @njit
    def moment_fold(
        mean_buf,
        var_buf,
        group_start,
        group_stop,
        group_width,
        group_ptr,
        group_preds,
    ):
        for g in range(group_start.shape[0]):
            start = group_start[g]
            stop = group_stop[g]
            width = group_width[g]
            base = group_ptr[g]
            for i in range(stop - start):
                r = start + i
                row_base = base + i * width
                p0 = group_preds[row_base]
                mean = mean_buf[p0]
                var = var_buf[p0]
                for j in range(1, width):
                    pj = group_preds[row_base + j]
                    mean, var = clark_max(mean, var, mean_buf[pj], var_buf[pj])
                mean_buf[r] = mean_buf[r] + mean
                var_buf[r] = var_buf[r] + var

    return {
        "band_gather": band_gather,
        "propagate": propagate,
        "moment_fold": moment_fold,
    }
