"""Pluggable scoring kernel backends (``REPRO_KERNEL=python|numpy|native``).

The bit-packed scorers funnel their hot folds through one active
:class:`~repro.core.kernels.protocol.KernelBackend`:

* ``python`` -- the reference backend: the exact loops the scorers ran
  inline before this tier existed, re-expressed over packed word rows.
* ``numpy`` -- vectorized folds over zero-copy views of the packed
  layouts; engineered to be bit-identical to the reference (see
  :mod:`repro.core.kernels.numpy_backend`).
* ``native`` -- a small C shared library (hardware popcount, unrolled
  AND/OR folds) over the same ``array('Q')`` buffers, compiled on
  demand and driven via ctypes (see
  :mod:`repro.core.kernels.native_backend`).

Resolution: the env knob is read once at import,
``auto`` (the default) picks numpy when importable and falls back to
python otherwise -- ``native`` is *opt-in only* (an implicit compile
on first import would surprise operators; request it explicitly).  An
explicit ``REPRO_KERNEL=native`` probes the toolchain and *degrades*
native → numpy → python with a structured ``kernel_fallback`` warning
instead of crashing; ``REPRO_KERNEL=numpy`` without numpy degrades to
python the same way.  :func:`set_backend` / :func:`backend` switch
process-wide at runtime (scorers capture the active backend at
construction, so a mid-step switch never mixes backends within one
scorer).

The active backend is observable: the ``repro_kernel_backend``
info-style gauge (1 for the active backend, 0 for the others --
``native`` included), the ``kernel=`` attribute on scoring spans, and
the ``kernel`` field of ``/healthz``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from ...observability import log as _log
from ...observability import metrics as _metrics
from .masktable import MaskTable, full_row, row_int, words_for, zero_row
from .protocol import KernelBackend, MaskedValue, SPARSE_KINDS
from .reference import PythonKernel

__all__ = [
    "KernelBackend",
    "MaskedValue",
    "MaskTable",
    "PythonKernel",
    "SPARSE_KINDS",
    "MODE_PYTHON",
    "MODE_NUMPY",
    "MODE_NATIVE",
    "active_backend",
    "get_backend",
    "set_backend",
    "backend",
    "full_row",
    "row_int",
    "words_for",
    "zero_row",
    "numpy_available",
    "numpy_unavailable_reason",
    "native_available",
    "native_unavailable_reason",
    "publish_backend_metric",
]

MODE_PYTHON = "python"
MODE_NUMPY = "numpy"
MODE_NATIVE = "native"

_AUTO_WORDS = frozenset({"", "auto", "default"})
_PYTHON_WORDS = frozenset(
    {
        "python",
        "py",
        "reference",
        "ref",
        "legacy",
        "off",
        "0",
        "false",
        "no",
        "disabled",
    }
)
_NUMPY_WORDS = frozenset({"numpy", "np", "fast", "vector", "on", "1", "true", "yes"})
_NATIVE_WORDS = frozenset({"native", "c", "simd", "cffi", "ctypes"})

_KERNEL_BACKEND = _metrics.gauge(
    "repro_kernel_backend",
    "Active scoring kernel backend (info-style: 1 for the active backend).",
    labelnames=("backend",),
)

_LOGGER_NAME = "core.kernels"

_REFERENCE = PythonKernel()

#: Lazily probed backends; ``False`` = probe failed, ``None`` = not
#: probed yet.
_NUMPY_BACKEND: object = None
_NUMPY_ERROR: Optional[str] = None
_NATIVE_BACKEND: object = None
_NATIVE_ERROR: Optional[str] = None


def _numpy_backend() -> Optional[KernelBackend]:
    """The numpy backend instance, or ``None`` when numpy is absent."""
    global _NUMPY_BACKEND, _NUMPY_ERROR
    if _NUMPY_BACKEND is None:
        try:
            from .numpy_backend import NumpyKernel

            _NUMPY_BACKEND = NumpyKernel()
        except Exception as exc:  # ImportError, broken install, ...
            _NUMPY_BACKEND = False
            _NUMPY_ERROR = f"{type(exc).__name__}: {exc}"
    return _NUMPY_BACKEND if _NUMPY_BACKEND is not False else None


def _native_backend() -> Optional[KernelBackend]:
    """The native backend instance, or ``None`` when it can't build."""
    global _NATIVE_BACKEND, _NATIVE_ERROR
    if _NATIVE_BACKEND is None:
        try:
            from .native_backend import NativeKernel

            _NATIVE_BACKEND = NativeKernel()
        except Exception as exc:  # no compiler, dlopen failure, ...
            _NATIVE_BACKEND = False
            _NATIVE_ERROR = f"{type(exc).__name__}: {exc}"
    return _NATIVE_BACKEND if _NATIVE_BACKEND is not False else None


def numpy_available() -> bool:
    """Whether the numpy backend can be constructed in this process."""
    return _numpy_backend() is not None


def numpy_unavailable_reason() -> Optional[str]:
    """Why the numpy probe failed (``None`` when it succeeded)."""
    _numpy_backend()
    return _NUMPY_ERROR


def native_available() -> bool:
    """Whether the native backend can be built/loaded in this process."""
    return _native_backend() is not None


def native_unavailable_reason() -> Optional[str]:
    """Why the native probe failed (``None`` when it succeeded)."""
    _native_backend()
    return _NATIVE_ERROR


def _degrade(requested: str, reason: Optional[str]) -> str:
    """Pick the best available backend below ``requested``, loudly."""
    active = MODE_NUMPY if numpy_available() else MODE_PYTHON
    _log.get_logger(_LOGGER_NAME).warning(
        "kernel_fallback requested=%s active=%s reason=%s",
        requested,
        active,
        _log.quote(reason or f"{requested} unavailable"),
    )
    return active


def _resolve_name(raw: str) -> str:
    """Map one ``REPRO_KERNEL`` token to an available backend name."""
    token = raw.strip().lower()
    if token in _PYTHON_WORDS:
        return MODE_PYTHON
    if token in _NUMPY_WORDS:
        if numpy_available():
            return MODE_NUMPY
        _log.get_logger(_LOGGER_NAME).warning(
            "kernel_fallback requested=numpy active=python reason=%s",
            _log.quote(numpy_unavailable_reason() or "numpy unavailable"),
        )
        return MODE_PYTHON
    if token in _NATIVE_WORDS:
        if native_available():
            return MODE_NATIVE
        return _degrade(MODE_NATIVE, native_unavailable_reason())
    if token not in _AUTO_WORDS:
        _log.get_logger(_LOGGER_NAME).warning(
            "kernel_unknown requested=%s resolution=auto", _log.quote(raw)
        )
    return MODE_NUMPY if numpy_available() else MODE_PYTHON


def publish_backend_metric() -> None:
    """(Re-)export the ``repro_kernel_backend`` info gauge."""
    active = _BACKEND_NAME
    for name in (MODE_PYTHON, MODE_NUMPY, MODE_NATIVE):
        _KERNEL_BACKEND.set(1.0 if name == active else 0.0, backend=name)


def active_backend() -> str:
    """Name of the backend currently in effect."""
    return _BACKEND_NAME


def get_backend() -> KernelBackend:
    """The active backend object (scorers capture it at construction)."""
    if _BACKEND_NAME == MODE_NATIVE:
        resolved = _native_backend()
        if resolved is not None:
            return resolved
    if _BACKEND_NAME in (MODE_NUMPY, MODE_NATIVE):
        resolved = _numpy_backend()
        if resolved is not None:
            return resolved
    return _REFERENCE


def set_backend(name: str) -> str:
    """Switch kernel backends process-wide; returns the resolved name.

    Accepts the same tokens as ``REPRO_KERNEL`` and degrades the same
    way (native requested but unbuildable → numpy → python, with a
    warning), so callers can thread raw config values straight
    through.
    """
    global _BACKEND_NAME
    _BACKEND_NAME = _resolve_name(str(name))
    publish_backend_metric()
    return _BACKEND_NAME


@contextmanager
def backend(temporary: str) -> Iterator[str]:
    """Temporarily switch backends (tests and differentials)."""
    previous = active_backend()
    resolved = set_backend(temporary)
    try:
        yield resolved
    finally:
        set_backend(previous)


_BACKEND_NAME: str = _resolve_name(os.environ.get("REPRO_KERNEL", "auto"))
publish_backend_metric()
