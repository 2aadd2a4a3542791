"""Array-module selection: the multi-backend axis of the roadmap.

The paper's implementation targets CUDA directly; this reproduction keeps
every kernel expressed as array operations so the *same code* can execute on
any module exposing the NumPy API.  Engines obtain an :class:`Ops` handle
from :func:`backend_ops` — the array module ``xp`` plus explicit
``to_device`` / ``to_host`` transfer seams — and route their allocations and
bulk operations through it:

- ``"numpy"`` (default) — always available, runs everywhere; transfers are
  identity functions, so host engines bind live network arrays directly;
- ``"guard"`` — always available; NumPy semantics (bit-identical results)
  but every array is tagged device-resident, transfers/allocations are
  counted, and implicit host/device mixing raises
  :class:`~repro.errors.BackendError`.  This is the CI-testable stand-in
  for a GPU: the device-discipline contract holds on CPU-only runners;
- ``"cupy"`` — used when CuPy is importable and a CUDA device is present,
  giving the kernels a GPU execution path without code changes.

Selection order: an explicit :func:`set_backend` call wins, then the
``REPRO_BACKEND`` environment variable, then the numpy default.  Unknown or
unavailable backends raise :class:`~repro.errors.ConfigurationError` rather
than silently falling back, so a run that *believes* it is on the GPU
actually is.

Helpers:

- :func:`asnumpy` — move an array back to host memory regardless of origin,
  dispatched via the owning backend's own converter (identity for numpy);
- :func:`backend_name` — the name of the module :func:`get_array_module`
  currently resolves to (for logs and benchmark metadata);
- :func:`backend_ops` — the :class:`Ops` handle for the active (or a named)
  backend;
- :func:`use_backend` — context manager scoping a backend selection;
- :func:`reset_backend_cache` — forget probe results and cached modules so
  tests (or a newly hot-plugged driver stack) can re-probe.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

import numpy

from repro.backend.ops import Ops, build_ops
from repro.errors import ConfigurationError

__all__ = [
    "available_backends",
    "asnumpy",
    "coerce_float64",
    "backend_name",
    "backend_ops",
    "get_array_module",
    "reset_backend_cache",
    "set_backend",
    "use_backend",
    "Ops",
]

#: Environment variable consulted when no backend was set programmatically.
ENV_VAR = "REPRO_BACKEND"

#: Names this package knows how to resolve (availability still varies).
KNOWN_BACKENDS = ("numpy", "guard", "cupy")

#: Explicit programmatic selection (None = fall through to env / default).
_selected: Optional[str] = None

#: Cache of successfully imported backend modules, keyed by name.
_modules = {"numpy": numpy}

#: Cached CuPy probe failure (message), or None when CuPy has not been
#: probed yet / imported fine.  Without it every ``available_backends()``
#: call — the CLI renders the capability table on each invocation — would
#: re-pay the failed import machinery (path scans, ImportError raising).
#: :func:`reset_backend_cache` clears it so a process whose device stack
#: changed (or a test faking one) can re-probe.
_cupy_unavailable: Optional[str] = None

#: Cached Ops handles, keyed by backend name.
_ops_cache: Dict[str, Ops] = {}


def _import_guard():
    """Import the always-available guard backend (see :mod:`.guard`)."""
    if "guard" in _modules:
        return _modules["guard"]
    from repro.backend import guard

    _modules["guard"] = guard
    return guard


def _import_cupy():
    """Import CuPy and verify a CUDA device answers; cache either outcome."""
    global _cupy_unavailable
    if "cupy" in _modules:
        return _modules["cupy"]
    if _cupy_unavailable is not None:
        raise ConfigurationError(_cupy_unavailable)
    try:
        import cupy  # noqa: F401 — optional dependency, never installed here

        cupy.cuda.runtime.getDeviceCount()
    except Exception as exc:  # lint-ok: R5 — any import failure means "unavailable"
        _cupy_unavailable = f"backend 'cupy' requested but unavailable: {exc!r}"
        raise ConfigurationError(_cupy_unavailable) from exc
    _modules["cupy"] = cupy
    return cupy


def _resolve(name: str):
    name = name.strip().lower()
    if name == "numpy":
        return _modules["numpy"]
    if name == "guard":
        return _import_guard()
    if name == "cupy":
        return _import_cupy()
    raise ConfigurationError(
        f"unknown array backend {name!r}; choose from {KNOWN_BACKENDS}"
    )


def _active_name() -> str:
    """Normalised name of the active backend, validating env selections."""
    if _selected is not None:
        return _selected
    env = os.environ.get(ENV_VAR)
    if env:
        name = env.strip().lower()
        _resolve(name)  # unknown/unavailable env selections must not pass silently
        return name
    return "numpy"


def available_backends() -> Tuple[str, ...]:
    """Backends that can actually be activated in this process."""
    names = ["numpy", "guard"]
    try:
        _import_cupy()
        names.append("cupy")
    except ConfigurationError:
        pass
    return tuple(names)


def reset_backend_cache() -> None:
    """Forget probe results, cached modules and cached Ops handles.

    The failed-CuPy probe message is otherwise cached for the lifetime of
    the process; tests that install a fake ``cupy`` (or a machine whose
    driver stack just came up) call this to force a fresh probe.  The
    ``numpy`` entry is permanent — it is the fallback everything else is
    defined against.
    """
    global _cupy_unavailable
    _cupy_unavailable = None
    for name in list(_modules):
        if name != "numpy":
            del _modules[name]
    _ops_cache.clear()


def set_backend(name: Optional[str]):
    """Select the array backend programmatically (``None`` clears the choice).

    Returns the resolved module so callers can do
    ``xp = set_backend("numpy")``.
    """
    global _selected
    if name is None:
        _selected = None
        return get_array_module()
    module = _resolve(name)  # validate before committing
    _selected = name.strip().lower()
    return module


@contextmanager
def use_backend(name: Optional[str]) -> Iterator[object]:
    """Scope a programmatic backend selection to a ``with`` block.

    ``None`` is a no-op scope (the ambient selection stays active), which
    lets callers thread an optional config field straight through.
    """
    global _selected
    previous = _selected
    if name is not None:
        set_backend(name)
    try:
        yield get_array_module()
    finally:
        _selected = previous


def get_array_module():
    """The active array module: explicit choice > ``REPRO_BACKEND`` > numpy."""
    return _resolve(_active_name())


def backend_name() -> str:
    """Name of the module :func:`get_array_module` currently resolves to.

    Derived from the resolved module itself rather than assuming "anything
    that is not numpy must be cupy" — a module may carry an explicit
    ``__backend_name__`` (the guard backend does), otherwise the top-level
    module name is used.
    """
    module = get_array_module()
    explicit = getattr(module, "__backend_name__", None)
    if explicit is not None:
        return str(explicit)
    return str(module.__name__).partition(".")[0]


def backend_ops(name: Optional[str] = None) -> Ops:
    """The :class:`Ops` handle for *name* (default: the active backend)."""
    key = name.strip().lower() if name is not None else _active_name()
    ops = _ops_cache.get(key)
    if ops is None:
        module = _resolve(key)
        ops = build_ops(key, module)
        _ops_cache[key] = ops
    return ops


def asnumpy(array):
    """Return *array* as a host :class:`numpy.ndarray`.

    Dispatches via the owning backend's own converter — each non-numpy
    backend module declares the array type it owns and how to download it —
    rather than matching ``type(array).__module__`` strings.  The identity
    for plain numpy arrays.
    """
    if type(array) is not numpy.ndarray:  # plain arrays load no backend module
        guard = _import_guard()
        if isinstance(array, guard.GuardArray):
            return guard.asnumpy(array)
        cupy = _modules.get("cupy")
        if cupy is not None and isinstance(array, cupy.ndarray):  # pragma: no cover
            return cupy.asnumpy(array)
    # Only plain host arrays reach this line: every device-owning backend
    # was dispatched above, so there is no residency left to strip.
    return numpy.asarray(array)  # lint-ok: R8


def coerce_float64(values):
    """Coerce to float64 without discarding array subclasses.

    ``np.asarray`` does not dispatch ``__array_function__`` and silently
    strips ndarray subclasses — it would drop a device-resident operand
    (the guard backend's residency marker) onto the host as plain data.
    ``astype`` preserves the subclass, so a device array that illegally
    reaches host-only code fails loudly at the next host/device mix
    instead of corrupting silently.  Host-contract layers (quantizer,
    conductance storage, LIF state) coerce their inputs through this.
    """
    if isinstance(values, numpy.ndarray):
        if values.dtype == numpy.float64:
            return values
        return values.astype(numpy.float64)
    # Non-array input (list/tuple/scalar) carries no residency to strip.
    return numpy.asarray(values, dtype=numpy.float64)  # lint-ok: R8
