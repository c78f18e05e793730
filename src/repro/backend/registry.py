"""Backend registry: name -> :class:`ArrayBackend` factory.

Backends register a zero-argument factory; instances are created once
and cached (they are stateless).  The built-in ``numpy`` and ``python``
backends always register; NumPy stands in for the paper's GPU.

Registering a new backend from user code::

    from repro.backend import ArrayBackend, register_backend

    class MyBackend(ArrayBackend):
        name = "mine"
        ...

    register_backend("mine", MyBackend)
    RouterConfig.fastgr_l(backend="mine")
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.backend.base import ArrayBackend

_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register ``factory`` under ``name`` (replaces any previous one)."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_backends() -> List[str]:
    """Names of every registered backend, sorted."""
    return sorted(_FACTORIES)


def get_backend(name: str) -> ArrayBackend:
    """Return the (cached) backend instance registered under ``name``."""
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown array backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]


def _register_builtins() -> None:
    from repro.backend.numpy_backend import NumpyBackend
    from repro.backend.python_backend import PythonBackend

    register_backend("numpy", NumpyBackend)
    register_backend("python", PythonBackend)


_register_builtins()


__all__ = ["available_backends", "get_backend", "register_backend"]
