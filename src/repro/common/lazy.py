"""Package attributes imported on first access.

A package ``__init__`` re-exports the public names of its modules, so
``import repro.X`` loads every one of them.  :func:`lazy_exports` builds
the module-level ``__getattr__`` (PEP 562) that loads a heavy module only
when one of its names is first read: ``from repro.X import Y``,
``repro.X.Y`` and ``__all__`` keep working, and the value is then cached
in the package.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Mapping[str, str]) -> Callable[[str], Any]:
    """The ``__getattr__`` of ``package`` that imports ``exports[name]``
    (a module path) when ``name`` is first read."""

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
