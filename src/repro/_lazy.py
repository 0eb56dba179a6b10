"""Lazy package exports (PEP 562).

A package whose ``__init__`` re-exports names from modules that many
runs never execute (the figure runners, the scheduler crossbar, the
sharded engine) declares them here instead of importing them eagerly.
The module loads on first access to one of its names, so ``import
repro.experiments.megaflow`` compiles only what a megaflow run uses.
Every lazy name still resolves to the object its defining module
holds, ``dir(package)`` lists it, and ``from package import *`` binds
it (DESIGN.md §7, "Set-up").

Usage, at the end of a package ``__init__``::

    __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        ".valve": ("FlowValve",),
    })
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    namespace: Dict[str, object],
    modules: Dict[str, Sequence[str]],
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of *package*.

    *modules* maps a module path, relative to *package*, to the names
    the package re-exports from it. A name is imported on first access
    and stored in *namespace* (the package's ``globals()``), so later
    lookups never reach ``__getattr__`` again.
    """
    exports = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
