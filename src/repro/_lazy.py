"""Lazy package namespaces (PEP 562).

A package ``__init__`` that only re-exports names from its submodules
builds its namespace with :func:`lazy_exports` instead of importing
every submodule up front::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        "memo": ["clear_caches", "trace_digest"],
        "stats": ["AccelStats"],
    })

``from repro.accel import trace_digest`` then imports ``repro.accel.memo``
only, on first access, and caches the name in the package's globals so
later lookups never reach ``__getattr__`` again.  Submodules exported as
themselves are listed in *submodules* (``submodules=["npb"]``); every
other name is an attribute of the submodule its table key names.

Importing a submodule binds it as an attribute of its package, so an
exported name that is also a submodule's name (``repro.analysis``'s
``autotune`` function in ``repro.analysis.autotune``) must be imported
eagerly by the ``__init__``: lazily, whichever import of the submodule
came first would leave the module, not the function, under that name.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(namespace: dict[str, Any], table: dict[str, list[str]],
                 submodules: Sequence[str] = ()
                 ) -> tuple[list[str], Callable[[str], Any],
                            Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package whose module
    globals are *namespace*, exporting the *submodules* themselves and
    *table*'s ``{submodule: [names]}``."""
    package = namespace["__name__"]
    origin = {name: sub for sub, names in table.items() for name in names}
    exported = [*submodules, *origin]

    def __getattr__(name: str) -> Any:
        if name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        elif name in origin:
            module = importlib.import_module(f"{package}.{origin[name]}")
            value = getattr(module, name)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exported))

    return exported, __getattr__, __dir__
