"""On-demand package exports (PEP 562).

A package ``__init__`` that imports every submodule makes each process
pay for code it never runs: ``import repro.graph.csr`` used to load the
dynamic-graph store, the write-ahead log and — through them — the
samplers and the metric exporters.  With :func:`lazy_exports` the
package names where each public name lives and the submodule is imported
the first time the name is asked for::

    if TYPE_CHECKING:                      # what mypy and repro.lint read
        from repro.graph.csr import CSRGraph, DegreeStats

    __all__ = ["CSRGraph", "DegreeStats"]

    __getattr__, __dir__ = lazy_exports(
        globals(), csr=("CSRGraph", "DegreeStats")
    )

Adding an export is one name in each of the three places; a name that
is in one and not another fails at import (here) or in
``tests/test_imports.py`` (the ``TYPE_CHECKING`` block).
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict[str, Any], **submodules: tuple[str, ...]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    *namespace*: each keyword names a submodule and the public names it
    provides.  A resolved name is stored in *namespace*, so the hook
    runs once per name."""
    package = namespace["__name__"]
    home = {
        name: f"{package}.{submodule}"
        for submodule, names in submodules.items()
        for name in names
    }
    declared = set(namespace["__all__"])
    mismatch = (declared - set(namespace)) ^ set(home)
    if mismatch:
        raise ImportError(
            f"{package}: __all__ and lazy_exports() disagree on {sorted(mismatch)}"
        )

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted(declared.union(namespace))

    return __getattr__, __dir__
