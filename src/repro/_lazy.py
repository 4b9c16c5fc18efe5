"""On-demand package exports (PEP 562).

A package ``__init__`` that imports every submodule makes each process
pay for code it never runs: ``import repro.graph.csr`` used to load the
dynamic-graph store, the write-ahead log and — through them — the
samplers and the metric exporters.  With :func:`lazy_exports` the
package states once where each public name lives, and the submodule is
imported the first time the name is asked for::

    __all__, __getattr__, __dir__ = lazy_exports(
        globals(), csr=("CSRGraph", "DegreeStats")
    )

That call is the single declaration: ``__all__`` is derived from it,
and ``repro.lint``'s alias index reads the same keyword groups from the
source (``lint/flow/ir.py``), so adding an export is one name in one
place.  ``tests/test_imports.py`` checks that every declared name
resolves from its stated submodule.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict[str, Any], **submodules: tuple[str, ...]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package whose
    ``globals()`` is *namespace*: each keyword names a submodule and the
    public names it provides.  A resolved name is stored in *namespace*,
    so the hook runs once per name.  A name stated under two submodules
    fails at import."""
    package = namespace["__name__"]
    names = [name for group in submodules.values() for name in group]
    home = {
        name: f"{package}.{submodule}"
        for submodule, group in submodules.items()
        for name in group
    }
    if len(home) != len(names):
        twice = sorted({name for name in names if names.count(name) > 1})
        raise ImportError(f"{package}: lazy_exports() states {twice} twice")

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
        return sorted(home.keys() | namespace.keys())

    return names, __getattr__, __dir__
