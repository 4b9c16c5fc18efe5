"""Counters declared once.

A stats class is a plain dataclass whose fields are declared where they
are defined, through the four helpers below: help text, exported series
name (``<class prefix>_<field>`` unless given), fold, export kind and
whether a checkpoint carries the value.  :class:`Counted` derives the
rest — ``merge``, ``pack`` / ``unpack`` and the projection into a
:class:`MetricsRegistry` — so adding a counter is one line.  The store
stays plain instance attributes: the helpers only attach
``dataclasses.field`` metadata, nothing intercepts a read or a write.

Folds (docs/INTERNALS.md section 15 has the table): ``sum``, ``max``,
``series`` (lists aligned by position add), ``samples`` (lists
concatenate), ``same`` (sources must agree), ``group`` (a nested stats
object folds field by field) and ``keep`` (a live reference to counters
owned elsewhere, never folded).  ``None`` is "no value": a ``None``
source folds nothing, a ``None`` accumulator adopts the source.

Leaf module: imports nothing from core, cluster, sampling or graph.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Any, Callable

import numpy as np

from ..errors import ObsError, SnapshotError
from .metrics import MetricsRegistry

__all__ = ["Counted", "counter", "series", "group", "state"]

_KEY = "counted"


@dataclasses.dataclass(frozen=True)
class _Decl:
    fold: str
    help: str = ""
    export: str | None = ""  # "": <prefix>_<field>; None: the class writes it
    kind: str = "counter"
    packed: bool = False
    integral: bool = True
    keyed: str | None = None
    buckets: tuple[float, ...] = ()
    labels: tuple[tuple[str, str], ...] = ()


def _field(default: Any, decl: _Decl | None) -> Any:
    where = "default_factory" if callable(default) else "default"
    return dataclasses.field(metadata={_KEY: decl}, **{where: default})


def counter(
    help: str,
    *,
    export: str | None = "",
    fold: str = "sum",
    kind: str = "counter",
    packed: bool = True,
    default: Any = 0,
    keyed: str | None = None,
    **labels: str,
) -> Any:
    """A numeric field.  ``export=None``: the class writes the series
    itself.  ``default=0.0`` declares a float (anything else packs as
    an integer).  ``keyed="reason"`` declares a ``dict`` or per-node
    array exported as one sample per key under that label (a checkpoint
    stores those as arrays of their own, not in ``pack``)."""
    integral = not isinstance(default, float)
    packed = packed and keyed is None
    pairs = tuple(labels.items())
    decl = _Decl(fold, help, export, kind, packed, integral, keyed, labels=pairs)
    return _field(default, decl)


def series(help: str, buckets: tuple[float, ...], *, fold: str, export: str) -> Any:
    """A list of observations exported as a histogram; ``fold`` is
    ``"series"`` (aligned by position) or ``"samples"`` (a bag)."""
    return _field(list, _Decl(fold, help, export, "histogram", buckets=buckets))


def group(factory: Callable[[], Any] | None, *, fold: str = "group") -> Any:
    """A nested stats object; ``factory=None`` starts it absent (and
    out of ``pack``, like every ``keep``)."""
    packed = fold == "group" and factory is not None
    return _field(factory, _Decl(fold, export=None, packed=packed))


def state(default: Any) -> Any:
    """Explicitly not a counter: identity, configuration or state the
    derivations leave alone."""
    return _field(default, None)


def _sum(mine: Any, theirs: Any) -> Any:
    if not isinstance(mine, dict):
        return mine + theirs
    for key, count in theirs.items():
        mine[key] = mine.get(key, 0) + count
    return mine


_FOLDS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": _sum,
    "max": max,
    "series": lambda mine, theirs: [
        a + b for a, b in itertools.zip_longest(mine, theirs, fillvalue=0)
    ],
    "samples": lambda mine, theirs: mine + theirs,
}


class Counted:
    """Base of every stats dataclass: the three derivations."""

    _prefix = ""

    def __init_subclass__(cls, prefix: str | None = None, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if prefix is not None:
            cls._prefix = prefix

    @classmethod
    @functools.cache
    def declarations(cls) -> dict[str, _Decl | None]:
        """Field name → declaration (``None`` for :func:`state`), in
        field order.  A field declared through none of the helpers is a
        :class:`TypeError`: a counter cannot be added half-way."""
        declared = {}
        for spec in dataclasses.fields(cls):  # type: ignore[arg-type]
            if _KEY not in spec.metadata:
                raise TypeError(
                    f"{cls.__name__}.{spec.name} is not declared: use counter / "
                    "series / group, or state() if it is not a counter"
                )
            decl = spec.metadata[_KEY]
            if decl is not None and decl.export == "":
                export = f"{cls._prefix}_{spec.name}"
                decl = dataclasses.replace(decl, export=export)
            declared[spec.name] = decl
        return declared

    def _declared(self) -> list[tuple[str, _Decl, Any]]:
        """(field, declaration, value) of every counter that has a value."""
        fields = ((n, d, getattr(self, n)) for n, d in self.declarations().items())
        return [(n, d, v) for n, d, v in fields if d is not None and v is not None]

    def merge(self, other: Any) -> None:
        """Fold ``other`` in, field by field, by the declared folds."""
        for name, decl, theirs in other._declared():
            mine = getattr(self, name)
            if mine is None:
                setattr(self, name, theirs)
            elif decl.fold == "group":
                mine.merge(theirs)
            elif decl.fold in _FOLDS:
                setattr(self, name, _FOLDS[decl.fold](mine, theirs))
            elif decl.fold == "same" and mine != theirs:
                raise ObsError(
                    f"{type(self).__name__}.{name} differs across merged "
                    f"sources: {mine!r} vs {theirs!r}"
                )
            # "keep" has no branch: the accumulator's reference stands.

    def _slots(self) -> list[tuple[Any, str, bool]]:
        """(owner, field, integral) of every checkpointed scalar, nested
        groups in place — the one order ``pack`` and ``unpack`` share."""
        slots: list[tuple[Any, str, bool]] = []
        for name, decl, value in self._declared():
            if decl.packed and decl.fold == "group":
                slots += value._slots()
            elif decl.packed:
                slots.append((self, name, decl.integral))
        return slots

    def pack(self) -> np.ndarray:
        """Every checkpointed scalar as one array (``int64``, or
        ``float64`` if a float field is among them)."""
        slots = self._slots()
        dtype = np.int64 if all(flag for _, _, flag in slots) else np.float64
        return np.asarray([getattr(owner, name) for owner, name, _ in slots], dtype)

    def unpack(self, values: Any) -> None:
        """Restore :meth:`pack`'s array into this object, in place.
        Nothing is assigned unless the whole array checks out."""
        slots = self._slots()
        array = np.asarray(values)
        ok = array.shape == (len(slots),) and array.dtype.kind in "iuf"
        restored = array.tolist() if ok else []
        for (_, _, integral), value in zip(slots, restored):
            ok = ok and math.isfinite(value) and (not integral or value == int(value))
        if not ok:
            raise SnapshotError(
                f"{type(self).__name__} counters: expected {len(slots)} finite "
                f"numbers, whole where the field is a count, got {array!r}"
            )
        for (owner, name, integral), value in zip(slots, restored):
            setattr(owner, name, int(value) if integral else value)

    def to_registry(
        self, registry: MetricsRegistry | None = None, **labels: str
    ) -> MetricsRegistry:
        """Project every declared field into ``registry`` (a fresh one
        by default) under ``labels``, which keep per-shard or
        per-request series apart.  Subclasses add the few values they
        compute rather than store."""
        reg = registry if registry is not None else MetricsRegistry()
        for _, decl, value in self._declared():
            if decl.fold in ("group", "keep"):
                value.to_registry(reg, **labels)
            elif decl.export is not None:
                _project(reg, decl, value, {**dict(decl.labels), **labels})
        return reg


def _project(reg: MetricsRegistry, decl: _Decl, value: Any, labels: dict) -> None:
    if decl.kind == "histogram":
        histogram = reg.histogram(decl.export, decl.help, decl.buckets, **labels)
        for sample in value:
            histogram.observe(float(sample))
        return
    samples = [(labels, value)]
    if decl.keyed is not None:
        if isinstance(value, dict):  # an empty tally still writes its series
            items = sorted(value.items()) or [("none", 0)]
        else:
            items = enumerate(np.asarray(value).tolist())
        samples = [({decl.keyed: str(key), **labels}, v) for key, v in items]
    for sample_labels, amount in samples:
        if decl.kind == "gauge":
            reg.gauge(decl.export, decl.help, **sample_labels).set(amount)
        else:
            reg.counter(decl.export, decl.help, **sample_labels).inc(amount)
