"""Generic key → builder registries backing the declarative spec layer.

Every spec-able family (protocols, arrival strategies, jamming strategies,
whole adversaries, rate functions, metric reducers) is one
:class:`SpecRegistry`: a mapping from a stable string *kind* to its builder.
A kind's parameters are its builder's keyword parameters, with their
defaults; a parameter without a default is required, and the builder's
docstring describes the kind.  Validation and construction both go through
the registries, so nothing in the execution path needs to import concrete
classes to interpret a spec.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Tuple

from ..errors import SpecError

__all__ = ["SpecRegistry"]

#: builder, its parameter names, and the required ones (sorted)
_Entry = Tuple[Callable[..., Any], FrozenSet[str], Tuple[str, ...]]


class SpecRegistry:
    """Name-indexed collection of spec builders.

    ``context`` names builder arguments that every build passes from
    outside the spec (the adversary registries' ``horizon``); they are not
    spec parameters.
    """

    def __init__(self, label: str, context: Tuple[str, ...] = ()) -> None:
        self._label = label
        self._context = frozenset(context)
        self._entries: Dict[str, _Entry] = {}

    def register(self, kind: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering a builder under ``kind``.

        The signature is read once, here: binding it on every validation
        would cost more than the check itself.
        """

        def decorate(builder: Callable[..., Any]) -> Callable[..., Any]:
            if kind in self._entries:
                raise SpecError(f"duplicate {self._label} kind {kind!r}")
            params = [
                param
                for param in inspect.signature(builder).parameters.values()
                if param.name not in self._context
            ]
            self._entries[kind] = (
                builder,
                frozenset(param.name for param in params),
                tuple(sorted(p.name for p in params if p.default is p.empty)),
            )
            return builder

        return decorate

    def _entry(self, kind: str) -> _Entry:
        try:
            return self._entries[kind]
        except KeyError as exc:
            raise SpecError(
                f"unknown {self._label} kind {kind!r}; known: "
                f"{', '.join(sorted(self._entries))}"
            ) from exc

    def validate(self, kind: str, params: Mapping[str, Any]) -> None:
        """Raise :class:`SpecError` unless ``params`` fit ``kind``'s builder."""
        _, known, required = self._entry(kind)
        if not isinstance(params, Mapping):
            raise SpecError(
                f"{self._label} kind {kind!r}: params must be a mapping, "
                f"got {params!r}"
            )
        unknown = sorted(set(params) - known)
        if unknown:
            raise SpecError(
                f"unknown parameter(s) {', '.join(unknown)} for kind "
                f"{kind!r}; known: {', '.join(sorted(known)) or '(none)'}"
            )
        missing = [name for name in required if name not in params]
        if missing:
            raise SpecError(
                f"kind {kind!r} requires parameter(s): {', '.join(missing)}"
            )

    def build(self, kind: str, params: Optional[Mapping[str, Any]] = None, **context):
        """Validate ``params`` and call the builder with ``context`` beside them."""
        params = dict(params or {})
        self.validate(kind, params)
        return self._entries[kind][0](**params, **context)

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted(self._entries))

    def __contains__(self, kind: str) -> bool:
        return kind in self._entries

    def __iter__(self):
        return iter(self.kinds())
