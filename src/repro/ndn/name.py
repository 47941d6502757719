"""Hierarchical NDN names.

A name is an ordered sequence of components, written in URI form as
``/ndn/k8s/compute/mem=4&cpu=6&app=BLAST``.  Names support prefix tests,
append/slice operations and canonical ordering — everything the FIB's
longest-prefix match and the LIDC semantic naming scheme need.
"""

from __future__ import annotations

import urllib.parse
from functools import total_ordering
from typing import Iterable, Iterator, Union

from repro.exceptions import NameError_

__all__ = ["Component", "Name"]


@total_ordering
class Component:
    """A single name component (a byte string).

    Components are compared canonically: shorter components sort first, equal
    lengths compare lexicographically — the NDN canonical order.
    """

    __slots__ = ("_value", "_hash")

    def __init__(self, value: Union[str, bytes, "Component"]) -> None:
        if isinstance(value, Component):
            self._value = value._value
        elif isinstance(value, bytes):
            self._value = value
        elif isinstance(value, str):
            if not value:
                raise NameError_("empty name component")
            self._value = value.encode("utf-8")
        else:
            raise NameError_(f"cannot build a component from {value!r}")
        if not self._value:
            raise NameError_("empty name component")
        # Components key every trie level of the FIB/CS name tree; caching
        # the hash keeps those dict descents off the bytes-hashing path.
        self._hash = hash(self._value)

    @property
    def value(self) -> bytes:
        """Raw component bytes."""
        return self._value

    def to_str(self) -> str:
        """Best-effort text form (escaped when not valid UTF-8)."""
        try:
            return self._value.decode("utf-8")
        except UnicodeDecodeError:
            return urllib.parse.quote_from_bytes(self._value)

    @classmethod
    def from_escaped(cls, text: str) -> "Component":
        """Parse a URI-escaped component string."""
        if not text:
            raise NameError_("empty name component")
        return cls(urllib.parse.unquote_to_bytes(text))

    def escaped(self) -> str:
        """URI-escaped form used when formatting a name."""
        return urllib.parse.quote(self._value, safe="-_.~=&+:")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Component):
            return self._value == other._value
        if isinstance(other, (str, bytes)):
            return self._value == Component(other)._value
        return NotImplemented

    def __lt__(self, other: "Component") -> bool:
        if not isinstance(other, Component):
            return NotImplemented
        if len(self._value) != len(other._value):
            return len(self._value) < len(other._value)
        return self._value < other._value

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._value)

    def __repr__(self) -> str:
        return f"Component({self.to_str()!r})"


class Name:
    """An immutable hierarchical NDN name."""

    __slots__ = ("_components", "_hash", "_uri")

    def __init__(self, value: "Union[str, Name, Iterable[Union[str, bytes, Component]], None]" = None) -> None:
        components: tuple[Component, ...]
        if value is None:
            components = ()
        elif isinstance(value, Name):
            components = value._components
        elif isinstance(value, str):
            components = tuple(self._parse_uri(value))
        else:
            components = tuple(Component(part) for part in value)
        self._components = components
        self._hash = hash(components)
        # Formatted on first use and kept: a name is immutable, and the
        # trace stamps the same name at every hop of an exchange.
        self._uri: "str | None" = None

    @staticmethod
    def _parse_uri(uri: str) -> Iterator[Component]:
        text = uri.strip()
        if text.startswith("ndn:"):
            text = text[len("ndn:"):]
        if text in ("", "/"):
            return iter(())
        if not text.startswith("/"):
            raise NameError_(f"name URI must start with '/': {uri!r}")
        parts = [part for part in text.split("/") if part != ""]
        return iter(Component.from_escaped(part) for part in parts)

    # -- basic container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[Component]:
        return iter(self._components)

    def __getitem__(self, index: "int | slice") -> "Component | Name":
        if isinstance(index, slice):
            return Name(self._components[index])
        return self._components[index]

    def __bool__(self) -> bool:
        return bool(self._components)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Name):
            return self._components == other._components
        if isinstance(other, str):
            return self == Name(other)
        return NotImplemented

    def __lt__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._components < other._components

    def __le__(self, other: "Name") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return other < self

    def __ge__(self, other: "Name") -> bool:
        return self == other or self > other

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Name({self.to_uri()!r})"

    def __str__(self) -> str:
        return self.to_uri()

    # -- formatting ---------------------------------------------------------------

    def to_uri(self) -> str:
        """Canonical URI form, e.g. ``/ndn/k8s/compute`` (memoised)."""
        uri = self._uri
        if uri is None:
            uri = self._uri = "/" + "/".join(comp.escaped() for comp in self._components)
        return uri

    @property
    def components(self) -> tuple[Component, ...]:
        return self._components

    # -- construction helpers ---------------------------------------------------------

    def append(self, *parts: Union[str, bytes, Component, "Name"]) -> "Name":
        """Return a new name with ``parts`` appended.

        Strings are treated as single components unless they contain ``/``,
        in which case they are parsed as a relative multi-component path.
        """
        new_components = list(self._components)
        for part in parts:
            if isinstance(part, Name):
                new_components.extend(part._components)
            elif isinstance(part, str) and "/" in part:
                new_components.extend(Name("/" + part.strip("/"))._components)
            else:
                new_components.append(Component(part))
        return Name(new_components)

    def prefix(self, n_components: int) -> "Name":
        """The first ``n_components`` components as a new name."""
        if n_components < 0:
            n_components = max(0, len(self) + n_components)
        return Name(self._components[:n_components])

    def parent(self) -> "Name":
        """The name with its final component removed."""
        if not self._components:
            raise NameError_("the root name has no parent")
        return Name(self._components[:-1])

    def suffix(self, start: int) -> "Name":
        """Components from position ``start`` to the end."""
        return Name(self._components[start:])

    # -- relations ----------------------------------------------------------------------

    def is_prefix_of(self, other: "Name | str") -> bool:
        """True when this name is a (non-strict) prefix of ``other``."""
        other = other if isinstance(other, Name) else Name(other)
        if len(self) > len(other):
            return False
        return self._components == other._components[: len(self)]

    def starts_with(self, prefix: "Name | str") -> bool:
        """True when ``prefix`` is a prefix of this name."""
        prefix = prefix if isinstance(prefix, Name) else Name(prefix)
        return prefix.is_prefix_of(self)

    def common_prefix_length(self, other: "Name | str") -> int:
        """Number of leading components shared with ``other``."""
        other = other if isinstance(other, Name) else Name(other)
        count = 0
        for mine, theirs in zip(self._components, other._components):
            if mine != theirs:
                break
            count += 1
        return count

    def last(self) -> Component:
        """The final component."""
        if not self._components:
            raise NameError_("the root name has no components")
        return self._components[-1]
