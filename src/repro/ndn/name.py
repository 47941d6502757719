"""Hierarchical NDN names, held as their wire bytes.

A name is an ordered sequence of components, written in URI form as
``/ndn/k8s/compute/mem=4&cpu=6&app=BLAST``.  Names support prefix tests,
append/slice operations and canonical ordering — everything the FIB's
longest-prefix match and the LIDC semantic naming scheme need.

A :class:`Name` holds its Name TLV-VALUE — the concatenated component TLVs,
exactly as they sit on the wire — as one immutable ``bytes``, plus a tuple
of component end offsets (the ndn-cxx design, where a name wraps its wire
block).  Every var-number in those bytes is minimally encoded, and every
component is a GenericNameComponent, so the bytes are canonical:

* equality and hashing are those of the bytes, and run in C;
* name A is a prefix of name B exactly when A's bytes are a byte-prefix of
  B's (component TLVs are self-delimiting);
* canonical order (shorter component first, then bytewise; a prefix before
  its extensions) is the bytes' lexicographic order, because each
  component TLV leads with its length as a big-endian var-number whose
  width grows with the value.

:meth:`Name.from_wire` is the one validating walk over a received Name: it
rejects anything that would break those equivalences.  Every other
constructor encodes the canonical bytes directly.  :class:`Component`
objects are built only where code indexes or iterates a name.
"""

from __future__ import annotations

import urllib.parse
from functools import lru_cache, total_ordering
from itertools import accumulate
from typing import Iterable, Iterator, Union

from repro.exceptions import NameError_, TLVDecodeError
from repro.ndn.tlv import TlvTypes, decode_tlv_header, encode_tlv

__all__ = ["Component", "Name", "parse_name"]

#: Characters a formatted component leaves unescaped.
_URI_SAFE = "-_.~=&+:"


def _component_bytes(value: "Union[str, bytes, Component]") -> bytes:
    """The raw bytes of one component given as text, bytes or a Component."""
    if isinstance(value, Component):
        return value._value
    if isinstance(value, bytes):
        raw = value
    elif isinstance(value, str):
        raw = value.encode("utf-8")
    else:
        raise NameError_(f"cannot build a component from {value!r}")
    if not raw:
        raise NameError_("empty name component")
    return raw


def _var_number_width(number: int) -> int:
    """Bytes in the minimal var-number encoding of ``number``."""
    if number < 253:
        return 1
    return 3 if number <= 0xFFFF else 5 if number <= 0xFFFFFFFF else 9


def _value_start(wire: bytes, start: int) -> int:
    """Where the value of the component TLV at ``start`` begins.

    The TLV-TYPE is the one byte ``0x08``; the TLV-LENGTH is 1, 3, 5 or 9
    bytes, told by its first byte.
    """
    first = wire[start + 1]
    if first < 253:
        return start + 2
    return start + (4 if first == 253 else 6 if first == 254 else 10)


@total_ordering
class Component:
    """A single name component (a byte string).

    Components are compared canonically: shorter components sort first, equal
    lengths compare lexicographically — the NDN canonical order.
    """

    __slots__ = ("_value",)

    def __init__(self, value: Union[str, bytes, "Component"]) -> None:
        self._value = _component_bytes(value)

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
        return hash(self._value)

    def __len__(self) -> int:
        return len(self._value)

    def __repr__(self) -> str:
        return f"Component({self.to_str()!r})"


class Name:
    """An immutable hierarchical NDN name over its canonical wire bytes."""

    __slots__ = ("_value", "_ends", "_uri")

    def __init__(self, value: "Union[str, Name, Iterable[Union[str, bytes, Component]], None]" = None) -> None:
        # Formatted on first use and kept: a name is immutable, and the
        # trace stamps the same name at every hop of an exchange.
        self._uri: "str | None" = None
        if value is None:
            self._value, self._ends = b"", ()
        elif isinstance(value, Name):
            self._value, self._ends, self._uri = value._value, value._ends, value._uri
        elif isinstance(value, str):
            self._value, self._ends = self._encode(self._parse_uri(value))
        else:
            self._value, self._ends = self._encode(_component_bytes(part) for part in value)

    @classmethod
    def _of(cls, value: bytes, ends: "tuple[int, ...]") -> "Name":
        """Wrap canonical bytes and their component end offsets as is."""
        name = cls.__new__(cls)
        name._value = value
        name._ends = ends
        name._uri = None
        return name

    @staticmethod
    def _encode(parts: Iterable[bytes]) -> "tuple[bytes, tuple[int, ...]]":
        tlvs = [encode_tlv(TlvTypes.GENERIC_NAME_COMPONENT, part) for part in parts]
        return b"".join(tlvs), tuple(accumulate(map(len, tlvs)))

    @staticmethod
    def _parse_uri(uri: str) -> list[bytes]:
        text = uri.strip()
        if text.startswith("ndn:"):
            text = text[len("ndn:"):]
        if text in ("", "/"):
            return []
        if not text.startswith("/"):
            raise NameError_(f"name URI must start with '/': {uri!r}")
        return [urllib.parse.unquote_to_bytes(part) for part in text.split("/") if part]

    @classmethod
    def from_wire(cls, value: bytes) -> "Name":
        """The name whose Name TLV-VALUE is ``value``: one validating walk.

        Each component must be a non-empty GenericNameComponent inside
        ``value``, with its TLV-TYPE and TLV-LENGTH minimally encoded;
        anything else raises :class:`TLVDecodeError`.  ``value`` itself
        becomes the name's bytes, so a received name shares its slice.
        """
        ends = []
        offset = 0
        size = len(value)
        while offset < size:
            comp_type, start, end = decode_tlv_header(value, offset)
            if comp_type != TlvTypes.GENERIC_NAME_COMPONENT:
                raise TLVDecodeError(f"unexpected TLV {comp_type} inside Name")
            if start - offset != 2 and (
                value[offset] != TlvTypes.GENERIC_NAME_COMPONENT
                or start - offset != 1 + _var_number_width(end - start)
            ):
                raise TLVDecodeError("non-minimal TLV-TYPE or TLV-LENGTH inside Name")
            if start == end:
                raise TLVDecodeError("empty name component")
            ends.append(end)
            offset = end
        return cls._of(value, tuple(ends))

    def _parts(self) -> list[bytes]:
        """Every component's value bytes, in order."""
        value = self._value
        return [
            value[_value_start(value, start):end]
            for start, end in zip((0, *self._ends), self._ends)
        ]

    def _slice(self, start: int, stop: int) -> "Name":
        """Components ``start`` to ``stop`` (clamped, ``0 <= start``) as a name."""
        ends = self._ends[start:stop]
        if not ends:
            return Name._of(b"", ())
        base = self._ends[start - 1] if start else 0
        if not base:
            return Name._of(self._value[:ends[-1]], ends)
        return Name._of(self._value[base:ends[-1]], tuple(end - base for end in ends))

    # -- basic container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._ends)

    def __iter__(self) -> Iterator[Component]:
        return map(Component, self._parts())

    def __getitem__(self, index: "int | slice") -> "Component | Name":
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self._ends))
            if step == 1:
                return self._slice(start, stop)
            return Name(self._parts()[index])
        ends = self._ends
        end = ends[index]
        start = ends[index - 1] if index % len(ends) else 0
        return Component(self._value[_value_start(self._value, start):end])

    def __bool__(self) -> bool:
        return bool(self._value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Name):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._value < other._value

    def __le__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._value <= other._value

    def __gt__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._value > other._value

    def __ge__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._value >= other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __repr__(self) -> str:
        return f"Name({self.to_uri()!r})"

    # -- formatting ---------------------------------------------------------------

    def to_uri(self) -> str:
        """Canonical URI form, e.g. ``/ndn/k8s/compute`` (memoised)."""
        uri = self._uri
        if uri is None:
            quote = urllib.parse.quote_from_bytes
            uri = self._uri = "/" + "/".join([quote(part, _URI_SAFE) for part in self._parts()])
        return uri

    __str__ = to_uri

    # -- construction helpers ---------------------------------------------------------

    def append(self, *parts: Union[str, bytes, Component, "Name"]) -> "Name":
        """Return a new name with ``parts`` appended.

        Strings are treated as single components unless they contain ``/``,
        in which case they are parsed as a relative multi-component path.
        """
        value = self._value
        ends = list(self._ends)
        for part in parts:
            if isinstance(part, str) and "/" in part:
                part = Name("/" + part.strip("/"))
            if isinstance(part, Name):
                base = len(value)
                value += part._value
                ends.extend(base + end for end in part._ends)
            else:
                value += encode_tlv(TlvTypes.GENERIC_NAME_COMPONENT, _component_bytes(part))
                ends.append(len(value))
        return Name._of(value, tuple(ends))

    def prefix(self, n_components: int) -> "Name":
        """The first ``n_components`` components as a new name."""
        if n_components < 0:
            n_components = max(0, len(self._ends) + n_components)
        return self._slice(0, n_components)

    def parent(self) -> "Name":
        """The name with its final component removed."""
        if not self._ends:
            raise NameError_("the root name has no parent")
        return self._slice(0, len(self._ends) - 1)

    def suffix(self, start: int) -> "Name":
        """Components from position ``start`` to the end."""
        return self[start:]

    def component_tlvs(self) -> list[bytes]:
        """Each component's TLV bytes, in order.

        These are the name tree's per-level keys: sorting them sorts the
        components in canonical order.
        """
        value = self._value
        return [value[start:end] for start, end in zip((0, *self._ends), self._ends)]

    # -- relations ----------------------------------------------------------------------

    def is_prefix_of(self, other: "Name | str") -> bool:
        """True when this name is a (non-strict) prefix of ``other``."""
        other = other if isinstance(other, Name) else Name(other)
        return other._value.startswith(self._value)

    def last(self) -> Component:
        """The final component."""
        if not self._ends:
            raise NameError_("the root name has no components")
        return self[-1]


@lru_cache(maxsize=8192)
def parse_name(uri: str) -> Name:
    """``Name(uri)``, parsed once per distinct URI (bounded LRU memo).

    A consumer re-requests the same names; each repeat gets the same
    immutable :class:`Name`, whose URI memo is then filled once rather
    than once per request.
    """
    return Name(uri)
