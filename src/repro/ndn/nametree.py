"""A name-prefix trie (the NFD "name tree"), the FIB's index.

The FIB's one expensive operation is prefix-shaped: longest-prefix match.
Every other table is exact-match (a PIT entry and a cached Data are each
looked up by exactly one name), so this trie serves the FIB alone.  Each
level is keyed on a component's TLV bytes (:meth:`Name.component_tlvs
<repro.ndn.name.Name.component_tlvs>`), so a descent hashes and compares
plain ``bytes`` and builds no :class:`~repro.ndn.name.Component`.  It gives

* O(depth) exact lookup, insertion and removal (with branch pruning),
* O(depth) longest-prefix match, and
* in-order enumeration of every entry,

instead of the O(total entries) scans a flat dict forces.

Iteration order is the NDN canonical order (a name before its extensions,
then component-wise canonical comparison).  Sorting a level's TLV keys gives
that order: every key is a GenericNameComponent whose length comes first, as
a minimally encoded big-endian var-number.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.ndn.name import Name

__all__ = ["NameTree", "as_name"]

#: Sentinel distinguishing "no value stored" from a stored ``None``.
_ABSENT = object()


def as_name(value: "Name | str") -> Name:
    """Coerce to :class:`Name` without copying when it already is one."""
    return value if isinstance(value, Name) else Name(value)


class _Node:
    __slots__ = ("children", "name", "value")

    def __init__(self) -> None:
        self.children: dict[bytes, _Node] = {}
        #: The full name of this node; set when a value is first stored here.
        self.name: Optional[Name] = None
        self.value: Any = _ABSENT


class NameTree:
    """A trie mapping :class:`Name` keys to arbitrary values."""

    __slots__ = ("_root", "_size")

    def __init__(self) -> None:
        self._root = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- point operations ----------------------------------------------------

    def get(self, name: "Name | str", default: Any = None) -> Any:
        """The value stored exactly at ``name``, or ``default``."""
        node = self._root
        for key in as_name(name).component_tlvs():
            node = node.children.get(key)
            if node is None:
                return default
        return default if node.value is _ABSENT else node.value

    def setdefault(self, name: "Name | str", factory: Callable[[Name], Any]) -> Any:
        """Get the value at ``name``, creating it with ``factory`` if absent."""
        name = as_name(name)
        node = self._root
        for key in name.component_tlvs():
            child = node.children.get(key)
            if child is None:
                child = node.children[key] = _Node()
            node = child
        if node.value is _ABSENT:
            node.name = name
            node.value = factory(name)
            self._size += 1
        return node.value

    def remove(self, name: "Name | str") -> bool:
        """Remove the value at ``name``, pruning empty branches bottom-up."""
        name = as_name(name)
        path: list[tuple[_Node, bytes]] = []
        node = self._root
        for key in name.component_tlvs():
            child = node.children.get(key)
            if child is None:
                return False
            path.append((node, key))
            node = child
        if node.value is _ABSENT:
            return False
        node.value = _ABSENT
        node.name = None
        self._size -= 1
        for parent, key in reversed(path):
            child = parent.children[key]
            if child.value is _ABSENT and not child.children:
                del parent.children[key]
            else:
                break
        return True

    # -- prefix operations -----------------------------------------------------

    def longest_prefix_item(self, name: "Name | str") -> Optional[tuple[Name, Any]]:
        """The deepest ``(name, value)`` whose name is a prefix of ``name``."""
        name = as_name(name)
        node = self._root
        best: Optional[_Node] = node if node.value is not _ABSENT else None
        for key in name.component_tlvs():
            node = node.children.get(key)
            if node is None:
                break
            if node.value is not _ABSENT:
                best = node
        if best is None:
            return None
        return (best.name if best.name is not None else Name()), best.value

    def items(self) -> Iterator[tuple[Name, Any]]:
        """All ``(name, value)`` pairs in canonical name order.

        A depth-first walk that yields a node's own value before its
        subtrees.
        """
        stack: list[_Node] = [self._root]
        while stack:
            current = stack.pop()
            if current.value is not _ABSENT:
                yield (current.name if current.name is not None else Name()), current.value
            for key in sorted(current.children, reverse=True):
                stack.append(current.children[key])
