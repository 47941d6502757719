"""A reusable name-prefix trie (the NFD "name tree").

Every forwarder table is keyed by hierarchical names, and the expensive
operations are all prefix-shaped: the FIB's longest-prefix match, the Content
Store's ``can_be_prefix`` lookup, and prefix-scoped erasure.  This module
provides one generic trie that those tables share, keyed at each level on a
component's TLV bytes (:meth:`Name.component_tlvs
<repro.ndn.name.Name.component_tlvs>`), so a descent hashes and compares
plain ``bytes`` and builds no :class:`~repro.ndn.name.Component`.  Each
table gets

* O(depth) exact lookup, insertion and removal (with branch pruning),
* O(depth) longest-prefix match, and
* O(depth + matches) in-order enumeration of a prefix's subtree,

instead of the O(total entries) scans a flat dict forces.

Iteration order is the NDN canonical order (a name before its extensions,
then component-wise canonical comparison), which makes "first match under a
prefix" deterministic and equal to "smallest matching name".  Sorting a
level's TLV keys gives that order: every key is a GenericNameComponent whose
length comes first, as a minimally encoded big-endian var-number.
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

    def __contains__(self, name: "Name | str") -> bool:
        node = self._find_node(as_name(name))
        return node is not None and node.value is not _ABSENT

    # -- point operations ----------------------------------------------------

    def _find_node(self, name: Name) -> Optional[_Node]:
        node = self._root
        for key in name.component_tlvs():
            node = node.children.get(key)
            if node is None:
                return None
        return node

    def set(self, name: "Name | str", value: Any) -> None:
        """Store ``value`` at ``name``, replacing any existing value."""
        name = as_name(name)
        node = self._root
        for key in name.component_tlvs():
            child = node.children.get(key)
            if child is None:
                child = node.children[key] = _Node()
            node = child
        if node.value is _ABSENT:
            node.name = name
            self._size += 1
        node.value = value

    def get(self, name: "Name | str", default: Any = None) -> Any:
        """The value stored exactly at ``name``, or ``default``."""
        node = self._find_node(as_name(name))
        if node is None or node.value is _ABSENT:
            return default
        return node.value

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

    def clear(self) -> None:
        self._root = _Node()
        self._size = 0

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

    def _walk(self, node: _Node) -> Iterator[tuple[Name, Any]]:
        """DFS in canonical order: a node's own value before its subtrees."""
        stack: list[_Node] = [node]
        while stack:
            current = stack.pop()
            if current.value is not _ABSENT:
                yield (current.name if current.name is not None else Name()), current.value
            for key in sorted(current.children, reverse=True):
                stack.append(current.children[key])

    def items(self) -> Iterator[tuple[Name, Any]]:
        """All ``(name, value)`` pairs in canonical name order."""
        return self._walk(self._root)

    def items_under(self, prefix: "Name | str") -> Iterator[tuple[Name, Any]]:
        """``(name, value)`` pairs whose name has ``prefix``, canonical order."""
        node = self._find_node(as_name(prefix))
        if node is None:
            return iter(())
        return self._walk(node)

    def first_under(
        self,
        prefix: "Name | str",
        predicate: Optional[Callable[[Name, Any], bool]] = None,
    ) -> Optional[tuple[Name, Any]]:
        """The canonically-smallest ``(name, value)`` under ``prefix``.

        With a ``predicate``, the smallest pair for which it returns True.
        Descends directly to the prefix's subtree, so the cost is bounded by
        the subtree size (and by the first acceptable match), never by the
        total number of entries in the tree.
        """
        for name, value in self.items_under(prefix):
            if predicate is None or predicate(name, value):
                return name, value
        return None
