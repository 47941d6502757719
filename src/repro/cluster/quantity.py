"""Kubernetes-style resource quantities.

CPU quantities are measured in cores and accept the milli suffix (``500m``);
memory quantities are measured in bytes and accept binary (``Ki``, ``Mi``,
``Gi``, ``Ti``) and decimal (``K``/``k``, ``M``, ``G``, ``T``) suffixes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

from repro.exceptions import QuantityParseError

__all__ = ["Quantity", "parse_cpu", "parse_memory"]

_BINARY_SUFFIXES = {
    "Ki": 1024,
    "Mi": 1024 ** 2,
    "Gi": 1024 ** 3,
    "Ti": 1024 ** 4,
    "Pi": 1024 ** 5,
}
_DECIMAL_SUFFIXES = {
    "k": 1000,
    "K": 1000,
    "M": 1000 ** 2,
    "G": 1000 ** 3,
    "T": 1000 ** 4,
    "P": 1000 ** 5,
}

_QUANTITY_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*([A-Za-z]*)\s*$")


def _finite(amount: "int | float", value: Union[str, int, float], kind: str) -> float:
    """``amount`` as a float, if finite and non-negative (NaN fails every comparison)."""
    try:
        amount = float(amount)
    except OverflowError:  # an int beyond the float range
        amount = math.inf
    if not 0 <= amount < math.inf:
        raise QuantityParseError(f"{kind} quantity {value!r} is not a finite non-negative number")
    return amount


def parse_cpu(value: Union[str, int, float]) -> float:
    """Parse a CPU quantity into cores (``"500m"`` → 0.5, ``2`` → 2.0)."""
    if isinstance(value, (int, float)):
        return _finite(value, value, "CPU")
    match = _QUANTITY_RE.match(value)
    if not match:
        raise QuantityParseError(f"malformed CPU quantity {value!r}")
    number, suffix = match.groups()
    if suffix == "":
        return _finite(float(number), value, "CPU")
    if suffix == "m":
        return _finite(float(number) / 1000.0, value, "CPU")
    raise QuantityParseError(f"unknown CPU suffix {suffix!r} in {value!r}")


def parse_memory(value: Union[str, int, float]) -> int:
    """Parse a memory quantity into bytes (``"4Gi"`` → 4294967296)."""
    if isinstance(value, (int, float)):
        _finite(value, value, "memory")
        return int(value)
    match = _QUANTITY_RE.match(value)
    if not match:
        raise QuantityParseError(f"malformed memory quantity {value!r}")
    number, suffix = match.groups()
    if suffix == "":
        scale = 1
    elif suffix in _BINARY_SUFFIXES:
        scale = _BINARY_SUFFIXES[suffix]
    elif suffix in _DECIMAL_SUFFIXES:
        scale = _DECIMAL_SUFFIXES[suffix]
    else:
        raise QuantityParseError(f"unknown memory suffix {suffix!r} in {value!r}")
    return int(_finite(float(number) * scale, value, "memory"))


@dataclass(frozen=True)
class Quantity:
    """A pair of CPU (cores) and memory (bytes) amounts.

    Supports addition, subtraction and the "fits within" comparison the
    scheduler uses.
    """

    cpu: float = 0.0
    memory: int = 0

    def __add__(self, other: "Quantity") -> "Quantity":
        return Quantity(cpu=self.cpu + other.cpu, memory=self.memory + other.memory)

    def __sub__(self, other: "Quantity") -> "Quantity":
        return Quantity(cpu=self.cpu - other.cpu, memory=self.memory - other.memory)

    def fits_within(self, other: "Quantity") -> bool:
        """True when this request fits inside ``other`` (capacity)."""
        return self.cpu <= other.cpu + 1e-9 and self.memory <= other.memory
