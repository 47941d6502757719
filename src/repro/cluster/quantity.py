"""Kubernetes-style resource quantities.

CPU quantities are measured in cores and accept the milli suffix (``500m``);
memory quantities are measured in bytes and accept binary (``Ki``, ``Mi``,
``Gi``, ``Ti``) and decimal (``K``/``k``, ``M``, ``G``, ``T``) suffixes.
"""

from __future__ import annotations

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


def parse_cpu(value: Union[str, int, float]) -> float:
    """Parse a CPU quantity into cores (``"500m"`` → 0.5, ``2`` → 2.0)."""
    if isinstance(value, (int, float)):
        if value < 0:
            raise QuantityParseError(f"negative CPU quantity {value!r}")
        return float(value)
    match = _QUANTITY_RE.match(value)
    if not match:
        raise QuantityParseError(f"malformed CPU quantity {value!r}")
    number, suffix = match.groups()
    amount = float(number)
    if suffix == "":
        return amount
    if suffix == "m":
        return amount / 1000.0
    raise QuantityParseError(f"unknown CPU suffix {suffix!r} in {value!r}")


def parse_memory(value: Union[str, int, float]) -> int:
    """Parse a memory quantity into bytes (``"4Gi"`` → 4294967296)."""
    if isinstance(value, (int, float)):
        if value < 0:
            raise QuantityParseError(f"negative memory quantity {value!r}")
        return int(value)
    match = _QUANTITY_RE.match(value)
    if not match:
        raise QuantityParseError(f"malformed memory quantity {value!r}")
    number, suffix = match.groups()
    amount = float(number)
    if suffix == "":
        scale = 1
    elif suffix in _BINARY_SUFFIXES:
        scale = _BINARY_SUFFIXES[suffix]
    elif suffix in _DECIMAL_SUFFIXES:
        scale = _DECIMAL_SUFFIXES[suffix]
    else:
        raise QuantityParseError(f"unknown memory suffix {suffix!r} in {value!r}")
    return int(amount * scale)


def _format_memory(num_bytes: "int | float") -> str:
    """Format bytes using the largest exact-ish binary suffix (``"4Gi"``)."""
    num_bytes = float(num_bytes)
    for suffix in ("Pi", "Ti", "Gi", "Mi", "Ki"):
        scale = _BINARY_SUFFIXES[suffix]
        if num_bytes >= scale:
            value = num_bytes / scale
            if abs(value - round(value)) < 1e-9:
                return f"{int(round(value))}{suffix}"
            return f"{value:.2f}{suffix}"
    return f"{int(num_bytes)}"


def _format_cpu(cores: float) -> str:
    """Format cores using the milli suffix when fractional (``0.5`` → ``"500m"``)."""
    if abs(cores - round(cores)) < 1e-9:
        return str(int(round(cores)))
    return f"{int(round(cores * 1000))}m"


@dataclass(frozen=True)
class Quantity:
    """A pair of CPU (cores) and memory (bytes) amounts.

    Supports addition, subtraction and the "fits within" comparison the
    scheduler uses.
    """

    cpu: float = 0.0
    memory: int = 0

    @classmethod
    def parse(cls, cpu: Union[str, int, float] = 0, memory: Union[str, int, float] = 0) -> "Quantity":
        return cls(cpu=parse_cpu(cpu), memory=parse_memory(memory))

    def __add__(self, other: "Quantity") -> "Quantity":
        return Quantity(cpu=self.cpu + other.cpu, memory=self.memory + other.memory)

    def __sub__(self, other: "Quantity") -> "Quantity":
        return Quantity(cpu=self.cpu - other.cpu, memory=self.memory - other.memory)

    def fits_within(self, other: "Quantity") -> bool:
        """True when this request fits inside ``other`` (capacity)."""
        return self.cpu <= other.cpu + 1e-9 and self.memory <= other.memory

    def scaled(self, factor: float) -> "Quantity":
        return Quantity(cpu=self.cpu * factor, memory=int(self.memory * factor))

    def __str__(self) -> str:
        return f"cpu={_format_cpu(self.cpu)},memory={_format_memory(self.memory)}"
