"""The leak oracle in the root ``conftest.py``.

A file or socket that is garbage-collected while still open must fail the
test that leaked it.  CPython reports the leak as a ``ResourceWarning``
from the object's finalizer; the suite turns that warning into an error,
and an error raised inside a finalizer reaches ``sys.unraisablehook``
(which pytest turns into a failing warning of its own).
"""

from __future__ import annotations

import gc
import socket
import sys
import warnings

import pytest


@pytest.fixture
def unraisable(monkeypatch):
    """Exception types that reached ``sys.unraisablehook`` during the test."""
    seen: list[tuple[type, str]] = []
    monkeypatch.setattr(
        sys,
        "unraisablehook",
        lambda report: seen.append((report.exc_type, str(report.exc_value))),
    )
    return seen


def test_resource_warning_is_an_error():
    with pytest.raises(ResourceWarning):
        warnings.warn("leaked handle", ResourceWarning)


def test_leaked_file_handle_raises_from_its_finalizer(tmp_path, unraisable):
    target = tmp_path / "leak.txt"
    target.write_text("x", encoding="utf-8")
    handle = open(target, encoding="utf-8")
    del handle
    gc.collect()
    assert [exc_type for exc_type, _ in unraisable] == [ResourceWarning]
    assert "unclosed file" in unraisable[0][1]


def test_leaked_socket_end_raises_from_its_finalizer(unraisable):
    left, right = socket.socketpair()
    right.close()
    del left
    gc.collect()
    assert [exc_type for exc_type, _ in unraisable] == [ResourceWarning]
    assert "unclosed" in unraisable[0][1]


def test_closed_handles_raise_nothing(tmp_path, unraisable):
    with open(tmp_path / "ok.txt", "w", encoding="utf-8") as handle:
        handle.write("x")
    left, right = socket.socketpair()
    left.close()
    right.close()
    del handle, left, right
    gc.collect()
    assert unraisable == []
