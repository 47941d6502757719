"""Repository-level pytest configuration.

Ensures ``src/`` is importable even when the package has not been installed
(useful in offline environments where ``pip install -e .`` needs
``--no-build-isolation``).

It also makes an unreleased resource fail the test that leaked it: a file,
socket or pipe garbage-collected while still open raises ``ResourceWarning``
(or, when that happens inside a finalizer, pytest's unraisable-exception
warning), and both are errors here rather than noise.
"""

import pathlib
import sys

_SRC = pathlib.Path(__file__).parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::ResourceWarning")
    config.addinivalue_line(
        "filterwarnings", "error::pytest.PytestUnraisableExceptionWarning"
    )
