"""Declared and imported dependencies match.

Every third-party package that code under ``src/`` imports must be in
``setup.py``'s ``install_requires`` (or a fresh ``pip install`` breaks), and
every declared package must be imported somewhere (or installs carry a
package nothing runs).
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_PARTY = {"repro"}


def declared_requirements() -> set[str]:
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            return {
                re.split(r"[<>=!~;\[ ]", requirement, maxsplit=1)[0].lower()
                for requirement in ast.literal_eval(node.value)
            }
    raise AssertionError("setup.py declares no install_requires")


def imported_third_party() -> dict[str, str]:
    """Root package of every absolute non-stdlib import -> a file importing it."""
    found: dict[str, str] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                if root not in sys.stdlib_module_names and root not in FIRST_PARTY:
                    found.setdefault(root, str(path.relative_to(ROOT)))
    return found


def test_install_requires_is_exactly_what_src_imports():
    imported = imported_third_party()
    assert set(imported) == declared_requirements(), imported
    assert set(imported) == {"numpy"}


def third_party_loaded_by(code: str) -> set[str]:
    """Root packages outside the stdlib that running ``code`` adds to ``sys.modules``.

    Runs in a fresh interpreter, and what its startup already loaded does
    not count.
    """
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "roots = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(root for root in roots if not root.startswith('_')"
        " and root not in sys.stdlib_module_names and root != 'repro')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    output = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True, timeout=120).stdout
    return set(output.split())


def test_importing_repro_core_loads_no_networkx():
    assert "networkx" not in third_party_loaded_by("import repro.core")


def test_importing_every_src_module_loads_only_declared_packages():
    loaded = third_party_loaded_by(
        "import importlib, pkgutil, repro\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not module.name.endswith('__main__'):\n"
        "        importlib.import_module(module.name)"
    )
    assert loaded == declared_requirements()
