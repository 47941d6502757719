"""The benchmark's profile hooks still name code that exists in ``src/``.

The end-to-end benchmark reads per-layer rows from cProfile call counts keyed
``"<file stem>:<qualname>"`` and charges time to layers by path prefix
(``LAYER_OF_PATH`` in ``e2ebench/layers.py``).  A rename in ``src/`` does not
break the benchmark: the row silently reads 0, or the path silently matches
nothing.  This test reads the benchmark's sources as text (it imports nothing
from them) and checks every key and every path against ``src/repro``.

The entries already stale are pinned exactly, so a new stale entry fails
here and the benchmark change that mends an old one shrinks the pinned set.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
BENCH = ROOT / "benchmarks" / "e2e"

#: Keys whose code is gone: ``Data`` now signs inside ``encode``.
STALE_KEYS = {"packet:Data.sign"}
#: Path prefixes that match no file: modules deleted from ``src/``.
STALE_PATHS = {"ndn/security.py", "core/predictor.py", "core/placement.py"}

_KEY = re.compile(
    r'"([a-z_][a-z0-9_]*):([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)"')


def _profile_keys() -> set:
    sources = [*sorted((BENCH / "e2ebench").glob("*.py")), BENCH / "run.py"]
    return {match.group(0).strip('"')
            for path in sources for match in _KEY.finditer(path.read_text())}


def _qualnames(tree: ast.AST, prefix: str = ""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{node.name}"
            yield qualname
            yield from _qualnames(node, qualname + ".")


def _defined(key: str) -> bool:
    stem, _colon, qualname = key.partition(":")
    return any(qualname in set(_qualnames(ast.parse(path.read_text())))
               for path in SRC.rglob(f"{stem}.py"))


def _layer_paths() -> set:
    tree = ast.parse((BENCH / "e2ebench" / "layers.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYER_OF_PATH"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    raise AssertionError("layers.py defines no LAYER_OF_PATH")


def test_every_profile_key_names_code_in_src():
    keys = _profile_keys()
    assert "service:ServiceRegistry.validate" in keys
    assert {key for key in keys if not _defined(key)} == STALE_KEYS


def test_every_layer_path_exists_in_src():
    paths = _layer_paths()
    assert "core/gateway.py" in paths
    assert {path for path in paths if not (SRC / path).exists()} == STALE_PATHS
