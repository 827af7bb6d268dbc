"""Every public name a module lists in ``__all__`` resolves, and no module
imports a name it never uses.

The benchmark tracer wraps each function in ``hcfnet.ops.__all__``, so a
stale entry there would crash a traced run."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hcfnet

MODULES = sorted(info.name for info in pkgutil.iter_modules(hcfnet.__path__))
PACKAGE_DIR = Path(hcfnet.__file__).resolve().parent


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hcfnet.{name}")
    public = getattr(module, "__all__", [])
    assert len(set(public)) == len(public)
    missing = [attr for attr in public if not hasattr(module, attr)]
    assert missing == []


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_import_check_flags_leftovers():
    source = "import math\nimport struct as st\nfrom .errors import A, B\n\nB(math.pi)\n"
    assert unused_imports(source) == ["A", "st"]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
