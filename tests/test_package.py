import ast
from pathlib import Path
from types import ModuleType

import pytest

import stablesq

MODULES = sorted(p for p in Path(stablesq.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_all_lists_exactly_the_public_names():
    # a name retired from one of the two lists must leave the other too
    bound = {
        name
        for name, value in vars(stablesq).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(stablesq.__all__) == bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # an import left behind by a removed use reads as a live dependency
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
