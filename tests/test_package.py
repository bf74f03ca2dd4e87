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


def test_every_private_definition_is_used():
    # a private helper whose last caller was removed reads as live code
    paths = Path(stablesq.__file__).parent.glob("*.py")
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in paths]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(defined - used) == []
