"""Every public top-level function and class of the package, and every public
method and property of its classes, has a caller in the package, a demo or
the benchmark; every private top-level function, class and assigned name
has one in the package.  Tests do not count, and neither does the package's
``__init__`` or an import: re-exporting or importing a name does not call
it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = [p for p in sorted(ROOT.glob("src/inflatonlab/*.py")) if p.name != "__init__.py"]


def _public(nodes, kinds):
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def test_every_public_name_has_a_caller():
    used = set()
    for path in [*MODULES, *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = []
    for path in MODULES:
        for node in _public(ast.parse(path.read_text()).body, (ast.FunctionDef, ast.ClassDef)):
            defined.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, f"{node.name}.{method.name}")
                            for method in _public(node.body, ast.FunctionDef)]
    assert any("." in name for _, name in defined)
    unused = [f"{module}: {name}" for module, name in defined
              if name.rpartition(".")[2] not in used]
    assert not unused, f"public names without a caller: {unused}"


def _private(tree):
    """The private top-level functions, classes and assigned names of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and name != "_" and not name.startswith("__"))


def test_every_private_name_has_a_caller_in_the_package():
    # a private name serves the package alone: one that only tests read is dead
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = [(module, name) for module, tree in trees.items() for name in _private(tree)]
    assert defined
    unused = [f"{module}: {name}" for module, name in defined if name not in used]
    assert not unused, f"private names without a caller in the package: {unused}"
