"""Every public top-level function and class of the package, and every public
method and property of its classes, has a caller in the package, a demo or
the benchmark.  Tests do not count, and neither does the package's
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
