"""Every public top-level function and class of the package has a caller in
the package, a demo or the benchmark.  Tests do not count, and neither does
the package's ``__init__`` or an import: re-exporting or importing a name
does not call it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = [p for p in sorted(ROOT.glob("src/inflatonlab/*.py")) if p.name != "__init__.py"]


def test_every_public_name_has_a_caller():
    used = set()
    for path in [*MODULES, *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = [(path.name, node.name) for path in MODULES
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    assert defined
    unused = [f"{module}: {name}" for module, name in defined if name not in used]
    assert not unused, f"public names without a caller: {unused}"
