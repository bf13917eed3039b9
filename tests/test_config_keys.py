"""Every config key is used: each field of ``RunConfig`` and of its nested
groups is read as an attribute somewhere in the package.  Reads inside
``validate`` do not count, since checking a value does not use it, so a key
that is accepted, checked and then ignored fails here."""

import ast
from dataclasses import fields
from pathlib import Path

from inflatonlab.config import _GROUPS, RunConfig

ROOT = Path(__file__).resolve().parents[1]


def _reads(tree: ast.AST) -> set[str]:
    skip = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "validate"
            for node in ast.walk(fn)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in skip}


def test_every_config_key_is_read():
    read = set()
    for path in sorted(ROOT.glob("src/inflatonlab/*.py")):
        read |= _reads(ast.parse(path.read_text()))
    keys = [(cls.__name__, f.name) for cls in (RunConfig, *_GROUPS.values())
            for f in fields(cls)]
    assert keys
    unread = [f"{cls}.{name}" for cls, name in keys if name not in read]
    assert not unread, f"config keys accepted and never read: {unread}"
