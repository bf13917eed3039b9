"""README's configuration key list names exactly the keys a config file may
set: the flat keys of ``RunConfig`` and the keys of each nested group, with
``lambda`` for the ``lam`` field."""

import re
from dataclasses import fields
from pathlib import Path

from inflatonlab.config import _GROUPS, RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def _keys(text: str) -> list[str]:
    return sorted(re.findall(r"`(\w+)`", text))


def test_readme_key_list_matches_the_config():
    found = re.search(r"Flat JSON keys:\s(.*?);\snested groups\s(.*?\))\.\n",
                      README.read_text(), re.S)
    assert found, "README has no 'Flat JSON keys: ...; nested groups ...' list"
    flat, nested = found.groups()
    aliases = {v: k for k, v in RunConfig._ALIASES.items()}
    assert _keys(flat) == sorted(aliases.get(f.name, f.name) for f in fields(RunConfig)
                                 if f.name not in _GROUPS)
    groups = {name: _keys(body) for name, body in re.findall(r"`(\w+)`\s\(([^)]*)\)", nested)}
    assert groups == {name: sorted(f.name for f in fields(cls))
                      for name, cls in _GROUPS.items()}
