import re
import types
from pathlib import Path

import nopolock

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_and_none_is_a_module():
    assert len(nopolock.__all__) == len(set(nopolock.__all__))
    for name in nopolock.__all__:
        value = getattr(nopolock, name)
        assert not isinstance(value, types.ModuleType), name


def test_readme_lists_the_public_api_by_module():
    # the README's "Public API" table is __all__, in order, each name under its module
    section = README.read_text().split("\n## Public API\n")[1].split("\n## ")[0]
    listed = []
    for row in re.findall(r"^\| `(\w+)` +\| (.+) \|$", section, re.MULTILINE):
        module, names = row
        for name in re.findall(r"`(\w+)`", names):
            assert getattr(nopolock, name).__module__ == f"nopolock.{module}", name
            listed.append(name)
    assert listed == nopolock.__all__
