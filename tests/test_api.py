"""The public names: each module's ``__all__`` lists exactly what the
package's ``__init__.py`` re-exports from it, so the two lists cannot drift
apart when a name is added, renamed or removed."""

import ast
import importlib
from pathlib import Path

import pytest

import nli_polarimetry


def package_reexports() -> dict[str, list[str]]:
    """The names ``__init__.py`` imports from each sibling module."""
    found: dict[str, list[str]] = {}
    for node in ast.parse(Path(nli_polarimetry.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return found


REEXPORTS = package_reexports()


def test_the_package_reexports_from_its_modules():
    assert sorted(REEXPORTS) == ["elements", "estimation", "interferometer", "mode_algebra",
                                 "scan", "signals"]


@pytest.mark.parametrize("module", sorted(REEXPORTS))
def test_module_all_is_what_the_package_reexports(module):
    names = REEXPORTS[module]
    found = importlib.import_module(f"nli_polarimetry.{module}")
    assert len(set(found.__all__)) == len(found.__all__)
    assert sorted(found.__all__) == sorted(names)
    for name in names:
        assert getattr(nli_polarimetry, name) is getattr(found, name)
