"""The package supports Python 3.10 (``requires-python`` in pyproject.toml):
its sources use no newer syntax, and its module-level regular expressions no
construct that Python's ``re`` accepts only from 3.11 on, which would make
``import nli_polarimetry`` fail on 3.10.  Both checks run on any interpreter
from 3.10 on.

It also supports every platform numpy runs on, while CI runs on Linux only:
no source of the package names numpy's platform-width integer, which is 32
bits wide on Windows before numpy 2."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import nli_polarimetry

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)

# the regular-expression parser: re._parser from 3.11 on, sre_parse before
PARSER = getattr(re, "_parser", None) or importlib.import_module("sre_parse")

# possessive repeats (*+, ++, ?+, {m,n}+) and atomic groups (?>...)
NEWER_THAN_FLOOR = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def opcode_names(node):
    """The opcode name of every node of a parsed pattern, nested ones too."""
    if isinstance(node, PARSER.SubPattern):
        for op, arg in node:
            yield op.name
            yield from opcode_names(arg)
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from opcode_names(item)


def platform_width_ints(source):
    """Each ``astype(int)``, ``dtype=int`` and ``np.int_`` in ``source``, as
    (line, text)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            named = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                named += node.args[:1]
            if any(isinstance(arg, ast.Name) and arg.id == "int" for arg in named):
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.Attribute) and node.attr == "int_":
            yield node.lineno, ast.unparse(node)


def module_patterns():
    """Every compiled pattern bound at module level in the package."""
    found = {}
    for info in pkgutil.iter_modules(nli_polarimetry.__path__):
        module = importlib.import_module(f"nli_polarimetry.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                found[f"{info.name}.{name}"] = value
    return found


def test_sources_parse_at_the_floor_grammar():
    files = sorted(path for top in ("src", "tests", "tools", "perfbench")
                   for path in (ROOT / top).rglob("*.py"))
    assert ROOT / "src" / "nli_polarimetry" / "scan.py" in files
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def test_module_patterns_use_no_newer_constructs():
    patterns = module_patterns()
    assert "scan._SPELLED_STEP" in patterns
    for name, pattern in patterns.items():
        newer = NEWER_THAN_FLOOR & set(opcode_names(PARSER.parse(pattern.pattern,
                                                                 pattern.flags)))
        assert not newer, (name, pattern.pattern, newer)
    if sys.version_info >= (3, 11):
        # the check sees the constructs it looks for
        for text, opcode in ((r"\n[^,\n.eE]*+[.eE]", "POSSESSIVE_REPEAT"),
                             ("(?>ab)c", "ATOMIC_GROUP")):
            assert opcode in set(opcode_names(PARSER.parse(text)))


def test_sources_use_no_platform_width_integer():
    # the check sees each form it looks for
    found = platform_width_ints("a.astype(int)\nnp.zeros(3, dtype=int)\nnp.int_\n"
                                "a.astype(np.int64)\nnp.zeros(3, dtype=np.int64)\n")
    assert [line for line, _ in found] == [1, 2, 3]
    for path in sorted((ROOT / "src").rglob("*.py")):
        assert not list(platform_width_ints(path.read_text())), path
