#!/usr/bin/env bash
# Lines of the package that no in-process Tier-1 test runs.
#
#   tools/untested_lines.sh
#
# Runs the Tier-1 suite (python -m pytest -q over tests/) in one
# interpreter under a standard-library line tracer (sys.settrace, and
# threading.settrace for threads the tests start), so no coverage package
# is needed.  The tracer records only frames whose code lives in
# src/nli_polarimetry/, from the package's import on.
# Then it prints, per module, the executable lines no test ran (the line
# starts of every code object that compiling the module yields), as
# "  LINE: source", with a count per module and a total.  A line marked
# "pragma: no cover" is left out, and with a def line so is the body of its
# function.  So are the bodies of "if TYPE_CHECKING:" and
# 'if __name__ == "__main__":', which never run under the tests by design.
#
# CLI tests that run nlipol through subprocess are not traced: a line that
# only such a test reaches is listed as untested.  The tracer slows the
# suite several times over.
#
# Exit status: pytest's.  Set PYTHON to choose the interpreter (default:
# python3).
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" "${PYTHON:-python3}" - <<'EOF'
import ast
import dis
import os
import sys
import threading
from pathlib import Path

import pytest

package = os.path.realpath("src/nli_polarimetry")
prefix = package + os.sep
ran = {}  # real path -> set of line numbers run
traced = {}  # code object -> its module's set in ran, or None when not ours


def tracer(frame, event, arg):
    code = frame.f_code
    lines = traced.get(code, False)
    if lines is False:
        path = os.path.realpath(code.co_filename)
        lines = traced[code] = (ran.setdefault(path, set())
                                if path.startswith(prefix) else None)
    if lines is None:
        return None
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def never_run(source):
    """Lines of the bodies of the module's "if TYPE_CHECKING:" and
    'if __name__ == "__main__":' blocks."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING", "__name__ == '__main__'"):
            found.update(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return found


def executable(path, source):
    """Line starts of every code object in the module, less the lines marked
    'pragma: no cover', the functions whose def line is so marked and the
    lines ``never_run`` names."""
    text = source.splitlines()

    def marked(lineno):
        return "pragma: no cover" in text[lineno - 1]

    found, stack = set(), [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        if code.co_name != "<module>" and marked(code.co_firstlineno):
            continue
        found.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return {line for line in found if not marked(line)} - never_run(source)


threading.settrace(tracer)
sys.settrace(tracer)
try:
    status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
finally:
    sys.settrace(None)
    threading.settrace(None)

total = 0
for path in sorted(Path(package).glob("*.py")):
    source = path.read_text()
    missed = sorted(executable(str(path), source) - ran.get(str(path.resolve()), set()))
    total += len(missed)
    print(f"src/nli_polarimetry/{path.name}: {len(missed)} untested lines")
    lines = source.splitlines()
    for line in missed:
        print(f"  {line}: {lines[line - 1].strip()}")
print(f"untested lines: {total} in src/nli_polarimetry/ (in-process tests only)")
sys.exit(int(status))
EOF
