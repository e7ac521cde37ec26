#!/usr/bin/env bash
# Design-size report of the working tree against another commit.
#
#   tools/design_report.sh BASE_REF
#
# Prints the net change in src/ lines against BASE_REF, the names that
# src/nli_polarimetry/__init__.py re-exports at BASE_REF and in the working
# tree (with the names added and removed), and the size of every module's
# __all__ that changed.  Sources are read as text and parsed with ast;
# nothing is imported or run.  Untracked files under src/ count, ignored
# ones (such as __pycache__) do not.
#
# Exit status: 0 on success, 2 on a usage error.  Set PYTHON to choose the
# interpreter (default: python3).
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REF" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || {
    echo "error: unknown commit '$1'" >&2
    exit 2
}

cd "$root"
"${PYTHON:-python3}" - "$base_sha" <<'EOF'
import ast
import subprocess
import sys
from pathlib import Path

base = sys.argv[1]
package = "src/nli_polarimetry"


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def base_files():
    names = git("ls-tree", "-r", "--name-only", base, "--", "src").split()
    return {name: git("show", f"{base}:{name}") for name in names}


def tree_files():
    names = git("ls-files", "--cached", "--others", "--exclude-standard", "--", "src").split()
    return {name: Path(name).read_text() for name in names if Path(name).is_file()}


def reexports(source):
    """Names bound by the package __init__'s relative imports."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names += [alias.asname or alias.name for alias in node.names]
    return names


def module_all(source):
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return len(node.value.elts)
    return None


old, new = base_files(), tree_files()
lines = {k: sum(len(text.splitlines()) for text in files.values())
         for k, files in (("old", old), ("new", new))}
# tracked files from git's line diff; untracked files are all additions
added = removed = 0
for row in git("diff", "--numstat", base, "--", "src").splitlines():
    a, r, _ = row.split("\t", 2)
    if a != "-":
        added, removed = added + int(a), removed + int(r)
untracked = git("ls-files", "--others", "--exclude-standard", "--", "src").split()
added += sum(len(new[name].splitlines()) for name in untracked if name in new)

tag = base[:12]
print(f"src/ lines: {lines['old']} at {tag}, {lines['new']} in the working tree, "
      f"net {lines['new'] - lines['old']:+d} (+{added} -{removed})")

init = f"{package}/__init__.py"
old_names, new_names = reexports(old[init]), reexports(new[init])
print(f"__init__ re-exports: {len(old_names)} at {tag}, {len(new_names)} in the working tree")
print("  removed: " + (", ".join(sorted(set(old_names) - set(new_names))) or "none"))
print("  added: " + (", ".join(sorted(set(new_names) - set(old_names))) or "none"))

for name in sorted(set(old) | set(new)):
    if not name.endswith(".py") or name == init:
        continue
    before = module_all(old[name]) if name in old else None
    after = module_all(new[name]) if name in new else None
    if before != after:
        print(f"  {Path(name).stem}.__all__: {before} -> {after}")
EOF
