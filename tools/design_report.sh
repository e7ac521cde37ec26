#!/usr/bin/env bash
# Design-size report of the working tree against another commit.
#
#   tools/design_report.sh BASE_REF
#
# Prints the net change in src/ lines against BASE_REF, the names that
# src/nli_polarimetry/__init__.py re-exports at BASE_REF and in the working
# tree (with the names added and removed), the size of every module's
# __all__ that changed, and the count of independently settable values with
# the names whose count changed.  The settable values are the parameters of
# every re-exported function, the dataclass fields (or else the __init__
# parameters, inherited within the module) of every re-exported class, and
# nlipol's command-line options (its add_argument calls) and config keys
# (the keys its _check_keys calls accept).  It also lists, at BASE_REF and
# in the working tree, the re-exported names that no src/ module other than
# __init__.py and no perfbench/*.py file references (as a name read, an
# attribute or an imported name; a definition is no reference): what only
# tests and outside callers use.  Then it lists, at BASE_REF and in the
# working tree, each private name (leading underscore) that one src/ module
# imports from a sibling, as "module <- sibling._name": a decision that two
# modules know.  Last, it lists, at BASE_REF and in the working tree, each
# private top-level name of a src/ module (a function, class or assigned
# name) that no src/ module and no perfbench/*.py file references, as
# "module._name": code that only tests, or nothing, use.  Sources are read
# as text and parsed with ast; nothing is imported or run.
# Untracked files under src/ and perfbench/ count, ignored ones (such as
# __pycache__) do not.
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


def base_files(path):
    names = git("ls-tree", "-r", "--name-only", base, "--", path).split()
    return {name: git("show", f"{base}:{name}") for name in names}


def tree_files(path):
    names = git("ls-files", "--cached", "--others", "--exclude-standard", "--", path).split()
    return {name: Path(name).read_text() for name in names if Path(name).is_file()}


def reexports(source):
    """Names bound by the package __init__'s relative imports."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names += [alias.asname or alias.name for alias in node.names]
    return names


def n_params(args, skip=0):
    named = args.posonlyargs + args.args + args.kwonlyargs
    return len(named) - skip + (args.vararg is not None) + (args.kwarg is not None)


def is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def class_settable(node, classes):
    """Dataclass fields, else __init__ parameters (self excluded), following
    base classes defined in the same module."""
    if is_dataclass(node):
        return sum(isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                   and "ClassVar" not in ast.unparse(item.annotation) for item in node.body)
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            return n_params(item.args, skip=1)
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id in classes:
            return class_settable(classes[base.id], classes)
    return 0


def settable_values(files):
    """Settable-value count per name: re-exports, CLI options, config keys."""
    counts = {}
    for node in ast.parse(files[f"{package}/__init__.py"]).body:
        if not (isinstance(node, ast.ImportFrom) and node.level > 0):
            continue
        tree = ast.parse(files[f"{package}/{node.module}.py"])
        defs = {d.name: d for d in tree.body
                if isinstance(d, (ast.FunctionDef, ast.ClassDef))}
        classes = {k: d for k, d in defs.items() if isinstance(d, ast.ClassDef)}
        for alias in node.names:
            d = defs.get(alias.name)
            if isinstance(d, ast.FunctionDef):
                counts[alias.name] = n_params(d.args)
            elif isinstance(d, ast.ClassDef):
                counts[alias.name] = class_settable(d, classes)
    cli = ast.parse(files[f"{package}/cli.py"])
    commands = {}
    for node in ast.walk(cli):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "attr", None) == "add_parser"):
            commands[node.targets[0].id] = node.value.args[0].value
    for node in ast.walk(cli):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if getattr(func, "attr", None) == "add_argument":
            owner = commands.get(getattr(func.value, "id", None), "")
            name = " ".join(filter(None, ["nlipol", owner, node.args[0].value]))
            counts[name] = counts.get(name, 0) + 1
        elif getattr(func, "id", None) == "_check_keys":
            for arg in node.args[2:]:
                for key in getattr(arg, "elts", []):
                    name = f"config key {key.value}"
                    counts[name] = counts.get(name, 0) + 1
    return counts


def referenced(sources):
    """Every name the sources reference: as a name read (not one assigned),
    as an attribute, or as an imported name."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def bench_sources(bench):
    return [text for name, text in bench.items()
            if name.endswith(".py") and Path(name).parent == Path("perfbench")]


def unreferenced(files, bench):
    """Re-exported names that no src/ module but __init__ and no
    perfbench/*.py file names, in source order."""
    init = f"{package}/__init__.py"
    sources = [text for name, text in files.items() if name.endswith(".py") and name != init]
    used = referenced(sources + bench_sources(bench))
    return [name for name in reexports(files[init]) if name not in used]


def unreferenced_private(files, bench):
    """'module._name' for each private top-level name of a src/ module that
    no src/ module and no perfbench/*.py file references, by file name and
    then source order."""
    sources = [text for name, text in files.items() if name.endswith(".py")]
    used = referenced(sources + bench_sources(bench))
    found = []
    for name in sorted(files):
        if not name.endswith(".py"):
            continue
        for node in ast.parse(files[name]).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{Path(name).stem}.{d}" for d in defined
                      if d.startswith("_") and not d.startswith("__") and d not in used]
    return found


def private_imports(files):
    """'module <- sibling._name' for each private name a src/ module imports
    from a sibling, by file name and then source order."""
    found = []
    for name in sorted(files):
        if not name.endswith(".py"):
            continue
        for node in ast.walk(ast.parse(files[name])):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
                found += [f"{Path(name).stem} <- {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    return found


def module_all(source):
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return len(node.value.elts)
    return None


old, new = base_files("src"), tree_files("src")
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

old_counts, new_counts = settable_values(old), settable_values(new)
before, after = sum(old_counts.values()), sum(new_counts.values())
print(f"settable values: {before} at {tag}, {after} in the working tree, net {after - before:+d}")
changed = [f"{name} {old_counts.get(name, 0)} -> {new_counts.get(name, 0)}"
           for name in sorted(set(old_counts) | set(new_counts))
           if old_counts.get(name, 0) != new_counts.get(name, 0)]
print("  changed: " + (", ".join(changed) or "none"))

old_unused = unreferenced(old, base_files("perfbench"))
new_unused = unreferenced(new, tree_files("perfbench"))
print(f"re-exports no other src/ module or perfbench/*.py references: "
      f"{len(old_unused)} at {tag}, {len(new_unused)} in the working tree")
print(f"  at {tag}: " + (", ".join(old_unused) or "none"))
print("  in the working tree: " + (", ".join(new_unused) or "none"))

old_private, new_private = private_imports(old), private_imports(new)
print(f"private names a src/ module imports from a sibling: "
      f"{len(old_private)} at {tag}, {len(new_private)} in the working tree")
print(f"  at {tag}: " + (", ".join(old_private) or "none"))
print("  in the working tree: " + (", ".join(new_private) or "none"))

old_orphans = unreferenced_private(old, base_files("perfbench"))
new_orphans = unreferenced_private(new, tree_files("perfbench"))
print(f"private top-level src/ names no src/ module or perfbench/*.py references: "
      f"{len(old_orphans)} at {tag}, {len(new_orphans)} in the working tree")
print(f"  at {tag}: " + (", ".join(old_orphans) or "none"))
print("  in the working tree: " + (", ".join(new_orphans) or "none"))
EOF
