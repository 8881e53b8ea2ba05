import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "projpoly"


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


# Imports each projpoly module first, in a fresh package each time.  A bare
# package module stands in for projpoly/__init__.py, whose own import order
# would otherwise decide which module is loaded first.
IMPORT_FIRST = """
import importlib, pathlib, sys, types
package, names = sys.argv[1], sys.argv[2:]
sys.path.insert(0, str(pathlib.Path(package).parent))
failures = []
for name in names:
    for key in [k for k in sys.modules if k == "projpoly" or k.startswith("projpoly.")]:
        del sys.modules[key]
    if name != "__init__":
        bare = types.ModuleType("projpoly")
        bare.__path__ = [package]
        sys.modules["projpoly"] = bare
    try:
        importlib.import_module("projpoly" if name == "__init__" else f"projpoly.{name}")
    except Exception as exc:
        failures.append(f"{name}: {type(exc).__name__}: {exc}")
print("\\n".join(failures))
"""


def test_every_module_imports_first_without_a_cycle():
    names = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert "__init__" in names and "construction" in names
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_FIRST, str(PACKAGE), *names],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == ""


def test_loading_the_cli_leaves_the_process_pool_unloaded():
    # Only a parallel sweep needs the pool; every other command should not
    # pay for loading multiprocessing.
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import projpoly.cli; "
         "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))",
         str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


PERFBENCH = PACKAGE.parent.parent / "perfbench"


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every use of a name: a bare name, an attribute, or
    a part of a string that is a dotted name (``"linalg.positively_spans"``,
    as perfbench names what it wraps).  Imports are not uses."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                refs += [(part, node.lineno) for part in parts]
    return refs


def _public_definitions(tree: ast.Module) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of every public module-level function
    or class and every public method of those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        found.append(node)
        if isinstance(node, ast.ClassDef):
            found += [item for item in node.body if isinstance(item, kinds)]
    return [(d.name, d.lineno, d.end_lineno) for d in found if not d.name.startswith("_")]


def _standard_library_overrides(tree: ast.Module) -> set[int]:
    """First lines of the methods that override a method of a standard
    library base class (``class _Parser(argparse.ArgumentParser)``'s
    ``error``): the base class's own code calls them."""
    lines = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = []
        for base in node.bases:
            module, _, name = ast.unparse(base).rpartition(".")
            if module.split(".")[0] in sys.stdlib_module_names:
                bases.append(getattr(importlib.import_module(module), name))
        lines |= {item.lineno for item in node.body
                  if isinstance(item, ast.FunctionDef) and any(hasattr(b, item.name) for b in bases)}
    return lines


def unused_public_names(package: Path, callers: Path) -> list[str]:
    """``file:line name`` of each public definition in ``package`` that no
    code in the package uses outside its own definition, that nothing under
    ``callers`` names, and that overrides no method of a standard library
    base class."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(package.glob("*.py"))}
    outside = {name for path in sorted(callers.rglob("*.py"))
               for name, _ in _references(ast.parse(path.read_text(), filename=str(path)))}
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((path, line))
    unused = []
    for path, tree in trees.items():
        overrides = _standard_library_overrides(tree)
        for name, first, last in _public_definitions(tree):
            used = name in outside or first in overrides or any(
                where != path or not first <= line <= last for where, line in uses.get(name, ())
            )
            if not used:
                unused.append(f"{path.name}:{first} {name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = unused_public_names(PACKAGE, PERFBENCH)
    assert not unused, "public names only tests call:\n" + "\n".join(unused)


def unread_parameters(package: Path) -> list[str]:
    """``file:line function parameter`` of each parameter of a function or
    lambda in ``package``, ``self`` and ``cls`` aside, that its body never
    reads."""
    unread = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                name.id
                for statement in body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread += [
                f"{path.name}:{node.lineno} {name} {param.arg}"
                for param in params
                if param.arg not in ("self", "cls") and param.arg not in read
            ]
    return unread


def test_every_parameter_is_read():
    unread = unread_parameters(PACKAGE)
    assert not unread, "parameters no body reads:\n" + "\n".join(unread)


def _resolves(owner, parts: list[str]) -> bool:
    for part in parts:
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_every_name_in_the_readme_library_layout_exists():
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    section = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `projpoly.")]
    assert len(rows) == len(list(PACKAGE.glob("*.py"))) - 1
    modules = {path.stem: importlib.import_module(f"projpoly.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    missing = []
    for row in rows:
        for name in re.findall(r"`([^`]*)`", row):
            parts = name.split(".")
            if not all(part.isidentifier() for part in parts):
                continue
            if parts[0] == "projpoly":
                found = parts[1] in modules and _resolves(modules[parts[1]], parts[2:])
            elif parts[0] in modules:
                found = _resolves(modules[parts[0]], parts[1:])
            else:
                found = any(_resolves(module, parts) for module in modules.values())
            if not found:
                missing.append(name)
    assert missing == []
