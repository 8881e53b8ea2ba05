import ast
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
