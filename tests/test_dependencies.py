"""The package's declared runtime dependencies are exactly the third-party
modules its source imports, so none is undeclared and none is stale."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_level_modules(package: Path) -> set:
    modules = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules


def test_declared_dependencies_are_the_third_party_modules_the_package_imports():
    package = ROOT / "src" / "zoocast"
    third_party = _imported_top_level_modules(package) - set(sys.stdlib_module_names) - {package.name}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    # a requirement's distribution name, normalized as an import name
    declared = {re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_") for req in project["dependencies"]}
    assert third_party == declared


def _unused_imports(path: Path) -> list:
    """The names that `path` imports but never reads; names its `__all__`
    re-exports and `from __future__` imports are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_every_name_a_module_imports_is_used():
    # the package, its scripts and its tests; perfbench/ is the benchmark's own
    paths = [*(ROOT / "src" / "zoocast").rglob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    unused = {str(path.relative_to(ROOT)): _unused_imports(path) for path in sorted(paths)}
    assert {name: names for name, names in unused.items() if names} == {}
