"""The package imports only downward: every module of src/covjord imports
(at module level or inside a function) only modules listed above its own
line in the layer list of the package docstring.  The README's module
table follows the same list.  Every top-level function and class is read
by the package or the benchmark, not only by the tests.  A private
top-level name is defined in one module only: a helper that two layers
share lives in the lower one and the higher one imports it."""

import ast
import re
from pathlib import Path

import covjord

PACKAGE = Path(covjord.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BENCH = ROOT / "bench"

# test oracles kept in the package: the graded construction is the planned
# euclidean route of the main identity (ROADMAP item 3)
TEST_ORACLES = {"detpower.dst_operator_graded"}


def layer_ranks() -> dict[str, int]:
    """Module name -> line number in the docstring's layer list; a layer
    line is indented by two spaces and names its modules before the gap."""
    ranks = {}
    for rank, line in enumerate(covjord.__doc__.splitlines()):
        match = re.match(r"  (\w+(?:, \w+)*)  ", line)
        if match:
            for name in match.group(1).split(", "):
                ranks[name] = rank
    return ranks


def relative_imports(path: Path) -> set[str]:
    """The package modules that a module names in `from . import m` or
    `from .m import ...`, anywhere in its body."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def names_read(tree: ast.AST) -> set[str]:
    """The names a syntax tree reads: loaded names, attributes and the
    names imported by `from ... import`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_layer_list_names_every_module():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(layer_ranks())


def test_modules_import_only_lower_layers():
    ranks = layer_ranks()
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":  # the package re-exports; it is no layer
            continue
        for target in sorted(relative_imports(path)):
            if ranks[target] >= ranks[path.stem]:
                upward.append(f"{path.stem} -> {target}")
    assert upward == []


def test_readme_table_follows_the_layer_list():
    # the first cell of each row of the module table names its modules
    rows = [line.split("|")[1] for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `covjord.")]
    named = [name for cell in rows for name in re.findall(r"`covjord\.(\w+)`", cell)]
    assert named == list(layer_ranks())


def test_every_definition_is_read_outside_the_tests():
    statements = [(path.stem, stmt) for path in sorted(PACKAGE.glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [names_read(stmt) for _, stmt in statements]
    bench = set().union(*(names_read(ast.parse(path.read_text(encoding="utf-8")))
                          for path in BENCH.glob("*.py")))
    unread = []
    for k, (module, stmt) in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if stmt.name in bench or any(stmt.name in other for j, other in enumerate(reads) if j != k):
            continue
        unread.append(f"{module}.{stmt.name}")
    unread.sort()
    # an oracle that gains a reader leaves the set
    assert unread == sorted(TEST_ORACLES)


def defined_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class, or the
    plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def test_private_names_are_defined_once():
    modules: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in defined_names(stmt):
                if name.startswith("_") and not name.endswith("__"):
                    modules.setdefault(name, []).append(path.stem)
    assert "_pack_mono" in modules
    assert {name: where for name, where in modules.items() if len(where) > 1} == {}
