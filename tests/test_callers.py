"""Every function, class and method of the package has a caller outside the
tests: a helper that only tests call belongs in the tests."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tempkg"
# callers outside the tests: the package itself and the benchmark
CALLER_FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
# called from outside any source file: the console script
ENTRY_POINTS = {"cli.main"}
# still called only by tests: filtered_ranks on one row, kept under its name
# while the benchmark traces it (ROADMAP item 10)
ONLY_TESTS_CALL = {"evaluation.rank_query"}


def definitions(tree: ast.Module, module: str):
    """(qualified name, node) of every top-level function and class and of
    every method of a top-level class; dunder methods are called by Python."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item


def references(tree: ast.AST) -> list[str]:
    """Every identifier read as a name or an attribute under ``tree``."""
    return [node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]


def uncalled(sources: dict[str, str]) -> list[str]:
    """Definitions in ``sources`` (module name -> text) whose name is read
    nowhere in them but inside their own body."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    counts: dict[str, int] = {}
    for tree in trees.values():
        for name in references(tree):
            counts[name] = counts.get(name, 0) + 1
    missing = []
    for module, tree in trees.items():
        for qualified, node in definitions(tree, module):
            own = references(node).count(node.name)
            if counts.get(node.name, 0) == own:
                missing.append(qualified)
    return sorted(missing)


def package_sources() -> dict[str, str]:
    return {(path.stem if path.parent == PACKAGE else f"perfbench.{path.stem}"):
            path.read_text(encoding="utf-8") for path in CALLER_FILES}


def test_every_package_definition_has_a_non_test_caller():
    found = {name for name in uncalled(package_sources()) if not name.startswith("perfbench.")}
    assert found - ENTRY_POINTS == ONLY_TESTS_CALL


def test_checker_flags_a_definition_only_its_own_body_reads():
    source = ("def used():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Holder:\n"
              "    def __len__(self):\n        return 0\n"
              "    def read(self):\n        return used()\n"
              "    def unread(self):\n        return self.read()\n"
              "Holder()\n")
    assert uncalled({"m": source}) == ["m.Holder.unread", "m.recursive"]
