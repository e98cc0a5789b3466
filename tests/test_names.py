"""The package's names: every public function and class has a caller in the
package or the benchmark, and no module imports another's private name."""

import ast
from pathlib import Path

import wordground

PACKAGE = Path(wordground.__file__).resolve().parent
BENCHMARKS = PACKAGE.parents[1] / "benchmarks"

# Public names that only tests call, each with the reason it stays.
TEST_ONLY = {
    "structure.build_baseline_network": "the ablation model of acceptance criterion 4",
}


def parsed(directory):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))}


def test_no_module_imports_a_private_name_of_another():
    crossings = [
        f"{path.name}:{node.lineno} imports {alias.name} from {'.' * node.level}{node.module or ''}"
        for path, tree in parsed(PACKAGE).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "wordground")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not crossings


def test_every_public_function_and_class_has_a_caller():
    package = parsed(PACKAGE)
    trees = {**package, **parsed(BENCHMARKS)}
    uncalled = []
    for path, tree in package.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            called = any(
                (n.id if isinstance(n, ast.Name) else n.attr) == node.name
                for other, other_tree in trees.items()
                for n in ast.walk(other_tree)
                if isinstance(n, (ast.Name, ast.Attribute))
                and not (other == path and id(n) in inside)
            )
            qualified = f"{path.stem}.{node.name}"
            if not called and qualified not in TEST_ONLY:
                uncalled.append(qualified)
    assert not uncalled
