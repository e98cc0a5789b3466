"""The package's names: every public function and class has a caller, every
public method a call, and every property, dataclass field, `self.` attribute
and module-level constant a read, outside its own definition in the package
or the benchmark (its tests do not count); and no module imports another's
private name."""

import ast
from pathlib import Path

import wordground

PACKAGE = Path(wordground.__file__).resolve().parent
BENCHMARKS = PACKAGE.parents[1] / "benchmarks"

# Public names that only tests call or read, each with the reason it stays.
TEST_ONLY = {
    "structure.build_baseline_network": "the ablation model of acceptance criterion 4",
    "evaluation.EvalResult.detection_rate": "the impossibility number of acceptance criterion 8",
}


def parsed(directory):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))}


def readers():
    """The package's and the benchmark's modules, without the benchmark's tests."""
    trees = {**parsed(PACKAGE), **parsed(BENCHMARKS)}
    return {path: tree for path, tree in trees.items() if not path.name.startswith("test_")}


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
    trees = readers()
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


def _assigned(statement):
    """The names a module- or class-level statement assigns."""
    targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _members(tree):
    """(qualified name, kind, defining node) of each member of a module: a
    "method", a "member" (a property, a class-level field or a `self.`
    attribute) or a module-level "constant"."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            yield from ((name, "constant", node) for name in _assigned(node))
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.Assign, ast.AnnAssign)):
                yield from ((f"{node.name}.{name}", "member", item) for name in _assigned(item))
            if not isinstance(item, ast.FunctionDef):
                continue
            decorators = {ast.unparse(d).rpartition(".")[2] for d in item.decorator_list}
            kind = "member" if decorators & {"property", "cached_property"} else "method"
            yield f"{node.name}.{item.name}", kind, item
            for statement in ast.walk(item):
                if isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    for target in statement.targets if isinstance(statement, ast.Assign) else [statement.target]:
                        if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self":
                            yield f"{node.name}.{target.attr}", "member", statement


def _uses(node, name, kind):
    """Whether `node` uses the member `name` of that kind: a method by an
    `ast.Call` of an attribute of that name, so that a field of the same
    name does not count; a member by an attribute load; a constant also by
    a name load."""
    if kind == "method":
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == name
    if kind == "constant" and isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    return isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.ctx, ast.Load)


def test_every_public_member_and_constant_has_a_reader():
    trees = readers()
    unread = set()
    for path, tree in parsed(PACKAGE).items():
        for member, kind, definition in _members(tree):
            name = member.rpartition(".")[2]
            if name.startswith("_"):
                continue
            inside = {id(n) for n in ast.walk(definition)}
            used = any(
                _uses(n, name, kind) and not (other == path and id(n) in inside)
                for other, other_tree in trees.items()
                for n in ast.walk(other_tree)
            )
            qualified = f"{path.stem}.{member}"
            if not used and qualified not in TEST_ONLY:
                unread.add(qualified)
    assert not sorted(unread)
