"""Every top-level function and class in src/freewalk/, and every method of
those classes, is reached by the system: by name-reference closure from
`cli.main`, the demos, the acceptance criteria and the benchmark harness (its
names, and the identifiers in its strings, since `bench/tracer.py` wraps the
functions its `LAYERS` names).

A definition that only a test reads belongs in that test, as its oracle.
Names are matched by identifier across modules (an attribute `x.name`
reaches every definition called `name`), so the closure can only
over-approximate what runs.  A method is reached by its name, like a
function; a dunder method runs through Python's protocols, so it is reached
with its class.  A module-level assignment is reached like a definition; any
other module-level statement runs on import and is a root.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "freewalk"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(tree, strings=False) -> set:
    """Identifiers that `tree` refers to: names, attributes and, with
    `strings`, every identifier inside a string constant."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def _parse(path: Path):
    return ast.parse(path.read_text(), filename=str(path))


def _methods(cls: ast.ClassDef) -> list:
    """The methods of `cls` that are reached by name: all but the dunders."""
    return [node for node in cls.body if isinstance(node, FUNCTIONS)
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def unreached() -> list:
    """The top-level functions and classes of src/freewalk/ and the methods
    of those classes that the closure does not reach, as "module.name" and
    "module.Class.name"."""
    defs = {}    # "module.name" -> the names its statement refers to
    checked = set()  # the keys of functions, classes and methods
    roots = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, ast.ClassDef):
                methods = _methods(stmt)
                for method in methods:
                    key = f"{path.stem}.{stmt.name}.{method.name}"
                    defs[key] = _names(method)
                    checked.add(key)
                # the class refers to the rest: bases, attributes and dunders
                stmt.body = [node for node in stmt.body if node not in methods]
            if isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
                targets = [stmt.name]
                checked.add(f"{path.stem}.{stmt.name}")
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                bound = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                targets = [n.id for t in bound for n in ast.walk(t)
                           if isinstance(n, ast.Name)]
            else:
                roots |= _names(stmt)
                continue
            for name in targets:
                defs[f"{path.stem}.{name}"] = _names(stmt)
    roots |= defs["cli.main"]
    for path in [*sorted((ROOT / "demos").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        roots |= _names(_parse(path))
    for path in sorted((ROOT / "bench").glob("*.py")):
        roots |= _names(_parse(path), strings=True)
    reached, todo = {"cli.main"}, set(roots)
    while todo:
        name = todo.pop()
        for key, refs in defs.items():
            if key not in reached and key.rsplit(".", 1)[1] == name:
                reached.add(key)
                todo |= refs
    return sorted(checked - reached)


def test_every_definition_is_reached():
    missing = unreached()
    assert not missing, f"reached by nothing the system runs: {', '.join(missing)}"
