"""Every top-level function and class in src/freewalk/ is reached by the
system: by name-reference closure from `cli.main`, the demos, the acceptance
criteria and the benchmark harness (its names, and the identifiers in its
strings, since `bench/tracer.py` wraps the functions its `LAYERS` names).

A definition that only a test reads belongs in that test, as its oracle.
Names are matched by identifier across modules (an attribute `x.name`
reaches every definition called `name`), so the closure can only
over-approximate what runs.  A module-level assignment is reached like a
definition; any other module-level statement runs on import and is a root.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "freewalk"


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


def unreached() -> list:
    """The top-level functions and classes of src/freewalk/ that the closure
    does not reach, as "module.name"."""
    defs = {}    # "module.name" -> the names its statement refers to
    checked = set()  # the keys of functions and classes
    roots = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
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
            if key not in reached and key.split(".", 1)[1] == name:
                reached.add(key)
                todo |= refs
    return sorted(checked - reached)


def test_every_definition_is_reached():
    missing = unreached()
    assert not missing, f"reached by nothing the system runs: {', '.join(missing)}"
