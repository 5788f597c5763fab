"""Every routine in src/tateshift is reached by a command or by perfbench/.

A name-level AST call graph: the roots are every name used by a cli.py
definition, by module-level code of src/tateshift (the exports of its
__init__.py do not count) and by perfbench/ (its string literals included,
since spans.py names the functions it wraps).  A definition is reached once
its name is used by a root or by a reached definition; dunder methods are
always reached.  A module-level function or class is used by its bare name,
an attribute of that name or a string naming it; a method only by an
attribute or a string, so a local variable of the same name does not reach
it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tateshift"


def _names(node):
    """The names node uses: a bare name as itself, an attribute or a piece
    of a dotted string as "." + the name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield "." + sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from ("." + piece for piece in sub.value.split("."))


def unreached():
    defs, roots = [], set()  # defs: (qualified name, names that reach it, nodes)
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                roots.update(_names(node))
                continue
            methods = []
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
            # a class's own names exclude those of its methods
            own = [n for n in ast.iter_child_nodes(node) if n not in methods]
            defs.append((f"{path.stem}.{node.name}",
                         {node.name, "." + node.name}, own))
            defs += [(f"{path.stem}.{node.name}.{m.name}", {"." + m.name}, [m])
                     for m in methods]
            if path.stem == "cli":
                roots.update(_names(node))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        roots.update(_names(ast.parse(path.read_text())))
    reached, grew = set(), True
    while grew:
        grew = False
        for qual, names, nodes in defs:
            name = qual.rsplit(".", 1)[1]
            dunder = name.startswith("__") and name.endswith("__")
            if qual not in reached and (names & roots or dunder):
                reached.add(qual)
                roots.update(used for n in nodes for used in _names(n))
                grew = True
    return sorted(qual for qual, _, _ in defs if qual not in reached)


def test_every_routine_in_src_is_reached():
    assert unreached() == []
