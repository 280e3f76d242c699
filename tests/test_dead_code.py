"""No dead private code: each private function, class or class member in ``src/tradegains`` has a use."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tradegains"
TREES = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]


def private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_private_helper_is_used_outside_its_own_definition():
    defined, used = set(), set()
    for tree in TREES:
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own and private(own):
                defined.add(own)
            # a name used only inside its own definition, as by recursion, has no use
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name != own:
                    used.add(name)
    assert sorted(defined - used) == []


def references(node, owner, within):
    """Each name used below ``node``: ``(name, class, definitions)``.

    ``class`` is the class whose body encloses a ``self.name`` or
    ``cls.name``, and None for any other use; ``definitions`` are the
    functions and assignments that enclose the use.
    """
    for child in ast.iter_child_nodes(node):
        inner = within | {child} if isinstance(child, (ast.FunctionDef, ast.Assign, ast.AnnAssign)) else within
        if isinstance(child, ast.Name):
            yield child.id, None, inner
        elif isinstance(child, ast.Attribute):
            on_self = isinstance(child.value, ast.Name) and child.value.id in ("self", "cls")
            yield child.attr, owner if on_self else None, inner
        yield from references(child, child.name if isinstance(child, ast.ClassDef) else owner, inner)


def members(c):
    """The name and node of each method, property, cached table or class attribute in the body of class ``c``."""
    for node in c.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def test_every_private_class_member_is_used_outside_its_own_definition():
    # a use through self or cls counts only in the member's own line of
    # descent, so that a namesake in another class does not keep it
    classes = [node for tree in TREES for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    bases = {c.name: {b.id for b in c.bases if isinstance(b, ast.Name)} for c in classes}

    def ancestors(name):
        return {name}.union(*(ancestors(base) for base in bases.get(name, ())))

    def related(a, b):
        return a in ancestors(b) or b in ancestors(a)

    uses = [use for tree in TREES for use in references(tree, None, frozenset())]
    unused = [
        f"{c.name}.{name}"
        for c in classes
        for name, node in members(c)
        if private(name)
        and not any(
            use == name and node not in within and (owner is None or related(owner, c.name))
            for use, owner, within in uses
        )
    ]
    assert unused == []
