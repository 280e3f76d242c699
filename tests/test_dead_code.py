"""No dead private helpers: each module-level private function or class in ``src/tradegains`` has a use."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tradegains"


def test_every_private_helper_is_used_outside_its_own_definition():
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own and own.startswith("_") and not own.startswith("__"):
                defined.add(own)
            # a name used only inside its own definition, as by recursion, has no use
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name != own:
                    used.add(name)
    assert sorted(defined - used) == []
