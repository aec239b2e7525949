"""Every public top-level function and class of the package has a user in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "procamsim"

# The writers of the rig and scene files. The package only reads those
# files, but users write them with these.
ALLOWED = {"save_rig", "save_scene"}


def test_every_public_definition_is_loaded_somewhere_in_the_package():
    defined = {}
    loaded = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert defined, f"no modules found under {SRC}"
    unused = sorted(
        f"{module}:{name}" for name, module in defined.items()
        if name not in loaded and name not in ALLOWED
    )
    assert unused == []
