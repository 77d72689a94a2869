"""Source-level checks on the library itself."""
import ast
import pathlib

import mfresnet

SRC = pathlib.Path(mfresnet.__file__).parent


def test_every_library_definition_is_used_in_the_library():
    """Every function, method and class in src/mfresnet is named somewhere in
    src/mfresnet, so the library holds no code that only tests call.  Import
    aliases (the exports in __init__.py) are not uses."""
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(defined - used)
    assert not unused, f"defined in src/mfresnet but never used there: {unused}"
