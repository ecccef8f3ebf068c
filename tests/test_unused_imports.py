"""Every name a module of the package or of its tests imports at module
level is used there.

Deleting a function can leave behind the imports only it used; this check
catches them.  It parses the source with `ast` and runs nothing.
"""

import ast
from pathlib import Path


TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ltpal"

# Imported but unused on purpose, each marked `# noqa: F401`: tools that
# time a layer rebind these names in the importing module.
HOOKS = {
    ("classify", "enumerate_total_paths"),
    ("serialize", "enrich_model"),
    ("temporal", "pal_sat"),
}


def _module_level_imports(tree):
    """The name each import statement at module level binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _unused(directory):
    unused = set()
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        # A parameter counts as a use: pytest passes a fixture by its name.
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
        unused.update((path.stem, name) for name in _module_level_imports(tree) if name not in used)
    return unused


def test_every_module_level_import_is_used_except_the_tool_hooks():
    assert _unused(SRC) == HOOKS


def test_every_module_level_import_in_the_tests_is_used():
    assert _unused(TESTS) == set()
