"""Every name a module of the package imports at module level is used there.

Deleting a function can leave behind the imports only it used; this check
catches them.  It parses the source with `ast` and runs nothing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ltpal"

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


def test_every_module_level_import_is_used_except_the_tool_hooks():
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update((path.stem, name) for name in _module_level_imports(tree) if name not in used)
    assert unused == HOOKS
