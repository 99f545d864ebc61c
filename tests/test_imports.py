"""Every name a package module imports is used there or re-exported.

Parsed with the stdlib ``ast``, so nothing is imported; ``__init__.py``
is exempt, since re-exporting is its job.
"""

import ast
import os

import supergaudin

PACKAGE_DIR = os.path.dirname(supergaudin.__file__)


def _bound_names(node):
    """(name, line) for every name an import statement binds."""
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname:
            yield alias.asname, node.lineno
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0], node.lineno
        else:
            yield alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """Sorted (line, name) pairs of imported names never used or exported."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            unused.update((line, name) for name, line in _bound_names(node) if name not in used)
    return sorted(unused)


def test_the_checker_sees_unused_and_exported_names():
    source = (
        "import os.path\n"
        "import numpy as np\n"
        "from .a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "def f():\n"
        "    from .g import h\n"
        "    return os.sep, d\n"
    )
    assert unused_imports(source) == [(2, "np"), (3, "b"), (6, "h")]


def test_package_modules_import_no_unused_names():
    found = {}
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(PACKAGE_DIR, name)) as fh:
            unused = unused_imports(fh.read())
        if unused:
            found[name] = unused
    assert not found, found
