"""Every name a package module imports is used there or re-exported,
every package definition has a caller outside the tests, importing the
package loads no numpy, importing the CLI loads no scipy, and the io
check of ``verify`` no jsonschema.

Parsed with the stdlib ``ast``, so nothing is imported, except by the
import-footprint checks, which run a fresh interpreter;
``__init__.py`` is exempt from the import check, since re-exporting is
its job.
"""

import ast
import os
import subprocess
import sys
from collections import Counter

import supergaudin

PACKAGE_DIR = os.path.dirname(supergaudin.__file__)
PERFBENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


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


def _sources(directory):
    """File name to source text for every Python file in a directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                out[name] = fh.read()
    return out


def test_package_modules_import_no_unused_names():
    found = {}
    for name, source in _sources(PACKAGE_DIR).items():
        if name == "__init__.py":
            continue
        unused = unused_imports(source)
        if unused:
            found[name] = unused
    assert not found, found


def _names(tree):
    """Every identifier a module mentions: names, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1]


def _mentions(tree, name):
    """Every Name or Attribute node of ``tree`` that spells ``name``."""
    return {
        n
        for n in ast.walk(tree)
        if (isinstance(n, ast.Name) and n.id == name)
        or (isinstance(n, ast.Attribute) and n.attr == name)
    }


def test_only_tensor_apply_composes_one_slot_operators():
    # TensorModule.apply is the one core that composes the column-sparse
    # one-slot blocks, the Lax expansion included; any other reader of
    # slot_act_sparse would be a second way to compose one-slot words
    sources = _sources(PACKAGE_DIR)
    outside = [
        name
        for name, source in sources.items()
        if name != "modules.py" and _mentions(ast.parse(source), "slot_act_sparse")
    ]
    assert not outside
    tree = ast.parse(sources["modules.py"])
    apply = dict(_definitions(tree))["TensorModule.apply"]
    inside = _mentions(apply, "slot_act_sparse")
    assert inside
    assert _mentions(tree, "slot_act_sparse") == inside


def _spells(tree, name):
    """Every Name, Attribute or string constant of ``tree`` that spells
    ``name`` (``object.__setattr__`` names an attribute by a string)."""
    return _mentions(tree, name) | {
        n for n in ast.walk(tree) if isinstance(n, ast.Constant) and n.value == name
    }


def test_only_tensor_stored_builds_operator_blocks():
    # TensorModule.stored is the one code that builds, restricts and
    # caches an operator block (the diagonal action and every Gaudin
    # block), and TensorModule.__init__ only creates its dict; any other
    # reader or writer of block_store would be a second block store
    sources = _sources(PACKAGE_DIR)
    outside = [
        name
        for name, source in sources.items()
        if name != "modules.py" and _spells(ast.parse(source), "block_store")
    ]
    assert not outside, outside
    tree = ast.parse(sources["modules.py"])
    tensor = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "TensorModule")
    allowed = [
        item
        for item in tensor.body
        if isinstance(item, ast.FunctionDef) and item.name in ("__init__", "stored")
    ]
    assert len(allowed) == 2
    inside = [_spells(node, "block_store") for node in allowed]
    assert all(inside)
    assert _spells(tree, "block_store") == set().union(*inside)


def test_the_central_extension_lives_in_gaudin():
    # gaudin alone turns K and the iota pull-back into operator words, so
    # no other module names K; central_shift and the KZ gauge exponent
    # read the one flavor constant c = sum over a < 0 of (-1)^{2a}
    sources = _sources(PACKAGE_DIR)
    outside = [
        name
        for name, source in sources.items()
        if name != "gaudin.py" and _spells(ast.parse(source), "K_SYMBOL")
    ]
    assert not outside, outside
    gaudin = dict(_definitions(ast.parse(sources["gaudin.py"])))
    kz = dict(_definitions(ast.parse(sources["kz.py"])))
    for node in (gaudin["central_shift"], kz["gauge_exponent"]):
        body = ast.Module(body=node.body, type_ignores=[])
        assert _mentions(body, "central_constant")
        # the default flavor="super" is a signature, not a flavor branch
        assert not any(_spells(body, flavor) for flavor in ("super", "classical", "wide"))


def test_pair_blocks_are_read_from_the_one_store():
    # gaudin serves every stored block and KZSystem reads the Omega blocks
    # straight into floats; a second reader, or a copying pair_matrix,
    # would be a second way to the two-site Casimirs
    sources = _sources(PACKAGE_DIR)
    readers = [name for name, source in sources.items() if _spells(ast.parse(source), "_stored_block")]
    assert readers == ["gaudin.py", "kz.py"]
    defined = [
        name + ":" + qualname
        for name, source in sources.items()
        for qualname, _ in _definitions(ast.parse(source))
        if qualname.split(".")[-1] == "pair_matrix"
    ]
    assert not defined, defined


def test_int_rref_is_called_only_by_int_nullspace():
    # every basis the package solves against is built in echelon form and
    # linalg.echelon_block reads coordinates by substitution; any other
    # caller of int_rref would be a second, augmented re-solve path
    sources = _sources(PACKAGE_DIR)
    outside = [
        name
        for name, source in sources.items()
        if name != "kernels.py" and "int_rref" in set(_names(ast.parse(source)))
    ]
    assert not outside, outside
    tree = ast.parse(sources["kernels.py"])
    inside = _mentions(dict(_definitions(tree))["int_nullspace"], "int_rref")
    assert inside
    assert _mentions(tree, "int_rref") == inside


def test_verma_straightening_is_one_recursion():
    # _VermaBuilder.act straightens every unit, a lowering generator
    # included, so no second recursion (an insert) commutes in modules.py
    tree = ast.parse(_sources(PACKAGE_DIR)["modules.py"])
    definitions = dict(_definitions(tree))
    assert "_VermaBuilder.insert" not in definitions
    inside = _mentions(definitions["_VermaBuilder.act"], "bracket_units")
    assert inside
    assert _mentions(tree, "bracket_units") == inside


def test_block_targets_are_summed_only_where_blocks_are_built():
    # every realization's _block hands back (target, block), so neither
    # WeightModule._act nor a Lax entry derives the target again
    sources = _sources(PACKAGE_DIR)
    assert not _mentions(ast.parse(sources["laxmatrix.py"]), "weight_shift")
    act = dict(_definitions(ast.parse(sources["modules.py"])))["WeightModule._act"]
    assert not _mentions(act, "weight_shift")


def _definitions(tree):
    """(qualified name, node) for every top-level function and class and
    every non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield node.name + "." + item.name, item


def _dotted_strings(tree):
    """Every identifier part of every string constant ("gaudin.pair_matrix")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from (part for part in node.value.split(".") if part.isidentifier())


# module-level functions the interpreter calls (PEP 562)
MODULE_HOOKS = ("__getattr__", "__dir__")


def unreferenced_definitions(package, callers=()):
    """Sorted "file:qualified name" of the definitions in ``package`` (file
    name to source) that nothing references.

    A definition passes when its name is mentioned (as a name, an attribute
    or an import) in a package file other than ``__init__.py``, outside its
    own body; or in one of the ``callers`` sources, whose dotted string
    constants count too; or when ``__init__.py`` re-exports it; or when it
    is decorated, as click commands and properties are; or when it is a
    module-level hook the interpreter calls (``MODULE_HOOKS``).
    """
    trees = {name: ast.parse(source) for name, source in package.items()}
    refs = Counter()
    for name, tree in trees.items():
        if name != "__init__.py":
            refs.update(_names(tree))
    for source in callers:
        tree = ast.parse(source)
        refs.update(_names(tree))
        refs.update(_dotted_strings(tree))
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    found = []
    for fname, tree in sorted(trees.items()):
        for qualname, node in _definitions(tree):
            own = 0 if fname == "__init__.py" else sum(n == node.name for n in _names(node))
            if node.name in MODULE_HOOKS:
                continue
            if not (node.decorator_list or node.name in exported or refs[node.name] > own):
                found.append(fname + ":" + qualname)
    return sorted(found)


def test_the_caller_check_sees_uncalled_functions_and_methods():
    package = {
        "__init__.py": (
            "from .a import exported\n"
            "def init_only():\n    return quiet()\n"
            "def __getattr__(name):\n    return name\n"
            "def __dir__():\n    return []\n"
        ),
        "a.py": (
            "import click\n"
            "NAME = 'orphan'\n"
            "def exported(): pass\n"
            "def used(): return helper()\n"
            "def helper(): pass\n"
            "def lonely(): return lonely()\n"
            "def orphan(): pass\n"
            "def quiet(): pass\n"
            "def benched(): pass\n"
            "@click.command()\n"
            "def cmd(): pass\n"
            "class Box:\n"
            "    def __init__(self): self.fill()\n"
            "    def fill(self): pass\n"
            "    def spare(self): return self.spare()\n"
            "    def traced(self): pass\n"
        ),
        "b.py": "from .a import used, Box\ndef __getattr__(name): pass\ndef __missing__(): pass\n",
    }
    callers = ["TARGETS = [('a', 'benched'), 'a.Box.traced']\n"]
    assert unreferenced_definitions(package, callers) == [
        "__init__.py:init_only",
        "a.py:Box.spare",
        "a.py:lonely",
        "a.py:orphan",
        "a.py:quiet",
        "b.py:__missing__",
    ]
    # the same definitions with a caller each pass
    package["b.py"] += "Box().spare(); lonely(); orphan(); quiet(); init_only(); __missing__()\n"
    assert unreferenced_definitions(package, callers) == []


# TensorModule.basis_tuples has no caller in the package: it is a
# read-only inspection accessor, and tests/test_shared_tensors.py pins
# its copy semantics
CALLER_EXEMPT = ["modules.py:TensorModule.basis_tuples"]


def test_every_package_definition_has_a_caller_outside_the_tests():
    callers = list(_sources(PERFBENCH_DIR).values())
    assert unreferenced_definitions(_sources(PACKAGE_DIR), callers) == CALLER_EXEMPT


def _run_fresh(code):
    """Stdout lines of ``code`` run in a fresh interpreter on the package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.dirname(PACKAGE_DIR), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()


def test_importing_the_cli_loads_no_scipy():
    # the KZ transport steps the package's own DOP853; importing
    # scipy.integrate took most of a bare CLI start
    code = "import sys, supergaudin.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _run_fresh(code) == ["[]"]


def test_importing_the_package_loads_no_numpy():
    # floats enter only in the KZ layer and joint_diagonalize; numpy was
    # most of a bare package import
    code = "import sys, supergaudin; print('numpy' in sys.modules, 'supergaudin.kz' in sys.modules)"
    assert _run_fresh(code) == ["False False"]


def test_importing_the_cli_loads_numpy_and_kz():
    # the CLI loads the KZ layer at import, so a cold command that reaches
    # it (verify all runs the kz check) pays no import inside its work
    code = "import sys, supergaudin.cli; print('numpy' in sys.modules, 'supergaudin.kz' in sys.modules)"
    assert _run_fresh(code) == ["True True"]


def test_kz_names_resolve_from_the_kz_module():
    code = (
        "import supergaudin\n"
        "from supergaudin import KZSystem, monodromy\n"
        "import supergaudin.kz as kz\n"
        "print(KZSystem is kz.KZSystem, monodromy is kz.monodromy)\n"
        "print(all(getattr(supergaudin, name) is getattr(kz, name) for name in supergaudin._KZ_NAMES))\n"
        # resolved on each access, never bound in the package
        "print(supergaudin._KZ_NAMES.isdisjoint(vars(supergaudin)))\n"
        "print(supergaudin._KZ_NAMES <= set(dir(supergaudin)))\n"
    )
    assert _run_fresh(code) == ["True True", "True", "True", "True"]


def test_an_unknown_package_name_raises_attribute_error():
    code = (
        "import supergaudin\n"
        "try:\n"
        "    supergaudin.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "print(hasattr(supergaudin, 'KZ'))\n"
    )
    assert _run_fresh(code) == ["module 'supergaudin' has no attribute 'no_such_name'", "False"]


def test_verify_io_loads_no_jsonschema():
    # the shipped schemas are read by the package's own validator;
    # importing jsonschema, referencing and rpds took most of a cold io check
    code = (
        "import sys\n"
        "from supergaudin.cli import main\n"
        "main(['--json', 'verify', 'all', '--checks', 'io'], standalone_mode=False)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('jsonschema', 'referencing', 'rpds')))\n"
    )
    report, loaded = _run_fresh(code)
    assert '"schema_validated":true' in report
    assert loaded == "[]"
