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
        # c is read off the index set, never by a flavor branch
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


def test_duality_and_truncation_read_the_module_layer_rules():
    # the duality weights are the polynomial highest weights of the master
    # partition and a truncation keeps the weights supported on the
    # smaller index set; a hook_correspondence or an in_lattice would be a
    # second copy of either rule
    sources = _sources(PACKAGE_DIR)
    defined = [
        name + ":" + qualname
        for name, source in sources.items()
        for qualname, _ in _definitions(ast.parse(source))
        if qualname in ("hook_correspondence", "in_lattice")
    ]
    assert not defined, defined
    duality = set(_names(ast.parse(sources["duality.py"])))
    assert not duality & {"highest_weight", "unitarizable_weight"}
    assert "polynomial_highest_weight" in duality


def test_no_package_function_takes_a_flavor():
    # the index set names the algebra; a flavor (or p, q) passed beside it
    # could disagree with it.  indices.py builds the sets, and cli.py
    # reads the flavor option
    sources = _sources(PACKAGE_DIR)
    found = [
        "%s:%d" % (name, node.lineno)
        for name, source in sources.items()
        if name not in ("indices.py", "cli.py")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and "flavor" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    ]
    assert not found, found


def test_the_algebra_layers_construct_no_index_set():
    # weights, gaudin, kz, modules and laxmatrix read the index set they
    # are handed (or the one of the tensor or system they act on)
    sources = _sources(PACKAGE_DIR)
    found = [
        "%s:%d" % (name, node.lineno)
        for name in ("weights.py", "gaudin.py", "kz.py", "modules.py", "laxmatrix.py")
        for node in ast.walk(ast.parse(sources[name]))
        if isinstance(node, ast.Call)
        and "IndexSet" in {n.id for n in ast.walk(node.func) if isinstance(n, ast.Name)}
    ]
    assert not found, found


def test_span_builder_is_the_one_row_elimination():
    # SpanBuilder.add eliminates for the Pieri spans, the cyclic test and
    # the kernels alike: no package module defines a second elimination
    # (an int_rref), and int_nullspace reads the kernel off a SpanBuilder
    sources = _sources(PACKAGE_DIR)
    found = [
        name
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "int_rref"
    ]
    assert not found, found
    tree = ast.parse(sources["kernels.py"])
    assert _mentions(dict(_definitions(tree))["int_nullspace"], "SpanBuilder")


def test_the_radical_recursion_is_the_one_quotient():
    # irreducible_truncated reads its radical off the simple raising units
    # through _radical_recursion; the Gram matrices are the tests' oracle,
    # and no package module defines a gram_matrices beside the recursion
    sources = _sources(PACKAGE_DIR)
    found = [
        name
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "gram_matrices"
    ]
    assert not found, found
    tree = ast.parse(sources["modules.py"])
    assert _mentions(dict(_definitions(tree))["irreducible_truncated"], "_radical_recursion")


def test_the_truncated_verma_is_one_enumeration():
    # _TruncatedVerma reads every weight and its deficit height off the one
    # height-pruned enumeration; a deficit_height per weight would be a
    # second path, and a second caller of monomials a second enumeration
    tree = ast.parse(_sources(PACKAGE_DIR)["modules.py"])
    truncated = dict(_definitions(tree))["_TruncatedVerma"]
    assert not _mentions(truncated, "deficit_height")
    inside = _mentions(truncated, "monomials")
    assert inside
    assert _mentions(tree, "monomials") == inside


def test_hamiltonian_family_is_the_one_family_constructor():
    # HamiltonianFamily owns the kind, convention, levels and flavor rules:
    # a quadratic_family, cubic_family or _build_family would be a second
    # owner, and a literal --kind or --convention choice list in the CLI a
    # second copy of gaudin.KINDS or gaudin.CONVENTIONS
    sources = _sources(PACKAGE_DIR)
    defined = [
        name + ":" + qualname
        for name, source in sources.items()
        for qualname, _ in _definitions(ast.parse(source))
        if qualname in ("quadratic_family", "cubic_family", "_build_family")
    ]
    assert not defined, defined
    tree = ast.parse(sources["cli.py"])
    imported = {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "gaudin"
        for alias in node.names
    }
    assert {"KINDS", "CONVENTIONS"} <= imported
    choices = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "option"):
            continue
        spelled = {a.value for a in node.args if isinstance(a, ast.Constant)}
        if spelled & {"ham_kind", "--convention"}:
            kind = next(k.value for k in node.keywords if k.arg == "type")
            (arg,) = kind.args
            choices.append(arg.id if isinstance(arg, ast.Name) else ast.dump(arg))
    assert sorted(choices) == ["CONVENTIONS", "CONVENTIONS", "KINDS", "KINDS"], choices


# the CLI options that take a rank, a size or a count
BOUNDED_OPTIONS = {"--q", "--m", "--p", "--n", "--k", "--ell", "--depth", "--trials"}


def test_cli_options_are_parsed_where_they_are_declared():
    # each option owns its parsing and its bound: a field splitter or a
    # range check by hand in cli.py would be a second owner, and a rank,
    # size or count of plain type=int would take any value
    tree = ast.parse(_sources(PACKAGE_DIR)["cli.py"])
    defined = {qualname for qualname, _ in _definitions(tree)}
    assert not defined & {"_fields", "_parse_partition", "_parse_fracs"}, defined
    assert not _mentions(tree, "MAX_VERIFY_DIM")
    declared = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "option"):
            continue
        spelled = {a.value for a in node.args if isinstance(a, ast.Constant)} & BOUNDED_OPTIONS
        if spelled:
            kind = next((k.value for k in node.keywords if k.arg == "type"), None)
            declared.append((spelled.pop(), ast.dump(kind) if kind is not None else None))
    assert {option for option, _ in declared} == BOUNDED_OPTIONS
    plain = [(option, kind) for option, kind in declared if kind in (None, ast.dump(ast.Name("int", ast.Load())))]
    assert not plain, plain


def test_tensor_factors_are_whole_polynomial_or_natural_modules():
    # a tensor factor is V_lam or the natural module: a factor kind or a
    # depth on a tensor command would bring back truncated factors, which
    # are not modules; only module build prints a truncation
    tree = ast.parse(_sources(PACKAGE_DIR)["cli.py"])
    definitions = dict(_definitions(tree))
    tensor = definitions["_tensor"]
    for name in ("irreducible_truncated", "verma_truncated"):
        assert not _mentions(tensor, name), name
    kinds = {n.value for n in ast.walk(tensor) if isinstance(n, ast.Constant) and n.value in ("irreducible", "verma")}
    assert not kinds, kinds
    declared = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "option":
            for arg in node.args:
                if isinstance(arg, ast.Constant) and arg.value in ("--factor-kind", "--depth"):
                    declared.setdefault(arg.value, []).append(node)
    assert "--factor-kind" not in declared
    (depth,) = declared["--depth"]
    assert depth in definitions["module_build"].decorator_list


def test_verma_straightening_is_one_recursion():
    # _VermaBuilder.act straightens every unit, a lowering generator
    # included, so no second recursion (an insert) commutes in modules.py
    tree = ast.parse(_sources(PACKAGE_DIR)["modules.py"])
    definitions = dict(_definitions(tree))
    assert "_VermaBuilder.insert" not in definitions
    inside = _mentions(definitions["_VermaBuilder.act"], "bracket_units")
    assert inside
    assert _mentions(tree, "bracket_units") == inside


def test_realize_is_the_one_realization_path():
    # _realize reads the simple units and derives every other block of an
    # explicit module; a second derivation, or a represents predicting the
    # truncated Verma's band refusal, would be a second path
    sources = _sources(PACKAGE_DIR)
    defined = [
        name + ":" + qualname
        for name, source in sources.items()
        for qualname, _ in _definitions(ast.parse(source))
        if qualname.split(".")[-1] in ("represents", "_position")
    ]
    assert not defined, defined
    tree = ast.parse(sources["modules.py"])
    inside = _mentions(dict(_definitions(tree))["_realize"], "mat_mul")
    assert inside
    assert _mentions(tree, "mat_mul") == inside


def test_block_targets_are_summed_only_where_blocks_are_built():
    # every realization's _block hands back (target, block), so neither
    # WeightModule.act nor a Lax entry derives the target again
    sources = _sources(PACKAGE_DIR)
    assert not _mentions(ast.parse(sources["laxmatrix.py"]), "weight_shift")
    act = dict(_definitions(ast.parse(sources["modules.py"])))["WeightModule.act"]
    assert not _mentions(act, "weight_shift")


def test_weight_module_has_one_act():
    # blocks are tuples where they are built, so act hands them out as
    # they are: a second, copy-free _act would be a second way to read one
    sources = _sources(PACKAGE_DIR)
    definitions = dict(_definitions(ast.parse(sources["modules.py"])))
    assert "WeightModule.act" in definitions
    assert "WeightModule._act" not in definitions
    callers = [name for name, source in sources.items() if _mentions(ast.parse(source), "_act")]
    assert not callers, callers


def _allocates(node):
    """``object.__new__(...)``: an allocation that skips the constructor."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    )


def test_weights_are_interned():
    # equal weights are one object, so Weight keeps object's identity
    # __eq__ and __hash__ (dicts keyed by weights hash in C), and the
    # intern table's lookup in Weight._raw is the one place a weight is
    # allocated: no other package code calls object.__new__
    sources = _sources(PACKAGE_DIR)
    tree = ast.parse(sources["weights.py"])
    definitions = dict(_definitions(tree))
    bound = {item.name for item in definitions["Weight"].body if isinstance(item, ast.FunctionDef)} | {
        t.id
        for item in definitions["Weight"].body
        if isinstance(item, ast.Assign)
        for t in item.targets
        if isinstance(t, ast.Name)
    }
    assert not bound & {"__eq__", "__hash__"}
    found = [
        "%s:%d" % (name, node.lineno)
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if _allocates(node)
    ]
    inside = ["weights.py:%d" % node.lineno for node in ast.walk(definitions["Weight._raw"]) if _allocates(node)]
    assert inside and found == inside, found


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


def _references(tree, classes, cls=None):
    """Counter of (name, owner, how) for every name ``tree`` mentions.

    ``how`` is "name" for a bare name or an import, "attr" for an attribute
    of anything but a class of ``classes`` or ``self``, "class" for
    ``C.attr`` and "self" for ``self.attr`` inside class C; the owner is
    C for the last two, else None."""
    refs = Counter()

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Name):
            refs[node.id, None, "name"] += 1
        elif isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name) and value.id in classes:
                refs[node.attr, value.id, "class"] += 1
            elif isinstance(value, ast.Name) and value.id == "self" and cls in classes:
                refs[node.attr, cls, "self"] += 1
            else:
                refs[node.attr, None, "attr"] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                refs[alias.name.split(".")[-1], None, "name"] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, cls)
    return refs


def _ancestry(cls, bases):
    """The class and every base of it, by name."""
    out, todo = set(), [cls]
    while todo:
        name = todo.pop()
        if name not in out:
            out.add(name)
            todo.extend(bases.get(name, ()))
    return out


def _credit(refs, name, cls, bases):
    """How many of ``refs`` can reach the definition ``name`` of class
    ``cls``, or of the module when cls is None.  A function is reached by
    a bare name, an import or an unowned attribute; a method by an unowned
    attribute, by ``C.attr`` when cls is C or a base of it, and by
    ``self.attr`` inside class C also when cls is a subclass of C, whose
    override self may dispatch to."""
    if cls is None:
        return refs[name, None, "name"] + refs[name, None, "attr"]
    total = refs[name, None, "attr"]
    for (ref, owner, how), count in refs.items():
        if ref == name and owner is not None and (
            cls in _ancestry(owner, bases) or how == "self" and owner in _ancestry(cls, bases)
        ):
            total += count
    return total


def _registers_a_click_command(decorator):
    """``@group.command(...)`` or ``@click.group(...)``: click calls these."""
    return (
        isinstance(decorator, ast.Call)
        and isinstance(decorator.func, ast.Attribute)
        and decorator.func.attr in ("command", "group")
    )


def unreferenced_definitions(package, callers=()):
    """Sorted "file:qualified name" of the definitions in ``package`` (file
    name to source) that nothing references.

    A definition passes when its name is mentioned (as a name, an attribute
    or an import) in a package file other than ``__init__.py``, outside its
    own body; or in one of the ``callers`` sources, whose dotted string
    constants count too; or when ``__init__.py`` re-exports it; or when it
    registers a click command; or when it is a module-level hook the
    interpreter calls (``MODULE_HOOKS``).  A method is mentioned only by
    an attribute that can reach it (see ``_credit``): ``C.attr`` names
    C's method or a base's, and ``self.attr`` inside class C also a
    subclass's override.
    """
    trees = {name: ast.parse(source) for name, source in package.items()}
    bases = {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for tree in trees.values()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    refs = Counter()
    for name, tree in trees.items():
        if name != "__init__.py":
            refs.update(_references(tree, bases))
    for source in callers:
        tree = ast.parse(source)
        refs.update(_references(tree, bases))
        refs.update((part, None, "attr") for part in _dotted_strings(tree))
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    found = []
    for fname, tree in sorted(trees.items()):
        for qualname, node in _definitions(tree):
            cls = qualname.split(".")[0] if "." in qualname else None
            own = Counter() if fname == "__init__.py" else _references(node, bases, cls)
            if node.name in MODULE_HOOKS or node.name in exported:
                continue
            if any(map(_registers_a_click_command, getattr(node, "decorator_list", ()))):
                continue
            if _credit(refs, node.name, cls, bases) <= _credit(own, node.name, cls, bases):
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
            "import functools\n"
            "NAME = 'orphan'\n"
            "def exported(): pass\n"
            "def used(): return helper()\n"
            "def helper(): pass\n"
            "def lonely(): return lonely()\n"
            "def orphan(): pass\n"
            "def quiet(): pass\n"
            "def benched(): pass\n"
            "@functools.lru_cache(maxsize=None)\n"
            "def cached(): pass\n"
            "@click.command()\n"
            "def cmd(): pass\n"
            "class Box:\n"
            "    def __init__(self): self.fill()\n"
            "    def fill(self): pass\n"
            "    def spare(self): return self.spare()\n"
            "    def traced(self): pass\n"
            "    def step(self): return self.hook()\n"
            "    @classmethod\n"
            "    def make(cls): pass\n"
            "    @property\n"
            "    def size(self): pass\n"
            "class Crate(Box):\n"
            "    def hook(self): pass\n"
            "class Tin:\n"
            "    @classmethod\n"
            "    def make(cls): return Crate.fill\n"
        ),
        "b.py": (
            "from .a import used, Box, Crate, Tin\n"
            "def __getattr__(name): pass\n"
            "def __missing__(): pass\n"
            "Tin.make(); Crate().step(); size = spare = 1\n"
        ),
    }
    callers = ["TARGETS = [('a', 'benched'), 'a.Box.traced']\n"]
    assert unreferenced_definitions(package, callers) == [
        "__init__.py:init_only",
        "a.py:Box.make",
        "a.py:Box.size",
        "a.py:Box.spare",
        "a.py:cached",
        "a.py:lonely",
        "a.py:orphan",
        "a.py:quiet",
        "b.py:__missing__",
    ]
    # the same definitions with a caller each pass
    package["b.py"] += (
        "Box().spare(); lonely(); orphan(); quiet(); init_only(); __missing__(); cached()\n"
        "Box.make(); Box().size\n"
    )
    assert unreferenced_definitions(package, callers) == []


# TensorModule.basis_tuples has no caller in the package: it is a
# read-only inspection accessor, and tests/test_shared_tensors.py pins
# that it hands out the stored tuple, which cannot be mutated.  click
# calls Parsed.convert, the hook of every click.ParamType, on each value
CALLER_EXEMPT = ["cli.py:Parsed.convert", "modules.py:TensorModule.basis_tuples"]


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
