"""The package's schema validator: the shipped schema files themselves, the
refusals, and the verdicts of jsonschema on mutated CLI documents.

The comparisons with jsonschema skip when it is not installed; the fixed
cases also pin their expected verdicts, so they run either way.
"""

import copy
import functools
import json
import os
import re
import shutil

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from supergaudin import schemas_path, serialize
from supergaudin.cli import main
from supergaudin.serialize import (
    SCHEMA_ANNOTATIONS,
    SCHEMA_KEYWORDS,
    SchemaError,
    load_schemas,
    validate_document,
)

PATH = json.dumps([[[0, 0], [1, 0]], [[0, 0.5], [2, 0]]])
# one document of each kind the CLI prints, with the schema it obeys
COMMANDS = {
    "module-polynomial": ("module.schema.json", ["module", "build", "--m", "2", "--n", "1", "--lam", "2,1", "--no-cache"]),
    "module-irreducible": ("module.schema.json", ["module", "build", "--kind", "irreducible", "--lam", "2", "--depth", "2", "--no-cache"]),
    "hamiltonian": ("hamiltonian.schema.json", ["hamiltonian", "--ell", "2", "--z", "0,1", "--mu", "1,1"]),
    "duality-report": ("duality_report.schema.json", ["duality", "check", "--lams", "1;1", "--m", "1", "--n", "1", "--mu", "1,1", "--z", "0,1"]),
    "kz-solution": ("kz_solution.schema.json", ["kz", "solve", "--ell", "2", "--mu", "1,1", "--path", PATH]),
    "verify-report": ("verify_report.schema.json", ["verify", "all", "--checks", "io", "--seed", "3"]),
}


def _raw_schemas():
    """File name to parsed schema, read directly from the shipped files."""
    root = schemas_path()
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name)) as fh:
            out[name] = json.load(fh)
    return out


def _trimmed(doc):
    """``doc`` with every list cut to its first three members: jsonschema
    takes milliseconds per repeated node, and the repeats are alike."""
    if isinstance(doc, dict):
        return {key: _trimmed(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_trimmed(value) for value in doc[:3]]
    return doc


@functools.lru_cache(maxsize=None)
def _document(kind):
    res = CliRunner().invoke(main, ["--json", *COMMANDS[kind][1]])
    assert res.exit_code == 0, res.output
    doc = _trimmed(json.loads(res.output))
    assert _owned_verdict(doc, COMMANDS[kind][0])
    return doc


@functools.lru_cache(maxsize=None)
def _reference(schema_name):
    """jsonschema's validator for a shipped schema, over a registry of all."""
    jsonschema = pytest.importorskip("jsonschema")
    referencing = pytest.importorskip("referencing")
    schemas = _raw_schemas()
    registry = referencing.Registry().with_resources(
        (name, referencing.Resource.from_contents(schema)) for name, schema in schemas.items()
    )
    schema = schemas[schema_name]
    return jsonschema.validators.validator_for(schema)(schema, registry=registry)


def _owned_verdict(doc, schema_name):
    try:
        validate_document(doc, schema_name)
    except SchemaError:
        return False
    return True


def _nodes(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutated(doc, path, op, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value``,
    deleted, or given ``value`` as one more member (an object member
    named "extra"); deleting the root replaces it."""
    holder = [copy.deepcopy(doc)]
    path = (0,) + tuple(path)
    parent = functools.reduce(lambda node, key: node[key], path[:-1], holder)
    if op == "replace" or (op == "delete" and parent is holder):
        parent[path[-1]] = value
    elif op == "delete":
        del parent[path[-1]]
    elif isinstance(parent[path[-1]], dict):
        parent[path[-1]]["extra"] = value
    elif isinstance(parent[path[-1]], list):
        parent[path[-1]].append(value)
    return holder[0]


VALUES = [None, True, False, 0, 1, -1, 2.0, 1.5, -0.5, "", "x", "1/2", "-3", "1/0", "1\n", "super",
          [], [0], [0, 0], [0, 0, "1"], [1.0, 2.0], {}, {"level": "0", "coeffs": []}]


@pytest.mark.parametrize("kind", sorted(COMMANDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_verdicts_match_jsonschema_on_mutated_documents(kind, data):
    schema_name = COMMANDS[kind][0]
    reference = _reference(schema_name)
    doc = _document(kind)
    nodes = list(_nodes(doc))
    path = nodes[data.draw(st.integers(0, len(nodes) - 1), label="node")]
    op = data.draw(st.sampled_from(["replace", "delete", "insert"]), label="op")
    value = data.draw(st.sampled_from(VALUES) | st.integers(-3, 3), label="value")
    mutated = _mutated(doc, path, op, value)
    assert _owned_verdict(mutated, schema_name) == reference.is_valid(mutated), (path, op, value)


# (document, path, operation, value, valid): jsonschema's type rules, the
# minimum, additionalProperties: false and the prefixItems length bounds
FIXED_CASES = {
    "true-is-no-integer": ("module-polynomial", ("weights", 0, "dim"), "replace", True, False),
    "2.0-is-an-integer": ("module-polynomial", ("weights", 0, "dim"), "replace", 2.0, True),
    "1.5-is-no-integer": ("module-polynomial", ("weights", 0, "dim"), "replace", 1.5, False),
    "true-is-no-number": ("kz-solution", ("samples", 0, "t"), "replace", True, False),
    "coefficient-true": ("module-polynomial", ("weights", 0, "weight", "coeffs", 0, 1), "replace", True, False),
    "negative-under-minimum-0": ("module-polynomial", ("actions", 0, "triplets", 0, 0), "replace", -1, False),
    "zero-under-minimum-1": ("hamiltonian", ("matrices", 0, "site"), "replace", 0, False),
    "extra-weight-key": ("module-polynomial", ("weights", 0, "weight"), "insert", 1, False),
    "extra-report-key": ("verify-report", (), "insert", 1, True),
    "short-triplet": ("module-polynomial", ("actions", 0, "triplets", 0, 2), "delete", None, False),
    "long-triplet": ("module-polynomial", ("actions", 0, "triplets", 0), "insert", 1, False),
    "long-complex": ("kz-solution", ("samples", 0, "psi", 0), "insert", 0.0, False),
    "unknown-flavor": ("module-irreducible", ("index_set", "flavor"), "replace", "bogus", False),
    "enum-true": ("module-irreducible", ("provenance",), "replace", True, False),
    "rational-not-a-rational": ("module-polynomial", ("level",), "replace", "1.5", False),
    "rational-zero-denominator": ("module-polynomial", ("level",), "replace", "1/0", False),
    "rational-padded-zero-denominator": ("module-polynomial", ("level",), "replace", "-3/000", False),
    "rational-padded-denominator": ("module-polynomial", ("level",), "replace", "3/010", True),
    # re.search: "$" matches before a final newline, in both validators
    "rational-trailing-newline": ("module-polynomial", ("level",), "replace", "1\n", True),
    "missing-required": ("duality-report", ("dims", "super"), "delete", None, False),
}


@pytest.mark.parametrize("kind, path, op, value, valid", FIXED_CASES.values(), ids=FIXED_CASES.keys())
def test_fixed_cases_have_the_expected_verdict(kind, path, op, value, valid):
    schema_name = COMMANDS[kind][0]
    mutated = _mutated(_document(kind), path, op, value)
    assert _owned_verdict(mutated, schema_name) is valid
    if valid:
        return
    with pytest.raises(SchemaError) as caught:
        validate_document(mutated, schema_name)
    # the error carries the path of the failing node, at or under the mutation
    failing = path if op in ("replace", "insert") else path[:-1]
    assert caught.value.path[: len(failing)] == failing


@pytest.mark.parametrize("kind, path, op, value, valid", FIXED_CASES.values(), ids=FIXED_CASES.keys())
def test_fixed_cases_match_jsonschema(kind, path, op, value, valid):
    reference = _reference(COMMANDS[kind][0])
    assert reference.is_valid(_document(kind))
    assert reference.is_valid(_mutated(_document(kind), path, op, value)) is valid


def _subschemas(schema):
    """Every schema object nested in ``schema``, itself first."""
    if not isinstance(schema, dict):
        return
    yield schema
    for key in ("$defs", "properties"):
        for sub in schema.get(key, {}).values():
            yield from _subschemas(sub)
    for key in ("items", "additionalProperties"):
        yield from _subschemas(schema.get(key))
    for sub in schema.get("prefixItems", ()):
        yield from _subschemas(sub)


def test_the_shipped_schemas_use_exactly_the_supported_keywords():
    schemas = _raw_schemas()
    used = set()
    for name, schema in schemas.items():
        for sub in _subschemas(schema):
            used.update(sub)
            if "$ref" in sub:
                target, _, pointer = sub["$ref"].partition("#")
                node = schemas[target or name]
                for part in pointer.split("/")[1:]:
                    node = node[part]
                assert isinstance(node, dict), sub["$ref"]
            if "pattern" in sub:
                re.compile(sub["pattern"])
    assert used == SCHEMA_KEYWORDS | SCHEMA_ANNOTATIONS
    assert set(load_schemas(schemas_path())) == set(schemas)


def _edit_weight(schema, key, value):
    schema["$defs"]["weight"][key] = value


def _edit_level(schema, key, value):
    schema["$defs"]["weight"]["properties"]["level"][key] = value


REFUSED_EDITS = {
    "unknown-keyword": (_edit_weight, "oneOf", [{"type": "object"}], "unsupported schema keyword 'oneOf'"),
    "unknown-type": (_edit_weight, "type", "dict", "unknown type 'dict'"),
    "type-list": (_edit_weight, "type", ["object", "null"], "unknown type ['object', 'null']"),
    "enum-of-numbers": (_edit_weight, "enum", [0, 1], "an enum of other than strings"),
    "ref-to-no-file": (_edit_level, "$ref", "nope.schema.json#/$defs/rational", "does not resolve"),
    "ref-to-no-node": (_edit_level, "$ref", "#/$defs/irrational", "does not resolve"),
    "ref-to-an-anchor": (_edit_level, "$ref", "#rational", "does not resolve"),
    "pattern-not-compiling": (_edit_level, "pattern", "([0-9]", "does not compile"),
}


@pytest.mark.parametrize("edit, key, value, message", REFUSED_EDITS.values(), ids=REFUSED_EDITS.keys())
def test_a_schema_edit_the_validator_cannot_read_is_refused(tmp_path, edit, key, value, message):
    root = tmp_path / "schemas"
    shutil.copytree(schemas_path(), root)
    assert set(load_schemas(str(root))) == set(_raw_schemas())
    with open(root / "defs.schema.json") as fh:
        defs = json.load(fh)
    edit(defs, key, value)
    with open(root / "defs.schema.json", "w") as fh:
        json.dump(defs, fh)
    with pytest.raises(SchemaError, match=re.escape(message)) as caught:
        load_schemas(str(root))
    assert "defs.schema.json" in str(caught.value)
    assert caught.value.path[:2] == ("$defs", "weight")


def test_an_unknown_schema_name_is_a_schema_error():
    with pytest.raises(SchemaError, match="nope.schema.json"):
        validate_document({}, "nope.schema.json")


def test_items_start_after_the_prefix_items(tmp_path):
    # no shipped schema has both on one node; 2020-12 applies ``items`` to
    # the members past ``prefixItems`` only
    schema = {"type": "array", "prefixItems": [{"type": "string"}], "items": {"type": "integer"}}
    (tmp_path / "tuple.schema.json").write_text(json.dumps(schema))
    table = load_schemas(str(tmp_path))
    for doc, valid in ((["a", 1, 2], True), (["a"], True), ([], True), (["a", "b"], False), ([1], False)):
        try:
            serialize._validate(table, "tuple.schema.json", schema, doc, ())
            verdict = True
        except SchemaError:
            verdict = False
        assert verdict is valid, doc
