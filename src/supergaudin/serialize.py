"""JSON conventions: rationals as "p/q" strings, complex as [re, im] pairs,
matrices as sorted sparse triplets, indices by their doubled value."""

import functools
import json
import numbers
import os
import re
from fractions import Fraction
from types import MappingProxyType

from .algebra import BasisElement, off_diagonal_units
from .indices import HalfIndex, IndexSet
from .modules import ExplicitModule
from .partitions import Partition
from .weights import Weight


def frac_str(x):
    return str(Fraction(x))


def matrix_triplets(mat):
    """Sparse [row, col, "p/q"] triplets, row-major order."""
    out = []
    for r, row in enumerate(mat):
        for c, v in enumerate(row):
            if v:
                out.append([r, c, frac_str(v)])
    return out


def rational(text):
    """The Fraction a "p/q" string names; ValueError for q = 0."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None


def matrix_from_triplets(triplets, nrows, ncols):
    mat = [[Fraction(0)] * ncols for _ in range(nrows)]
    for r, c, v in triplets:
        mat[r][c] = rational(v)
    return mat


def index_set_from_json(obj):
    flavor = obj["flavor"]
    if flavor == "super":
        return IndexSet.gl(obj["q"], obj["m"], obj["p"], obj["n"])
    # the classical and wide flavors read p and n only; IndexSet refuses
    # any other flavor
    return IndexSet(flavor, p=obj["p"], n=obj["n"])


def module_to_json(module):
    """Weights, dims and the sparse off-diagonal action blocks; a block
    that a truncated Verma refuses, as leaving its depth band, is left
    out."""
    weights = module.weights()
    wj = [{"weight": w.to_json(), "dim": module.dim(w)} for w in weights]
    actions = []
    for gen in off_diagonal_units(module.index_set):
        for w in weights:
            try:
                res = module.act(gen, w)
            except ValueError:
                continue
            if res is None:
                continue
            trip = matrix_triplets(res[1])
            if trip:
                actions.append(
                    {
                        "row": gen.row.doubled,
                        "col": gen.col.doubled,
                        "weight": w.to_json(),
                        "triplets": trip,
                    }
                )
    doc = {
        "index_set": {"flavor": module.index_set.flavor, **module.index_set.params()},
        "level": frac_str(module.level),
        "provenance": module.provenance,
        "weights": wj,
        "actions": actions,
    }
    # what truncation_check needs to rebuild the realization, when known
    hw = getattr(module, "highest_weight", None)
    if hw is not None:
        doc["highest_weight"] = hw.to_json()
    shape = getattr(module, "shape", None)
    if shape is not None:
        doc["shape"] = list(shape.parts)
    depth = getattr(module, "depth", None)
    if depth is not None:
        doc["depth"] = depth
    return doc


def module_from_json(obj):
    index_set = index_set_from_json(obj["index_set"])
    dims = {}
    for item in obj["weights"]:
        dims[Weight.from_json(item["weight"])] = item["dim"]
    blocks = {}
    for act in obj["actions"]:
        w = Weight.from_json(act["weight"])
        gen = BasisElement(HalfIndex(act["row"]), HalfIndex(act["col"]))
        target = w + gen.weight_shift()
        blocks[(gen.key(), w)] = (
            target,
            matrix_from_triplets(act["triplets"], dims.get(target, 0), dims[w]),
        )
    hw = obj.get("highest_weight")
    shape = obj.get("shape")
    return ExplicitModule(
        index_set,
        rational(obj["level"]),
        dims,
        blocks,
        obj["provenance"],
        highest_weight=None if hw is None else Weight.from_json(hw),
        shape=None if shape is None else Partition(shape),
        depth=obj.get("depth"),
    )


def dumps(obj, pretty=False):
    """Deterministic JSON text: sorted keys, fixed separators."""
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class SchemaError(ValueError):
    """A document that fails a shipped schema, or a schema file the
    validator refuses; ``path`` holds the keys and indices of the failing
    node, from the root of the document (or of the schema file)."""

    def __init__(self, message, path=()):
        self.path = tuple(path)
        where = "".join("[%d]" % p if isinstance(p, int) else ".%s" % p for p in self.path)
        super().__init__("%s at $%s" % (message, where))


# The JSON Schema 2020-12 keywords the shipped schema files use, and the
# annotations they carry.  Any other keyword is refused when the files are
# loaded, so a schema edit is never silently ignored.
SCHEMA_KEYWORDS = frozenset(
    {
        "type", "$ref", "properties", "required", "additionalProperties", "items",
        "prefixItems", "minItems", "maxItems", "minimum", "enum", "pattern",
    }
)
SCHEMA_ANNOTATIONS = frozenset({"$schema", "$id", "$defs", "description"})

# jsonschema's type rules: a bool is no integer and no number, and a float
# with an integral value (2.0) is an integer
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool))
    or (isinstance(x, float) and x.is_integer()),
}


def _resolve(table, name, ref, path=()):
    """(file name, subschema) a ``$ref`` met in file ``name`` points to:
    a file of the table (none: ``name`` itself) and a JSON pointer."""
    target, _, pointer = ref.partition("#")
    target = target or name
    if target not in table or (pointer and not pointer.startswith("/")):
        raise SchemaError("%s: $ref %r does not resolve" % (name, ref), path)
    node = table[target]
    for part in pointer.split("/")[1:]:
        part = part.replace("~1", "/").replace("~0", "~")
        try:
            node = node[part]
        except (KeyError, TypeError):
            raise SchemaError("%s: $ref %r does not resolve" % (name, ref), path) from None
    return target, node


def _check_schema(table, name, schema, path):
    """Refuse an unsupported keyword, a ``type`` other than one known name,
    an ``enum`` of other than strings, a ``$ref`` that does not resolve or
    a ``pattern`` that does not compile, anywhere in ``schema``."""
    if isinstance(schema, bool):
        return
    if not isinstance(schema, dict):
        raise SchemaError("%s: a schema is an object or a boolean" % name, path)
    for key in schema:
        if key not in SCHEMA_KEYWORDS and key not in SCHEMA_ANNOTATIONS:
            raise SchemaError("%s: unsupported schema keyword %r" % (name, key), path)
    if "type" in schema and not (isinstance(schema["type"], str) and schema["type"] in _TYPES):
        raise SchemaError("%s: unknown type %r" % (name, schema["type"]), path)
    # Python's == is JSON equality for strings only (True == 1 == 1.0)
    if not all(isinstance(v, str) for v in schema.get("enum", ())):
        raise SchemaError("%s: an enum of other than strings" % name, path)
    if "$ref" in schema:
        _resolve(table, name, schema["$ref"], path)
    if "pattern" in schema:
        try:
            re.compile(schema["pattern"])
        except re.error as exc:
            raise SchemaError("%s: pattern %r does not compile (%s)" % (name, schema["pattern"], exc), path) from None
    for key in ("$defs", "properties"):
        for sub_key, sub in schema.get(key, {}).items():
            _check_schema(table, name, sub, path + (key, sub_key))
    for key in ("items", "additionalProperties"):
        if key in schema:
            _check_schema(table, name, schema[key], path + (key,))
    for k, sub in enumerate(schema.get("prefixItems", ())):
        _check_schema(table, name, sub, path + ("prefixItems", k))


def load_schemas(root):
    """File name to parsed schema for every ``*.json`` file in ``root``,
    read-only.  Every file is checked whole (see ``_check_schema``), so a
    fault raises SchemaError naming the file even where no document
    reaches it."""
    table = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".json"):
            with open(os.path.join(root, name)) as fh:
                table[name] = json.load(fh)
    for name, schema in table.items():
        _check_schema(table, name, schema, ())
    return MappingProxyType(table)


@functools.lru_cache(maxsize=None)
def _shipped_schemas():
    """The shipped schema files, loaded and checked once per process."""
    from . import schemas_path

    return load_schemas(schemas_path())


def _validate(table, name, schema, doc, path):
    """Raise SchemaError for the first node of ``doc`` that fails ``schema``
    (met in file ``name``, which ``$ref``s without a file point into)."""
    if schema is True:
        return
    if schema is False:
        raise SchemaError("no value is allowed", path)
    if "$ref" in schema:
        _validate(table, *_resolve(table, name, schema["$ref"]), doc, path)
    if "type" in schema and not _TYPES[schema["type"]](doc):
        raise SchemaError("not of type %r" % schema["type"], path)
    if "enum" in schema and doc not in schema["enum"]:
        raise SchemaError("not one of %r" % (schema["enum"],), path)
    if "pattern" in schema and isinstance(doc, str) and not re.search(schema["pattern"], doc):
        raise SchemaError("%r does not match %r" % (doc, schema["pattern"]), path)
    if "minimum" in schema and _TYPES["number"](doc) and doc < schema["minimum"]:
        raise SchemaError("%r is below the minimum %r" % (doc, schema["minimum"]), path)
    if isinstance(doc, list):
        if len(doc) < schema.get("minItems", 0):
            raise SchemaError("fewer than %d items" % schema["minItems"], path)
        if len(doc) > schema.get("maxItems", len(doc)):
            raise SchemaError("more than %d items" % schema["maxItems"], path)
        prefix = schema.get("prefixItems", ())
        for k, (item, sub) in enumerate(zip(doc, prefix)):
            _validate(table, name, sub, item, path + (k,))
        if "items" in schema:
            for k in range(len(prefix), len(doc)):
                _validate(table, name, schema["items"], doc[k], path + (k,))
    if isinstance(doc, dict):
        for key in schema.get("required", ()):
            if key not in doc:
                raise SchemaError("missing required property %r" % key, path)
        properties = schema.get("properties", {})
        for key, value in doc.items():
            if key in properties:
                _validate(table, name, properties[key], value, path + (key,))
            elif "additionalProperties" in schema:
                _validate(table, name, schema["additionalProperties"], value, path + (key,))


def validate_document(doc, schema_name):
    """Validate a document against one of the shipped schema files.

    Reads the JSON Schema 2020-12 keywords in ``SCHEMA_KEYWORDS``, with
    jsonschema's type rules.  Raises SchemaError, carrying the path of
    the failing node, on failure or for an unknown schema name.
    """
    table = _shipped_schemas()
    if schema_name not in table:
        raise SchemaError("no shipped schema named %r" % schema_name)
    _validate(table, schema_name, table[schema_name], doc, ())
