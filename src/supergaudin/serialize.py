"""JSON conventions: rationals as "p/q" strings, complex as [re, im] pairs,
matrices as sorted sparse triplets, indices by their doubled value."""

import json
from fractions import Fraction

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


def matrix_from_triplets(triplets, nrows, ncols):
    mat = [[Fraction(0)] * ncols for _ in range(nrows)]
    for r, c, v in triplets:
        mat[r][c] = Fraction(v)
    return mat


def index_set_to_json(index_set):
    obj = {"flavor": index_set.flavor}
    obj.update(index_set.params())
    return obj


def index_set_from_json(obj):
    flavor = obj["flavor"]
    if flavor == "super":
        return IndexSet.gl(obj["q"], obj["m"], obj["p"], obj["n"])
    # the classical and wide flavors read p and n only; IndexSet refuses
    # any other flavor
    return IndexSet(flavor, p=obj["p"], n=obj["n"])


def module_to_json(module):
    """Weights, dims and the sparse off-diagonal action blocks; a block
    that a truncation cuts off (see ``WeightModule.represents``) is left
    out."""
    weights = module.weights()
    wj = [{"weight": w.to_json(), "dim": module.dim(w)} for w in weights]
    actions = []
    for gen in off_diagonal_units(module.index_set):
        for w in weights:
            if not module.represents(gen, w):
                continue
            res = module.act(gen, w)
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
        "index_set": index_set_to_json(module.index_set),
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
        Fraction(obj["level"]),
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


def validate_document(doc, schema_name):
    """Validate a document against one of the shipped schema files.

    Raises jsonschema.ValidationError on failure.
    """
    import os

    import jsonschema
    from referencing import Registry, Resource

    from . import schemas_path

    root = schemas_path()
    resources = []
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name)) as fh:
            resources.append((name, Resource.from_contents(json.load(fh))))
    registry = Registry().with_resources(resources)
    with open(os.path.join(root, schema_name)) as fh:
        schema = json.load(fh)
    validator_cls = jsonschema.validators.validator_for(schema)
    validator_cls(schema, registry=registry).validate(doc)
