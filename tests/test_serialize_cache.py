"""JSON round trips, schema validation and the atomic disk cache."""

import hashlib
import importlib.util
import json
import multiprocessing
import os
import shutil
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from click.testing import CliRunner

from supergaudin import cache as cache_module
from supergaudin.algebra import BasisElement, off_diagonal_units
from supergaudin.cache import DiskCache, content_key
from supergaudin.cli import main
from supergaudin.duality import truncation_check
from supergaudin.indices import IndexSet
from supergaudin.modules import (
    NaturalModule,
    irreducible_truncated,
    polynomial_highest_weight,
    polynomial_module,
    tensor_product,
    truncate_module,
    verma_truncated,
)
from supergaudin.partitions import Partition
from supergaudin.serialize import (
    dumps,
    frac_str,
    matrix_from_triplets,
    matrix_triplets,
    module_from_json,
    module_to_json,
    validate_document,
)
from supergaudin.weights import Weight, eps
from fractions import Fraction


def test_frac_and_matrix_round_trip():
    assert frac_str(Fraction(3, 6)) == "1/2"
    assert frac_str(4) == "4"
    mat = [[Fraction(1, 2), 0], [0, -3]]
    trip = matrix_triplets(mat)
    assert trip == [[0, 0, "1/2"], [1, 1, "-3"]]
    assert matrix_from_triplets(trip, 2, 2) == [
        [Fraction(1, 2), Fraction(0)],
        [Fraction(0), Fraction(-3)],
    ]


def test_module_json_round_trip_and_schema():
    mod = polynomial_module(IndexSet.gl(0, 1, 0, 1), Partition([2]))
    doc = module_to_json(mod)
    validate_document(doc, "module.schema.json")
    back = module_from_json(doc)
    assert module_to_json(back) == doc
    assert back.total_dim == mod.total_dim
    for w in mod.weights():
        assert back.dim(w) == mod.dim(w)


def test_module_from_json_refuses_an_unknown_flavor():
    doc = module_to_json(NaturalModule(IndexSet("wide", p=1, n=2)))
    assert doc["index_set"] == {"flavor": "wide", "p": 1, "n": 2}
    for flavor, iset in (("wide", IndexSet("wide", p=1, n=2)), ("classical", IndexSet.classical(1, 2))):
        # the classical and wide flavors read p and n only
        stray = dict(doc, index_set={"flavor": flavor, "q": 5, "m": 5, "p": 1, "n": 2})
        assert module_from_json(stray).index_set == iset
    for flavor in ("bogus", "Wide", None):
        bad = dict(doc, index_set=dict(doc["index_set"], flavor=flavor))
        with pytest.raises(ValueError, match="unknown flavor"):
            module_from_json(bad)


def test_module_from_json_refuses_a_zero_denominator():
    # ValueError, which the cache and the CLI read as bad input, not the
    # ZeroDivisionError of Fraction("1/0")
    doc = module_to_json(polynomial_module(IndexSet.gl(0, 1, 0, 1), Partition([2])))
    act = doc["actions"][0]
    bad_triplet = dict(act, triplets=[act["triplets"][0][:2] + ["3/0"]] + act["triplets"][1:])
    for bad in (
        dict(doc, level="1/0"),
        dict(doc, weights=[dict(doc["weights"][0], weight=dict(doc["weights"][0]["weight"], level="1/0"))]),
        dict(doc, actions=[bad_triplet] + doc["actions"][1:]),
    ):
        with pytest.raises(ValueError, match="1/0|3/0"):
            module_from_json(bad)


def test_weight_schema():
    validate_document(eps(1).to_json(), "defs.schema.json")  # no-op: defs has no root
    doc = (eps(1) + eps("1/2")).to_json()
    # weight documents embed into module docs; check the pattern directly
    assert doc["level"] == "0"


def test_dumps_deterministic():
    doc = {"b": [1, 2], "a": {"y": "1/2", "x": 3}}
    assert dumps(doc) == dumps(json.loads(dumps(doc)))
    assert dumps(doc) == '{"a":{"x":3,"y":"1/2"},"b":[1,2]}'


def test_cache_round_trip(tmp_path):
    cache = DiskCache(str(tmp_path))
    key = content_key({"kind": "demo", "n": 1})
    assert cache.lookup(key) is None
    cache.store(key, {"payload": [1, 2, 3]})
    assert cache.lookup(key) == {"payload": [1, 2, 3]}


def test_cache_corrupt_entry_recovers(tmp_path):
    # a file that is not UTF-8 raised UnicodeDecodeError out of lookup
    cache = DiskCache(str(tmp_path))
    os.makedirs(str(tmp_path), exist_ok=True)
    for n, content in enumerate((b"{broken json", b"\xff\xfe{")):
        key = content_key({"x": n})
        with open(cache._path(key), "wb") as fh:
            fh.write(content)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cache.lookup(key) is None
        assert any("corrupt" in str(w.message) for w in caught)
        value, was_hit = cache.get_or_compute(key, lambda: {"ok": True})
        assert value == {"ok": True} and not was_hit
        assert cache.lookup(key) == {"ok": True}


def test_module_build_drops_a_cached_entry_the_schema_refuses(tmp_path):
    # valid JSON that is no module document is a corrupt entry too
    args = ["--json", "--cache-dir", str(tmp_path), "module", "build", "--m", "1", "--n", "1", "--lam", "2"]
    fresh = CliRunner().invoke(main, args + ["--no-cache"])
    assert CliRunner().invoke(main, args).exit_code == 0
    (entry,) = tmp_path.glob("*.json")
    entry.write_text("{}")
    with pytest.warns(UserWarning, match="dropping corrupt cache entry"):
        res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    assert res.stdout == fresh.stdout
    validate_document(json.loads(entry.read_text()), "module.schema.json")


def test_module_build_drops_a_cached_entry_with_a_zero_denominator(tmp_path):
    args = ["--json", "--cache-dir", str(tmp_path), "module", "build", "--m", "1", "--n", "1", "--lam", "2"]
    fresh = CliRunner().invoke(main, args + ["--no-cache"])
    assert CliRunner().invoke(main, args).exit_code == 0
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(json.dumps(dict(json.loads(entry.read_text()), level="1/0")))
    with pytest.warns(UserWarning, match="dropping corrupt cache entry"):
        res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    assert res.stdout == fresh.stdout
    assert json.loads(entry.read_text())["level"] != "1/0"


def _store_worker(args):
    root, key, payload = args
    DiskCache(root).store(key, payload)
    return True


def test_cache_concurrent_writers_one_winner(tmp_path):
    root = str(tmp_path)
    key = content_key({"race": 1})
    payloads = [{"writer": i, "blob": "x" * 5000} for i in range(8)]
    with multiprocessing.Pool(4) as pool:
        pool.map(_store_worker, [(root, key, p) for p in payloads])
    got = DiskCache(root).lookup(key)
    assert got in payloads
    # and the directory holds no leftover temp files
    assert all(not name.endswith(".tmp") for name in os.listdir(root))


def test_content_key_stable():
    assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})
    assert content_key({"a": 1}) != content_key({"a": 2})


def test_content_key_changes_with_the_source_digest(monkeypatch):
    # an entry written by other code is a miss, with no format to bump
    descriptor = {"op": "module", "lam": "2,1"}
    key = content_key(descriptor)
    monkeypatch.setattr(cache_module, "source_digest", lambda: "0" * 64)
    assert content_key(descriptor) != key


def _digest_of_copy(package):
    """``source_digest`` of a copied package, from its own cache.py."""
    spec = importlib.util.spec_from_file_location("copied_cache", os.path.join(package, "cache.py"))
    copied = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copied)
    return copied.source_digest()


def test_source_digest_covers_every_python_source_and_nothing_else(tmp_path):
    package = tmp_path / "supergaudin"
    shutil.copytree(os.path.dirname(cache_module.__file__), package, ignore=shutil.ignore_patterns("__pycache__"))
    digest = _digest_of_copy(package)
    assert digest == cache_module.source_digest()
    (package / "notes.txt").write_text("not code")
    (package / "schemas" / "extra.json").write_text("{}")
    assert _digest_of_copy(package) == digest
    with open(package / "modules.py", "a") as fh:
        fh.write("# a realization change\n")
    assert _digest_of_copy(package) != digest


def test_module_json_round_trips_realization_data():
    big = polynomial_module(IndexSet.classical(0, 3), Partition([2, 1]))
    back = module_from_json(module_to_json(big))
    assert back.highest_weight == big.highest_weight
    assert back.shape == big.shape and back.depth is None
    # a cached polynomial module feeds truncation_check like a built one
    small = IndexSet.classical(0, 2)
    assert truncation_check(back, small)["equal"]
    assert truncation_check(back, small) == truncation_check(big, small)
    irr = irreducible_truncated(IndexSet.gl(0, 1, 0, 1), eps(1) + eps("1/2"), 2)
    back_irr = module_from_json(module_to_json(irr))
    assert back_irr.highest_weight == irr.highest_weight
    assert back_irr.depth == 2 and back_irr.shape is None
    doc = module_to_json(NaturalModule(IndexSet.gl(0, 1, 0, 1)))
    assert not {"highest_weight", "shape", "depth"} & set(doc)


def test_entry_under_pre_version_key_is_not_served(tmp_path):
    """Keys hash the descriptor together with the package version and the
    source digest; the bare-descriptor key of older code is a miss."""
    descriptor = {
        "op": "module",
        "index_set": {"flavor": "super", **IndexSet.gl(0, 1, 0, 1).params()},
        "kind": "polynomial",
        "lam": "2,1",
        "depth": None,
    }
    blob = json.dumps(descriptor, sort_keys=True, separators=(",", ":")).encode()
    old_key = hashlib.sha256(blob).hexdigest()
    assert content_key(descriptor) != old_key
    stale = {"stale": True}
    cache = DiskCache(str(tmp_path))
    cache.store(old_key, stale)
    args = ["--json", "--cache-dir", str(tmp_path), "module", "build"]
    args += ["--m", "1", "--n", "1", "--lam", "2,1"]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc != stale and doc["shape"] == [2, 1]
    # the fresh entry went under the stamped key; the stale one is untouched
    assert cache.lookup(content_key(descriptor)) == doc
    assert cache.lookup(old_key) == stale


GL11 = IndexSet.gl(0, 1, 0, 1)
ROUND_TRIP_FLAVORS = (GL11, IndexSet.gl(0, 2, 0, 1), IndexSet.classical(0, 3))
SMALL_SHAPES = ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1))
TRUNCATIONS = (
    (IndexSet.gl(0, 2, 0, 1), GL11),
    (IndexSet.classical(0, 3), IndexSet.classical(0, 2)),
)


@st.composite
def small_modules(draw):
    """Natural, polynomial (|lam| <= 3), truncated Verma, irreducible and
    truncation realizations.  Only gl(1|1) Vermas are drawn: there the
    depth band (depth >= 1) is closed under the action, so the document
    holds every block; elsewhere the band edges raise on ``act`` (see
    ``test_truncated_verma_documents_keep_the_blocks_the_band_holds``)."""
    kind = draw(st.sampled_from(("natural", "polynomial", "verma", "irreducible", "truncation")))
    lam = Partition(draw(st.sampled_from(SMALL_SHAPES)))
    if kind == "verma":
        return verma_truncated(GL11, polynomial_highest_weight(GL11, lam), draw(st.integers(1, 3)))
    if kind == "truncation":
        big, small = draw(st.sampled_from(TRUNCATIONS))
        return truncate_module(polynomial_module(big, lam), small)
    iset = draw(st.sampled_from(ROUND_TRIP_FLAVORS))
    if kind == "natural":
        return NaturalModule(iset)
    if kind == "polynomial":
        return polynomial_module(iset, lam)
    depth = draw(st.integers(0, 2))
    return irreducible_truncated(iset, polynomial_highest_weight(iset, lam), depth)


def _nonzero_act(module, gen, w):
    res = module.act(gen, w)
    return res if res is not None and any(map(any, res[1])) else None


@settings(max_examples=40, deadline=None)
@given(small_modules())
def test_module_json_round_trip_keeps_document_and_action(module):
    doc = module_to_json(module)
    back = module_from_json(doc)
    assert module_to_json(back) == doc
    assert back.weights() == module.weights()
    members = list(module.index_set)
    for w in module.weights():
        assert back.dim(w) == module.dim(w)
        for a in members:
            for b in members:
                gen = BasisElement(a, b)
                assert _nonzero_act(back, gen, w) == _nonzero_act(module, gen, w), (gen, w)


VERMA_FLAVORS = {"gl2|1": ["--m", "2", "--n", "1"], "gl3": ["--flavor", "classical", "--k", "3"]}


@pytest.mark.parametrize("flavor", sorted(VERMA_FLAVORS))
@pytest.mark.parametrize("lam", ("1", "2", "1,1"))
def test_truncated_verma_documents_keep_the_blocks_the_band_holds(flavor, lam):
    for depth in range(4):
        args = ["--json", "module", "build", *VERMA_FLAVORS[flavor], "--lam", lam, "--kind", "verma"]
        res = CliRunner().invoke(main, args + ["--depth", str(depth), "--no-cache"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        validate_document(doc, "module.schema.json")
        back = module_from_json(doc)
        assert module_to_json(back) == doc
        # the document holds every block the band holds; the blocks it
        # leaves out are the ones the Verma itself refuses
        hw = polynomial_highest_weight(back.index_set, Partition(lam.split(",")))
        module = verma_truncated(back.index_set, hw, depth)
        for gen in off_diagonal_units(back.index_set):
            for w in module.weights():
                try:
                    expected = _nonzero_act(module, gen, w)
                except ValueError:
                    expected = None
                assert _nonzero_act(back, gen, w) == expected, (gen, w)


int_or_fraction = st.one_of(st.integers(-9, 9), st.integers(-9, 9).map(Fraction))
nonzero_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
doubled_indices = st.integers(-6, 6).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(doubled_indices, int_or_fraction, max_size=5), nonzero_fractions)
def test_weight_json_round_trip_with_mixed_coefficients(coeffs, level):
    w = Weight(coeffs, level)
    doc = w.to_json()
    assert Weight.from_json(doc) == w
    assert Weight.from_json(doc).to_json() == doc
    assert json.loads(json.dumps(doc)) == doc
