"""Family and basis files: the packed float arrays of basis version 4, the
decimal coefficient tables of version 3, the CSR layout of version 2 and the
dense one of version 1."""
import base64
import dataclasses
import hashlib
import json
import math
import pathlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigcolloc import (
    ConfigError,
    DecaySequence,
    FamilyValidationError,
    anisotropic_set,
    collocate,
    evaluate,
    evaluate_cluster_values,
    evaluate_many,
    family_from_dict,
    family_hash,
    family_to_dict,
    load_collocated,
    load_family,
    model_diffusion_1d,
    save_collocated,
    synthetic_family,
)
from eigcolloc import collocation, sparse_grid
from eigcolloc.collocation import FORMAT_VERSION, collocated_from_dict, collocated_to_dict
from eigcolloc.families import _pack_floats, _unpack_floats

DATA = pathlib.Path(__file__).parent / "data"
# Both written by the version-1 (dense) writer: the family is
# model_diffusion_1d(8, 0.2, 2.0, 2), the basis collocates its cluster [1]
# on the index set {0, 1, 2} along the first parameter.
FAMILY_V1 = DATA / "family_v1.json"
BASIS_V1 = DATA / "basis_v1.json"
# Written by the version-2 writer, the last to store nodal bases: the family
# of BASIS_V1, its cluster [1, 2] on anisotropic_set([2.0, 3.0], 1.5).
BASIS_V2 = DATA / "basis_v2.json"
# Written by the version-3 writer, the last to store decimal floats: the
# collocation of BASIS_V2 again, as coefficient tables.
BASIS_V3 = DATA / "basis_v3.json"


def matrices(fam):
    return [fam.mass, fam.B0, *fam.B_terms]


def packed(a) -> dict:
    """A float array as version 4 stores it, encoded here independently."""
    a = np.asarray(a, dtype="<f8")
    return {
        "dtype": "<f8", "shape": list(a.shape),
        "base64": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def unpacked(obj) -> np.ndarray:
    return np.frombuffer(base64.b64decode(obj["base64"]), dtype="<f8").reshape(obj["shape"])


def repack(container, key, edit):
    """Decode ``container[key]``, edit a copy and store the result packed."""
    container[key] = packed(edit(unpacked(container[key]).copy()))


def _assign(index, value):
    def edit(a):
        a[index] = value
        return a
    return edit


def rehash(doc):
    """Store the digest of the edited family block, as a writer would."""
    block = json.dumps(doc["family"], sort_keys=True, separators=(",", ":"))
    doc["family_hash"] = hashlib.sha256(block.encode("utf-8")).hexdigest()


def through_json(doc):
    """The document as a load sees it; NaN and Infinity become JSON literals."""
    return json.loads(json.dumps(doc))


def _b64_doubles(*values):
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


class TestLayout:
    def test_csr_triplets_keep_negative_zero(self):
        mass = np.array([[1.0, -0.0], [-0.0, 1.0]])
        B0 = np.array([[2.0, 0.0], [0.0, 3.0]])
        fam = synthetic_family(B0, [np.zeros((2, 2))], mass, DecaySequence((0.1,)))
        doc = family_to_dict(fam)
        assert doc["dim"] == 2
        assert doc["mass"] == {
            "indptr": [0, 2, 4], "indices": [0, 1, 0, 1],
            "data": {"dtype": "<f8", "shape": [4],
                     "base64": _b64_doubles(1.0, -0.0, -0.0, 1.0)},
        }
        assert doc["B0"] == {
            "indptr": [0, 1, 2], "indices": [0, 1],
            "data": {"dtype": "<f8", "shape": [2], "base64": _b64_doubles(2.0, 3.0)},
        }
        assert doc["terms"] == [{
            "indptr": [0, 0, 0], "indices": [],
            "data": {"dtype": "<f8", "shape": [0], "base64": ""},
        }]

    def test_basis_floats_are_packed_and_decode_to_the_same_bytes(self):
        fam = model_diffusion_1d(8, 0.2, 2.0, 2)
        cb = collocate(fam, [1, 2], anisotropic_set([2.0, 3.0], 1.5))
        doc = through_json(collocated_to_dict(cb))
        assert doc["version"] == FORMAT_VERSION == 4 and "points" not in doc
        arrays = {
            "ref_vectors": cb.ref_vectors, "ref_values": cb.ref_values,
            "vector_coefs": cb._coefs[0], "value_coefs": cb._coefs[1],
        }
        for key, array in arrays.items():
            assert doc[key] == packed(array), key
            assert unpacked(doc[key]).tobytes() == array.tobytes(), key
        # integer arrays and the header stay JSON
        for m, B in zip([doc["family"]["mass"], doc["family"]["B0"], *doc["family"]["terms"]],
                        matrices(fam), strict=True):
            assert all(type(i) is int for i in m["indptr"] + m["indices"])
            assert unpacked(m["data"]).tobytes() == B[(B != 0.0) | np.signbit(B)].tobytes()
        assert doc["A"] == cb.A.to_json_list() and doc["J"] == [1, 2]
        assert doc["family"]["kappa"] == list(fam.kappa.kappa)

    def test_loaded_arrays_are_writable_aligned_and_contiguous(self, tmp_path):
        fam = model_diffusion_1d(8, 0.2, 2.0, 2)
        path = tmp_path / "basis.json"
        save_collocated(collocate(fam, [1], anisotropic_set([2.0, 3.0], 1.0)), path)
        cb = load_collocated(path)
        for a in [cb.ref_vectors, cb.ref_values, *cb._coefs, *matrices(cb.family)]:
            assert a.dtype == np.float64
            assert a.flags.writeable and a.flags.aligned and a.flags.c_contiguous

    def test_dense_and_csr_blocks_give_the_same_family(self):
        fam = model_diffusion_1d(8, 0.2, 2.0, 2)
        doc = family_to_dict(fam)
        dense = dict(doc, mass=fam.mass.tolist(), B0=fam.B0.tolist(),
                     terms=[B.tolist() for B in fam.B_terms])
        for a, b in zip(matrices(family_from_dict(doc)), matrices(family_from_dict(dense)),
                        strict=True):
            assert a.tobytes() == b.tobytes()


_SMALL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1.5e-308]
_ANY = _SMALL + [1e300, -1e300]


@st.composite
def families(draw):
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))

    def symmetric(values, zero_base):
        A = np.zeros((n, n)) if zero_base else rng.standard_normal((n, n))
        A = A + A.T
        for (i, j), v in draw(st.lists(st.tuples(pos, st.sampled_from(values)), max_size=8)):
            A[i, j] = A[j, i] = v
        return A

    def spd():
        A = symmetric(_SMALL, draw(st.booleans()))
        np.fill_diagonal(A, 0.0)
        # strictly diagonally dominant with a positive diagonal
        np.fill_diagonal(A, np.abs(A).sum(axis=1) + rng.uniform(0.5, 2.0, n))
        return A

    terms = [symmetric(_ANY, draw(st.booleans())) for _ in range(draw(st.integers(0, 3)))]
    return synthetic_family(spd(), terms, spd(), DecaySequence((0.1,) * len(terms)))


# 8-byte little-endian chunks: the special values, any finite or non-finite
# float, and any bit pattern at all (NaNs with payloads among them)
_CHUNKS = st.one_of(
    st.sampled_from(_ANY + [math.inf, -math.inf, math.nan, 1.7976931348623157e308]),
    st.floats(width=64),
).map(lambda x: struct.pack("<d", x)) | st.binary(min_size=8, max_size=8)


@st.composite
def float_arrays(draw):
    shape = draw(st.lists(st.integers(0, 4), max_size=3))
    if draw(st.booleans()):
        shape = [0, *shape]  # no rows
    raw = b"".join(draw(st.lists(_CHUNKS, min_size=math.prod(shape),
                                 max_size=math.prod(shape))))
    a = np.frombuffer(raw, dtype="<f8").reshape(shape)
    # a transposed view is not C-contiguous
    return a.T if draw(st.booleans()) else a


class TestRoundTrip:
    @settings(max_examples=60)
    @given(families())
    def test_bytes_and_hash_survive_json(self, fam):
        back = family_from_dict(json.loads(json.dumps(family_to_dict(fam))))
        for a, b in zip(matrices(fam), matrices(back), strict=True):
            assert a.tobytes() == b.tobytes()
        assert family_hash(back) == family_hash(fam)

    @settings(max_examples=200)
    @given(float_arrays())
    def test_packed_arrays_come_back_bit_for_bit(self, a):
        obj = json.loads(json.dumps(_pack_floats(a), separators=(",", ":")))
        assert obj == packed(a)
        back = _unpack_floats(obj, "array")
        assert back.shape == a.shape and back.dtype == np.float64
        assert back.tobytes() == a.tobytes()
        assert back.flags.writeable and back.flags.aligned and back.flags.c_contiguous


def assert_family_is_the_builder(loaded):
    """Every fixture holds model_diffusion_1d(8, 0.2, 2.0, 2)."""
    built = model_diffusion_1d(8, 0.2, 2.0, 2)
    for a, b in zip(matrices(loaded), matrices(built), strict=True):
        assert np.array_equal(a, b)
    assert loaded.kappa == built.kappa
    assert family_hash(loaded) == family_hash(built)


def assert_tampered_block_detected(path, edit):
    """The stored hash is that of the stored block; an edit of the block is
    refused before the block is parsed."""
    doc = json.loads(path.read_text())
    assert doc["family_hash"] == collocation._family_digest(doc["family"])
    edit(doc["family"])
    with pytest.raises(ConfigError, match="family hash mismatch"):
        collocated_from_dict(doc)


def assert_resave_evaluates_bit_identically(path, tmp_path):
    """A file of an older version and its version-4 resave give the same bits;
    the resave holds the packed coefficient tables, not nodal bases."""
    old = load_collocated(path)
    resaved = tmp_path / "basis.json"
    save_collocated(old, resaved)
    doc = json.loads(resaved.read_text())
    assert doc["version"] == FORMAT_VERSION == 4 and "points" not in doc
    assert set(doc["family"]["B0"]) == {"indptr", "indices", "data"}
    assert doc["vector_coefs"] == packed(old._coefs[0])
    new = load_collocated(resaved)
    assert new.point_data == {}
    assert new.diagnostics["n_points"] == (len(old.point_data) or old.diagnostics["n_points"])
    Y = np.random.default_rng(4).uniform(-1.0, 1.0, size=(8, 2))
    assert np.array_equal(evaluate_many(old, Y), evaluate_many(new, Y))
    for y in Y:
        assert np.array_equal(evaluate(old, y), evaluate(new, y))
        assert np.array_equal(evaluate_cluster_values(old, y), evaluate_cluster_values(new, y))


def _double_first_csr_value(block):
    block["B0"]["data"][0] *= 2.0


class TestVersion1Files:
    def test_fixtures_are_version_1(self):
        assert isinstance(json.loads(FAMILY_V1.read_text())["B0"], list)
        doc = json.loads(BASIS_V1.read_text())
        assert doc["version"] == 1 and isinstance(doc["family"]["B0"], list)

    @pytest.mark.parametrize(
        "load",
        [lambda: load_family(FAMILY_V1), lambda: load_collocated(BASIS_V1).family],
        ids=["family", "basis"],
    )
    def test_family_equals_the_builder(self, load):
        assert_family_is_the_builder(load())

    def test_tampered_dense_block_detected(self):
        def edit(block):
            block["B0"][0][0] *= 2.0
        assert_tampered_block_detected(BASIS_V1, edit)

    def test_version_4_resave_evaluates_bit_identically(self, tmp_path):
        assert_resave_evaluates_bit_identically(BASIS_V1, tmp_path)

    @pytest.mark.parametrize("version", [0, 5, "2", 1.0, True, None])
    def test_other_versions_rejected(self, version):
        doc = json.loads(BASIS_V1.read_text())
        doc["version"] = version
        with pytest.raises(ConfigError, match="unsupported document version"):
            collocated_from_dict(doc)


class TestVersion2Files:
    def test_fixture_is_version_2(self):
        doc = json.loads(BASIS_V2.read_text())
        assert doc["version"] == 2 and set(doc["family"]["B0"]) == {"indptr", "indices", "data"}
        assert isinstance(doc["family"]["B0"]["data"], list)
        assert len(doc["points"]) == doc["diagnostics"]["n_points"] == 7
        assert "vector_coefs" not in doc

    def test_family_equals_the_builder(self):
        assert_family_is_the_builder(load_collocated(BASIS_V2).family)

    def test_tampered_csr_block_detected(self):
        assert_tampered_block_detected(BASIS_V2, _double_first_csr_value)

    def test_version_4_resave_evaluates_bit_identically(self, tmp_path):
        assert_resave_evaluates_bit_identically(BASIS_V2, tmp_path)


class TestVersion3Files:
    def test_fixture_is_version_3(self):
        doc = json.loads(BASIS_V3.read_text())
        assert doc["version"] == 3 and "points" not in doc
        assert isinstance(doc["family"]["B0"]["data"], list)
        for key in ("ref_vectors", "ref_values", "vector_coefs", "value_coefs"):
            assert isinstance(doc[key], list), key
        # one decimal row per index of A, 7 x 2 basis coefficients in each
        assert [len(row) for row in doc["vector_coefs"]] == [14] * len(doc["A"]) == [14] * 4
        assert doc["diagnostics"]["n_points"] == 7

    def test_family_equals_the_builder(self):
        assert_family_is_the_builder(load_collocated(BASIS_V3).family)

    def test_tampered_csr_block_detected(self):
        assert_tampered_block_detected(BASIS_V3, _double_first_csr_value)

    def test_tables_load_as_stored(self):
        doc = json.loads(BASIS_V3.read_text())
        cb = load_collocated(BASIS_V3)
        assert cb.point_data == {}
        for key, table in zip(collocation.COEF_KEYS, cb._coefs):
            assert np.array_equal(table, np.array(doc[key])), key

    def test_version_4_resave_evaluates_bit_identically(self, tmp_path):
        assert_resave_evaluates_bit_identically(BASIS_V3, tmp_path)

    def test_load_makes_no_combination_terms(self, tmp_path, monkeypatch):
        # the tables' rows are the indices of A, so a load needs no terms,
        # neither of a version-3 file nor of a version-4 one
        fam = model_diffusion_1d(8, 0.2, 2.0, 2)
        saved = collocate(fam, [1, 2], anisotropic_set([2.0, 3.0], 1.5))
        path = tmp_path / "basis.json"
        save_collocated(saved, path)

        def no_terms(A):
            raise AssertionError("the load made the combination terms")

        monkeypatch.setattr(sparse_grid, "combination_terms", no_terms)
        monkeypatch.setattr(collocation, "combination_terms", no_terms)
        assert load_collocated(BASIS_V3).point_data == {}
        loaded = load_collocated(path)
        Y = np.random.default_rng(6).uniform(-1.0, 1.0, size=(8, 2))
        assert np.array_equal(evaluate_many(saved, Y), evaluate_many(loaded, Y))
        for y in Y:
            assert np.array_equal(evaluate(saved, y), evaluate(loaded, y))
            values = evaluate_cluster_values(saved, y), evaluate_cluster_values(loaded, y)
            assert np.array_equal(*values)


def _set(key, index, value):
    def edit(m):
        m[key][index] = value
    return edit


def _at(key, edit):
    return lambda container: edit(container[key])


# Edits of one packed array, with what the message says: each is a
# FamilyValidationError that names the field the array is stored under
PACK_EDITS = {
    # a lax decoder would skip the stray character and find every byte
    "bad-base64": (
        lambda p: p.update(base64=p["base64"][:4] + "*" + p["base64"][4:]),
        "not valid base64",
    ),
    "byte-count": (
        lambda p: p.update(shape=[p["shape"][0] + 1, *p["shape"][1:]]),
        "bytes, but float64 shape",
    ),
    "dtype": (lambda p: p.update(dtype="<f4"), "has dtype '<f4', expected '<f8'"),
    "negative-shape": (
        lambda p: p.update(shape=[-p["shape"][0], *p["shape"][1:]]),
        "not a list of nonnegative integers",
    ),
    "payload-not-string": (
        lambda p: p.update(base64=[p["base64"]]), "base64 payload that is not a string",
    ),
    "key-missing": (lambda p: p.pop("dtype"), "needs exactly the keys dtype, shape, base64"),
    "shape-not-integer": (
        lambda p: p.update(shape=[float(p["shape"][0]), *p["shape"][1:]]),
        "not a list of nonnegative integers",
    ),
}

# Edits of one CSR matrix of model_diffusion_1d(6, ...): dim 5, tridiagonal,
# indptr [0, 2, 5, 8, 11, 13]; row 1 holds columns 0, 1, 2 at indices[2:5].
MALFORMED = {
    "indptr-short": lambda m: m["indptr"].pop(),
    "indptr-long": lambda m: m["indptr"].append(m["indptr"][-1]),
    "indptr-not-from-zero": _set("indptr", 0, 1),
    "indptr-decreasing": _set("indptr", 2, 1),
    # its int64 differences wrap to 2**63 - 1, 2**63 - 1, 8, 0, 0
    "indptr-wrapping": lambda m: (
        m.update(indptr=[0, 2**63 - 1, -2, 6, 6, 6], indices=m["indices"][:6]),
        repack(m, "data", lambda d: d[:6]),
    ),
    "indptr-end-past-indices": lambda m: m["indices"].pop(),
    "indptr-end-past-data": lambda m: repack(m, "data", lambda d: np.append(d, 1.0)),
    "column-negative": _set("indices", 0, -1),
    "column-at-dim": _set("indices", -1, 5),
    "columns-unsorted": lambda m: m.update(indices=m["indices"][:2] + [1, 0] + m["indices"][4:]),
    "columns-duplicate": _set("indices", 3, 0),
    "column-not-integer": _set("indices", 0, 0.5),
    "indices-nested": lambda m: m.update(indices=[m["indices"]]),
    # decimal lists, as versions 2 and 3 store data, are still read
    "data-not-numbers": lambda m: m.update(data=["x", *unpacked(m["data"])[1:].tolist()]),
    "data-two-dimensional": lambda m: repack(m, "data", lambda d: d.reshape(1, -1)),
    **{f"data-{case}": _at("data", edit) for case, (edit, _) in PACK_EDITS.items()},
    "key-missing": lambda m: m.pop("data"),
    "key-extra": lambda m: m.update(shape=[5, 5]),
}


def _malformed_doc(matrix, case):
    doc = family_to_dict(model_diffusion_1d(6, 0.2, 2.0, 3))
    target = doc["terms"][2] if matrix == "terms[2]" else doc[matrix]
    assert target["indptr"] == [0, 2, 5, 8, 11, 13]
    assert target["indices"][2:5] == [0, 1, 2]
    assert target["data"]["shape"] == [13]
    MALFORMED[case](target)
    return doc


class TestMalformedCsr:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("matrix", ["B0", "mass", "terms[2]"])
    def test_names_the_matrix(self, matrix, case, tmp_path):
        doc = _malformed_doc(matrix, case)
        name = re.escape(f"{matrix}: data" if case.startswith("data-") else matrix)
        pack_case = case.removeprefix("data-")
        if case.startswith("data-") and pack_case in PACK_EDITS:
            name += ".*" + re.escape(PACK_EDITS[pack_case][1])
        with pytest.raises(FamilyValidationError, match=name):
            family_from_dict(doc)
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(FamilyValidationError, match=name):
            load_family(path)

    def test_huge_dim_fails_before_allocating(self):
        doc = family_to_dict(model_diffusion_1d(6, 0.2, 2.0, 3))
        doc["dim"] = 10**12
        with pytest.raises(FamilyValidationError, match="B0: indptr has length 6"):
            family_from_dict(doc)

    def test_huge_shape_fails_before_allocating(self):
        doc = family_to_dict(model_diffusion_1d(6, 0.2, 2.0, 3))
        doc["B0"]["data"]["shape"] = [10**12, 10**12]
        with pytest.raises(FamilyValidationError, match="B0: data has 104 bytes"):
            family_from_dict(doc)

    def test_negative_dim_rejected(self):
        doc = family_to_dict(model_diffusion_1d(6, 0.2, 2.0, 3))
        doc["dim"] = -1
        doc["B0"] = {"indptr": [], "indices": [], "data": []}
        with pytest.raises(FamilyValidationError, match="dim"):
            family_from_dict(doc)


def _at_last_point(edit):
    return lambda doc: edit(doc["points"][-1])


def _transpose(rec):
    rec["vectors"] = np.asarray(rec["vectors"]).T.tolist()


def _ragged(rec):
    rec["vectors"][0] = rec["vectors"][0][:1]


def _in_family(matrix, value):
    """Put ``value`` into a matrix of the family block and store the block's
    new digest, so that the load gets past the hash check."""
    def edit(doc):
        block = doc["family"]["terms"][0] if matrix == "term 0" else doc["family"][matrix]
        if isinstance(block["data"], list):
            block["data"][0] = value
        else:
            repack(block, "data", _assign(0, value))
        rehash(doc)
    return edit


def _in_family_doc(edit):
    """Apply ``edit`` to the family block and store the block's new digest."""
    def apply(doc):
        edit(doc["family"])
        rehash(doc)
    return apply


def _in_list(key, index, value):
    def edit(doc):
        rows = doc[key]
        for i in index[:-1]:
            rows = rows[i]
        rows[index[-1]] = value
    return edit


# edits of a basis document: (edit, error, field it must name, whether the
# message names the last point as well); the cases in FIXTURE edit the
# version-2 or version-3 fixture, the others a version-4 document
BASIS_EDITS = {
    "transposed-basis": (
        _at_last_point(_transpose), FamilyValidationError, "vectors", True,
    ),
    "ragged-basis": (_at_last_point(_ragged), FamilyValidationError, "vectors", True),
    "short-cluster-values": (
        _at_last_point(lambda rec: rec.update(cluster_values=rec["cluster_values"][:1])),
        FamilyValidationError, "cluster_values", True,
    ),
    "nan-basis": (
        _at_last_point(lambda rec: rec["vectors"][0].__setitem__(0, math.nan)),
        FamilyValidationError, "vectors", True,
    ),
    "one-column-ref-vectors": (
        lambda doc: repack(doc, "ref_vectors", lambda a: a[:, :1]),
        FamilyValidationError, "ref_vectors has shape (19, 1), expected (19, 2)", False,
    ),
    "short-ref-values": (
        lambda doc: repack(doc, "ref_values", lambda a: a[:1]),
        FamilyValidationError, "ref_values has shape (1,), expected (2,)", False,
    ),
    "cluster-beyond-dimension": (
        lambda doc: doc.update(J=[1, 40]), FamilyValidationError, "J:", False,
    ),
    # J is a JSON list of integers: a string is not split, a fractional
    # index not truncated and true not read as 1
    "cluster-string": (
        lambda doc: doc.update(J="12"), FamilyValidationError,
        "J is malformed: '12' is not a list", False,
    ),
    "fractional-cluster": (
        lambda doc: doc.update(J=[1.5, 2]), FamilyValidationError,
        "J is malformed: cluster indices must be integers, got (1.5, 2)", False,
    ),
    "bool-cluster": (
        lambda doc: doc.update(J=[True, 2]), FamilyValidationError,
        "J is malformed: cluster indices must be integers, got (True, 2)", False,
    ),
    # the family's dim is a positive integer, checked before any matrix
    **{
        f"{case}-dim": (
            _in_family_doc(lambda block, dim=dim: block.update(dim=dim)), FamilyValidationError,
            f"dim must be a positive integer, got {dim!r}", False,
        )
        for case, dim in (("zero", 0), ("fractional", 2.5), ("bool", True))
    },
    "missing-points": (lambda doc: doc.pop("points"), ConfigError, "'points'", False),
    # no nodal basis to make the tables from, and no table either
    "no-points": (
        lambda doc: doc.update(points=[]), FamilyValidationError,
        "basis has neither point data nor a coefficient table", False,
    ),
    "point-stored-twice": (
        lambda doc: doc["points"].insert(0, doc["points"][-1]),
        FamilyValidationError, "points: a point is stored twice", False,
    ),
    "dimension-beyond-terms": (
        lambda doc: doc["A"].append({"3": 1}), FamilyValidationError, "A: activates", False,
    ),
    "fractional-level": (
        lambda doc: doc["A"][-1].update({"1": 1.5}), FamilyValidationError,
        "A is malformed: level 1.5", False,
    ),
    "negative-level": (
        lambda doc: doc["A"].append({"1": -1}), FamilyValidationError, "A is malformed", False,
    ),
    "missing-vector-coefs": (
        lambda doc: doc.pop("vector_coefs"), ConfigError, "'vector_coefs'", False,
    ),
    "missing-value-coefs": (
        lambda doc: doc.pop("value_coefs"), ConfigError, "'value_coefs'", False,
    ),
    "short-vector-coefs": (
        lambda doc: repack(doc, "vector_coefs", lambda a: a[:-1]), FamilyValidationError,
        "vector_coefs has shape (1, 38), expected (2, 38)", False,
    ),
    "narrow-value-coefs": (
        lambda doc: repack(doc, "value_coefs", lambda a: a[:, :-1]), FamilyValidationError,
        "value_coefs has shape (2, 1), expected (2, 2)", False,
    ),
    "ragged-vector-coefs": (
        lambda doc: doc["vector_coefs"][0].pop(), FamilyValidationError,
        "vector_coefs is malformed", False,
    ),
    # the last index of A is a greatest one, so A stays downward closed and
    # spans one coefficient row less than the tables hold
    "index-dropped-from-A": (
        lambda doc: doc["A"].pop(), FamilyValidationError,
        "vector_coefs has shape (2, 38), expected (1, 38)", False,
    ),
    # packed floats carry any bit pattern, and a version-3 file may hold the
    # JSON literals NaN and Infinity
    "nan-vector-coefs": (
        lambda doc: repack(doc, "vector_coefs", _assign((1, 3), math.nan)),
        FamilyValidationError, "vector_coefs has a non-finite entry", False,
    ),
    "inf-value-coefs": (
        lambda doc: repack(doc, "value_coefs", _assign((0, 1), -math.inf)),
        FamilyValidationError, "value_coefs has a non-finite entry", False,
    ),
    "nan-ref-vectors": (
        lambda doc: repack(doc, "ref_vectors", _assign((4, 0), math.nan)),
        FamilyValidationError, "ref_vectors has a non-finite entry", False,
    ),
    "inf-ref-values": (
        lambda doc: repack(doc, "ref_values", _assign(1, math.inf)),
        FamilyValidationError, "ref_values has a non-finite entry", False,
    ),
    "nan-in-family": (
        _in_family("B0", math.nan), FamilyValidationError, "B0 has a non-finite entry", False,
    ),
    "nan-vector-coefs-v3": (
        _in_list("vector_coefs", (2, 5), math.nan), FamilyValidationError,
        "vector_coefs has a non-finite entry", False,
    ),
    "infinity-ref-values-v3": (
        _in_list("ref_values", (0,), math.inf), FamilyValidationError,
        "ref_values has a non-finite entry", False,
    ),
    "nan-value-coefs-v3": (
        _in_list("value_coefs", (0, 0), math.nan), FamilyValidationError,
        "value_coefs has a non-finite entry", False,
    ),
    "infinity-in-family-v3": (
        _in_family("term 0", math.inf), FamilyValidationError,
        "term 0 has a non-finite entry", False,
    ),
    "nan-in-family-v3": (
        _in_family("mass", math.nan), FamilyValidationError,
        "mass has a non-finite entry", False,
    ),
}
FIXTURE = {
    **dict.fromkeys(
        ["transposed-basis", "ragged-basis", "short-cluster-values", "nan-basis",
         "missing-points", "no-points", "point-stored-twice"],
        BASIS_V2,
    ),
    **dict.fromkeys(
        ["ragged-vector-coefs", "nan-vector-coefs-v3", "infinity-ref-values-v3",
         "nan-value-coefs-v3", "infinity-in-family-v3", "nan-in-family-v3"],
        BASIS_V3,
    ),
}
PACKED_FIELDS = ["ref_vectors", "ref_values", "vector_coefs", "value_coefs"]


class TestMalformedBasis:
    @pytest.fixture(scope="class")
    def basis(self):
        # dimension 19, cluster [1, 2]
        fam = model_diffusion_1d(20, 0.3, 2.0, 2)
        return collocate(fam, [1, 2], anisotropic_set([2.0, 3.0], 1.0))

    @pytest.mark.parametrize("case", sorted(BASIS_EDITS))
    def test_names_the_field(self, basis, case):
        edit, error, field, at_point = BASIS_EDITS[case]
        if case in FIXTURE:
            doc = json.loads(FIXTURE[case].read_text())
        else:
            doc = through_json(collocated_to_dict(basis))
        if at_point:
            field += f" at point {tuple(doc['points'][-1]['y'])}"
        edit(doc)
        with pytest.raises(error, match=re.escape(field)):
            collocated_from_dict(through_json(doc))

    @pytest.mark.parametrize("case", sorted(PACK_EDITS))
    @pytest.mark.parametrize("field", PACKED_FIELDS)
    def test_malformed_pack_names_the_field(self, basis, field, case):
        doc = through_json(collocated_to_dict(basis))
        edit, message = PACK_EDITS[case]
        edit(doc[field])
        with pytest.raises(FamilyValidationError,
                           match=re.escape(f"{field} is malformed") + ".*" + re.escape(message)):
            collocated_from_dict(doc)

    @pytest.mark.parametrize("field", ["vectors", "cluster_values", "ref_vectors", "ref_values"])
    def test_replace_checks_shapes(self, basis, field):
        # point data given by dataclasses.replace is checked the same way
        pt = max(basis.point_data)
        sol = basis.point_data[pt]
        if field == "vectors":
            bad = dataclasses.replace(
                sol, basis=dataclasses.replace(sol.basis, vectors=sol.basis.vectors.T.copy())
            )
        elif field == "cluster_values":
            bad = dataclasses.replace(sol, cluster_values=sol.cluster_values[:1])
        if field in ("vectors", "cluster_values"):
            changes = {"point_data": {**basis.point_data, pt: bad}}
            field += f" at point {pt}"
        else:
            changes = {field: getattr(basis, field)[..., :1]}
        with pytest.raises(FamilyValidationError, match=re.escape(field)):
            dataclasses.replace(basis, **changes)

    @pytest.mark.parametrize(
        "field",
        ["vectors", "cluster_values", "ref_vectors", "ref_values", "vector_coefs", "value_coefs"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_replace_checks_finiteness(self, basis, field, value):
        pt = max(basis.point_data)
        sol = basis.point_data[pt]
        if field == "vectors":
            vectors = sol.basis.vectors.copy()
            vectors[3, 1] = value
            bad = dataclasses.replace(sol, basis=dataclasses.replace(sol.basis, vectors=vectors))
        elif field == "cluster_values":
            bad = dataclasses.replace(sol, cluster_values=np.array([sol.cluster_values[0], value]))
        if field in ("vectors", "cluster_values"):
            changes = {"point_data": {**basis.point_data, pt: bad}}
            field += f" at point {pt}"
        elif field in collocation.COEF_KEYS:
            # a basis with no point data keeps the tables it is given
            tables = [table.copy() for table in basis._coefs]
            tables[collocation.COEF_KEYS.index(field)][-1, 0] = value
            changes = {"point_data": {}, "_coefs": tuple(tables)}
        else:
            array = getattr(basis, field).copy()
            array.flat[-1] = value
            changes = {field: array}
        with pytest.raises(FamilyValidationError, match=re.escape(f"{field} has a non-finite")):
            dataclasses.replace(basis, **changes)
