"""Family and basis files: the coefficient tables of basis version 3, the CSR
layout of version 2 and the dense one of version 1."""
import dataclasses
import json
import pathlib
import re

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

DATA = pathlib.Path(__file__).parent / "data"
# Both written by the version-1 (dense) writer: the family is
# model_diffusion_1d(8, 0.2, 2.0, 2), the basis collocates its cluster [1]
# on the index set {0, 1, 2} along the first parameter.
FAMILY_V1 = DATA / "family_v1.json"
BASIS_V1 = DATA / "basis_v1.json"
# Written by the version-2 writer, the last to store nodal bases: the family
# of BASIS_V1, its cluster [1, 2] on anisotropic_set([2.0, 3.0], 1.5).
BASIS_V2 = DATA / "basis_v2.json"


def matrices(fam):
    return [fam.mass, fam.B0, *fam.B_terms]


class TestLayout:
    def test_csr_triplets_keep_negative_zero(self):
        mass = np.array([[1.0, -0.0], [-0.0, 1.0]])
        B0 = np.array([[2.0, 0.0], [0.0, 3.0]])
        fam = synthetic_family(B0, [np.zeros((2, 2))], mass, DecaySequence((0.1,)))
        doc = family_to_dict(fam)
        assert doc["dim"] == 2
        assert doc["mass"] == {
            "indptr": [0, 2, 4], "indices": [0, 1, 0, 1], "data": [1.0, -0.0, -0.0, 1.0],
        }
        assert doc["B0"] == {"indptr": [0, 1, 2], "indices": [0, 1], "data": [2.0, 3.0]}
        assert doc["terms"] == [{"indptr": [0, 0, 0], "indices": [], "data": []}]

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


class TestRoundTrip:
    @settings(max_examples=60)
    @given(families())
    def test_bytes_and_hash_survive_json(self, fam):
        back = family_from_dict(json.loads(json.dumps(family_to_dict(fam))))
        for a, b in zip(matrices(fam), matrices(back), strict=True):
            assert a.tobytes() == b.tobytes()
        assert family_hash(back) == family_hash(fam)


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
        loaded = load()
        built = model_diffusion_1d(8, 0.2, 2.0, 2)
        for a, b in zip(matrices(loaded), matrices(built), strict=True):
            assert np.array_equal(a, b)
        assert loaded.kappa == built.kappa
        assert family_hash(loaded) == family_hash(built)

    def test_tampered_dense_block_detected(self):
        doc = json.loads(BASIS_V1.read_text())
        doc["family"]["B0"][0][0] *= 2.0
        with pytest.raises(ConfigError, match="family hash mismatch"):
            collocated_from_dict(doc)

    def test_version_3_resave_evaluates_bit_identically(self, tmp_path):
        assert_resave_evaluates_bit_identically(BASIS_V1, tmp_path)

    @pytest.mark.parametrize("version", [0, 4, "2", 1.0, True, None])
    def test_other_versions_rejected(self, version):
        doc = json.loads(BASIS_V1.read_text())
        doc["version"] = version
        with pytest.raises(ConfigError, match="unsupported document version"):
            collocated_from_dict(doc)


class TestVersion2Files:
    def test_fixture_is_version_2(self):
        doc = json.loads(BASIS_V2.read_text())
        assert doc["version"] == 2 and set(doc["family"]["B0"]) == {"indptr", "indices", "data"}
        assert len(doc["points"]) == doc["diagnostics"]["n_points"] == 7
        assert "vector_coefs" not in doc

    def test_version_3_resave_evaluates_bit_identically(self, tmp_path):
        assert_resave_evaluates_bit_identically(BASIS_V2, tmp_path)


class TestVersion3Files:
    def test_load_makes_no_combination_terms(self, tmp_path, monkeypatch):
        # the tables' rows are the indices of A, so a load needs no terms
        fam = model_diffusion_1d(8, 0.2, 2.0, 2)
        saved = collocate(fam, [1, 2], anisotropic_set([2.0, 3.0], 1.5))
        path = tmp_path / "basis.json"
        save_collocated(saved, path)

        def no_terms(A):
            raise AssertionError("the load made the combination terms")

        monkeypatch.setattr(sparse_grid, "combination_terms", no_terms)
        monkeypatch.setattr(collocation, "combination_terms", no_terms)
        loaded = load_collocated(path)
        Y = np.random.default_rng(6).uniform(-1.0, 1.0, size=(8, 2))
        assert np.array_equal(evaluate_many(saved, Y), evaluate_many(loaded, Y))
        for y in Y:
            assert np.array_equal(evaluate(saved, y), evaluate(loaded, y))
            values = evaluate_cluster_values(saved, y), evaluate_cluster_values(loaded, y)
            assert np.array_equal(*values)


def assert_resave_evaluates_bit_identically(path, tmp_path):
    """A file of an older version and its version-3 resave give the same bits;
    the resave holds the coefficient tables in place of the nodal bases."""
    old = load_collocated(path)
    resaved = tmp_path / "basis.json"
    save_collocated(old, resaved)
    doc = json.loads(resaved.read_text())
    assert doc["version"] == FORMAT_VERSION == 3 and "points" not in doc
    assert set(doc["family"]["B0"]) == {"indptr", "indices", "data"}
    new = load_collocated(resaved)
    assert len(old.point_data) == new.diagnostics["n_points"] and new.point_data == {}
    Y = np.random.default_rng(4).uniform(-1.0, 1.0, size=(8, 2))
    assert np.array_equal(evaluate_many(old, Y), evaluate_many(new, Y))
    for y in Y:
        assert np.array_equal(evaluate(old, y), evaluate(new, y))
        assert np.array_equal(evaluate_cluster_values(old, y), evaluate_cluster_values(new, y))


def _set(key, index, value):
    def edit(m):
        m[key][index] = value
    return edit


# Edits of one CSR matrix of model_diffusion_1d(6, ...): dim 5, tridiagonal,
# indptr [0, 2, 5, 8, 11, 13]; row 1 holds columns 0, 1, 2 at indices[2:5].
MALFORMED = {
    "indptr-short": lambda m: m["indptr"].pop(),
    "indptr-long": lambda m: m["indptr"].append(m["indptr"][-1]),
    "indptr-not-from-zero": _set("indptr", 0, 1),
    "indptr-decreasing": _set("indptr", 2, 1),
    # its int64 differences wrap to 2**63 - 1, 2**63 - 1, 8, 0, 0
    "indptr-wrapping": lambda m: m.update(
        indptr=[0, 2**63 - 1, -2, 6, 6, 6], indices=m["indices"][:6], data=m["data"][:6]
    ),
    "indptr-end-past-indices": lambda m: m["indices"].pop(),
    "indptr-end-past-data": lambda m: m["data"].append(1.0),
    "column-negative": _set("indices", 0, -1),
    "column-at-dim": _set("indices", -1, 5),
    "columns-unsorted": lambda m: m.update(indices=m["indices"][:2] + [1, 0] + m["indices"][4:]),
    "columns-duplicate": _set("indices", 3, 0),
    "column-not-integer": _set("indices", 0, 0.5),
    "indices-nested": lambda m: m.update(indices=[m["indices"]]),
    "data-not-numbers": _set("data", 0, "x"),
    "key-missing": lambda m: m.pop("data"),
    "key-extra": lambda m: m.update(shape=[5, 5]),
}


def _malformed_doc(matrix, case):
    doc = family_to_dict(model_diffusion_1d(6, 0.2, 2.0, 3))
    target = doc["terms"][2] if matrix == "terms[2]" else doc[matrix]
    assert target["indptr"] == [0, 2, 5, 8, 11, 13]
    assert target["indices"][2:5] == [0, 1, 2]
    MALFORMED[case](target)
    return doc


class TestMalformedCsr:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("matrix", ["B0", "mass", "terms[2]"])
    def test_names_the_matrix(self, matrix, case, tmp_path):
        doc = _malformed_doc(matrix, case)
        with pytest.raises(FamilyValidationError, match=re.escape(matrix)):
            family_from_dict(doc)
        path = tmp_path / "family.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(FamilyValidationError, match=re.escape(matrix)):
            load_family(path)

    def test_huge_dim_fails_before_allocating(self):
        doc = family_to_dict(model_diffusion_1d(6, 0.2, 2.0, 3))
        doc["dim"] = 10**12
        with pytest.raises(FamilyValidationError, match="B0: indptr has length 6"):
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


def _drop_last_column(key):
    return lambda doc: doc.update({key: [row[:-1] for row in doc[key]]})


# edits of a basis document: (edit, error, field it must name, whether the
# message names the last point as well); the cases in NODAL_EDITS edit the
# points of the version-2 fixture, the others a version-3 document
BASIS_EDITS = {
    "transposed-basis": (
        _at_last_point(_transpose), FamilyValidationError, "vectors", True,
    ),
    "ragged-basis": (_at_last_point(_ragged), FamilyValidationError, "vectors", True),
    "short-cluster-values": (
        _at_last_point(lambda rec: rec.update(cluster_values=rec["cluster_values"][:1])),
        FamilyValidationError, "cluster_values", True,
    ),
    "one-column-ref-vectors": (
        lambda doc: doc.update(ref_vectors=[row[:1] for row in doc["ref_vectors"]]),
        FamilyValidationError, "ref_vectors", False,
    ),
    "short-ref-values": (
        lambda doc: doc.update(ref_values=doc["ref_values"][:1]),
        FamilyValidationError, "ref_values", False,
    ),
    "cluster-beyond-dimension": (
        lambda doc: doc.update(J=[1, 40]), FamilyValidationError, "J:", False,
    ),
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
        lambda doc: doc["vector_coefs"].pop(), FamilyValidationError,
        "vector_coefs has shape", False,
    ),
    "narrow-value-coefs": (
        _drop_last_column("value_coefs"), FamilyValidationError, "value_coefs has shape", False,
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
}
NODAL_EDITS = frozenset({
    "transposed-basis", "ragged-basis", "short-cluster-values", "missing-points",
    "no-points", "point-stored-twice",
})


class TestMalformedBasis:
    @pytest.fixture(scope="class")
    def basis(self):
        # dimension 19, cluster [1, 2]
        fam = model_diffusion_1d(20, 0.3, 2.0, 2)
        return collocate(fam, [1, 2], anisotropic_set([2.0, 3.0], 1.0))

    @pytest.mark.parametrize("case", sorted(BASIS_EDITS))
    def test_names_the_field(self, basis, case):
        edit, error, field, at_point = BASIS_EDITS[case]
        if case in NODAL_EDITS:
            doc = json.loads(BASIS_V2.read_text())
        else:
            doc = json.loads(json.dumps(collocated_to_dict(basis)))
        if at_point:
            field += f" at point {tuple(doc['points'][-1]['y'])}"
        edit(doc)
        with pytest.raises(error, match=re.escape(field)):
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
