"""Index vectors in the two Grothendieck groups and the pairing identity
g^T . diag(d) . c = diag(d') between them."""

from __future__ import annotations

import random

import pytest

from taumut import IsoRegistry
from taumut.grothendieck import (
    _int_det,
    c_matrix,
    check_duality,
    duality_report,
    g_matrix,
    grothendieck_data,
    simple_end_dims,
    smith_diagonal,
)
from taumut.linalg import QQ, Mat, PrimeField
from taumut.modules import hom_dim, simple_module
from taumut.presets import build_preset
from taumut.tautilt import explore

from conftest import det, vertex_by_summands


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def test_initial_pair_gives_identity_matrices(a3_quiver):
    init = a3_quiver.pairs[0]
    assert g_matrix(init) == _identity(3)
    assert c_matrix(a3_quiver, 0) == _identity(3)
    data = grothendieck_data(a3_quiver, 0)
    assert data.d == (1, 1, 1)
    assert data.d_prime == (1, 1, 1)


def test_zero_pair_gives_negated_identities(a3_quiver):
    zero_idx = vertex_by_summands(a3_quiver, [])
    data = grothendieck_data(a3_quiver, zero_idx)
    neg = tuple(tuple(-x for x in row) for row in _identity(3))
    assert data.g == neg
    assert data.c == neg


def test_duality_at_every_a3_vertex(a3_quiver):
    for i in range(a3_quiver.n_vertices):
        report = duality_report(a3_quiver, i)
        assert report["ok"], report
        assert abs(report["det_g"]) == 1
        assert abs(report["det_c"]) == 1


def test_matrix_identity_recomputed_by_hand(a3_quiver):
    """Multiply the matrices out independently of check_duality."""
    for i in range(a3_quiver.n_vertices):
        data = grothendieck_data(a3_quiver, i)
        n = len(data.d)
        # rows index vertices, columns index pair positions
        lhs = [
            [
                sum(
                    data.g[v][k] * data.d[v] * data.c[v][l]
                    for v in range(n)
                )
                for l in range(n)
            ]
            for k in range(n)
        ]
        for k in range(n):
            for l in range(n):
                want = data.d_prime[k] if k == l else 0
                assert lhs[k][l] == want, (k, l, lhs)


def test_columns_are_sign_coherent(a3_quiver, preproj_quiver):
    for quiver in (a3_quiver, preproj_quiver):
        for i in range(quiver.n_vertices):
            data = grothendieck_data(quiver, i)
            for l in range(len(data.d)):
                col = [data.c[v][l] for v in range(len(data.d))]
                assert all(x >= 0 for x in col) or all(x <= 0 for x in col)
                assert any(x != 0 for x in col)


def test_duality_on_preprojective_and_prime_field(preproj_quiver):
    for i in range(preproj_quiver.n_vertices):
        assert duality_report(preproj_quiver, i)["ok"]
    q5 = explore(IsoRegistry(build_preset("preproj-a:2", PrimeField(5))))
    for i in range(q5.n_vertices):
        assert duality_report(q5, i)["ok"]


def test_simple_end_dims_are_one_over_a_field():
    a = build_preset("a-path:3")
    assert simple_end_dims(a) == (1, 1, 1)
    b = build_preset("nakayama:cyclic:2:3")
    assert simple_end_dims(b) == (1, 1)
    # the general computation, dim Hom(S_v, S_v), on every preset family
    for name in (
        "a-path:3",
        "a3-figure",
        "nakayama:linear:4:2",
        "nakayama:cyclic:3:2",
        "preproj-a:3",
        "msex",
    ):
        for field in (QQ, PrimeField(5)):
            algebra = build_preset(name, field)
            general = tuple(
                hom_dim(simple_module(algebra, v), simple_module(algebra, v))
                for v in range(algebra.n_vertices)
            )
            assert simple_end_dims(algebra) == general


def test_smith_diagonal_normalizes():
    assert smith_diagonal((1, 1, 1)) == (1, 1, 1)
    assert smith_diagonal((2, 3)) == (1, 6)
    assert smith_diagonal((4, 2)) == (2, 4)


def test_smith_diagonal_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(0)
    for _ in range(3000):
        diag = [rng.choice([0, rng.randint(-12, 12)]) for _ in range(rng.randint(0, 6))]
        m = sympy.zeros(len(diag), len(diag))
        for i, x in enumerate(diag):
            m[i, i] = x
        s = smith_normal_form(m.as_immutable(), domain=sympy.ZZ)
        expected = tuple(abs(int(s[i, i])) for i in range(len(diag)))
        assert smith_diagonal(diag) == expected


def test_int_det_agrees_with_rational_det():
    rng = random.Random(1)
    cases = [[], [[0]], [[-7]], [[0, 1], [1, 0]], [[0, 2, 1], [0, 1, 3], [4, 0, 0]]]
    for _ in range(400):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        cases.append(rows)
        # a repeated row makes it singular; a zero leading column entry
        # forces a row swap
        singular = [list(r) for r in rows]
        singular[-1] = list(singular[0])
        cases.append(singular)
        swapped = [list(r) for r in rows]
        swapped[0][0] = 0
        cases.append(swapped)
    swaps = 0
    for rows in cases:
        expected = det(Mat(QQ, rows, ncols=len(rows)))
        assert expected.denominator == 1
        assert _int_det(rows) == expected
        swaps += bool(rows) and rows[0][0] == 0 and expected != 0
    assert swaps > 50
    assert _int_det([[0, 1], [1, 0]]) == -1


def test_check_duality_report_keys(a3_quiver):
    report = check_duality(grothendieck_data(a3_quiver, 0))
    for key in (
        "gtdc_equals_dprime",
        "det_g",
        "det_c",
        "unimodular",
        "snf_d",
        "snf_dprime",
        "snf_equal",
        "d_multiset_equal",
        "ok",
    ):
        assert key in report
    # the multiset comparison is informational, never part of ok
    assert report["ok"] == (
        report["gtdc_equals_dprime"]
        and report["unimodular"]
        and report["snf_equal"]
    )


def test_g_columns_track_supports(a3_quiver):
    # a support column is the negated unit vector of its missing vertex
    idx = vertex_by_summands(a3_quiver, [(0, 0, 1)])
    pair = a3_quiver.pairs[idx]
    data = grothendieck_data(a3_quiver, idx)
    missing = set(pair.support_complement)
    negated_units = {
        tuple(-1 if v == m else 0 for v in range(3)) for m in missing
    }
    cols = {
        tuple(data.g[v][l] for v in range(3))
        for l in range(3)
    }
    assert negated_units <= cols
