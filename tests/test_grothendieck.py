"""Index vectors in the two Grothendieck groups and the pairing identity
g^T . c = diag(d') between them."""

from __future__ import annotations

import random

from taumut import IsoRegistry
from taumut.grothendieck import (
    GrothendieckData,
    _int_det,
    check_duality,
    duality_report,
    grothendieck_data,
)
from taumut.linalg import QQ, Mat, PrimeField
from taumut.modules import hom_dim, simple_module
from taumut.presets import build_preset
from taumut.tautilt import explore

from conftest import certified, det, vertex_by_summands


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _data(quiver, i):
    return grothendieck_data(quiver.pairs[i], certified(quiver, i))


def _report(quiver, i):
    return duality_report(quiver.pairs[i], certified(quiver, i))


def test_initial_pair_gives_identity_matrices(a3_quiver):
    data = _data(a3_quiver, 0)
    assert data.g == _identity(3)
    assert data.c == _identity(3)
    assert data.d_prime == (1, 1, 1)


def test_zero_pair_gives_negated_identities(a3_quiver):
    zero_idx = vertex_by_summands(a3_quiver, [])
    data = _data(a3_quiver, zero_idx)
    neg = tuple(tuple(-x for x in row) for row in _identity(3))
    assert data.g == neg
    assert data.c == neg


def test_duality_at_every_a3_vertex(a3_quiver):
    for i in range(a3_quiver.n_vertices):
        report = _report(a3_quiver, i)
        assert report["ok"], report
        assert abs(report["det_g"]) == 1
        assert abs(report["det_c"]) == 1


def test_matrix_identity_recomputed_by_hand(a3_quiver):
    """Multiply the matrices out independently of check_duality."""
    for i in range(a3_quiver.n_vertices):
        data = _data(a3_quiver, i)
        n = len(data.d_prime)
        # rows index vertices, columns index pair positions
        lhs = [
            [sum(data.g[v][k] * data.c[v][l] for v in range(n)) for l in range(n)]
            for k in range(n)
        ]
        for k in range(n):
            for l in range(n):
                want = data.d_prime[k] if k == l else 0
                assert lhs[k][l] == want, (k, l, lhs)


def test_columns_are_sign_coherent(a3_quiver, preproj_quiver):
    for quiver in (a3_quiver, preproj_quiver):
        for i in range(quiver.n_vertices):
            data = _data(quiver, i)
            n = len(data.d_prime)
            for l in range(n):
                col = [data.c[v][l] for v in range(n)]
                assert all(x >= 0 for x in col) or all(x <= 0 for x in col)
                assert any(x != 0 for x in col)


def test_duality_on_preprojective_and_prime_field(preproj_quiver):
    for i in range(preproj_quiver.n_vertices):
        assert _report(preproj_quiver, i)["ok"]
    q5 = explore(IsoRegistry(build_preset("preproj-a:2", PrimeField(5))))
    for i in range(q5.n_vertices):
        assert _report(q5, i)["ok"]


def test_simple_end_dims_are_one_over_a_field():
    # the premise that lets the pairing of the two Grothendieck groups be
    # the dot product: every simple of a bound quiver algebra has End = k
    for name in (
        "a-path:3",
        "a3-figure",
        "nakayama:linear:4:2",
        "nakayama:cyclic:2:3",
        "nakayama:cyclic:3:2",
        "preproj-a:3",
        "msex",
    ):
        for field in (QQ, PrimeField(5)):
            algebra = build_preset(name, field)
            for v in range(algebra.n_vertices):
                simple = simple_module(algebra, v)
                assert hom_dim(simple, simple) == 1, (name, field, v)


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
    report = check_duality(_data(a3_quiver, 0))
    assert sorted(report) == ["det_c", "det_g", "gtc_equals_dprime", "ok", "unimodular"]
    assert report["ok"] == (report["gtc_equals_dprime"] and report["unimodular"])


def test_g_columns_track_supports(a3_quiver):
    # a support column is the negated unit vector of its missing vertex
    idx = vertex_by_summands(a3_quiver, [(0, 0, 1)])
    pair = a3_quiver.pairs[idx]
    data = _data(a3_quiver, idx)
    missing = set(pair.support_complement)
    negated_units = {
        tuple(-1 if v == m else 0 for v in range(3)) for m in missing
    }
    cols = {
        tuple(data.g[v][l] for v in range(3))
        for l in range(3)
    }
    assert negated_units <= cols


def test_a_diagonal_other_than_the_identity_is_refused():
    # G^T C = diag(2, 1) = diag(d') holds, but det G = 2: only d' = (1, 1)
    # is compatible with two unimodular matrices
    identity = _identity(2)
    weighted = GrothendieckData(g=((2, 0), (0, 1)), c=identity, d_prime=(2, 1))
    report = check_duality(weighted)
    assert (report["gtc_equals_dprime"], report["unimodular"], report["ok"]) == (True, False, False)
    # the true matrices with one d' claimed to be 2
    claimed = GrothendieckData(g=identity, c=identity, d_prime=(2, 1))
    report = check_duality(claimed)
    assert (report["gtc_equals_dprime"], report["unimodular"], report["ok"]) == (False, True, False)
