"""Index and coindex vectors in the Grothendieck group.

Every vertex of a complete exchange quiver yields two square integer
matrices with aligned columns: G collects the alternating projective
multiplicities of minimal presentations (with negated unit vectors for
missing vertices), C the signed composition-factor vectors of the bricks
that `smc.paired_columns` reads off the vertex's arrows.  The two are
dual up to the diagonal endomorphism dimensions, and both are
unimodular.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import List, Sequence, Tuple

from .smc import PairedColumn, paired_columns
from .tautilt import ExchangeQuiver, SupportPair


@dataclass(frozen=True)
class GrothendieckData:
    """Aligned g/c columns for one pair; matrices are row-major, indexed
    [vertex][column]."""

    columns: Tuple[PairedColumn, ...]
    g: Tuple[Tuple[int, ...], ...]
    c: Tuple[Tuple[int, ...], ...]
    d: Tuple[int, ...]
    d_prime: Tuple[int, ...]


def g_columns(pair: SupportPair) -> List[List[int]]:
    """One column per summand ([P0] - [P1] multiplicities) and per missing
    vertex (-e_v), in the pair's column order."""
    reg = pair.registry
    n = reg.algebra.n_vertices
    cols = [list(reg.g_vector(sid)) for sid in pair.summand_ids]
    return cols + [[-1 if w == v else 0 for w in range(n)] for v in pair.support_complement]


def _columns_to_rows(cols: Sequence[Sequence[int]], n: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(col[v] for col in cols) for v in range(n))


def g_matrix(pair: SupportPair) -> Tuple[Tuple[int, ...], ...]:
    return _columns_to_rows(g_columns(pair), pair.registry.algebra.n_vertices)


def simple_end_dims(algebra) -> Tuple[int, ...]:
    # each simple_module is one-dimensional, so End(S_v) = k
    return (1,) * algebra.n_vertices


def c_matrix(quiver: ExchangeQuiver, i: int) -> Tuple[Tuple[int, ...], ...]:
    return grothendieck_data(quiver, i).c


def grothendieck_data(quiver: ExchangeQuiver, i: int) -> GrothendieckData:
    """G and C at vertex i.  C's columns are the signed composition-factor
    vectors of the paired bricks (every simple is one-dimensional, so the
    multiplicity at v is the vertex dimension), d_prime their endomorphism
    dimensions."""
    pair = quiver.pairs[i]
    reg = pair.registry
    n = reg.algebra.n_vertices
    paired = tuple(paired_columns(quiver, i))
    cc = [[col.sign * x for x in reg.module(col.brick_id).dims] for col in paired]
    return GrothendieckData(
        columns=paired,
        g=_columns_to_rows(g_columns(pair), n),
        c=_columns_to_rows(cc, n),
        d=simple_end_dims(reg.algebra),
        d_prime=tuple(reg.end_dim(col.brick_id) for col in paired),
    )


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    After step k every entry below and right of the pivot is a (k+1)-minor
    of the row-permuted matrix, so the division by the previous pivot is
    exact and nothing leaves the integers.
    """
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        for i in range(k, n):
            if a[i][k]:
                break
        else:
            return 0
        if i != k:
            a[k], a[i] = a[i], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for row in a[k + 1 :]:
            x = row[k]
            row[k + 1 :] = [
                (pivot * y - x * t) // prev for y, t in zip(row[k + 1 :], top[k + 1 :])
            ]
        prev = pivot
    return sign * prev


def check_duality(data: GrothendieckData) -> dict:
    """G^T D C must equal diag(d_prime); both matrices must be unimodular;
    the two diagonals must share a Smith normal form.

    Whether d_prime is a permutation of d is reported but not asserted.
    """
    n = len(data.d)
    product = [
        [
            sum(data.g[v][i] * data.d[v] * data.c[v][j] for v in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    expected = [
        [data.d_prime[i] if i == j else 0 for j in range(n)] for i in range(n)
    ]
    det_g = _int_det(data.g)
    det_c = _int_det(data.c)
    snf_d = smith_diagonal(data.d)
    snf_dp = smith_diagonal(data.d_prime)
    report = {
        "gtdc_equals_dprime": product == expected,
        "det_g": det_g,
        "det_c": det_c,
        "unimodular": abs(det_g) == 1 and abs(det_c) == 1,
        "snf_d": snf_d,
        "snf_dprime": snf_dp,
        "snf_equal": snf_d == snf_dp,
        "d_multiset_equal": sorted(data.d) == sorted(data.d_prime),
    }
    report["ok"] = (
        report["gtdc_equals_dprime"]
        and report["unimodular"]
        and report["snf_equal"]
    )
    return report


def smith_diagonal(diag: Sequence[int]) -> Tuple[int, ...]:
    """Smith normal form diagonal of diag(values), nonnegative entries.

    Replacing (d_i, d_j) by (gcd, lcm) keeps every determinantal divisor
    (the gcd of all products of k entries); doing it for every i < j in
    order ends at a divisibility chain, zeros last.
    """
    d = [abs(int(x)) for x in diag]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(d)


def duality_report(quiver: ExchangeQuiver, i: int) -> dict:
    return check_duality(grothendieck_data(quiver, i))
