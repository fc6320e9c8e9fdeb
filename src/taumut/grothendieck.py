"""Index and coindex vectors in the Grothendieck group.

Every vertex of a complete exchange quiver yields two square integer
matrices with aligned columns: G collects the alternating projective
multiplicities of minimal presentations (with negated unit vectors for
missing vertices), C the signed composition-factor vectors of the bricks
that `smc.paired_columns` reads off the vertex's arrows.  Every simple of
a bound quiver algebra is one-dimensional, so the pairing between the two
groups is the dot product and G^T C = diag(d'), d' the endomorphism
dimensions of the bricks; both matrices are unimodular, which forces
d' = (1, ..., 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .smc import TwoTermSMC
from .tautilt import SupportPair


@dataclass(frozen=True)
class GrothendieckData:
    """Aligned g/c columns for one pair; matrices are row-major, indexed
    [vertex][column]."""

    g: Tuple[Tuple[int, ...], ...]
    c: Tuple[Tuple[int, ...], ...]
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


def grothendieck_data(pair: SupportPair, x: TwoTermSMC) -> GrothendieckData:
    """G and C of the pair, whose collection `smc.smc_of_vertex` read as x.
    C's columns are the signed composition-factor vectors of x's paired
    bricks (every simple is one-dimensional, so the multiplicity at v is
    the vertex dimension), d_prime their endomorphism dimensions."""
    reg = pair.registry
    n = reg.algebra.n_vertices
    cc = [[col.sign * v for v in reg.module(col.brick_id).dims] for col in x.columns]
    return GrothendieckData(
        g=_columns_to_rows(g_columns(pair), n),
        c=_columns_to_rows(cc, n),
        d_prime=tuple(reg.end_dim(col.brick_id) for col in x.columns),
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
    """G^T C must equal diag(d_prime), and both matrices must be unimodular.

    Together these give |prod d_prime| = |det G| |det C| = 1, so a passing
    report has every d_prime = 1.
    """
    n = len(data.d_prime)
    product = [
        [sum(data.g[v][i] * data.c[v][j] for v in range(n)) for j in range(n)]
        for i in range(n)
    ]
    expected = [
        [data.d_prime[i] if i == j else 0 for j in range(n)] for i in range(n)
    ]
    det_g = _int_det(data.g)
    det_c = _int_det(data.c)
    report = {
        "gtc_equals_dprime": product == expected,
        "det_g": det_g,
        "det_c": det_c,
        "unimodular": abs(det_g) == 1 and abs(det_c) == 1,
    }
    report["ok"] = report["gtc_equals_dprime"] and report["unimodular"]
    return report


def duality_report(pair: SupportPair, x: TwoTermSMC) -> dict:
    return check_duality(grothendieck_data(pair, x))
