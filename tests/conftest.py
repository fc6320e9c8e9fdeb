"""Shared fixtures and oracles.

Explored quivers are session-scoped: exploration is deterministic and
every consumer treats the result as read-only.  The frozen A3 data below
is the hand-checked exchange quiver of the linearly oriented A3 path
algebra; tests compare against it up to relabeling of vertices, matching
vertices by their summand dimension-vector multisets (which are distinct
here because all six indecomposables have distinct dimension vectors).
"""

from __future__ import annotations

import itertools

import pytest

from taumut import IsoRegistry
from taumut.presets import build_preset
from taumut.tautilt import ExchangeQuiver, SupportPair, explore

S1, S2, S3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
M12, M23, M123 = (1, 1, 0), (0, 1, 1), (1, 1, 1)

# summand dim vectors of the 14 support pairs; keys are arbitrary names
A3_PAIRS = {
    1: (M123, M23, S3),
    2: (M23, M123, S2),
    3: (S3, M123, S1),
    4: (S3, M23),
    5: (M123, S2, M12),
    6: (M23, S2),
    7: (M123, M12, S1),
    8: (S3, S1),
    9: (S2, M12),
    10: (M12, S1),
    11: (S3,),
    12: (S2,),
    13: (S1,),
    14: (),
}

# the 21 left mutations with their brick labels
A3_ARROWS = [
    (1, 2, S3),
    (1, 3, S2),
    (1, 4, S1),
    (2, 5, M23),
    (2, 6, S1),
    (3, 7, S3),
    (3, 8, M12),
    (4, 6, S3),
    (4, 11, S2),
    (5, 7, S2),
    (5, 9, M123),
    (6, 12, M23),
    (7, 10, M123),
    (8, 11, S1),
    (8, 13, S3),
    (9, 10, S2),
    (9, 12, S1),
    (10, 13, M12),
    (11, 14, S3),
    (12, 14, S2),
    (13, 14, S1),
]

# two-term simple-minded collections at the same vertices, written as
# (degree-0 dim vectors, shifted dim vectors)
A3_SMC = {
    1: ((S3, S2, S1), ()),
    2: ((M23, S1), (S3,)),
    3: ((S3, M12), (S2,)),
    4: ((S3, S2), (S1,)),
    5: ((M123, S2), (M23,)),
    6: ((M23,), (S3, S1)),
    7: ((M123,), (S3, S2)),
    8: ((S3, S1), (M12,)),
    9: ((S2, S1), (M123,)),
    10: ((M12,), (M123, S2)),
    11: ((S3,), (S2, S1)),
    12: ((S2,), (M23, S1)),
    13: ((S1,), (S3, M12)),
    14: ((), (S3, S2, S1)),
}

# restriction to the pairs containing S2: a pentagon whose unique source
# is the completion M23 + M123 + S2 and whose unique sink is (S2) alone
A3_S2_VERTICES = (2, 5, 6, 9, 12)
A3_S2_ARROWS = [
    (2, 5, M23),
    (2, 6, S1),
    (5, 9, M123),
    (6, 12, M23),
    (9, 12, S1),
]
A3_S2_SOURCE = 2
A3_S2_SINK = 12


def summand_dims(pair: SupportPair) -> tuple:
    reg = pair.registry
    return tuple(sorted(reg.module(i).dims for i in pair.summand_ids))


def vertex_by_summands(quiver: ExchangeQuiver, dims) -> int:
    want = tuple(sorted(tuple(d) for d in dims))
    hits = [i for i, p in enumerate(quiver.pairs) if summand_dims(p) == want]
    assert len(hits) == 1, f"summands {want} matched {len(hits)} vertices"
    return hits[0]


def arrow_dims(quiver: ExchangeQuiver) -> set:
    reg = quiver.registry
    return {(s, t, reg.module(lab).dims) for s, t, lab in quiver.arrows}


def relabeled_arrows(quiver: ExchangeQuiver, pairs: dict, arrows) -> set:
    """Translate named fixture arrows into engine vertex indices."""
    to_engine = {
        name: vertex_by_summands(quiver, dims) for name, dims in pairs.items()
    }
    return {(to_engine[s], to_engine[t], lab) for s, t, lab in arrows}


def weak_order_cover_count(n: int) -> int:
    """Cover relations of the weak order on permutations of n letters.

    Covers w -> w.s_i biject with ascents w[i] < w[i+1]; counted here by
    direct enumeration, independent of any mutation machinery.
    """
    return sum(
        1
        for w in itertools.permutations(range(n))
        for i in range(n - 1)
        if w[i] < w[i + 1]
    )


def catalan_by_recurrence(k: int) -> int:
    vals = [1]
    for m in range(k):
        vals.append(sum(vals[i] * vals[m - i] for i in range(m + 1)))
    return vals[k]


def naive_semibrick_count(algebra) -> int:
    """Filter every subset of the brick list; dumb on purpose."""
    from taumut.modules import is_semibrick
    from taumut.nakayama import enumerate_bricks

    bricks = enumerate_bricks(algebra)
    return sum(
        1
        for r in range(len(bricks) + 1)
        for combo in itertools.combinations(bricks, r)
        if is_semibrick(list(combo))
    )


def solved_end_constants(M, E) -> tuple:
    """Structure constants and identity coefficients of End(M) in the basis
    E, each found by solving over the flattened basis rather than read off
    its free columns."""
    from taumut.linalg import Mat, solve
    from taumut.modules import identity_hom

    field = M.algebra.field
    width = len(E[0].flatten())
    basis_t = Mat(field, [h.flatten() for h in E], ncols=width).transpose()

    def coords(h):
        sol = solve(basis_t, Mat(field, [h.flatten()], ncols=width).transpose())
        assert sol is not None, "element outside the endomorphism basis"
        return tuple(sol.flatten())

    d = len(E)
    struct = {(i, j): coords(E[i].compose(E[j])) for i in range(d) for j in range(d)}
    return struct, coords(identity_hom(M))


def det(m):
    """Determinant of a square matrix by fraction-free-enough elimination."""
    from taumut.errors import DimensionMismatchError

    if m.nrows != m.ncols:
        raise DimensionMismatchError("determinant of a non-square matrix")
    field = m.field
    n = m.nrows
    if n == 0:
        return field.one()
    rows = [list(r) for r in m.rows]
    sign_flip = False
    acc = field.one()
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if not field.is_zero(rows[i][c]):
                pivot_row = i
                break
        if pivot_row is None:
            return field.zero()
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            sign_flip = not sign_flip
        pivot = rows[c][c]
        acc = field.mul(acc, pivot)
        inv = field.inv(pivot)
        for i in range(c + 1, n):
            factor = field.mul(rows[i][c], inv)
            if field.is_zero(factor):
                continue
            rows[i] = [
                field.sub(x, field.mul(factor, y))
                for x, y in zip(rows[i], rows[c])
            ]
    return field.neg(acc) if sign_flip else acc


@pytest.fixture(scope="session")
def a2_quiver() -> ExchangeQuiver:
    return explore(IsoRegistry(build_preset("a-path:2")))


@pytest.fixture(scope="session")
def a3_quiver() -> ExchangeQuiver:
    return explore(IsoRegistry(build_preset("a-path:3")))


@pytest.fixture(scope="session")
def preproj_quiver() -> ExchangeQuiver:
    return explore(IsoRegistry(build_preset("preproj-a:3")))
