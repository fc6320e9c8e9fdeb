"""Nakayama algebras: interval modules, brute-force semibrick counts, and
the exact counting recurrences.

A_{n,l} is the linearly oriented A_n quiver and B_{n,l} the cyclic one,
both with every path of length l set to zero.  Bricks are interval
modules; semibricks are counted three ways (backtracking, recurrence,
Newton identities) that must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Dict, List, Tuple

from .algebra import Algebra, AlgebraSpec, Arrow, Quiver, build_algebra, normalize_relation
from .errors import GuardExceededError, IntervalError, SpecError
from .linalg import QQ, Field, Mat
from .modules import Module, hom_dim, projective_module, quotient_by_rows


@dataclass(frozen=True)
class NakayamaShape:
    kind: str
    n: int
    l: int

    def __post_init__(self):
        if self.kind not in ("linear", "cyclic"):
            raise SpecError(f"unknown Nakayama kind {self.kind!r}")
        if self.n < 1 or self.l < 1:
            raise SpecError("Nakayama parameters must be >= 1")

    def __str__(self) -> str:
        return f"{self.kind}:{self.n}:{self.l}"


def make_nakayama(shape: NakayamaShape, field: Field = QQ) -> AlgebraSpec:
    """Linear or cyclic quiver with all length-l monomial walks as
    relations; l = 1 gives the semisimple arrowless presentation."""
    n, l = shape.n, shape.l
    vertices = tuple(str(i) for i in range(1, n + 1))
    if l == 1:
        return AlgebraSpec(Quiver(vertices, ()), (), 2, field)
    if shape.kind == "linear":
        arrows = tuple(
            Arrow(f"a{i}", str(i), str(i + 1)) for i in range(1, n)
        )
        starts = range(1, n - l + 1)
        walks = [
            tuple(f"a{i + j}" for j in range(l)) for i in starts
        ]
    else:
        arrows = tuple(
            Arrow(f"a{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)
        )
        walks = [
            tuple(f"a{(i + j - 1) % n + 1}" for j in range(l))
            for i in range(1, n + 1)
        ]
    quiver = Quiver(vertices, arrows)
    relations = tuple(
        normalize_relation(quiver, [(1, walk)]) for walk in walks
    )
    return AlgebraSpec(quiver, relations, l, field)


def build_nakayama(shape: NakayamaShape, field: Field = QQ) -> Algebra:
    """The Nakayama algebra of the shape, which it keeps as `nakayama_shape`;
    labelled by its preset name, such as `nakayama:cyclic:4:4`."""
    algebra = build_algebra(make_nakayama(shape, field), label=f"nakayama:{shape}")
    algebra.nakayama_shape = shape
    return algebra


def _shape_of(algebra: Algebra) -> NakayamaShape:
    shape = algebra.nakayama_shape
    if shape is None:
        raise SpecError("algebra was not built by build_nakayama")
    return shape


def uniserial_module(algebra: Algebra, top_vertex: int, length: int) -> Module:
    """The uniserial module of the given length whose top sits at
    top_vertex (1-based): P_u modulo its basis paths of length >= length."""
    shape = _shape_of(algebra)
    if not 1 <= top_vertex <= shape.n:
        raise IntervalError(f"vertex {top_vertex} out of range")
    if length < 1 or length > shape.l:
        raise IntervalError(f"no uniserial module of length {length}")
    u = top_vertex - 1
    P = projective_module(algebra, u)
    if length > P.dim_total:  # P_u is itself uniserial
        raise IntervalError(f"walk of length {length} from vertex {top_vertex} leaves the quiver")
    field = algebra.field
    killed = []
    for w, d in enumerate(P.dims):
        unit = Mat.identity(field, d).rows
        paths = algebra.basis_paths(u, w)
        long = [unit[z] for z, (_, arrows) in enumerate(paths) if len(arrows) >= length]
        killed.append(Mat._of(field, long, d))
    return quotient_by_rows(P, killed)[0]


def interval_module(algebra: Algebra, u: int, v: int) -> Module:
    """Uniserial module with top S_u and socle S_v; cyclic intervals wrap."""
    shape = _shape_of(algebra)
    n = shape.n
    if not (1 <= u <= n and 1 <= v <= n):
        raise IntervalError(f"interval [{u},{v}] out of range")
    if shape.kind == "linear":
        if v < u:
            raise IntervalError(f"interval [{u},{v}] is reversed")
        length = v - u + 1
    else:
        length = (v - u) % n + 1
    if length > shape.l:
        raise IntervalError(
            f"interval [{u},{v}] has length {length} > {shape.l}, so no "
            "such module exists"
        )
    return uniserial_module(algebra, u, length)


def enumerate_bricks(algebra: Algebra) -> List[Module]:
    """The uniserials that are bricks, ordered by (top, length).  A
    uniserial has a simple top, so End/rad = k and it is a brick exactly
    when dim End = 1."""
    return [M for M in enumerate_indecomposables(algebra) if hom_dim(M, M) == 1]


def enumerate_indecomposables(algebra: Algebra) -> List[Module]:
    """Every indecomposable: uniserials of all lengths up to l."""
    shape = _shape_of(algebra)
    n, l = shape.n, shape.l
    out = []
    for u in range(1, n + 1):
        top = min(l, n - u + 1) if shape.kind == "linear" else l
        for k in range(1, top + 1):
            out.append(uniserial_module(algebra, u, k))
    return out


def count_semibricks_bruteforce(algebra: Algebra, guard: int = 10_000_000) -> int:
    """Count Hom-orthogonal subsets of the bricks (the empty set counts)
    by independent-set backtracking over the incompatibility graph."""
    bricks = enumerate_bricks(algebra)
    m = len(bricks)
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if hom_dim(bricks[i], bricks[j]) or hom_dim(bricks[j], bricks[i]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    ops = 0

    def walk(start: int, banned: int) -> int:
        nonlocal ops
        total = 1
        for j in range(start, m):
            if banned >> j & 1:
                continue
            ops += 1
            if ops > guard:
                raise GuardExceededError(
                    f"semibrick search exceeded {guard} candidate sets"
                )
            total += walk(j + 1, banned | adj[j])
        return total

    return walk(0, 0)


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


@lru_cache(maxsize=None)
def a_count(n: int, l: int) -> int:
    """Semibrick count of A_{n,l} by the linear recurrence."""
    if l < 1:
        raise SpecError("l must be >= 1")
    if n < 0:
        return 0
    if n == 0:
        return 1
    # terms with i > n vanish; skipping them also keeps the recursion
    # strictly decreasing in n
    return 2 * a_count(n - 1, l) + sum(
        a_count(i - 2, l) * a_count(n - i, l)
        for i in range(2, min(l, n) + 1)
    )


@lru_cache(maxsize=None)
def b_count(n: int, l: int) -> int:
    """Semibrick count of B_{n,l}: the cyclic case reduces to a-counts
    weighted by Catalan numbers."""
    if l < 1:
        raise SpecError("l must be >= 1")
    if n < 0:
        return 0
    if n == 0:
        return 1
    return 2 * a_count(n - 1, l) + sum(
        i * catalan(i - 1) * a_count(n - i, l)
        for i in range(2, min(l, n) + 1)
    )


def count_value(kind: str, n: int, l: int) -> int:
    if kind == "linear":
        return a_count(n, l)
    if kind == "cyclic":
        return b_count(n, l)
    raise SpecError(f"unknown Nakayama kind {kind!r}")


def count_table(kind: str, n_max: int, l_max: int) -> Dict[Tuple[int, int], int]:
    return {
        (n, l): count_value(kind, n, l)
        for l in range(1, l_max + 1)
        for n in range(1, n_max + 1)
    }


def format_count_table(kind: str, n_max: int, l_max: int) -> str:
    """Aligned text table, rows l ascending, columns n ascending."""
    values = count_table(kind, n_max, l_max)
    header = ["l\\n"] + [str(n) for n in range(1, n_max + 1)]
    rows = [header]
    for l in range(1, l_max + 1):
        rows.append([str(l)] + [str(values[(n, l)]) for n in range(1, n_max + 1)])
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
    )


def _symmetric_sums(l: int, n_max: int) -> Tuple[List[int], List[int]]:
    """Complete homogeneous and power sums of the roots of F_l, computed
    from its coefficients d (d0=1, d1=-2, d_i=-c_{i-1}) by Newton's
    identities; no root is ever materialized."""
    d = [1, -2] + [-catalan(i - 1) for i in range(2, l + 1)]
    e = [((-1) ** i) * d[i] for i in range(l + 1)]
    h = [1] + [0] * n_max
    p = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        h[n] = sum(
            (-1) ** (i - 1) * e[i] * h[n - i] for i in range(1, min(l, n) + 1)
        )
        p[n] = sum(
            (-1) ** (i - 1) * i * e[i] * h[n - i]
            for i in range(1, min(l, n) + 1)
        )
    return h, p


def verify_symmetric_identities(l: int, n_max: int) -> bool:
    """h_n = a_count and p_n = b_count for 1 <= n <= n_max."""
    h, p = _symmetric_sums(l, n_max)
    return all(
        h[n] == a_count(n, l) and p[n] == b_count(n, l)
        for n in range(1, n_max + 1)
    )
