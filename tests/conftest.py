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
from taumut.smc import check_silting_table, check_smc_axioms, smc_of_vertex
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


# taumut.modules functions of the dual route, which the tests alone enter
DUAL_ROUTE = ("_translate", "nakayama_functor_map", "socle_components", "injective_module")


def summand_dims(pair: SupportPair) -> tuple:
    reg = pair.registry
    return tuple(sorted(reg.module(i).dims for i in pair.summand_ids))


def collections_of(quiver: ExchangeQuiver) -> list:
    """Every vertex's collection, read once each, as `verify` reads them."""
    return [smc_of_vertex(quiver, i) for i in range(quiver.n_vertices)]


def certified(quiver: ExchangeQuiver, i: int):
    """Vertex i's collection, asserted to pass the two checks that certify
    what `smc_of_vertex` only reads: its axioms and the Koenig-Yang table
    against the vertex's two-term silting complex."""
    x = smc_of_vertex(quiver, i)
    axioms = check_smc_axioms(x)
    table = check_silting_table(quiver.pairs[i], x)
    assert axioms.ok and table.ok, (i, axioms.violations, table.violations)
    return x


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
    from taumut.linalg import Mat
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


def solve(m, rhs):
    """One exact solution x of m @ x = rhs, or None if inconsistent.

    rhs may have several columns; the result then solves all of them at
    once.  Free variables are set to zero, so the answer is deterministic.
    """
    from taumut.errors import DimensionMismatchError
    from taumut.linalg import Mat, _rref_rows

    m._check_same_field(rhs)
    if m.nrows != rhs.nrows:
        raise DimensionMismatchError("solve shape mismatch")
    field = m.field
    aug = [list(a) + list(b) for a, b in zip(m.rows, rhs.rows)]
    if not aug:
        return Mat.zeros(field, m.ncols, rhs.ncols)
    _, rows, pivots = _rref_rows(field, aug)
    if any(c >= m.ncols for c in pivots):
        return None
    out = [[field.zero()] * rhs.ncols for _ in range(m.ncols)]
    for r, c in enumerate(pivots):
        out[c] = rows[r][m.ncols :]
    return Mat._of(field, out, rhs.ncols)


def reference_kernel(h):
    """The kernel of h with each span reduced a second time: the left kernel
    rows of h at each vertex, then the row space of those rows."""
    from taumut.linalg import kernel_basis, row_space
    from taumut.modules import submodule_from_rows

    spans = [row_space(kernel_basis(m.transpose())[0]) for m in h.mats]
    return submodule_from_rows(h.source, spans)


def reference_indec_iso(M, N):
    """Isomorphism test for an indecomposable N through the radical of
    End(N): M and N are isomorphic exactly when some composite g f of basis
    maps f: M -> N and g: N -> M is a unit of the local ring End(N), that
    is, lies outside the span of rad End(N)."""
    from taumut.linalg import extend_span
    from taumut.modules import _rad_homs, hom_basis

    if M.dims != N.dims:
        return False
    field = M.algebra.field
    fw = hom_basis(M, N).basis
    bw = hom_basis(N, M).basis
    rows, piv = [], []
    for h in _rad_homs(hom_basis(N, N)):
        extend_span(field, rows, piv, h.flatten())
    return any(
        extend_span(field, rows, piv, g.compose(f).flatten()) for g in bw for f in fw
    )


def reference_components(reg, ids, into=True):
    """The top (into) or socle components of the summands ids, built afresh
    from every Hom basis between them and rad End, as registry ids; None
    marks a vanishing one."""
    from taumut.modules import socle_components, top_components

    build = top_components if into else socle_components
    return tuple(None if c.is_zero else reg.register(c) for c in build([reg.module(i) for i in ids]))


def reference_shifted_labels(pair):
    """The shifted labels through the dual pair (AIR Thm 2.14): the socle
    components of tau U, U a non-projective summand at ("summand", position),
    and of I_v, v missing at ("support", v); None marks a vanishing one."""
    from taumut.modules import ar_translate, injective_module

    reg = pair.registry
    keys, ids = [], []
    for pos, sid in enumerate(pair.summand_ids):
        if sid not in reg.projective_ids:
            keys.append(("summand", pos))
            ids.append(reg.register(ar_translate(reg.module(sid))))
    for v in pair.support_complement:
        keys.append(("support", v))
        ids.append(reg.register(injective_module(reg.algebra, v)))
    return dict(zip(keys, reference_components(reg, ids, into=False)))


def reference_left_mutate(pair, position):
    """Left mutation through a non-minimal approximation: X maps into every
    Hom-basis copy of the other summands, the cokernel is decomposed, and
    the parts that are not kept summands are the new summands.  Returns the
    new pair and the label's id, like `left_mutate`."""
    from taumut.linalg import hstack
    from taumut.modules import ModuleHom, cokernel, decompose, direct_sum
    from taumut.tautilt import SupportPair

    reg = pair.registry
    A = reg.algebra
    ids = pair.summand_ids
    others = [sid for k, sid in enumerate(ids) if k != position]
    X = reg.module(ids[position])
    homs = [h for uid in others for h in reg.hom(ids[position], uid)]
    extras = []
    if homs:
        C, _ = direct_sum(A, [h.target for h in homs])
        mats = [
            hstack(A.field, [h.mats[v] for h in homs], nrows=X.dims[v])
            for v in range(A.n_vertices)
        ]
        for part in decompose(cokernel(ModuleHom(X, C, mats))[0]):
            pid = reg.register(part)
            if pid not in others:
                extras.append(pid)
    assert len(extras) <= 1, "more than one new summand"
    new_ids = others + extras
    missing = [
        v for v in range(A.n_vertices)
        if all(reg.module(i).dims[v] == 0 for i in new_ids)
    ]
    return SupportPair(reg, new_ids, missing), reference_components(reg, ids)[position]


def reference_smc_left_mutate(x, brick):
    """Koenig-Yang left mutation of a collection at its degree-0 brick, with
    every element mutated afresh and nothing cached: a universal extension
    for a degree-0 element that extends the brick, and the cokernel or the
    kernel of the left approximation for a shifted one that maps to it.
    Each new element is decomposed, must be one indecomposable, and is then
    registered, so no brick certificate of the registry is trusted."""
    from taumut.errors import ApproximationDichotomyError, TaumutError
    from taumut.modules import cokernel, decompose, ext1_basis, greedy_span_pick, hom_basis, kernel
    from taumut.smc import TwoTermSMC, _universal_extension, check_smc_axioms

    reg = x.registry

    def register_one(M):
        parts = decompose(M)
        assert len(parts) == 1, f"the new element with dims {M.dims} has {len(parts)} summands"
        return reg.register(parts[0])

    s0 = brick
    assert s0 in x.degree0 and reg.ext1_dim(s0, s0) == 0
    S0 = reg.module(s0)
    end_s0 = list(reg.hom(s0, s0))
    new0, new1 = [], [s0]
    for sid in x.degree0:
        if sid == s0:
            continue
        if reg.ext1_dim(sid, s0) == 0:
            new0.append(sid)
            continue
        pres = reg.presentation(sid)
        omega_basis = hom_basis(pres.omega, S0).basis
        reps, coboundaries = ext1_basis(reg.module(sid), S0, pres, omega_basis)
        chosen = greedy_span_pick(
            reg.algebra.field,
            coboundaries,
            reps,
            lambda h: [h.compose(u).flatten() for u in end_s0],
        )
        if len(chosen) * len(end_s0) != len(reps):
            raise TaumutError("extension space dimension is not divisible")
        new0.append(register_one(_universal_extension(pres, chosen, S0)))
    for tid in x.degree_minus1:
        homs = list(reg.hom(tid, s0))
        if not homs:
            new1.append(tid)
            continue
        f = reg.left_approximation(tid, [s0])
        if f.target.dim_total * len(end_s0) != len(homs) * S0.dim_total:
            raise TaumutError("hom space dimension is not divisible")
        ker, _ = kernel(f)
        injective = ker.is_zero
        surjective = all(
            s - k == t for s, k, t in zip(f.source.dims, ker.dims, f.target.dims)
        )
        if injective and not surjective:
            new0.append(register_one(cokernel(f)[0]))
        elif surjective and not injective:
            new1.append(register_one(ker))
        else:
            raise ApproximationDichotomyError("universal map is neither injective nor surjective")
    out = TwoTermSMC(reg, new0, new1)
    report = check_smc_axioms(out)
    assert report.ok, report.violations
    return out


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


def reference_injective(algebra, v):
    """I_v on the dual of the path basis, built directly: the space at u is
    dual to the paths u -> v, and an arrow acts by the transpose of left
    multiplication on those paths."""
    from taumut.linalg import Mat
    from taumut.modules import Module

    field = algebra.field
    vidx = algebra.quiver.vertex_index
    blocks = [algebra.basis_paths(u, v) for u in range(algebra.n_vertices)]
    dims = [len(b) for b in blocks]
    pos = [{k: i for i, (k, _) in enumerate(block)} for block in blocks]
    mats = []
    for ai, a in enumerate(algebra.quiver.arrows):
        u, w = vidx[a.source], vidx[a.target]
        mat = [[field.zero()] * dims[w] for _ in range(dims[u])]
        for y_local, (_, y_arrows) in enumerate(blocks[w]):
            for k, c in algebra.path_class(u, (ai,) + y_arrows):
                mat[pos[u][k]][y_local] = c
        mats.append(Mat._of(field, mat, dims[w]))
    return Module(algebra, dims, mats)


def reference_nakayama_map(pres):
    """nu f: nu P1 -> nu P0 on sums of `reference_injective`, entry by
    entry from the algebra's multiplication table: the entry c_ij of f
    acts on the dual basis of the paths into P0's vertices."""
    from taumut.linalg import Mat
    from taumut.modules import ModuleHom, direct_sum

    A = pres.module.algebra
    field = A.field
    nu_p1, off1 = direct_sum(A, [reference_injective(A, v) for v in pres.p1_vertices])
    nu_p0, off0 = direct_sum(A, [reference_injective(A, v) for v in pres.p0_vertices])
    coefs = {}
    for i, vi in enumerate(pres.p1_vertices):
        empty = [arrows for _, arrows in A.basis_paths(vi, vi)].index(())
        grow = pres.p1_offsets[i][vi] + empty
        frow = pres.f.mats[vi].row(grow)
        for j, wj in enumerate(pres.p0_vertices):
            start = pres.p0_offsets[j][vi]
            coefs[(i, j)] = [
                (k, frow[start + local])
                for local, (k, _) in enumerate(A.basis_paths(wj, vi))
                if not field.is_zero(frow[start + local])
            ]
    mats = []
    for u in range(A.n_vertices):
        mat = [[field.zero()] * nu_p0.dims[u] for _ in range(nu_p1.dims[u])]
        for i, vi in enumerate(pres.p1_vertices):
            rpos = {k: z for z, (k, _) in enumerate(A.basis_paths(u, vi))}
            for j, wj in enumerate(pres.p0_vertices):
                for y_local, (y_k, _) in enumerate(A.basis_paths(u, wj)):
                    for b, cb in coefs[(i, j)]:
                        for k, c in A.mult_basis(y_k, b):
                            r, col = off1[i][u] + rpos[k], off0[j][u] + y_local
                            mat[r][col] = field.add(mat[r][col], field.mul(cb, c))
        mats.append(Mat._of(field, mat, nu_p0.dims[u]))
    return nu_p1, nu_p0, ModuleHom(nu_p1, nu_p0, mats)


def reference_uniserial(algebra, top_vertex, length):
    """The uniserial module along the unique outgoing walk from top_vertex
    (1-based), one basis vector per step, with the same errors as
    `nakayama.uniserial_module`."""
    from taumut.errors import IntervalError
    from taumut.linalg import Mat
    from taumut.modules import Module

    shape = algebra.nakayama_shape
    if not 1 <= top_vertex <= shape.n:
        raise IntervalError(f"vertex {top_vertex} out of range")
    if length < 1 or length > shape.l:
        raise IntervalError(f"no uniserial module of length {length}")
    vidx = algebra.quiver.vertex_index
    walk = [top_vertex - 1]
    steps = []
    for _ in range(length - 1):
        outgoing = [
            ai for ai, a in enumerate(algebra.quiver.arrows) if vidx[a.source] == walk[-1]
        ]
        if not outgoing:
            raise IntervalError(
                f"walk of length {length} from vertex {top_vertex} leaves the quiver"
            )
        (ai,) = outgoing
        steps.append(ai)
        walk.append(vidx[algebra.quiver.arrows[ai].target])
    field = algebra.field
    dims = [0] * shape.n
    local = []
    for v in walk:
        local.append(dims[v])
        dims[v] += 1
    mats = []
    for ai, a in enumerate(algebra.quiver.arrows):
        rows = [[field.zero()] * dims[vidx[a.target]] for _ in range(dims[vidx[a.source]])]
        for m, step in enumerate(steps):
            if step == ai:
                rows[local[m]][local[m + 1]] = field.one()
        mats.append(Mat(field, rows, ncols=dims[vidx[a.target]]))
    return Module(algebra, dims, mats)


@pytest.fixture(scope="session")
def a2_quiver() -> ExchangeQuiver:
    return explore(IsoRegistry(build_preset("a-path:2")))


@pytest.fixture(scope="session")
def a3_quiver() -> ExchangeQuiver:
    return explore(IsoRegistry(build_preset("a-path:3")))


@pytest.fixture(scope="session")
def preproj_quiver() -> ExchangeQuiver:
    return explore(IsoRegistry(build_preset("preproj-a:3")))
