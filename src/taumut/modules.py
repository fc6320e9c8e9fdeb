"""Finite-dimensional right modules over a bound quiver algebra.

A module is a representation of the quiver: one exact vector space per
vertex and, for each arrow a: u -> w, a dims[u] x dims[w] matrix.  Vectors
are rows and act on the right, so a path acts by multiplying its arrow
matrices in path order.  Every construction here is exact and
deterministic; the same input always yields identical matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .algebra import Algebra
from .errors import (
    CharacteristicError,
    DimensionMismatchError,
    IndeterminateDecompositionError,
    NotABrickError,
    SpecError,
    TaumutError,
)
from .linalg import (
    Mat,
    PrimeField,
    block_diag,
    extend_span,
    hstack,
    kernel_basis,
    kernel_rows,
    reduce_row,
    row_space,
    vstack,
)


class Module:
    """A right module presented as a quiver representation.  The public
    constructor checks every shape and relation; `_validated=True`, for a
    module a kernel built, checks nothing."""

    __slots__ = ("algebra", "dims", "mats")

    def __init__(
        self,
        algebra: Algebra,
        dims: Sequence[int],
        mats: Sequence[Mat],
        *,
        _validated: bool = False,
    ):
        self.algebra = algebra
        self.mats = tuple(mats)
        if _validated:
            self.dims = tuple(dims)
            return
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != algebra.n_vertices:
            raise DimensionMismatchError("one dimension per vertex required")
        if len(self.mats) != len(algebra.quiver.arrows):
            raise DimensionMismatchError("one matrix per arrow required")
        vidx = algebra.quiver.vertex_index
        for ai, a in enumerate(algebra.quiver.arrows):
            m = self.mats[ai]
            du = self.dims[vidx[a.source]]
            dw = self.dims[vidx[a.target]]
            if (m.nrows, m.ncols) != (du, dw):
                raise DimensionMismatchError(
                    f"arrow {a.name}: expected {du}x{dw}, got {m.nrows}x{m.ncols}"
                )
            if m.field != algebra.field:
                raise DimensionMismatchError("module matrices over the wrong field")
        self._check_relations()

    def _check_relations(self) -> None:
        A = self.algebra
        vidx = A.quiver.vertex_index
        for combo in A.annihilator_combos:
            first_arrows = combo[0][1]
            src = vidx[A.quiver.arrows[first_arrows[0]].source]
            acc = None
            for coeff, arrows in combo:
                term = self.path_action(src, arrows).scale(coeff)
                acc = term if acc is None else acc.add(term)
            if acc is not None and not acc.is_zero():
                raise SpecError("matrices do not satisfy the algebra's relations")

    def path_action(self, source: int, arrows: Sequence[int]) -> Mat:
        m = Mat.identity(self.algebra.field, self.dims[source])
        for ai in arrows:
            m = m.mul(self.mats[ai])
        return m

    @property
    def dim_total(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.dim_total == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Module)
            and self.algebra is other.algebra
            and self.dims == other.dims
            and self.mats == other.mats
        )

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.dims, self.mats))

    def __repr__(self) -> str:
        return f"Module(dims={self.dims})"


def zero_module(algebra: Algebra) -> Module:
    dims = [0] * algebra.n_vertices
    mats = [Mat.zeros(algebra.field, 0, 0) for _ in algebra.quiver.arrows]
    return Module(algebra, dims, mats, _validated=True)


def simple_module(algebra: Algebra, v: int) -> Module:
    dims = [1 if u == v else 0 for u in range(algebra.n_vertices)]
    vidx = algebra.quiver.vertex_index
    mats = []
    for a in algebra.quiver.arrows:
        du = dims[vidx[a.source]]
        dw = dims[vidx[a.target]]
        mats.append(Mat.zeros(algebra.field, du, dw))
    return Module(algebra, dims, mats, _validated=True)


def direct_sum(algebra: Algebra, summands: Sequence[Module]) -> Tuple[Module, List[List[int]]]:
    """Direct sum plus per-summand row offsets at each vertex."""
    field = algebra.field
    n = algebra.n_vertices
    offsets: List[List[int]] = []
    cursor = [0] * n
    for s in summands:
        if s.algebra is not algebra:
            raise DimensionMismatchError("direct sum across algebras")
        offsets.append(list(cursor))
        cursor = [c + d for c, d in zip(cursor, s.dims)]
    dims = cursor
    mats = []
    for ai in range(len(algebra.quiver.arrows)):
        mats.append(block_diag(field, [s.mats[ai] for s in summands]))
    return Module(algebra, dims, mats, _validated=True), offsets


class ModuleHom:
    """A homomorphism f: M -> N, one matrix per vertex, rows act on left.
    The public constructor checks every shape and that f commutes with the
    arrows; `_validated=True`, for a map a kernel built, checks nothing."""

    __slots__ = ("source", "target", "mats")

    def __init__(
        self,
        source: Module,
        target: Module,
        mats: Sequence[Mat],
        *,
        _validated: bool = False,
    ):
        self.source = source
        self.target = target
        self.mats = tuple(mats)
        if _validated:
            return
        if len(self.mats) != source.algebra.n_vertices:
            raise DimensionMismatchError("one matrix per vertex required")
        for v, m in enumerate(self.mats):
            if (m.nrows, m.ncols) != (source.dims[v], target.dims[v]):
                raise DimensionMismatchError(
                    f"vertex {v}: expected {source.dims[v]}x{target.dims[v]}, "
                    f"got {m.nrows}x{m.ncols}"
                )
        self._check_commutes()

    def _check_commutes(self) -> None:
        A = self.source.algebra
        vidx = A.quiver.vertex_index
        for ai, a in enumerate(A.quiver.arrows):
            u, w = vidx[a.source], vidx[a.target]
            left = self.source.mats[ai].mul(self.mats[w])
            right = self.mats[u].mul(self.target.mats[ai])
            if left != right:
                raise DimensionMismatchError(
                    f"map does not commute with arrow {a.name}"
                )

    def compose(self, other: "ModuleHom") -> "ModuleHom":
        """self followed by other (source of other = target of self)."""
        if other.source is not self.target and other.source != self.target:
            raise DimensionMismatchError("composition target/source mismatch")
        mats = [m.mul(o) for m, o in zip(self.mats, other.mats)]
        return ModuleHom(self.source, other.target, mats, _validated=True)

    def add(self, other: "ModuleHom") -> "ModuleHom":
        mats = [m.add(o) for m, o in zip(self.mats, other.mats)]
        return ModuleHom(self.source, self.target, mats, _validated=True)

    def scale(self, c) -> "ModuleHom":
        return ModuleHom(
            self.source, self.target, [m.scale(c) for m in self.mats], _validated=True
        )

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats)

    def flatten(self) -> tuple:
        out = []
        for m in self.mats:
            out.extend(m.flatten())
        return tuple(out)

    def __repr__(self) -> str:
        return f"ModuleHom({self.source.dims} -> {self.target.dims})"


def identity_hom(M: Module) -> ModuleHom:
    mats = [Mat.identity(M.algebra.field, d) for d in M.dims]
    return ModuleHom(M, M, mats, _validated=True)


def zero_hom(M: Module, N: Module) -> ModuleHom:
    mats = [
        Mat.zeros(M.algebra.field, M.dims[v], N.dims[v])
        for v in range(M.algebra.n_vertices)
    ]
    return ModuleHom(M, N, mats, _validated=True)


@dataclass(frozen=True)
class HomSpace:
    """A canonical basis of Hom(source, target) and the free columns of its
    commutation system: basis map k has a 1 at free column k and 0 at the
    others, so the coordinates of any map in the space are the entries of
    its flattening at the free columns."""

    source: Module
    target: Module
    basis: Tuple[ModuleHom, ...]
    free_cols: Tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def hom_basis(M: Module, N: Module) -> HomSpace:
    """A canonical basis of Hom(M, N) from the commutation equations."""
    if M.algebra is not N.algebra:
        raise DimensionMismatchError("hom across algebras")
    A = M.algebra
    field = A.field
    n = A.n_vertices
    offsets = []
    total = 0
    for v in range(n):
        offsets.append(total)
        total += M.dims[v] * N.dims[v]
    if total == 0:
        return HomSpace(M, N, (), ())
    vidx = A.quiver.vertex_index
    zero = field.zero()
    rows = []
    for ai, a in enumerate(A.quiver.arrows):
        u, w = vidx[a.source], vidx[a.target]
        nu, nw = N.dims[u], N.dims[w]
        # equation (i, l): row i of phi_u times column l of N_a, minus
        # row i of M_a times column l of phi_w
        n_cols = list(zip(*N.mats[ai].rows)) or [()] * nw
        for i, m_row in enumerate(M.mats[ai].rows):
            start = offsets[u] + i * nu
            for l in range(nw):
                row = [zero] * total
                row[start : start + nu] = n_cols[l]
                for k, x in enumerate(m_row):
                    if x:
                        c = offsets[w] + k * nw + l
                        row[c] = field.sub(row[c], x)
                rows.append(row)
    flats, free_cols = kernel_rows(field, rows, total)
    basis = []
    for flat in flats:
        mats = []
        for v in range(n):
            seg = flat[offsets[v] : offsets[v] + M.dims[v] * N.dims[v]]
            nv = N.dims[v]
            mats.append(Mat._of(field, [seg[i * nv : (i + 1) * nv] for i in range(M.dims[v])], nv))
        basis.append(ModuleHom(M, N, mats, _validated=True))
    return HomSpace(M, N, tuple(basis), free_cols)


def hom_dim(M: Module, N: Module) -> int:
    return hom_basis(M, N).dim


# -- submodules, quotients, kernels ----------------------------------------


def submodule_from_rows(
    M: Module, spans: Sequence[Tuple[Mat, Sequence[int]]]
) -> Tuple[Module, ModuleHom]:
    """The submodule with the given span at each vertex (must be
    arrow-stable).

    A span is (basis, coordinate columns), as `row_space` and
    `kernel_basis` return it: basis row k has a 1 at coordinate column k
    and 0 at the others, so a pushed row's coordinates are its entries
    there, and the row must equal that combination of the basis."""
    A = M.algebra
    field = A.field
    vidx = A.quiver.vertex_index
    rows = [basis for basis, _ in spans]
    mats = []
    for ai, a in enumerate(A.quiver.arrows):
        u, w = vidx[a.source], vidx[a.target]
        basis, cols = spans[w]
        pushed = rows[u].mul(M.mats[ai])
        at_cols = [[row[c] for c in cols] for row in pushed.rows]
        coords = Mat._of(field, at_cols, len(cols))
        if coords.mul(basis) != pushed:
            raise DimensionMismatchError("vectors outside the expected row space")
        mats.append(coords)
    sub = Module(A, [r.nrows for r in rows], mats, _validated=True)
    incl = ModuleHom(sub, M, rows, _validated=True)
    return sub, incl


def quotient_by_rows(M: Module, rows_per_vertex: Sequence[Mat]) -> Tuple[Module, ModuleHom]:
    """The quotient of M by the arrow-stable row span.

    Each span is reduced once, and the quotient has a basis indexed by the
    free (non-pivot) columns.  The projection reads off the rref basis: a
    free unit vector e_c maps to its own coordinate, and the pivot unit
    vector of basis row B maps to -B at the free columns.  It commutes with
    the arrows by construction, so it is not checked."""
    A = M.algebra
    field = A.field
    vidx = A.quiver.vertex_index
    zero, one = field.zero(), field.one()
    free = []
    proj_mats = []
    for v, d in enumerate(M.dims):
        basis, pivots = row_space(rows_per_vertex[v])
        row_at = dict(zip(pivots, basis.rows))
        cols = [c for c in range(d) if c not in row_at]
        mat = [
            [field.neg(row_at[i][c]) for c in cols]
            if i in row_at
            else [one if c == i else zero for c in cols]
            for i in range(d)
        ]
        free.append(cols)
        proj_mats.append(Mat._of(field, mat, len(cols)))
    arrow_mats = []
    for ai, a in enumerate(A.quiver.arrows):
        u, w = vidx[a.source], vidx[a.target]
        lifted = [M.mats[ai].rows[c] for c in free[u]]
        width = len(free[w])
        arrow_mats.append(Mat._of(field, field._matmul(lifted, proj_mats[w].rows, width), width))
    quo = Module(A, [len(cols) for cols in free], arrow_mats, _validated=True)
    proj = ModuleHom(M, quo, proj_mats, _validated=True)
    return quo, proj


def kernel(h: ModuleHom) -> Tuple[Module, ModuleHom]:
    # {y : y m = 0} is the kernel of the transpose
    return submodule_from_rows(h.source, [kernel_basis(m.transpose()) for m in h.mats])


def image(h: ModuleHom) -> Tuple[Module, ModuleHom]:
    return submodule_from_rows(h.target, [row_space(m) for m in h.mats])


def cokernel(h: ModuleHom) -> Tuple[Module, ModuleHom]:
    return quotient_by_rows(h.target, h.mats)


def radical_rows(M: Module) -> List[Mat]:
    """Rows spanning rad M = sum of all arrow images, per vertex.  They are
    stacked, not reduced: the caller reduces each span once."""
    A = M.algebra
    field = A.field
    vidx = A.quiver.vertex_index
    per_vertex: List[List[Mat]] = [[] for _ in range(A.n_vertices)]
    for ai, a in enumerate(A.quiver.arrows):
        per_vertex[vidx[a.target]].append(M.mats[ai])
    return [
        vstack(field, chunk, ncols=M.dims[v]) for v, chunk in enumerate(per_vertex)
    ]


def top(M: Module) -> Tuple[Module, ModuleHom]:
    return quotient_by_rows(M, radical_rows(M))


# -- projectives, injectives, duality ---------------------------------------


def projective_module(algebra: Algebra, v: int) -> Module:
    """The indecomposable projective P_v with the path basis at each vertex."""
    field = algebra.field
    vidx = algebra.quiver.vertex_index
    blocks = [algebra.basis_paths(v, u) for u in range(algebra.n_vertices)]
    dims = [len(b) for b in blocks]
    pos = []
    for u in range(algebra.n_vertices):
        pos.append({k: i for i, (k, _) in enumerate(blocks[u])})
    mats = []
    for a in algebra.quiver.arrows:
        u, w = vidx[a.source], vidx[a.target]
        ai = algebra.quiver.arrow_index[a.name]
        rows = []
        for _, arrows in blocks[u]:
            out = [field.zero()] * dims[w]
            for k, c in algebra.path_class(v, arrows + (ai,)):
                out[pos[w][k]] = c
            rows.append(out)
        mats.append(Mat._of(field, rows, dims[w]))
    return Module(algebra, dims, mats, _validated=True)


def injective_module(algebra: Algebra, v: int) -> Module:
    """The indecomposable injective I_v = D(e_v A^op): the dual of the
    opposite algebra's projective at v."""
    return dualize(projective_module(algebra.opposite(), v))


def dualize(M: Module) -> Module:
    """The linear dual as a module over the opposite algebra."""
    op = M.algebra.opposite()
    mats = [m.transpose() for m in M.mats]
    return Module(op, M.dims, mats, _validated=True)


def projective_sum(algebra: Algebra, vertices: Sequence[int]) -> Tuple[Module, List[List[int]]]:
    return direct_sum(algebra, [projective_module(algebra, v) for v in vertices])


# -- minimal presentations and the translate --------------------------------


@dataclass
class Presentation:
    """A minimal projective presentation P1 -> P0 -> M -> 0.  P1 is the
    projective cover of Omega M, so p1_vertices is the top of Omega M.
    P1, its offsets and f: P1 -> P0 are built on demand, at the first
    read: g-vectors need only the vertices."""

    module: Module
    p0_vertices: Tuple[int, ...]
    p0: Module
    p0_offsets: List[List[int]]
    omega: Module
    omega_incl: ModuleHom
    p1_vertices: Tuple[int, ...]

    @cached_property
    def _second_cover(self) -> Tuple[Module, List[List[int]], ModuleHom]:
        _, p1, p1_offsets, cover = _projective_cover(self.omega)
        return p1, p1_offsets, cover.compose(self.omega_incl)

    p1 = property(lambda self: self._second_cover[0])
    p1_offsets = property(lambda self: self._second_cover[1])
    f = property(lambda self: self._second_cover[2])


def _top_generators(M: Module) -> List[Tuple[int, int]]:
    """(vertex, coordinate) pairs lifting a basis of M / rad M."""
    gens = []
    for v, rows in enumerate(radical_rows(M)):
        piv = set(row_space(rows)[1])
        for c in range(M.dims[v]):
            if c not in piv:
                gens.append((v, c))
    return gens


def _top_socle_vertices(M: Module) -> Tuple[frozenset, frozenset]:
    """The vertices where the top of M is nonzero and those where its
    socle is: the arrows out of a socle vertex v have a common kernel in
    M_v, which takes one rank."""
    A = M.algebra
    vidx = A.quiver.vertex_index
    outs: List[List[Mat]] = [[] for _ in M.dims]
    for ai, a in enumerate(A.quiver.arrows):
        outs[vidx[a.source]].append(M.mats[ai])
    socle = (
        v for v, d in enumerate(M.dims)
        if d and len(row_space(hstack(A.field, outs[v], nrows=d))[1]) < d
    )
    return frozenset(v for v, _ in _top_generators(M)), frozenset(socle)


def _hom_from_projectives(
    P: Module,
    offsets: Sequence[Sequence[int]],
    vertices: Sequence[int],
    N: Module,
    images: Sequence[Sequence],
) -> ModuleHom:
    """The map from P, the sum of the projectives at `vertices` with the
    given direct-sum offsets, to N that sends generator j to the row
    images[j] of N at vertices[j].  Basis path p of the j-th summand goes
    to images[j] acted on by p.  P_w = e_w A is free on e_w, so any row of
    N at w fixes a module map, and the result is not checked."""
    A = P.algebra
    field = A.field
    zero = field.zero()
    rows = [[[zero] * N.dims[u]] * P.dims[u] for u in range(A.n_vertices)]
    for j, w in enumerate(vertices):
        if not any(images[j]):
            continue
        for u in range(A.n_vertices):
            for local, (_, arrows) in enumerate(A.basis_paths(w, u)):
                vec = images[j]
                for ai in arrows:
                    vec = field._matmul([vec], N.mats[ai].rows, N.mats[ai].ncols)[0]
                rows[u][offsets[j][u] + local] = vec
    mats = [Mat._of(field, r, N.dims[u]) for u, r in enumerate(rows)]
    return ModuleHom(P, N, mats, _validated=True)


def _unit_row(field, d: int, x: Optional[int]) -> list:
    """The x-th unit row of length d; the zero row when x is None."""
    zero, one = field.zero(), field.one()
    return [one if c == x else zero for c in range(d)]


def _projective_cover(M: Module) -> Tuple[Tuple[int, ...], Module, List[List[int]], ModuleHom]:
    A = M.algebra
    gens = _top_generators(M)
    vertices = tuple(v for v, _ in gens)
    p0, offsets = projective_sum(A, vertices)
    units = [_unit_row(A.field, M.dims[v], x) for v, x in gens]
    cover = _hom_from_projectives(p0, offsets, vertices, M, units)
    for v in range(A.n_vertices):
        if len(row_space(cover.mats[v])[1]) != M.dims[v]:
            raise DimensionMismatchError("projective cover failed to surject")
    return vertices, p0, offsets, cover


def minimal_projective_presentation(M: Module) -> Presentation:
    p0_vertices, p0, p0_off, cover = _projective_cover(M)
    omega, incl = kernel(cover)
    p1_vertices = tuple(v for v, _ in _top_generators(omega))
    return Presentation(M, p0_vertices, p0, p0_off, omega, incl, p1_vertices)


def nakayama_functor_map(pres: Presentation) -> Tuple[Module, Module, ModuleHom]:
    """nu f = D Hom(f, A) for the presentation map f: P1 -> P0.

    Hom(P_w, A) is the opposite algebra's projective at w, so Hom(f, A)
    maps the sum over P0's vertices to the sum over P1's, sending
    generator j to the entries c_ij of f, reversed into paths of the
    opposite algebra."""
    A = pres.module.algebra
    op = A.opposite()
    field = A.field
    hom_p0, off0 = projective_sum(op, pres.p0_vertices)
    hom_p1, off1 = projective_sum(op, pres.p1_vertices)
    # c_ij is the image of the i-th generator of P1 (the first basis path
    # v_i -> v_i is the empty one), sliced along the j-th copy of P0
    gen_rows = [pres.f.mats[v].row(off[v]) for off, v in zip(pres.p1_offsets, pres.p1_vertices)]
    images = []
    for j, wj in enumerate(pres.p0_vertices):
        img = [field.zero()] * hom_p1.dims[wj]
        for i, vi in enumerate(pres.p1_vertices):
            pos = {k: off1[i][wj] + z for z, (k, _) in enumerate(op.basis_paths(vi, wj))}
            start = pres.p0_offsets[j][vi]
            for local, (_, arrows) in enumerate(A.basis_paths(wj, vi)):
                c = gen_rows[i][start + local]
                if field.is_zero(c):
                    continue
                for k, ck in op.path_class(vi, arrows[::-1]):
                    img[pos[k]] = field.add(img[pos[k]], field.mul(c, ck))
        images.append(img)
    nu_f = _dual_hom(_hom_from_projectives(hom_p0, off0, pres.p0_vertices, hom_p1, images))
    return nu_f.source, nu_f.target, nu_f


def _dual_hom(h: ModuleHom) -> ModuleHom:
    """D h: D(target) -> D(source), the transpose over the opposite algebra."""
    mats = [m.transpose() for m in h.mats]
    return ModuleHom(dualize(h.target), dualize(h.source), mats, _validated=True)


def _translate(pres: Presentation) -> Module:
    """The Auslander-Reiten translate of the presented module: kernel of nu
    applied to its minimal presentation.  Projective summands contribute
    nothing."""
    if pres.p1.is_zero:
        return zero_module(pres.module.algebra)
    _, _, nu_f = nakayama_functor_map(pres)
    ker, _ = kernel(nu_f)
    return ker


def ar_translate(M: Module) -> Module:
    """The Auslander-Reiten translate of M, from a fresh presentation."""
    if M.is_zero:
        return zero_module(M.algebra)
    return _translate(minimal_projective_presentation(M))


def ar_translate_inverse(M: Module) -> Module:
    if M.is_zero:
        return zero_module(M.algebra)
    t = ar_translate(dualize(M))
    if t.is_zero:
        return zero_module(M.algebra)
    return dualize(t)


# -- extensions --------------------------------------------------------------


def _projective_hom_block(pres: Presentation, N: Module) -> List[ModuleHom]:
    """The canonical basis of Hom(P0, N): generator j to a unit row of N at
    its vertex, the other generators to zero."""
    vs = pres.p0_vertices
    return [
        _hom_from_projectives(
            pres.p0,
            pres.p0_offsets,
            vs,
            N,
            [_unit_row(N.algebra.field, N.dims[w], x if k == j else None) for k, w in enumerate(vs)],
        )
        for j, wj in enumerate(vs)
        for x in range(N.dims[wj])
    ]


def ext1_dim(M: Module, N: Module, pres: Optional[Presentation] = None) -> int:
    """dim Ext^1(M, N) from a minimal presentation of M."""
    if M.is_zero or N.is_zero:
        return 0
    if pres is None:
        pres = minimal_projective_presentation(M)
    h_omega = hom_dim(pres.omega, N)
    h_p0 = sum(N.dims[w] for w in pres.p0_vertices)
    h_m = hom_dim(M, N)
    return h_omega - h_p0 + h_m


def greedy_span_pick(
    field,
    base_rows: Sequence[Sequence],
    candidates: Sequence[ModuleHom],
    rows_of: Callable[[ModuleHom], Sequence[Sequence]],
) -> List[ModuleHom]:
    """Keep each candidate whose flattening leaves the span of base_rows
    plus rows_of(c) for every candidate c kept before it."""
    rows: List[list] = []
    piv: List[int] = []
    for r in base_rows:
        extend_span(field, rows, piv, r)
    picked: List[ModuleHom] = []
    for cand in candidates:
        if any(reduce_row(field, cand.flatten(), rows, piv)):
            picked.append(cand)
            for r in rows_of(cand):
                extend_span(field, rows, piv, r)
    return picked


def ext1_basis(
    M: Module, N: Module, pres: Presentation, omega_basis: Sequence[ModuleHom]
) -> Tuple[List[ModuleHom], List[list]]:
    """Cocycle representatives Omega M -> N spanning Ext^1(M, N), picked
    from omega_basis, a basis of Hom(Omega M, N), and the flattened
    coboundaries (restrictions of Hom(P0, N) to Omega M) that they are
    independent modulo."""
    coboundaries = [
        list(pres.omega_incl.compose(h).flatten())
        for h in _projective_hom_block(pres, N)
    ]
    if not omega_basis:
        return [], coboundaries
    reps = greedy_span_pick(
        M.algebra.field, coboundaries, omega_basis, lambda h: [h.flatten()]
    )
    return reps, coboundaries


# -- rigidity and torsion membership -----------------------------------------


def _as_single_module(M: Union[Module, Sequence[Module]], algebra: Optional[Algebra] = None) -> Module:
    if isinstance(M, Module):
        return M
    mods = list(M)
    if not mods:
        if algebra is None:
            raise DimensionMismatchError("empty summand list needs an algebra")
        return zero_module(algebra)
    return direct_sum(mods[0].algebra, mods)[0]


def is_tau_rigid_pair(
    M: Union[Module, Sequence[Module]],
    support_complement: Sequence[int],
    algebra: Optional[Algebra] = None,
) -> bool:
    """Hom(M, tau M) = 0 and M vanishes at every listed vertex."""
    mod = _as_single_module(M, algebra)
    for v in support_complement:
        if mod.dims[v] != 0:
            return False
    t = ar_translate(mod)
    if t.is_zero:
        return True
    return hom_dim(mod, t) == 0


def is_tau_inverse_rigid(M: Module) -> bool:
    """Hom(tau^-1 M, M) = 0, which is Hom(D M, tau D M) = 0."""
    return is_tau_rigid_pair(dualize(M), ())


def _image_rows(X: Module, maps: Iterable[ModuleHom]) -> List[Mat]:
    """Rows spanning the images of maps into X, per vertex.  They are
    stacked, not reduced: the caller reduces each span once."""
    per_vertex: List[List[Mat]] = [[] for _ in X.dims]
    for h in maps:
        for chunk, m in zip(per_vertex, h.mats):
            chunk.append(m)
    return [
        vstack(X.algebra.field, chunk, ncols=d) for chunk, d in zip(per_vertex, X.dims)
    ]


def trace_rows(X: Module, generators: Union[Module, Sequence[Module]]) -> List[Mat]:
    """Row bases of the trace of add(generators) in X, per vertex."""
    gens = [generators] if isinstance(generators, Module) else list(generators)
    maps = (h for U in gens for h in hom_basis(U, X).basis)
    return [row_space(rows)[0] for rows in _image_rows(X, maps)]


def in_fac(X: Module, generators: Union[Module, Sequence[Module]]) -> bool:
    """Is X generated by add(generators), i.e. a quotient of a finite sum?"""
    rows = trace_rows(X, generators)
    return all(rows[v].nrows == X.dims[v] for v in range(X.algebra.n_vertices))


def in_sub(X: Module, cogenerators: Union[Module, Sequence[Module]]) -> bool:
    """Does X embed into a finite sum from add(cogenerators)?  Exactly when
    D X is generated by their duals."""
    gens = [cogenerators] if isinstance(cogenerators, Module) else list(cogenerators)
    return in_fac(dualize(X), [dualize(U) for U in gens])


# -- endomorphism rings: radical, bricks, decomposition ----------------------


@dataclass
class EndData:
    basis: Tuple[ModuleHom, ...]
    dim: int
    struct: Dict[Tuple[int, int], tuple]
    identity_coeffs: tuple
    rad_vectors: List[list]
    rad_homs: List[ModuleHom]


def end_data(M: Module, space: HomSpace) -> EndData:
    """Structure constants and radical of End(M), given its canonical
    basis, via the trace form.

    The coordinates of a product and of the identity are their entries at
    the free columns of the space, so nothing is solved for.  Requires
    characteristic 0 or p > dim End(M); smaller primes raise
    CharacteristicError rather than risk a wrong radical.
    """
    E = space.basis
    d = len(E)
    field = M.algebra.field
    if d == 0:
        return EndData((), 0, {}, (), [], [])
    if isinstance(field, PrimeField) and field.p <= d:
        raise CharacteristicError(
            f"endomorphism radical of the module with dims {list(M.dims)} over "
            f"F_{field.p} needs p > dim End = {d}"
        )
    cols = space.free_cols

    def coords(h: ModuleHom) -> tuple:
        flat = h.flatten()
        return tuple(flat[c] for c in cols)

    struct: Dict[Tuple[int, int], tuple] = {}
    for i in range(d):
        for j in range(d):
            struct[(i, j)] = coords(E[i].compose(E[j]))
    identity_coeffs = coords(identity_hom(M))
    # trace of left multiplication by each basis element
    traces = []
    for l in range(d):
        t = field.zero()
        for j in range(d):
            t = field.add(t, struct[(l, j)][j])
        traces.append(t)
    gram_rows = []
    for i in range(d):
        row = []
        for j in range(d):
            s = field.zero()
            for l, c in enumerate(struct[(i, j)]):
                if not field.is_zero(c):
                    s = field.add(s, field.mul(c, traces[l]))
            row.append(s)
        gram_rows.append(row)
    rad_vectors = kernel_rows(field, gram_rows, d)[0]
    rad_homs = [_hom_of_coords(M, E, vec) for vec in rad_vectors]
    return EndData(tuple(E), d, struct, identity_coeffs, rad_vectors, rad_homs)


def _hom_of_coords(M: Module, E: Sequence[ModuleHom], vec: Sequence) -> ModuleHom:
    """The endomorphism of M with coordinates vec in the basis E."""
    field = M.algebra.field
    h = None
    for c, b in zip(vec, E):
        if field.is_zero(c):
            continue
        term = b.scale(c)
        h = term if h is None else h.add(term)
    return h if h is not None else zero_hom(M, M)


def _powers(one, times) -> Iterator:
    """one, times(one), times(times(one)), ... built as far as the caller
    reads."""
    while True:
        yield one
        one = times(one)


def _minpoly(field, powers: Iterator[Sequence]) -> list:
    """Minimal polynomial coefficients (ascending, monic) of an algebra
    element, given the coordinates of its powers 1, x, x^2, ...

    Power k is spanned with the unit row e_k appended, so each kept row
    carries its combination of powers along.  The first power whose own
    part reduces to zero leaves x^k minus its expression in the lower
    powers, up to scale, in the appended part.
    """
    rows: List[list] = []
    piv: List[int] = []
    for k, vec in enumerate(powers):
        d = len(vec)
        extend_span(field, rows, piv, [*vec, *_unit_row(field, d + 1, k)])
        if piv[-1] >= d:
            rel = rows[-1][d : d + k + 1]
            inv = field.inv(rel[k])
            return [field.mul(inv, c) for c in rel]


def _factor_poly(field, coeffs: Sequence) -> List[Tuple[list, int]]:
    """Factor a monic polynomial into irreducibles over the field."""
    import sympy  # on first use: it dominates start-up and most runs never factor

    x = sympy.Symbol("x")
    if isinstance(field, PrimeField):
        poly = sympy.Poly(list(reversed([int(c) for c in coeffs])), x, modulus=field.p, symmetric=False)
    else:
        poly = sympy.Poly(
            list(reversed([sympy.Rational(c.numerator, c.denominator) for c in coeffs])),
            x,
            domain=sympy.QQ,
        )
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        cs = list(reversed(fac.all_coeffs()))
        if isinstance(field, PrimeField):
            conv = [field.coerce(int(c)) for c in cs]
        else:
            conv = [
                field.coerce(Fraction(int(c.p), int(c.q)))
                for c in (sympy.Rational(x) for x in cs)
            ]
        lead = conv[-1]
        if not field.is_zero(field.sub(lead, field.one())):
            inv = field.inv(lead)
            conv = [field.mul(inv, c) for c in conv]
        out.append((conv, int(mult)))
    return out


def is_brick(M: Module) -> bool:
    """Is End(M) a division algebra?

    Raises IndeterminateDecompositionError if no probe of `_end_split`
    decides; it never guesses.
    """
    space = hom_basis(M, M)
    if space.dim <= 1:
        return space.dim == 1
    data = end_data(M, space)
    return not data.rad_vectors and _end_split(M, data) is None


def _end_split(N: Module, data: EndData) -> Optional[Tuple[list, list]]:
    """Split or certify End(N) with one probe search over its structure
    constants.

    The probes are the basis, then pairwise sums, then products of two
    distinct basis elements.  At the first probe x whose minimal polynomial
    has two distinct irreducible factors, returns the coordinates of g(x)
    and h(x), where g is the first factor to its multiplicity and h the
    rest, so N = ker g(x) + ker h(x).  Returns None at the first probe
    whose minimal polynomial is p^k with deg p = dim End/rad: x then
    generates the field End/rad, so End(N) is local.  A non-local End has
    no such probe and a local one no splitting probe, so the first probe
    that decides is the answer.
    """
    field = N.algebra.field
    d = data.dim
    q = d - len(data.rad_vectors)
    zero, one = field.zero(), field.one()
    units = [tuple(one if k == i else zero for k in range(d)) for i in range(d)]
    sums = (
        tuple(map(field.add, units[i], units[j]))
        for i in range(d)
        for j in range(i + 1, d)
    )
    products = (data.struct[(i, j)] for i in range(d) for j in range(d) if i != j)
    for x in chain(units, sums, products):
        # row i of right multiplication by x: the coordinates of E[i] x
        right = [
            field._matmul([x], [data.struct[(i, j)] for j in range(d)], d)[0]
            for i in range(d)
        ]

        def times(row, right=right):
            return field._matmul([row], right, d)[0]

        factors = _factor_poly(field, _minpoly(field, _powers(data.identity_coeffs, times)))
        if len(factors) > 1:
            g_h = [[one], [one]]
            for k, (fc, fm) in enumerate(factors):
                for _ in range(fm):
                    g_h[k > 0] = _poly_mul(field, g_h[k > 0], fc)
            return tuple(_poly_at(field, p, data.identity_coeffs, times) for p in g_h)
        if len(factors[0][0]) - 1 == q:
            return None
    raise IndeterminateDecompositionError(
        f"cannot certify a decomposition of a module with dims {N.dims}"
    )


def _poly_at(field, coeffs: Sequence, one: Sequence, times) -> list:
    """Coordinates of p(x) by Horner's rule, given those of 1 and right
    multiplication by x."""
    acc = [field.zero()] * len(one)
    for c in reversed(coeffs):
        acc = times(acc)
        if not field.is_zero(c):
            acc = [field.add(a, field.mul(c, u)) for a, u in zip(acc, one)]
    return acc


def decompose(M: Module) -> List[Module]:
    """Split M into indecomposable summands, or raise if uncertifiable."""
    if M.is_zero:
        return []
    out: List[Module] = []
    work = [M]
    while work:
        N = work.pop()
        space = hom_basis(N, N)
        if space.dim == 1:
            out.append(N)
            continue
        data = end_data(N, space)
        if data.dim - len(data.rad_vectors) == 1:
            out.append(N)
            continue
        split = _end_split(N, data)
        if split is None:
            out.append(N)
            continue
        sub1, sub2 = (kernel(_hom_of_coords(N, space.basis, vec))[0] for vec in split)
        if sub1.dim_total + sub2.dim_total != N.dim_total:
            raise DimensionMismatchError("fitting split lost dimensions")
        work.extend([sub1, sub2])
    return out


def _poly_mul(field, a: Sequence, b: Sequence) -> list:
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if field.is_zero(ca):
            continue
        for j, cb in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ca, cb))
    return out


def _indec_iso(M: Module, N: Module) -> bool:
    """Is M isomorphic to the indecomposable module N?

    End(N) is local, so if some isomorphism phi: M -> N exists, the maps
    M -> N that are not isomorphisms form the proper subspace
    rad End(N) phi of Hom(M, N).  A basis never lies in a proper subspace,
    so M and N are isomorphic exactly when some basis map of Hom(M, N) is
    bijective at every vertex.  Only N has to be indecomposable.
    """
    if M.dims != N.dims:
        return False
    return any(
        all(len(row_space(m)[1]) == m.nrows for m in f.mats)
        for f in hom_basis(M, N).basis
    )


def is_isomorphic(M: Module, N: Module) -> bool:
    """Do M and N agree as (possibly decomposable) modules?"""
    if M.algebra is not N.algebra:
        return False
    if M.dims != N.dims:
        return False
    if M.dim_total == 0:
        return True
    parts_m = decompose(M)
    parts_n = decompose(N)
    if len(parts_m) != len(parts_n):
        return False
    remaining = list(parts_n)
    for a in parts_m:
        hit = None
        for idx, b in enumerate(remaining):
            if _indec_iso(a, b):
                hit = idx
                break
        if hit is None:
            return False
        remaining.pop(hit)
    return True


# -- semibrick layers of a summand list --------------------------------------


def _rad_homs(end_space: HomSpace) -> List[ModuleHom]:
    """A basis of rad End(M), given End(M).  An End of dimension at most
    one is zero or the ground field, so its radical is zero."""
    if end_space.dim <= 1:
        return []
    return end_data(end_space.source, end_space).rad_homs


def _radical_maps(summands: Sequence[Module], i: int, into: bool) -> List[ModuleHom]:
    """Hom(M_j, M_i) (into) or Hom(M_i, M_j) for each j != i, then rad End(M_i)."""
    Mi = summands[i]
    pairs = [(Mj, Mi) if into else (Mi, Mj) for j, Mj in enumerate(summands) if j != i]
    return [h for M, N in pairs for h in hom_basis(M, N).basis] + _rad_homs(hom_basis(Mi, Mi))


def top_components(
    summands: Sequence[Module], maps: Optional[Sequence[Sequence[ModuleHom]]] = None
) -> List[Module]:
    """The i-th entry is M_i modulo the images of maps[i], by default of
    every radical map into M_i from the summands."""
    if maps is None:
        maps = [_radical_maps(summands, i, True) for i in range(len(summands))]
    return [quotient_by_rows(Mi, _image_rows(Mi, hs))[0] for Mi, hs in zip(summands, maps)]


def socle_components(
    summands: Sequence[Module], maps: Optional[Sequence[Sequence[ModuleHom]]] = None
) -> List[Module]:
    """The i-th entry is the common kernel of maps[i], by default of every
    radical map out of M_i to the summands."""
    if maps is None:
        maps = [_radical_maps(summands, i, False) for i in range(len(summands))]
    out = []
    for Mi, hs in zip(summands, maps):
        # the common kernel at v is the left kernel of the maps side by side
        joints = [
            hstack(Mi.algebra.field, [h.mats[v] for h in hs], nrows=d)
            for v, d in enumerate(Mi.dims)
        ]
        out.append(submodule_from_rows(Mi, [kernel_basis(m.transpose()) for m in joints])[0])
    return out


def semibrick_top(summands: Sequence[Module]) -> List[Module]:
    return [m for m in top_components(summands) if not m.is_zero]


def semibrick_socle(summands: Sequence[Module]) -> List[Module]:
    return [m for m in socle_components(summands) if not m.is_zero]


def is_semibrick(modules: Sequence[Module]) -> bool:
    """All bricks, pairwise Hom-orthogonal in both directions."""
    for m in modules:
        if not is_brick(m):
            return False
    for i, a in enumerate(modules):
        for j, b in enumerate(modules):
            if i != j and hom_dim(a, b) != 0:
                return False
    return True


# -- iso-class registry -------------------------------------------------------


class IsoRegistry:
    """Canonical ids for indecomposables plus caches keyed by those ids.

    All exploration-scale computations go through a registry so that Hom
    spaces, presentations, and brick data are computed once per
    isomorphism class.  Lookups go first through an index of the exact
    matrices of every module met: equal matrices make the identity an
    isomorphism, so a hit needs no iso test.
    """

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self._mods: List[Module] = []
        self._by_dims: Dict[tuple, List[int]] = {}
        # (dims, mats) of each registered module and each matched probe -> id
        self._exact: Dict[tuple, int] = {}
        self._hom: Dict[Tuple[int, int], HomSpace] = {}
        self._pres: Dict[int, Presentation] = {}
        self._g: Dict[int, Tuple[int, ...]] = {}
        self._rad: Dict[int, List[ModuleHom]] = {}
        self._ext1: Dict[Tuple[int, int], int] = {}
        # (i, j) -> Hom(Omega M_i, M_j) basis where Ext^1 != 0: ext1_dim, smc._extend
        self.omega_homs: Dict[Tuple[int, int], Tuple[ModuleHom, ...]] = {}
        self._tau_hom: Dict[Tuple[int, int], int] = {}
        # id -> (top vertices, socle vertices): hom_space's zero certificate
        self._top_socle: Dict[int, Tuple[frozenset, frozenset]] = {}
        # (i, the other summands with a nonzero Hom into M_i) -> id of M_i's
        # top component, None if it vanishes: pair_top_ids
        self.tops: Dict[Tuple[int, Tuple[int, ...]], Optional[int]] = {}
        # (element, brick, degree) -> (new degree, new id): smc._mutate_element
        self.element_mutations: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        self.projective_ids = [
            self.register(projective_module(algebra, v)) for v in range(algebra.n_vertices)
        ]

    def module(self, i: int) -> Module:
        return self._mods[i]

    def count(self) -> int:
        return len(self._mods)

    def rad_end(self, i: int) -> List[ModuleHom]:
        if i not in self._rad:
            self._rad[i] = _rad_homs(self.hom_space(i, i))
        return self._rad[i]

    def register(self, M: Module) -> int:
        """Identify an indecomposable module up to isomorphism."""
        i = self._find(M)
        return self._append(M) if i is None else i

    def _find(self, M: Module) -> Optional[int]:
        """The id of the registered module isomorphic to M, if any: an exact
        copy of a module met before is found in the index, with no iso test;
        otherwise the iso test runs against each class with M's dims, and a
        match indexes M's matrices too.  The zero module is refused."""
        if M.is_zero:
            raise DimensionMismatchError("cannot register the zero module")
        key = (M.dims, M.mats)
        if key in self._exact:
            return self._exact[key]
        for i in self._by_dims.get(M.dims, ()):
            if _indec_iso(M, self._mods[i]):
                self._exact[key] = i
                return i
        return None

    def _append(self, M: Module) -> int:
        self._mods.append(M)
        i = len(self._mods) - 1
        self._by_dims.setdefault(M.dims, []).append(i)
        self._exact[(M.dims, M.mats)] = i
        return i

    def register_brick(self, M: Module) -> int:
        """Register a module that must be a brick, and certify it: dim End
        is read off the End space, and anything but 1 raises.  A new module's
        End space is built before it is added, so a refused module leaves
        the registry as it was.  Top components and the elements of a
        two-term simple-minded collection are bricks (Asai; Koenig-Yang), so
        nothing here decomposes."""
        i = self._find(M)
        end = hom_basis(M, M) if i is None else self.hom_space(i, i)
        if end.dim != 1:
            raise NotABrickError(f"the module with dims {list(M.dims)} has dim End {end.dim}, not a brick")
        if i is None:
            i = self._append(M)
            self._hom[(i, i)] = end
        return i

    def top_socle(self, i: int) -> Tuple[frozenset, frozenset]:
        if i not in self._top_socle:
            self._top_socle[i] = _top_socle_vertices(self._mods[i])
        return self._top_socle[i]

    def hom_space(self, i: int, j: int) -> HomSpace:
        """Hom(M_i, M_j), built once.  It is certified zero, with no
        commutation system, when M_j vanishes at every top vertex of M_i (a
        map is fixed by where it sends lifts of the top) or M_i at every
        socle vertex of M_j (a nonzero image has a nonzero socle inside
        soc M_j)."""
        key = (i, j)
        if key not in self._hom:
            M, N = self._mods[i], self._mods[j]
            top, _ = self.top_socle(i)
            _, socle = self.top_socle(j)
            if any(N.dims[v] for v in top) and any(M.dims[v] for v in socle):
                self._hom[key] = hom_basis(M, N)
            else:
                self._hom[key] = HomSpace(M, N, (), ())
        return self._hom[key]

    def hom(self, i: int, j: int) -> Tuple[ModuleHom, ...]:
        return self.hom_space(i, j).basis

    def hom_dim(self, i: int, j: int) -> int:
        return len(self.hom(i, j))

    def end_dim(self, i: int) -> int:
        return len(self.hom(i, i))

    def ext1_dim(self, i: int, j: int) -> int:
        """dim Hom(Omega M_i, M_j) - dim Hom(P0, M_j) + dim Hom(M_i, M_j), as
        in ext1_dim, with the last term read from the cached Hom space.  A
        nonzero Ext^1 keeps the Hom(Omega M_i, M_j) basis in omega_homs.
        The top of Omega M_i lies at P1's vertices, so where M_j vanishes
        there, Hom(Omega M_i, M_j) = 0 is not built.  Ext^1 is a quotient
        of it, so a nonzero Ext^1 with Hom(Omega M_i, M_j) = 0 raises."""
        key = (i, j)
        if key not in self._ext1:
            pres, N = self.presentation(i), self._mods[j]
            h_p0 = sum(N.dims[w] for w in pres.p0_vertices)
            omega = ()
            if any(N.dims[w] for w in pres.p1_vertices):
                omega = hom_basis(pres.omega, N).basis
            ext = len(omega) - h_p0 + self.hom_dim(i, j)
            if ext and not omega:
                raise TaumutError(
                    f"Ext^1 = {ext} but Hom(Omega M, N) = 0, for M with dims"
                    f" {list(self._mods[i].dims)} and N with dims {list(N.dims)}"
                )
            self._ext1[key] = ext
            if ext:
                self.omega_homs[key] = omega
        return self._ext1[key]

    def presentation(self, i: int) -> Presentation:
        if i not in self._pres:
            self._pres[i] = minimal_projective_presentation(self._mods[i])
        return self._pres[i]

    def g_vector(self, i: int) -> Tuple[int, ...]:
        """[P0] - [P1] of the minimal presentation, by vertex."""
        if i not in self._g:
            pres = self.presentation(i)
            p0, p1 = pres.p0_vertices, pres.p1_vertices
            self._g[i] = tuple(p0.count(v) - p1.count(v) for v in range(self.algebra.n_vertices))
        return self._g[i]

    def pairing(self, i: int, j: int) -> int:
        """<g(M_i), dim M_j> = dim Hom(M_i, M_j) - dim Hom(M_j, tau M_i)."""
        return sum(g * d for g, d in zip(self.g_vector(i), self._mods[j].dims))

    def tau_hom_dim(self, i: int, j: int) -> int:
        """dim Hom(M_j, tau M_i) = dim Hom(M_i, M_j) - <g(M_i), dim M_j>, with
        no translate built: for a minimal presentation P1 -> P0 -> M -> 0,
        0 -> Hom(N, tau M) -> D Hom(P1, N) -> D Hom(P0, N) -> D Hom(M, N) -> 0
        is exact (Adachi-Iyama-Reiten, "tau-tilting theory", Prop. 2.4) and
        Hom(P_w, N) = N_w."""
        key = (i, j)
        if key not in self._tau_hom:
            self._tau_hom[key] = self.hom_dim(i, j) - self.pairing(i, j)
        return self._tau_hom[key]

    def is_brick_id(self, i: int) -> bool:
        # A registered module is indecomposable, so End is local, and a
        # local ring is a division ring exactly when its radical is zero.
        return not self.rad_end(i)

    def pair_top_ids(self, ids: Tuple[int, ...]) -> tuple:
        """Top components of a summand tuple; None marks a vanishing one.
        Each is built once per (i, others): the j != i whose Hom(M_j, M_i)
        is nonzero.  The component reads only those Hom spaces and
        rad End(M_i), so the key is complete.  A brick that no other
        summand maps into is its own top, M_i / 0, with no quotient built."""
        out = []
        for i in ids:
            key = (i, tuple(j for j in ids if j != i and self.hom(j, i)))
            if key not in self.tops:
                if not key[1] and self.end_dim(i) == 1:
                    self.tops[key] = i
                else:
                    maps = [h for j in key[1] for h in self.hom(j, i)] + self.rad_end(i)
                    (comp,) = top_components([self._mods[i]], [maps])
                    self.tops[key] = None if comp.is_zero else self.register_brick(comp)
            out.append(self.tops[key])
        return tuple(out)

    def left_approximation(self, i: int, ids: Sequence[int]) -> ModuleHom:
        """A minimal left add(U)-approximation M_i -> U', U the sum of the
        distinct indecomposables ids: into copies of each U_u, a basis over
        End(U_u)/rad of Hom(M_i, U_u) modulo the maps h r through a radical
        map r of add(U), that is r in Hom(U_w, U_u) for w != u or in
        rad End(U_u).  If M_i + U is the module of a support tau-tilting
        pair and M_i is not in Fac U, the cokernel is zero or the one new
        summand of the left mutation at M_i (Adachi-Iyama-Reiten,
        "tau-tilting theory", Thm 2.30)."""
        A = self.algebra
        picked: List[ModuleHom] = []
        for u in ids:
            if not self.hom(i, u):
                continue
            base = [
                h.compose(r).flatten()
                for w in ids
                for h in self.hom(i, w)
                for r in (self.rad_end(u) if w == u else self.hom(w, u))
            ]
            # modulo h End(U_u): a basis over End(U_u)/rad, maybe a field of
            # degree 2; with no such h r and End(U_u) = k, the whole basis
            ends = self.hom(u, u)
            if base or len(ends) != 1:
                picked += greedy_span_pick(
                    A.field, base, self.hom(i, u), lambda h: [h.compose(e).flatten() for e in ends]
                )
            else:
                picked += self.hom(i, u)
        M = self._mods[i]
        mats = [hstack(A.field, [h.mats[v] for h in picked], nrows=d) for v, d in enumerate(M.dims)]
        return ModuleHom(M, direct_sum(A, [h.target for h in picked])[0], mats, _validated=True)
