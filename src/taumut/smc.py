"""Two-term simple-minded collections attached to exchange-quiver vertices.

A collection is a set of bricks split across two degrees.  By Asai's
bijection the collection at a vertex is read off its arrows: the labels
of the arrows out (top components of its summands) in degree 0, the
labels of the arrows in shifted.  Each label is paired with the column of
the summand or missing vertex that its arrow exchanges.  `smc_of_vertex`
reads that pairing once and keeps it on the collection; it checks only
the shape of the pairing and certifies nothing.  Each per-vertex check
takes the collection: `check_smc_axioms` reads brick-to-brick Hom and
Ext^1, `check_silting_table` checks it against the vertex's two-term
silting complex entry by entry (Koenig-Yang), from cached Hom dimensions
alone, and the Grothendieck matrices are built from its columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, List, Optional, Sequence, Tuple

from .errors import (
    ApproximationDichotomyError,
    IncompleteExplorationError,
    MutationError,
    SelfExtensionError,
    TaumutError,
)
from .linalg import hstack
from .modules import (
    IsoRegistry,
    Module,
    ModuleHom,
    cokernel,
    direct_sum,
    ext1_basis,
    kernel,
    quotient_by_rows,
)
from .tautilt import ExchangeQuiver, SupportPair


@dataclass(frozen=True)
class PairedColumn:
    """One Grothendieck column: where it came from and which brick labels it.

    kind is "summand" (index = position in the pair's summand tuple) or
    "support" (index = missing vertex); sign +1 marks degree 0, -1 marks
    degree -1.
    """

    kind: str
    index: int
    sign: int
    brick_id: int


class TwoTermSMC:
    """Bricks in degree 0 and degree -1, stored as registry ids.  A
    collection read off a vertex keeps the columns it was read from; one
    built otherwise (by mutation, say) has columns None."""

    __slots__ = ("registry", "degree0", "degree_minus1", "columns")

    def __init__(
        self,
        registry: IsoRegistry,
        degree0: Sequence[int],
        degree_minus1: Sequence[int],
        columns: Optional[Tuple[PairedColumn, ...]] = None,
    ):
        self.registry = registry
        self.degree0 = tuple(sorted(degree0))
        self.degree_minus1 = tuple(sorted(degree_minus1))
        self.columns = columns

    @property
    def key(self) -> tuple:
        return (self.degree0, self.degree_minus1)

    def signature(self) -> tuple:
        """Dim vectors with shift flags, a stable comparison key for tests."""
        reg = self.registry
        return (
            tuple(sorted(reg.module(i).dims for i in self.degree0)),
            tuple(sorted(reg.module(i).dims for i in self.degree_minus1)),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TwoTermSMC)
            and self.registry is other.registry
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((id(self.registry),) + self.key)

    def __repr__(self) -> str:
        reg = self.registry
        d0 = [reg.module(i).dims for i in self.degree0]
        d1 = [reg.module(i).dims for i in self.degree_minus1]
        return f"TwoTermSMC(degree0={d0}, shifted={d1})"


def _where(pair: SupportPair, column: Optional[int] = None) -> str:
    """The pair (and column) an error is about, for its message."""
    dims = [list(pair.registry.module(i).dims) for i in pair.summand_ids]
    at = "" if column is None else f"column {column} of "
    missing = list(pair.support_complement)
    return f"{at}the pair with summand dims {dims} and missing vertices {missing}"


def _column_keys(pair: SupportPair) -> List[tuple]:
    """The pair's columns in order: its summands, then its missing vertices."""
    return [("summand", sid) for sid in pair.summand_ids] + [
        ("support", v) for v in pair.support_complement
    ]


def paired_columns(quiver: ExchangeQuiver, i: int) -> List[PairedColumn]:
    """One signed brick per summand and per missing vertex of vertex i.

    An arrow out, i -> t, removes the one summand of i that t lacks, and
    its label goes to that column in degree 0.  An arrow in, s -> i, brings
    the one summand or missing vertex of i that s lacks, and its label goes
    to that column shifted.  An incomplete quiver may lack arrows in, so
    the quiver must be complete.  Only the shape of the pairing is checked
    here: one column per arrow, every column paired, and a missing vertex
    paired with an arrow in.  Only the diagonal of `check_silting_table`
    certifies each brick nonzero against its column; G^T C = diag(d') in
    `check_duality` sees a label's column and B_v, never a Hom dimension.
    """
    if not quiver.complete:
        raise IncompleteExplorationError(
            "reading a collection off the arrows needs a completely explored "
            "exchange quiver"
        )
    pair = quiver.pairs[i]
    keys = _column_keys(pair)
    paired: dict = {}
    for sign, other, arrows in ((1, 1, quiver.out_arrows(i)), (-1, 0, quiver.in_arrows(i))):
        for arrow in arrows:
            exchanged = set(keys).difference(_column_keys(quiver.pairs[arrow[other]]))
            column = keys.index(exchanged.pop()) if len(exchanged) == 1 else -1
            if column < 0 or column in paired:
                raise TaumutError(
                    f"{_where(pair)}: the arrow {arrow[0]} -> {arrow[1]} does not "
                    "exchange a column of its own"
                )
            paired[column] = (sign, arrow[2])

    def fail(column: int, reason: str) -> TaumutError:
        return TaumutError(f"{_where(pair, column)}: {reason}")

    columns: List[PairedColumn] = []
    for column, (kind, key) in enumerate(keys):
        if column not in paired:
            raise fail(column, "no arrow in or out pairs with this column")
        sign, brick = paired[column]
        if kind == "support" and sign > 0:
            raise fail(column, "degree -1 column does not pair with its vertex")
        columns.append(PairedColumn(kind, key if kind == "support" else column, sign, brick))
    return columns


def smc_of_vertex(quiver: ExchangeQuiver, i: int) -> TwoTermSMC:
    """The two-term collection at vertex i: the labels of its arrows out in
    degree 0, those of its arrows in shifted, with the `paired_columns` they
    were read from.  The collection is read, not certified: callers check
    it with `check_smc_axioms` and `check_silting_table`."""
    cols = tuple(paired_columns(quiver, i))
    degree0 = [c.brick_id for c in cols if c.sign > 0]
    degree_minus1 = [c.brick_id for c in cols if c.sign < 0]
    return TwoTermSMC(quiver.pairs[i].registry, degree0, degree_minus1, cols)


@dataclass
class SmcReport:
    violations: List[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_smc_axioms(x: TwoTermSMC) -> SmcReport:
    """Verify cardinality, brickhood, and all orthogonality axioms."""
    reg = x.registry
    n = reg.algebra.n_vertices
    violations: List[str] = []
    if len(x.degree0) + len(x.degree_minus1) != n:
        violations.append(
            f"cardinality {len(x.degree0)}+{len(x.degree_minus1)} != {n}"
        )
    for i in x.degree0 + x.degree_minus1:
        if not reg.is_brick_id(i):
            violations.append(f"element {reg.module(i).dims} is not a brick")
    for part in (x.degree0, x.degree_minus1):
        for a in part:
            for b in part:
                if a != b and reg.hom_dim(a, b) != 0:
                    violations.append(
                        f"Hom inside one degree: {reg.module(a).dims} -> "
                        f"{reg.module(b).dims}"
                    )
    for a in x.degree0:
        for b in x.degree_minus1:
            if reg.hom_dim(a, b) != 0:
                violations.append(
                    f"Hom across degrees: {reg.module(a).dims} -> "
                    f"{reg.module(b).dims}"
                )
            if reg.ext1_dim(a, b) != 0:
                violations.append(
                    f"Ext1 across degrees: {reg.module(a).dims} -> "
                    f"{reg.module(b).dims}"
                )
    return SmcReport(violations)


def _term(reg: IsoRegistry, pair: SupportPair, col: PairedColumn) -> str:
    """T's term at a column, for a violation message."""
    if col.kind == "support":
        return f"P_{col.index}[1]"
    return f"P{reg.module(pair.summand_ids[col.index]).dims}"


def check_silting_table(pair: SupportPair, x: TwoTermSMC) -> SmcReport:
    """Check Hom(T_k, X_j[m]) = 0 unless m = 0 and k = j, where its
    dimension is dim End(X_j), for T = the two-term silting complex of the
    pair (P_M for each summand M, P_v[1] for each missing vertex v) and
    X = x, the pair's collection as `smc_of_vertex` read it.

    Every entry is a cached integer.  For a module B, Hom(P_M, B) = Hom(M, B),
    Hom(P_M, B[1]) = D Hom(B, tau M) (`tau_hom_dim`), Hom(P_v[1], B[1]) = B_v
    and Hom(P_v[1], B) = 0; no other shift is nonzero between two-term
    complexes and modules.  A shifted element S[1] reads these at m - 1, so
    its m = -1 entry is Hom(M_k, S).  The diagonal certifies that each brick
    pairs with its column, which `paired_columns` leaves unchecked.

    The check is complete when X passes `check_smc_axioms`.  The m != 0
    entries put each X_j in the heart of the t-structure of T.  By
    Koenig-Yang ("Silting objects, simple-minded collections, t-structures
    and co-t-structures", Doc. Math. 19 (2014)), Hom(T, -) is an
    equivalence from that heart to mod End(T), and the collection of T is
    the heart's simples.  The m = 0 row makes Hom(T, X_j) nonzero with every
    composition factor the simple at j, and its End is End(X_j), a division
    ring because X_j is a brick.  Such a module N is simple: otherwise
    N -> top N -> S_j -> soc N -> N is a nonzero endomorphism that is not
    invertible.  So X_j is the simple of the heart at j, and X is the
    collection of T.

    The table also gives the g/c duality of `grothendieck`, so `verify`
    runs no duality report: with s_j the sign of column j, (G^T C)_{kj} is
    s_j (hom_dim - tau_hom_dim)(M_k, B_j) (AIR Prop. 2.4) for a summand
    column and -s_j (B_j)_v for a missing vertex v, so G^T C = diag(d'),
    and `register_brick` certifies d' = 1: G and C are unimodular.
    """
    reg = pair.registry
    columns = x.columns
    violations: List[str] = []
    for j, col in enumerate(columns):
        b = col.brick_id
        dims = reg.module(b).dims
        # X_j[m] = B[m - lift]: B[m] in degree 0, B[m + 1] shifted
        lift = 0 if col.sign > 0 else -1
        for k, t in enumerate(columns):
            if t.kind == "support":
                entries = ((1 + lift, dims[t.index]),)
            else:
                sid = pair.summand_ids[t.index]
                entries = ((lift, reg.hom_dim(sid, b)), (1 + lift, reg.tau_hom_dim(sid, b)))
            for m, value in entries:
                want = reg.end_dim(b) if m == 0 and k == j else 0
                if value != want:
                    shift = f"[{m - lift}]" if m != lift else ""
                    violations.append(
                        f"Hom({_term(reg, pair, t)}, {dims}{shift}) = {value}, not {want}"
                    )
    return SmcReport(violations)


# -- mutation ------------------------------------------------------------------


def _universal_extension(pres, chosen: Sequence[ModuleHom], S0: Module) -> Module:
    """Pushout of Omega -> P0 along the stacked cocycles Omega -> S0^e."""
    A = S0.algebra
    field = A.field
    e = len(chosen)
    total, _ = direct_sum(A, [pres.p0] + [S0] * e)
    rows = []
    for v in range(A.n_vertices):
        left = pres.omega_incl.mats[v]
        right = hstack(
            field, [c.mats[v] for c in chosen], nrows=pres.omega.dims[v]
        ).neg()
        rows.append(hstack(field, [left, right], nrows=pres.omega.dims[v]))
    Y, _ = quotient_by_rows(total, rows)
    expected = pres.module.dim_total + e * S0.dim_total
    if Y.dim_total != expected:
        raise TaumutError("universal extension has the wrong dimension")
    return Y


def _element_at(reg: IsoRegistry, sid: int, s0: int, degree: int) -> str:
    """The element and brick a mutation error is about, for its message."""
    return (
        f"mutating the element with dims {list(reg.module(sid).dims)} in degree "
        f"{degree} at the brick with dims {list(reg.module(s0).dims)}"
    )


def _extend(reg: IsoRegistry, sid: int, s0: int) -> Tuple[int, int]:
    """A degree-0 element stays unless it extends S0; then it becomes the
    universal extension by S0 over a basis of Ext^1 (End(S0) = k), picked
    from the Hom(Omega M, S0) basis that `IsoRegistry.ext1_dim` kept."""
    if reg.ext1_dim(sid, s0) == 0:
        return 0, sid
    S0 = reg.module(s0)
    pres = reg.presentation(sid)
    reps, _ = ext1_basis(reg.module(sid), S0, pres, reg.omega_homs[(sid, s0)])
    return 0, reg.register_brick(_universal_extension(pres, reps, S0))


def _approximate(reg: IsoRegistry, tid: int, s0: int) -> Tuple[int, int]:
    """A shifted element stays unless it maps to S0; then its minimal left
    add(S0)-approximation is injective, and the cokernel moves to degree 0,
    or surjective, and the kernel stays shifted."""
    if not reg.hom(tid, s0):
        return -1, tid
    f = reg.left_approximation(tid, [s0])
    ker, _ = kernel(f)
    injective = ker.is_zero
    surjective = all(
        s - k == t for s, k, t in zip(f.source.dims, ker.dims, f.target.dims)
    )
    if injective and not surjective:
        return 0, reg.register_brick(cokernel(f)[0])
    if surjective and not injective:
        return -1, reg.register_brick(ker)
    raise ApproximationDichotomyError(
        f"{_element_at(reg, tid, s0, -1)}: universal map is neither injective "
        "nor surjective"
    )


def _mutate_element(reg: IsoRegistry, sid: int, s0: int, degree: int) -> Tuple[int, int]:
    """(new degree, new id) of the element sid, in degree 0 or -1, when its
    collection is left-mutated at the degree-0 brick s0.  The answer depends
    on nothing else, so it is built once per registry and triple; a triple
    that raises is not cached and raises again."""
    key = (sid, s0, degree)
    if key not in reg.element_mutations:
        build = _extend if degree == 0 else _approximate
        reg.element_mutations[key] = build(reg, sid, s0)
    return reg.element_mutations[key]


def smc_left_mutate(x: TwoTermSMC, s0: int) -> TwoTermSMC:
    """Left mutation of a collection at one of its degree-0 bricks S0, by
    registry id (Koenig-Yang, "Silting objects, simple-minded collections,
    t-structures and co-t-structures", Doc. Math. 19 (2014)).

    Requires End(S0) = k, as for every element of a two-term collection
    (see `grothendieck`), and no self-extensions.  S0 moves to degree -1; each
    other element is replaced by a universal extension, a cokernel, or a
    kernel depending on how it interacts with S0 (`_mutate_element`, cached
    on the registry by element, brick and degree).  The new collection's
    axioms are not checked: `check_label_coincidence` compares it with a
    vertex's collection, whose axioms `verify` checks, so a mutation that
    breaks them fails as a mismatch.
    """
    reg = x.registry
    if s0 not in x.degree0:
        raise MutationError("mutation brick is not in the degree-0 part")
    if reg.end_dim(s0) != 1:
        dims = list(reg.module(s0).dims)
        raise MutationError(f"mutation brick with dims {dims} has dim End {reg.end_dim(s0)}, not 1")
    if reg.ext1_dim(s0, s0) != 0:
        raise SelfExtensionError(
            "mutation at a brick with self-extensions is not defined here"
        )
    new: dict = {0: [], -1: [s0]}
    for degree, part in ((0, x.degree0), (-1, x.degree_minus1)):
        for sid in part:
            if sid != s0:
                d, i = _mutate_element(reg, sid, s0, degree)
                new[d].append(i)
    return TwoTermSMC(reg, new[0], new[-1])


def check_label_coincidence(
    quiver: ExchangeQuiver, collections: Sequence[TwoTermSMC], sources: Optional[Container[int]] = None
) -> dict:
    """Mutating the collection at an arrow's label lands on the target's
    collection; arrows whose label has self-extensions are skipped.
    collections[i] is vertex i's collection, as `smc_of_vertex` reads it;
    the caller checks its axioms, so a mutation that breaks them mismatches.
    With `sources`, only the arrows out of those vertices are mutated
    across, and the skipped arrows are still those of the whole quiver."""
    reg = quiver.registry
    checked = 0
    skipped: List[tuple] = []
    failures: List[tuple] = []
    for s, t, lab in quiver.arrows:
        dims = tuple(reg.module(lab).dims)
        if reg.ext1_dim(lab, lab) != 0:
            skipped.append((s, t, dims))
            continue
        if sources is not None and s not in sources:
            continue
        if smc_left_mutate(collections[s], lab).key != collections[t].key:
            failures.append((s, t, dims))
        checked += 1
    return {
        "checked": checked,
        "skipped": skipped,
        "failures": failures,
        "ok": not failures,
    }
