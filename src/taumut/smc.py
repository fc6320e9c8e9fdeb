"""Two-term simple-minded collections attached to exchange-quiver vertices.

A collection is a set of bricks split across two degrees: the degree-0
part is the semibrick of top components, the degree -1 part is the socle
co-semibrick of the dual pair.  Columns stay aligned with the pair's
summands and missing vertices so the Grothendieck matrices can reuse the
pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

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
    decompose,
    direct_sum,
    ext1_basis,
    greedy_span_pick,
    kernel,
    quotient_by_rows,
)
from .tautilt import ExchangeQuiver, SupportPair, dual_pair


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
    """Bricks in degree 0 and degree -1, stored as registry ids."""

    __slots__ = ("registry", "degree0", "degree_minus1")

    def __init__(
        self,
        registry: IsoRegistry,
        degree0: Sequence[int],
        degree_minus1: Sequence[int],
    ):
        self.registry = registry
        self.degree0 = tuple(sorted(degree0))
        self.degree_minus1 = tuple(sorted(degree_minus1))

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


def paired_columns(pair: SupportPair) -> List[PairedColumn]:
    """One signed brick per summand and per missing vertex.

    Mutable summands contribute their top component in degree 0; the rest
    pair with socle components of the dual pair in degree -1.  Both
    pairings are certified at runtime: positive columns must receive a
    map from their summand, negative ones must map into its translate
    (Hom(S, tau U) read off the g-vector pairing), and no dual socle
    component may go unused.
    """
    reg = pair.registry
    ids = pair.summand_ids
    tops = reg.pair_top_ids(ids)
    dual_ids = dual_pair(pair).summand_ids
    socle_of = dict(zip(dual_ids, reg.pair_socle_ids(dual_ids)))

    def fail(reason: str) -> TaumutError:
        return TaumutError(f"{_where(pair, len(columns))}: {reason}")

    columns: List[PairedColumn] = []
    used: set = set()
    for pos, sid in enumerate(ids):
        if tops[pos] is not None:
            if reg.hom_dim(sid, tops[pos]) == 0:
                raise fail("degree-0 column does not pair with its summand")
            columns.append(PairedColumn("summand", pos, 1, tops[pos]))
            continue
        if reg.projective_vertex(sid) is not None:
            raise fail(
                "a projective summand turned out immutable; impossible for a "
                "basic pair"
            )
        tid = reg.tau_id(sid)
        soc = socle_of.get(tid)
        if soc is None:
            raise fail("missing socle component for an immutable summand")
        if reg.tau_hom_dim(sid, soc) == 0:
            raise fail("degree -1 column does not pair with its summand")
        columns.append(PairedColumn("summand", pos, -1, soc))
        used.add(tid)
    for v in pair.support_complement:
        iid = reg.injective_id(v)
        soc = socle_of.get(iid)
        if soc is None:
            raise fail("missing socle component for a missing vertex")
        if reg.module(soc).dims[v] == 0:
            raise fail("degree -1 column does not pair with its vertex")
        columns.append(PairedColumn("support", v, -1, soc))
        used.add(iid)
    for did, soc in socle_of.items():
        if soc is not None and did not in used:
            raise TaumutError(f"{_where(pair)}: a dual socle component was left unpaired")
    return columns


def smc_of_vertex(pair: SupportPair, check: bool = True) -> TwoTermSMC:
    """The two-term collection at a pair: tops in degree 0, dual socles
    shifted.  With check=True the axioms are verified before returning."""
    cols = paired_columns(pair)
    degree0 = [c.brick_id for c in cols if c.sign > 0]
    degree_minus1 = [c.brick_id for c in cols if c.sign < 0]
    out = TwoTermSMC(pair.registry, degree0, degree_minus1)
    if check:
        report = check_smc_axioms(out)
        if not report.ok:
            raise TaumutError(
                f"{_where(pair)}: constructed collection failed its axioms: "
                + "; ".join(report.violations)
            )
    return out


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


# -- mutation ------------------------------------------------------------------


def _universal_extension(pres, chosen: Sequence[ModuleHom], S0: Module) -> Module:
    """Pushout of Omega -> P0 along the stacked cocycles Omega -> S0^e."""
    A = S0.algebra
    field = A.field
    e = len(chosen)
    s0e, _ = direct_sum(A, [S0] * e)
    total, _ = direct_sum(A, [pres.p0, s0e])
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


def smc_left_mutate(x: TwoTermSMC, brick: Union[Module, int]) -> TwoTermSMC:
    """Left mutation of a collection at one of its degree-0 bricks.

    Requires the chosen brick to have no self-extensions; each other
    element is replaced by a universal extension, a cokernel, or a kernel
    depending on how it interacts with the chosen brick.
    """
    reg = x.registry
    field = reg.algebra.field
    if isinstance(brick, Module):
        parts = decompose(brick)
        if len(parts) != 1:
            raise MutationError("mutation brick must be indecomposable")
        s0 = reg.register(parts[0])
    else:
        s0 = brick
    if s0 not in x.degree0:
        raise MutationError("mutation brick is not in the degree-0 part")
    S0 = reg.module(s0)
    if reg.ext1_dim(s0, s0) != 0:
        raise SelfExtensionError(
            "mutation at a brick with self-extensions is not defined here"
        )
    end_s0 = list(reg.hom(s0, s0))

    def end_orbit(h: ModuleHom) -> List[tuple]:
        # h composed with End(S0): picking modulo these rows gives a basis
        # over the division ring End(S0)
        return [h.compose(u).flatten() for u in end_s0]

    new0: List[int] = []
    new1: List[int] = [s0]
    for sid in x.degree0:
        if sid == s0:
            continue
        if reg.ext1_dim(sid, s0) == 0:
            new0.append(sid)
            continue
        pres = reg.presentation(sid)
        reps, coboundaries = ext1_basis(reg.module(sid), S0, pres)
        chosen = greedy_span_pick(field, coboundaries, reps, end_orbit)
        if len(chosen) * len(end_s0) != len(reps):
            raise TaumutError(
                "extension space dimension is not divisible by the brick's "
                "endomorphism ring"
            )
        new0.append(reg.register_component(_universal_extension(pres, chosen, S0)))
    for tid in x.degree_minus1:
        homs = list(reg.hom(tid, s0))
        if not homs:
            new1.append(tid)
            continue
        f = reg.left_approximation(tid, [s0])
        if f.target.dim_total * len(end_s0) != len(homs) * S0.dim_total:
            raise TaumutError(
                "hom space dimension is not divisible by the brick's "
                "endomorphism ring"
            )
        ker, _ = kernel(f)
        injective = ker.is_zero
        surjective = all(
            s - k == t for s, k, t in zip(f.source.dims, ker.dims, f.target.dims)
        )
        if injective and not surjective:
            new0.append(reg.register_component(cokernel(f)[0]))
        elif surjective and not injective:
            new1.append(reg.register_component(ker))
        else:
            raise ApproximationDichotomyError(
                "universal map is neither injective nor surjective"
            )
    out = TwoTermSMC(reg, new0, new1)
    report = check_smc_axioms(out)
    if not report.ok:
        raise TaumutError(
            "mutated collection failed its axioms: "
            + "; ".join(report.violations)
        )
    return out


def check_label_coincidence(quiver: ExchangeQuiver) -> dict:
    """Mutating the collection at an arrow's label lands on the target's
    collection; arrows whose label has self-extensions are skipped.  Each
    collection is read off the quiver (Asai): the labels out in degree 0,
    the labels in shifted, so the quiver must be complete."""
    if not quiver.complete:
        raise IncompleteExplorationError(
            "label coincidence needs a completely explored exchange quiver"
        )
    reg = quiver.registry

    def smc_at(i: int) -> TwoTermSMC:
        return TwoTermSMC(
            reg,
            [lab for _, _, lab in quiver.out_arrows(i)],
            [lab for _, _, lab in quiver.in_arrows(i)],
        )

    checked = 0
    skipped: List[tuple] = []
    failures: List[tuple] = []
    for s, t, lab in quiver.arrows:
        dims = tuple(reg.module(lab).dims)
        if reg.ext1_dim(lab, lab) != 0:
            skipped.append((s, t, dims))
            continue
        if smc_left_mutate(smc_at(s), lab).key != smc_at(t).key:
            failures.append((s, t, dims))
        checked += 1
    return {
        "checked": checked,
        "skipped": skipped,
        "failures": failures,
        "ok": not failures,
    }
