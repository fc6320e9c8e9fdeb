"""Support pairs, left mutation, and the brick-labeled exchange quiver.

A support pair is a basic tau-rigid module together with the set of
vertices it misses, subject to |summands| + |missing vertices| = number of
vertices.  Left mutation exchanges one summand (or drops it into the
support complement); every mutation arrow carries a brick label, the top
component of the summand being removed.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import Algebra, Arrow
from .errors import (
    IncompleteExplorationError,
    IndeterminateDecompositionError,
    MutationError,
    NotTauRigidError,
    TauTiltingInfiniteError,
    TaumutError,
)
from .modules import (
    IsoRegistry,
    Module,
    cokernel,
    direct_sum,
    zero_module,
)


def _check_basic(summand_ids: Tuple[int, ...], missing: Tuple[int, ...], n: int, kind: str) -> None:
    """Distinct summands, distinct missing vertices of the quiver, and
    |summands| + |missing vertices| = n."""
    if len(set(summand_ids)) != len(summand_ids):
        raise NotTauRigidError(f"repeated summand in a basic {kind}")
    if len(set(missing)) != len(missing):
        raise NotTauRigidError(f"repeated missing vertex in a basic {kind}")
    for v in missing:
        if not 0 <= v < n:
            raise NotTauRigidError(f"missing vertex {v} is not one of 0..{n - 1}")
    if len(summand_ids) + len(missing) != n:
        raise NotTauRigidError(
            f"|summands| + |missing vertices| must equal {n}"
        )


class SupportPair:
    """A basic tau-rigid module (by registry ids) plus its missing vertices."""

    __slots__ = ("registry", "summand_ids", "support_complement")

    def __init__(
        self,
        registry: IsoRegistry,
        summand_ids: Sequence[int],
        support_complement: Sequence[int],
    ):
        self.registry = registry
        self.summand_ids = tuple(sorted(summand_ids))
        self.support_complement = tuple(sorted(support_complement))
        _check_basic(
            self.summand_ids, self.support_complement,
            registry.algebra.n_vertices, "pair",
        )

    @property
    def key(self) -> tuple:
        return (self.summand_ids, self.support_complement)

    def modules(self) -> List[Module]:
        return [self.registry.module(i) for i in self.summand_ids]

    def module(self) -> Module:
        if not self.summand_ids:
            return zero_module(self.registry.algebra)
        return direct_sum(self.registry.algebra, self.modules())[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SupportPair)
            and self.registry is other.registry
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((id(self.registry),) + self.key)

    def __repr__(self) -> str:
        dims = [self.registry.module(i).dims for i in self.summand_ids]
        return f"SupportPair(summands={dims}, missing={self.support_complement})"


class CoPair:
    """The dual picture: a tau-inverse-rigid module plus missing vertices.

    Kept apart from SupportPair so that a tau-inverse-rigid pair can never
    be passed where a tau-rigid one is required."""

    __slots__ = ("registry", "summand_ids", "cosupport_complement")

    def __init__(
        self,
        registry: IsoRegistry,
        summand_ids: Sequence[int],
        cosupport_complement: Sequence[int],
    ):
        self.registry = registry
        self.summand_ids = tuple(sorted(summand_ids))
        self.cosupport_complement = tuple(sorted(cosupport_complement))
        _check_basic(
            self.summand_ids, self.cosupport_complement,
            registry.algebra.n_vertices, "co-pair",
        )

    @property
    def key(self) -> tuple:
        return (self.summand_ids, self.cosupport_complement)

    def modules(self) -> List[Module]:
        return [self.registry.module(i) for i in self.summand_ids]


def initial_pair(source: Union[Algebra, IsoRegistry]) -> SupportPair:
    """The pair (A, 0): all indecomposable projectives, full support."""
    registry = source if isinstance(source, IsoRegistry) else IsoRegistry(source)
    return SupportPair(registry, registry.projective_ids, ())


def pair_is_tau_rigid(pair: SupportPair) -> bool:
    reg = pair.registry
    for v in pair.support_complement:
        for i in pair.summand_ids:
            if reg.module(i).dims[v] != 0:
                return False
    for j in pair.summand_ids:
        tj = reg.tau_id(j)
        if tj is None:
            continue
        for i in pair.summand_ids:
            if reg.hom_dim(i, tj) != 0:
                return False
    return True


def mutable_positions(pair: SupportPair) -> List[int]:
    """Positions whose top component (the would-be label) is nonzero."""
    tops = pair.registry.pair_top_ids(pair.summand_ids)
    return [k for k, t in enumerate(tops) if t is not None]


def semibrick_ids_of(pair: SupportPair) -> List[int]:
    """The labels of all arrows out of this pair, as registry ids."""
    tops = pair.registry.pair_top_ids(pair.summand_ids)
    return [t for t in tops if t is not None]


def semibrick_of(pair: SupportPair) -> List[Module]:
    return [pair.registry.module(t) for t in semibrick_ids_of(pair)]


def dual_pair(pair: SupportPair) -> CoPair:
    """Translate non-projective summands, swap support for injectives."""
    reg = pair.registry
    ids: List[int] = []
    cosupport: List[int] = []
    for sid in pair.summand_ids:
        pv = reg.projective_vertex(sid)
        if pv is not None:
            cosupport.append(pv)
        else:
            tid = reg.tau_id(sid)
            if tid is None:
                raise NotTauRigidError(
                    "translate vanished on a non-projective summand"
                )
            ids.append(tid)
    for v in pair.support_complement:
        ids.append(reg.injective_id(v))
    return CoPair(reg, ids, cosupport)


def cosemibrick_of(co: CoPair) -> List[Module]:
    """Socle components of the co-pair's summands, zeros dropped."""
    reg = co.registry
    socs = reg.pair_socle_ids(co.summand_ids)
    return [reg.module(s) for s in socs if s is not None]


def left_mutate(pair: SupportPair, position: int) -> Tuple[SupportPair, int]:
    """Mutate at one summand; returns the new pair and the label's id.

    The label is the top component of the removed summand; mutation is
    only defined where that component is nonzero.  The new summand is the
    cokernel of the removed summand's minimal left approximation by the
    others; one that splits or is kept means the pair was not tau-rigid.
    """
    reg = pair.registry
    ids = pair.summand_ids
    tops = reg.pair_top_ids(ids)
    if position < 0 or position >= len(ids):
        raise MutationError(f"no summand at position {position}")
    label = tops[position]
    if label is None:
        raise MutationError(
            f"summand at position {position} is generated by the others"
        )
    others = [sid for k, sid in enumerate(ids) if k != position]
    coker, _ = cokernel(reg.left_approximation(ids[position], others))
    try:
        extras = [] if coker.is_zero else [reg.register_component(coker)]
        if set(extras) & set(others):
            raise NotTauRigidError(f"the cokernel with dims {coker.dims} is a kept summand")
    except (IndeterminateDecompositionError, NotTauRigidError) as err:
        if pair_is_tau_rigid(pair):
            raise
        dims = [list(reg.module(i).dims) for i in ids]
        raise MutationError(
            f"mutation at position {position} of the pair with summand dims "
            f"{dims}: {err}; the input pair cannot have been tau-rigid"
        ) from err

    new_ids = others + extras
    new_supp = [
        v for v in range(reg.algebra.n_vertices)
        if all(reg.module(i).dims[v] == 0 for i in new_ids)
    ]
    new_pair = SupportPair(reg, new_ids, new_supp)
    if not pair_is_tau_rigid(new_pair):
        raise NotTauRigidError("mutation produced a non-rigid pair")
    return new_pair, label


class ExchangeQuiver:
    """The mutation graph grown from (A, 0), arrows labeled by brick ids."""

    def __init__(
        self,
        algebra: Algebra,
        registry: IsoRegistry,
        pairs: List[SupportPair],
        arrows: List[Tuple[int, int, int]],
        complete: bool,
        max_depth: Optional[int],
        depths: List[int],
    ):
        self.algebra = algebra
        self.registry = registry
        self.pairs = pairs
        self.arrows = arrows
        self.complete = complete
        self.max_depth = max_depth
        self.depths = depths
        self.index: Dict[tuple, int] = {p.key: i for i, p in enumerate(pairs)}
        self._out: List[List[Tuple[int, int, int]]] = [[] for _ in pairs]
        self._in: List[List[Tuple[int, int, int]]] = [[] for _ in pairs]
        for a in arrows:
            self._out[a[0]].append(a)
            self._in[a[1]].append(a)

    @property
    def n_vertices(self) -> int:
        return len(self.pairs)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    def out_arrows(self, i: int) -> List[Tuple[int, int, int]]:
        return self._out[i]

    def in_arrows(self, i: int) -> List[Tuple[int, int, int]]:
        return self._in[i]

    def find(self, pair: SupportPair) -> Optional[int]:
        return self.index.get(pair.key)

    def __repr__(self) -> str:
        status = "complete" if self.complete else "partial"
        return (
            f"ExchangeQuiver({self.n_vertices} vertices, {self.n_arrows} "
            f"arrows, {status})"
        )


def kronecker_witness(algebra: Algebra) -> Optional[Tuple[Arrow, Arrow]]:
    """Two arrows with the same source and the same target, source !=
    target, or None.  Such a pair spans a quotient of A onto the Kronecker
    algebra, and tau-tilting finiteness passes to quotients (Demonet-Iyama-
    Jasso), so A has infinitely many support tau-tilting pairs."""
    seen: Dict[Tuple[str, str], Arrow] = {}
    for a in algebra.quiver.arrows:
        if a.source == a.target:
            continue
        first = seen.setdefault((a.source, a.target), a)
        if first is not a:
            return first, a
    return None


def explore(
    source: Union[Algebra, IsoRegistry, SupportPair],
    max_depth: Optional[int] = None,
) -> ExchangeQuiver:
    """Breadth-first mutation closure starting from (A, 0).

    With max_depth set, vertices at that distance are recorded but not
    expanded; the result is flagged incomplete if any of them still had
    mutable summands.  Without it, an exploration from (A, 0) of an
    algebra with a `kronecker_witness` raises TauTiltingInfiniteError
    instead of running forever.
    """
    if isinstance(source, SupportPair):
        root = source
        registry = root.registry
    else:
        algebra = source if isinstance(source, Algebra) else source.algebra
        witness = kronecker_witness(algebra) if max_depth is None else None
        if witness is not None:
            a, b = witness
            raise TauTiltingInfiniteError(
                f"arrows {a.name} and {b.name} both go from vertex {a.source} "
                f"to vertex {a.target}, so the algebra maps onto the Kronecker "
                "algebra and has infinitely many support tau-tilting pairs; "
                "bound the exploration with --max-depth"
            )
        root = initial_pair(source)
        registry = root.registry
    algebra = registry.algebra
    pairs = [root]
    depths = [0]
    index = {root.key: 0}
    arrows: List[Tuple[int, int, int]] = []
    complete = True
    queue = deque([0])
    while queue:
        vi = queue.popleft()
        pair = pairs[vi]
        positions = mutable_positions(pair)
        if max_depth is not None and depths[vi] >= max_depth:
            if positions:
                complete = False
            continue
        for pos in positions:
            new_pair, label = left_mutate(pair, pos)
            key = new_pair.key
            ti = index.get(key)
            if ti is None:
                ti = len(pairs)
                pairs.append(new_pair)
                depths.append(depths[vi] + 1)
                index[key] = ti
                queue.append(ti)
            arrows.append((vi, ti, label))
    return ExchangeQuiver(algebra, registry, pairs, arrows, complete, max_depth, depths)


# -- completion and restriction ----------------------------------------------


def _register_given(registry: IsoRegistry, U: Union[Module, Sequence[Module]]) -> List[int]:
    if isinstance(U, Module):
        return registry.register_all(U)
    out: List[int] = []
    for m in U:
        out.extend(registry.register_all(m))
    return sorted(set(out))


def restriction_vertices(quiver: ExchangeQuiver, u_ids: Sequence[int]) -> List[int]:
    need = set(u_ids)
    return [
        i
        for i, p in enumerate(quiver.pairs)
        if need.issubset(set(p.summand_ids))
    ]


class Restriction:
    """The full subquiver of pairs containing a fixed tau-rigid U."""

    def __init__(
        self,
        quiver: ExchangeQuiver,
        u_ids: Tuple[int, ...],
        vertex_indices: List[int],
        arrows: List[Tuple[int, int, int]],
        source_index: int,
        sink_index: int,
        report: dict,
    ):
        self.quiver = quiver
        self.u_ids = u_ids
        self.vertex_indices = vertex_indices
        self.arrows = arrows
        self.source_index = source_index
        self.sink_index = sink_index
        self.report = report

    @property
    def ok(self) -> bool:
        return not self.report["violations"]

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_indices)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)


def restrict_quiver(
    quiver: ExchangeQuiver, U: Union[Module, Sequence[Module]]
) -> Restriction:
    """Restrict a complete exchange quiver to the pairs containing U.

    The report checks the expected shape: a unique source and sink, inner
    degree equal to (number of vertices) - |U| at every subquiver vertex,
    and label compatibility with U on every surviving arrow.
    """
    if not quiver.complete:
        raise IncompleteExplorationError(
            "restriction needs a completely explored exchange quiver"
        )
    reg = quiver.registry
    u_ids = tuple(_register_given(reg, U))
    if not u_ids:
        raise TaumutError("restriction to an empty module is the whole quiver")
    for i in u_ids:
        tid = reg.tau_id(i)
        if tid is not None and any(
            reg.hom_dim(j, tid) != 0 for j in u_ids
        ):
            raise NotTauRigidError("the fixed module U is not tau-rigid")
    verts = restriction_vertices(quiver, u_ids)
    vset = set(verts)
    sub_arrows = [
        (s, t, lab) for (s, t, lab) in quiver.arrows if s in vset and t in vset
    ]
    in_deg = {v: 0 for v in verts}
    out_deg = {v: 0 for v in verts}
    for s, t, _ in sub_arrows:
        out_deg[s] += 1
        in_deg[t] += 1
    violations: List[str] = []
    sources = [v for v in verts if in_deg[v] == 0]
    sinks = [v for v in verts if out_deg[v] == 0]
    if len(sources) != 1:
        violations.append(f"expected one source, found {len(sources)}")
    if len(sinks) != 1:
        violations.append(f"expected one sink, found {len(sinks)}")
    expected = quiver.algebra.n_vertices - len(u_ids)
    for v in verts:
        degree = in_deg[v] + out_deg[v]
        if degree != expected:
            violations.append(
                f"vertex {v}: inner degree {degree}, expected {expected}"
            )
    for s, t, lab in sub_arrows:
        for i in u_ids:
            if reg.hom_dim(i, lab) != 0:
                violations.append(
                    f"label on {s}->{t} receives a map from U"
                )
            tid = reg.tau_id(i)
            if tid is not None and reg.hom_dim(lab, tid) != 0:
                violations.append(
                    f"label on {s}->{t} maps into the translate of U"
                )
    report = {
        "n_vertices": len(verts),
        "n_arrows": len(sub_arrows),
        "sources": sources,
        "sinks": sinks,
        "inner_degree_expected": expected,
        "violations": violations,
    }
    source_index = sources[0] if len(sources) == 1 else -1
    sink_index = sinks[0] if len(sinks) == 1 else -1
    return Restriction(
        quiver, u_ids, verts, sub_arrows, source_index, sink_index, report
    )


def bongartz_completion(
    U: Union[Module, Sequence[Module]], quiver: ExchangeQuiver
) -> SupportPair:
    """The pair containing U whose torsion class is largest.

    Found as the unique source of the restricted subquiver; requires a
    complete exploration.
    """
    restriction = restrict_quiver(quiver, U)
    if restriction.source_index < 0:
        raise TaumutError("restricted quiver has no unique source")
    return quiver.pairs[restriction.source_index]


# -- export ------------------------------------------------------------------


def _dim_string(dims: Sequence[int]) -> str:
    if any(d >= 10 for d in dims):
        return ",".join(str(d) for d in dims)
    return "".join(str(d) for d in dims)


def export_records(quiver: ExchangeQuiver) -> dict:
    reg = quiver.registry
    names = quiver.algebra.quiver.vertices
    vertices = []
    for i, p in enumerate(quiver.pairs):
        vertices.append(
            {
                "id": i,
                "summand_dim_vectors": [
                    list(reg.module(s).dims) for s in p.summand_ids
                ],
                "support_complement": [names[v] for v in p.support_complement],
            }
        )
    arrows = [
        {
            "src": s,
            "dst": t,
            "label_dim_vector": list(reg.module(lab).dims),
        }
        for (s, t, lab) in quiver.arrows
    ]
    return {
        "vertices": vertices,
        "arrows": arrows,
        "complete": quiver.complete,
    }


def export_dot(quiver: ExchangeQuiver) -> str:
    reg = quiver.registry
    names = quiver.algebra.quiver.vertices
    lines = ["digraph exchange_quiver {", "  rankdir=LR;"]
    for i, p in enumerate(quiver.pairs):
        parts = [_dim_string(reg.module(s).dims) for s in p.summand_ids]
        label = " ".join(parts) if parts else "0"
        if p.support_complement:
            label += " | " + " ".join(names[v] for v in p.support_complement)
        lines.append(f'  v{i} [label="{label}"];')
    for s, t, lab in quiver.arrows:
        lines.append(
            f'  v{s} -> v{t} [label="{_dim_string(reg.module(lab).dims)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
