"""Support pairs, left mutation, and the brick-labeled exchange quiver.

A support pair is a basic tau-rigid module together with the set of
vertices it misses, subject to |summands| + |missing vertices| = number of
vertices.  Left mutation exchanges one summand (or drops it into the
support complement); every mutation arrow carries a brick label, the top
component of the summand being removed.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Algebra, Arrow
from .errors import (
    CompletionError,
    IncompleteExplorationError,
    MutationError,
    NotTauRigidError,
    TauTiltingInfiniteError,
    TaumutError,
)
from .modules import (
    IsoRegistry,
    Module,
    cokernel,
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
        # distinct summands, distinct missing vertices of the quiver, and
        # |summands| + |missing vertices| = n
        n = registry.algebra.n_vertices
        if len(set(self.summand_ids)) != len(self.summand_ids):
            raise NotTauRigidError("repeated summand in a basic pair")
        if len(set(self.support_complement)) != len(self.support_complement):
            raise NotTauRigidError("repeated missing vertex in a basic pair")
        for v in self.support_complement:
            if not 0 <= v < n:
                raise NotTauRigidError(f"missing vertex {v} is not one of 0..{n - 1}")
        if len(self.summand_ids) + len(self.support_complement) != n:
            raise NotTauRigidError(f"|summands| + |missing vertices| must equal {n}")

    @property
    def key(self) -> tuple:
        return (self.summand_ids, self.support_complement)

    def modules(self) -> List[Module]:
        return [self.registry.module(i) for i in self.summand_ids]

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


def initial_pair(registry: IsoRegistry) -> SupportPair:
    """The pair (A, 0): all indecomposable projectives, full support."""
    return SupportPair(registry, registry.projective_ids, ())


def _tau_hom_witness(reg: IsoRegistry, ids: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The first (i, j) in ids with Hom(U_i, tau U_j) != 0, read off the
    g-vector pairing, or None when the sum is tau-rigid; no translate is
    built or registered."""
    return next(((i, j) for j in ids for i in ids if reg.tau_hom_dim(j, i)), None)


def pair_is_tau_rigid(pair: SupportPair) -> bool:
    reg = pair.registry
    if any(reg.module(i).dims[v] for v in pair.support_complement for i in pair.summand_ids):
        return False
    return _tau_hom_witness(reg, pair.summand_ids) is None


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


def left_mutate(pair: SupportPair, position: int) -> Tuple[SupportPair, int]:
    """Mutate at one summand; returns the new pair and the label's id.

    The label is the top component of the removed summand X.  Left mutation
    needs a support tau-tilting pair (U + X, P) with X not in Fac U, so both
    are checked before anything is built: tau-rigidity by the g-vector
    pairing (Adachi-Iyama-Reiten, "tau-tilting theory", Prop. 2.4), and a
    nonzero label.  The new pair is the other completion of the face
    (U, P), which `_complete_face` builds.
    """
    reg = pair.registry
    ids = pair.summand_ids
    if position < 0 or position >= len(ids):
        raise MutationError(f"no summand at position {position}")
    if not pair_is_tau_rigid(pair):
        dims = [list(reg.module(i).dims) for i in ids]
        raise MutationError(
            f"mutation at position {position} of the pair with summand dims "
            f"{dims}: the pair is not tau-rigid"
        )
    label = reg.pair_top_ids(ids)[position]
    if label is None:
        raise MutationError(
            f"summand at position {position} is generated by the others"
        )
    face = (ids[:position] + ids[position + 1:], pair.support_complement)
    return SupportPair(reg, *_complete_face(reg, face, ids[position], label)), label


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


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _complete_face(
    registry: IsoRegistry, face: tuple, x: int, label: int, masks: Optional[_FaceBricks] = None
) -> tuple:
    """The key of the pair across the face (U, P) from the pair that holds
    x, whose top component is `label`.  A face has exactly two completions
    (Adachi-Iyama-Reiten, Thm 2.18), and the first branch that applies
    gives the other one:
      1. (U, P + v), when U vanishes at a vertex v outside P;
      2. U + M_z, for the lowest z among the summands that `masks` knows,
         other than x and not in U, that vanishes on P, pairs negatively
         with the label's dimension vector, and is tau-rigid with U;
      3. U + Y, for Y the cokernel of the minimal left add(U)-approximation
         of x: the one new indecomposable summand (Thm 2.30), registered
         with no decomposition.  The new pair is tested for rigidity.
    Branches 1 and 2 build nothing: a tau-rigid pair with n terms is
    support tau-tilting (Prop. 2.3), and the registry's g-vector pairing
    decides tau-rigidity (Prop. 2.4).  Branch 2 finds any completion whose
    summands `masks` knows, so branch 3 gives a new pair.

    The label B is the top component of x, so the new summand Y has
    Hom(Y, B) = 0 and Hom(B, tau Y) != 0, hence <g(Y), dim B> =
    -dim Hom(B, tau Y) < 0 (Prop. 2.4).  That test needs no Hom space and
    skips most wrong candidates.  In branch 3, U is nonzero at every vertex
    outside P, so the other completion keeps P and Y cannot be zero.
    """
    u_ids, supp = face
    dims = [registry.module(u).dims for u in u_ids]
    for v, col in enumerate(zip(*dims, [0] * registry.algebra.n_vertices)):
        if not any(col) and v not in supp:
            return u_ids, tuple(sorted(supp + (v,)))
    if masks and (z := masks.completion(label, x, u_ids, supp)) is not None:
        return tuple(sorted(u_ids + (z,))), supp
    coker, _ = cokernel(registry.left_approximation(x, u_ids))
    if coker.is_zero:
        raise MutationError(
            f"the almost-complete pair with summand dims {[list(d) for d in dims]} "
            f"and missing vertices {list(supp)} has a zero exchange, so it has "
            "one completion, not two (Adachi-Iyama-Reiten, Thm 2.18)"
        )
    new_pair = SupportPair(registry, u_ids + (registry.register(coker),), supp)
    if not pair_is_tau_rigid(new_pair):
        raise NotTauRigidError("mutation produced a non-rigid pair")
    return new_pair.key


class _FaceBricks:
    """Bitmasks by registry id over the bricks and summands `explore` knows,
    which give each face (U, P) its label, arrow direction and completion.

    The wide subcategory W(U, P) = U^perp cap ^perp(tau U) cap P^perp of a
    face holds exactly one brick, the label of the face's one arrow (Jasso
    reduction, arXiv:1302.2709; Demonet-Iyama-Reading-Reiten-Thomas,
    arXiv:1711.01785).  `wmask[u]` holds the known bricks in W(u, 0) and
    `vanish[v]` the bricks and summands that vanish at vertex v, so the
    known bricks in W(U, P) are an AND of masks.  Each summand met brings
    its brick, M modulo the image of rad End(M), since that map is a
    bijection from the tau-rigid indecomposables onto the bricks
    (Demonet-Iyama-Jasso, arXiv:1503.00285).
    """

    def __init__(self, registry: IsoRegistry):
        self.registry = registry
        self.bricks = 0
        self.wmask: Dict[int, int] = {}
        self.vanish = [0] * registry.algebra.n_vertices
        self.neg: Dict[int, int] = {}
        self.rigid: Dict[int, int] = defaultdict(int)

    def _in_w(self, u: int, b: int) -> bool:
        # Hom(M_u, B) and Hom(B, tau M_u) are both >= 0 and differ by the
        # pairing, so a nonzero pairing rules B out with no Hom space built.
        reg = self.registry
        return reg.pairing(u, b) == 0 and reg.hom_dim(u, b) == 0

    def _mark(self, i: int) -> None:
        self.vanish = [m | (not d) << i for m, d in zip(self.vanish, self.registry.module(i).dims)]

    def add_summand(self, z: int) -> None:
        if z in self.wmask:
            return
        self.wmask[z] = sum(1 << b for b in _bits(self.bricks) if self._in_w(z, b))
        self._mark(z)
        self.neg = {b: m | (self.registry.pairing(z, b) < 0) << z for b, m in self.neg.items()}
        self.add_brick(self.registry.pair_top_ids((z,))[0])

    def add_brick(self, b: int) -> None:
        if self.bricks >> b & 1:
            return
        self.bricks |= 1 << b
        self._mark(b)
        self.wmask = {u: m | self._in_w(u, b) << b for u, m in self.wmask.items()}

    def completion(
        self, label: int, x: int, u_ids: Tuple[int, ...], supp: Tuple[int, ...]
    ) -> Optional[int]:
        """The lowest known summand z, not x nor in U, that vanishes on supp,
        pairs negatively with the label and is tau-rigid with U, tested
        against U in order.  `rigid[z]` keeps the u it passed with."""
        reg = self.registry
        if label not in self.neg:
            self.neg[label] = sum(1 << z for z in self.wmask if reg.pairing(z, label) < 0)
        umask = sum(1 << u for u in u_ids)
        cand = self.neg[label] & ~umask & ~(1 << x)
        for v in supp:
            cand &= self.vanish[v]
        for z in _bits(cand):
            for u in _bits(umask & ~self.rigid[z]):
                if reg.tau_hom_dim(u, z) or reg.tau_hom_dim(z, u):
                    break
                self.rigid[z] |= 1 << u
            else:
                return z

    def labels(self, ids: Tuple[int, ...], supp: Tuple[int, ...]) -> tuple:
        """Like `pair_top_ids(ids)`: the label of the arrow out at each
        position, None where the arrow comes in.  The arrow across the face
        without M_x leaves the pair exactly when its brick B lies in Fac of
        the pair, that is when Hom(B, tau M_x) = 0.  Where some face has no
        known brick, the top components are built and their bricks added."""
        reg = self.registry
        base = self.bricks
        for v in supp:
            base &= self.vanish[v]
        cands = []
        for x in ids:
            cand = base
            for u in ids:
                if u != x:
                    cand &= self.wmask[u]
            if cand & (cand - 1):
                dims = [list(reg.module(u).dims) for u in ids if u != x]
                bdims = [list(reg.module(b).dims) for b in _bits(cand)]
                raise CompletionError(
                    f"the almost-complete pair with summand dims {dims} and "
                    f"missing vertices {list(supp)} has bricks with dims {bdims} "
                    "in its wide subcategory, which holds exactly one brick "
                    "(Jasso reduction)"
                )
            cands.append(cand)
        if not all(cands):
            tops = reg.pair_top_ids(ids)
            for t in tops:
                if t is not None:
                    self.add_brick(t)
            return tops
        bricks = [cand.bit_length() - 1 for cand in cands]
        return tuple(b if reg.tau_hom_dim(x, b) == 0 else None for x, b in zip(ids, bricks))


def explore(registry: IsoRegistry, max_depth: Optional[int] = None) -> ExchangeQuiver:
    """Breadth-first mutation closure starting from (A, 0).

    With max_depth set, vertices at that distance are recorded but not
    expanded; the result is flagged incomplete if any of them still had
    mutable summands.  Without it, an algebra with a `kronecker_witness`
    raises TauTiltingInfiniteError instead of running forever.

    Each almost-complete support tau-tilting pair (a face) lies in exactly
    two support tau-tilting pairs (Adachi-Iyama-Reiten, Thm 2.18), and
    left mutation at X moves across the face (U, P) that leaves X out.
    The face's one arrow is labelled by the one brick B in its wide
    subcategory, and leaves the pair exactly when Hom(B, tau X) = 0.  So
    each arrow's label and direction are read off bitmasks of the known
    bricks (`_FaceBricks`); top components are built only at a pair where
    some face has no known brick.  Every arrow goes to the key that
    `_complete_face` gives, tried first with the summands met so far, and a
    pair is built when its key is new.  A pair has one arrow per face, so
    an arrow that gives a vertex more arrows than faces, or joins it to
    itself, raises CompletionError.  Every pair found is tau-rigid by
    construction, so `left_mutate`'s input checks are not run.
    """
    witness = kronecker_witness(registry.algebra) if max_depth is None else None
    if witness is not None:
        a, b = witness
        raise TauTiltingInfiniteError(
            f"arrows {a.name} and {b.name} both go from vertex {a.source} "
            f"to vertex {a.target}, so the algebra maps onto the Kronecker "
            "algebra and has infinitely many support tau-tilting pairs; "
            "bound the exploration with --max-depth"
        )
    n = registry.algebra.n_vertices
    pairs: List[SupportPair] = []
    depths: List[int] = []
    degree: List[int] = []
    index: Dict[tuple, int] = {}
    masks = _FaceBricks(registry)
    arrows: List[Tuple[int, int, int]] = []
    complete = True
    queue = deque()

    def meet(pair: SupportPair, depth: int) -> int:
        vi = index[pair.key] = len(pairs)
        pairs.append(pair)
        depths.append(depth)
        degree.append(0)
        for z in pair.summand_ids:
            masks.add_summand(z)
        queue.append(vi)
        return vi

    meet(initial_pair(registry), 0)
    while queue:
        vi = queue.popleft()
        ids, supp = pairs[vi].key
        tops = masks.labels(ids, supp)
        positions = [k for k, t in enumerate(tops) if t is not None]
        if max_depth is not None and depths[vi] >= max_depth:
            if positions:
                complete = False
            continue
        for pos in positions:
            face = (ids[:pos] + ids[pos + 1:], supp)
            key = _complete_face(registry, face, ids[pos], tops[pos], masks)
            ti = index[key] if key in index else meet(SupportPair(registry, *key), depths[vi] + 1)
            for w in (vi, ti):
                if ti == vi or degree[w] == n:
                    dims = [list(registry.module(i).dims) for i in face[0]]
                    fault = "an arrow to itself" if ti == vi else f"more arrows than its {n} faces"
                    raise CompletionError(
                        f"the almost-complete pair with summand dims {dims} and missing "
                        f"vertices {list(supp)} gives vertex {w} {fault}, but a face has "
                        "exactly two completions (Adachi-Iyama-Reiten, Thm 2.18)"
                    )
                degree[w] += 1
            arrows.append((vi, ti, tops[pos]))
    return ExchangeQuiver(registry.algebra, registry, pairs, arrows, complete, max_depth, depths)


# -- completion and restriction ----------------------------------------------


@dataclass
class Restriction:
    """The full subquiver of pairs containing a fixed tau-rigid U: its
    vertices (indices into the quiver), arrows, sources and sinks, and the
    violations of its expected shape."""

    vertex_indices: List[int]
    arrows: List[Tuple[int, int, int]]
    sources: List[int]
    sinks: List[int]
    violations: List[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_indices)

    @property
    def n_arrows(self) -> int:
        return len(self.arrows)

    @property
    def source_index(self) -> int:
        """The one source, -1 unless there is exactly one."""
        return self.sources[0] if len(self.sources) == 1 else -1

    @property
    def sink_index(self) -> int:
        """The one sink, -1 unless there is exactly one."""
        return self.sinks[0] if len(self.sinks) == 1 else -1


def restrict_quiver(quiver: ExchangeQuiver, u_ids: Sequence[int]) -> Restriction:
    """Restrict a complete exchange quiver to the pairs containing U, the
    sum of the registered indecomposables u_ids (a module from outside
    reaches them through `IsoRegistry.register`, one summand at a time).

    Its violations check the expected shape: a unique source and sink, inner
    degree equal to (number of vertices) - |U| at every subquiver vertex,
    and label compatibility with U on every surviving arrow.
    """
    if not quiver.complete:
        raise IncompleteExplorationError(
            "restriction needs a completely explored exchange quiver"
        )
    reg = quiver.registry
    u_ids = tuple(sorted(set(u_ids)))
    if not u_ids:
        raise TaumutError("restriction to an empty module is the whole quiver")
    if not all(0 <= i < reg.count() for i in u_ids):
        raise TaumutError(f"U has ids {list(u_ids)}; the registry holds ids 0..{reg.count() - 1}")
    witness = _tau_hom_witness(reg, u_ids)
    if witness is not None:
        i, j = witness
        dims = [list(reg.module(k).dims) for k in u_ids]
        raise NotTauRigidError(
            f"the fixed module U with summand dims {dims} is not tau-rigid: "
            f"Hom({reg.module(i).dims}, tau {reg.module(j).dims}) = {reg.tau_hom_dim(j, i)}"
        )
    verts = [i for i, p in enumerate(quiver.pairs) if set(u_ids) <= set(p.summand_ids)]
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
            if reg.tau_hom_dim(i, lab) != 0:
                violations.append(
                    f"label on {s}->{t} maps into the translate of U"
                )
    return Restriction(verts, sub_arrows, sources, sinks, violations)


def bongartz_completion(quiver: ExchangeQuiver, u_ids: Sequence[int]) -> SupportPair:
    """The pair containing U, the sum of the registered indecomposables
    u_ids, whose torsion class is largest.

    Found as the unique source of the restricted subquiver; requires a
    complete exploration.
    """
    restriction = restrict_quiver(quiver, u_ids)
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
    # vertex names come from the algebra file; quote them for a DOT string
    names = [v.replace("\\", "\\\\").replace('"', '\\"') for v in quiver.algebra.quiver.vertices]
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
