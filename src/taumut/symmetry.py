"""Automorphisms of a bound quiver algebra and the orbits they cut the
exchange quiver into; `verify` alone imports this module.

An automorphism sigma of the bound quiver permutes the vertices and the
arrows and maps the ideal of relations onto itself.  The twist of a module
M, (sigma M)_{sigma v} = M_v and (sigma M)_{sigma a} = M_a, is then an exact
autoequivalence of mod A.  It keeps Hom and Ext^1 dimensions, bricks, tau,
top components and the mutation of collections, and it permutes the
entries of g-vectors by sigma.  So it moves support tau-tilting pairs and
their brick-labelled arrows to pairs and arrows, and since g-vectors
determine a pair (Adachi-Iyama-Reiten, "tau-tilting theory", Thm 5.5), a
pair's image is the vertex whose g-vectors are its own, permuted.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import Algebra
from .grothendieck import g_columns
from .modules import Module, _indec_iso
from .tautilt import ExchangeQuiver


class Automorphism:
    """sigma by vertex and arrow index: vertex v goes to vertices[v], arrow a
    to arrows[a]."""

    __slots__ = ("vertices", "arrows", "inverse")

    def __init__(self, vertices: Sequence[int], arrows: Sequence[int]):
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        inverse = [0] * len(vertices)
        for v, w in enumerate(vertices):
            inverse[w] = v
        self.inverse = tuple(inverse)

    def twist(self, M: Module) -> Module:
        """sigma M, unchecked: sigma maps the ideal onto itself, so the
        twist of a module is a module."""
        dims = [M.dims[v] for v in self.inverse]
        mats = [None] * len(self.arrows)
        for a, image in enumerate(self.arrows):
            mats[image] = M.mats[a]
        return Module(M.algebra, dims, mats, _validated=True)

    def move(self, g: Tuple[int, ...]) -> Tuple[int, ...]:
        """The g-vector of the twist, from the g-vector of the module."""
        return tuple(g[v] for v in self.inverse)


def _vertex_maps(n: int, adjacent: set, fixed: int, image: int) -> Iterator[List[int]]:
    """Depth first, every vertex permutation that keeps `adjacent`, the
    (source, target) pairs joined by an arrow, fixes the vertices below
    `fixed` and sends `fixed` to `image`."""
    sigma: List[int] = []
    used = set()

    def extend() -> Iterator[List[int]]:
        v = len(sigma)
        if v == n:
            yield list(sigma)
            return
        for w in [v] if v < fixed else [image] if v == fixed else range(n):
            if w in used:
                continue
            sigma.append(w)
            if all(
                ((u, v) in adjacent) == ((sigma[u], w) in adjacent)
                and ((v, u) in adjacent) == ((w, sigma[u]) in adjacent)
                for u in range(v + 1)
            ):
                used.add(w)
                yield from extend()
                used.discard(w)
            sigma.pop()

    return extend()


def _keeps_the_ideal(algebra: Algebra, sigma: Automorphism) -> bool:
    """sigma maps each defining relation into the ideal: the images of its
    terms sum to zero in the path basis of A.  The other generators of the
    ideal, the paths of length at least the nilpotency bound, go to paths
    of the same length.  So sigma maps the ideal into itself, and onto
    itself, as the ideal is finite-dimensional modulo those paths."""
    field = algebra.field
    quiver = algebra.quiver
    for rel in algebra.defining_relations:
        total: Dict[int, object] = {}
        for coeff, names in rel:
            arrows = tuple(sigma.arrows[quiver.arrow_index[name]] for name in names)
            source = quiver.vertex_index[quiver.arrows[arrows[0]].source]
            c = field.coerce(coeff)
            for k, x in algebra.path_class(source, arrows):
                total[k] = field.add(total.get(k, field.zero()), field.mul(c, x))
        if not all(field.is_zero(x) for x in total.values()):
            return False
    return True


def _orbit(k: int, generators: Sequence[Automorphism]) -> set:
    """The images of vertex k under the group the generators generate."""
    orbit = {k}
    while True:
        grown = orbit | {g.vertices[v] for g in generators for v in orbit}
        if grown == orbit:
            return orbit
        orbit = grown


def automorphisms(algebra: Algebra) -> List[Automorphism]:
    """Generators of the bound quiver's automorphism group, not the group.

    For each vertex k in turn, among the automorphisms that fix the
    vertices below k: one per image of k that the generators found for k
    so far do not already reach.  So the generators reach every image of
    every vertex, and they generate the group.  Then a generator for k is
    dropped while the others for k still reach every image of k: by
    orbit-stabilizer they and the stabilizer of k, which the generators
    for the later vertices generate, still generate the group fixing the
    vertices below k.  A vertex permutation that keeps the arrow counts
    maps each arrow to the one arrow between the images of its endpoints;
    where two arrows join the same pair of vertices that is ambiguous for
    every permutation, so none is tried.  A permutation is an automorphism
    when it keeps the ideal (`_keeps_the_ideal`); the identity is left
    out."""
    quiver = algebra.quiver
    n = algebra.n_vertices
    vidx = quiver.vertex_index
    ends = [(vidx[a.source], vidx[a.target]) for a in quiver.arrows]
    between = {key: a for a, key in enumerate(ends)}
    if len(between) < len(ends):
        return []
    found: List[Automorphism] = []
    for k in range(n):
        level: List[Automorphism] = []
        orbit = {k}
        for t in range(k + 1, n):
            if t in orbit:
                continue
            for vertices in _vertex_maps(n, set(between), k, t):
                sigma = Automorphism(vertices, [between[(vertices[u], vertices[w])] for u, w in ends])
                if _keeps_the_ideal(algebra, sigma):
                    level.append(sigma)
                    orbit = _orbit(k, level)
                    break
        for sigma in list(level):
            if _orbit(k, [g for g in level if g is not sigma]) == orbit:
                level.remove(sigma)
        found += level
    return found


def _describe(algebra: Algebra, sigma: Automorphism) -> str:
    names = algebra.quiver.vertices
    moved = [f"{names[v]}->{names[w]}" for v, w in enumerate(sigma.vertices) if v != w]
    return "the quiver automorphism " + ", ".join(moved)


def _equivariance_fault(
    quiver: ExchangeQuiver, sigma: Automorphism, vertex_of: Dict[tuple, int], keys: List[tuple]
) -> Tuple[Optional[List[int]], str]:
    """The permutation of the vertices that sigma induces, and "", when the
    quiver is equivariant under sigma; None and the fault otherwise.

    Each vertex goes to the vertex with its twisted g-vectors, each arrow
    s -> t labelled B to an arrow between the images, and that arrow's
    label must be isomorphic to sigma B: one exact-matrix or `_indec_iso`
    test per label, since the registry holds one module per class."""
    reg = quiver.registry
    where = _describe(quiver.algebra, sigma)
    perm = []
    for i, key in enumerate(keys):
        j = vertex_of.get(tuple(sorted(sigma.move(g) for g in key)))
        if j is None:
            return None, f"{where} sends vertex {i} to g-vectors of no vertex"
        perm.append(j)
    labels = {(s, t): lab for s, t, lab in quiver.arrows}
    twin: Dict[int, int] = {}
    for s, t, lab in quiver.arrows:
        image = labels.get((perm[s], perm[t]))
        if image is not None and lab not in twin:
            T, N = sigma.twist(reg.module(lab)), reg.module(image)
            if (T.dims, T.mats) == (N.dims, N.mats) or _indec_iso(T, N):
                twin[lab] = image
        if image is None or twin.get(lab) != image:
            at = f"{where} sends arrow {s} -> {t} to {perm[s]} -> {perm[t]}"
            if image is None:
                return None, f"{at}, which is not an arrow"
            dims, other = list(reg.module(lab).dims), list(reg.module(image).dims)
            return None, f"{at}, whose label {other} is not the twist of the label {dims}"
    return perm, ""


def orbit_representatives(quiver: ExchangeQuiver) -> Tuple[List[int], List[str]]:
    """rep[i], the lowest vertex in vertex i's orbit under the algebra's
    `automorphisms`, and the faults of the equivariance check; after a
    fault every vertex is its own representative.

    The check certifies, for each generator sigma, a permutation pi of the
    vertices and a map beta of the labels with: pi(i) has the twisted
    g-vectors of i, an arrow s -> t labelled B has an image arrow
    pi(s) -> pi(t), labelled beta(B), which is isomorphic to sigma B.  Two
    vertices with the same g-vectors are a fault too, so pi is one-to-one.
    Then pi is an automorphism of the quiver: it maps the arrows into the
    arrows one-to-one, and `verify` reads each vertex's collection, which
    raises unless each vertex has one arrow per column, so no two arrows
    join the same vertices.  The pair at pi(i) is sigma of the pair at i,
    by g-vectors (Adachi-Iyama-Reiten, Thm 5.5; `explore` builds only
    support tau-tilting pairs), and its arrows in and out
    are the images of those at i, so its collection is beta of the one at i
    and its tops are the registry classes of sigma of the tops at i.  The
    twist keeps every number that a per-vertex check reads, and the
    mutation of a collection, so each check passes at pi(i) exactly when it
    passes at i, and each arrow out of pi(i) passes label coincidence
    exactly when its preimage out of i does.  So the checks need to run
    only at one vertex per orbit of the group the generators generate.
    """
    n = quiver.n_vertices
    rep = list(range(n))
    generators = automorphisms(quiver.algebra)
    if not generators:
        return rep, []
    # a vertex's key is its pair's g-vectors: the summands', and -e_v for
    # each missing vertex v
    keys = [tuple(sorted(map(tuple, g_columns(p)))) for p in quiver.pairs]
    vertex_of: Dict[tuple, int] = {}
    for i, key in enumerate(keys):
        if key in vertex_of:
            return rep, [f"vertices {vertex_of[key]} and {i} have the same g-vectors"]
        vertex_of[key] = i
    faults, perms = [], []
    for sigma in generators:
        perm, fault = _equivariance_fault(quiver, sigma, vertex_of, keys)
        if fault:
            faults.append(f"exchange quiver is not equivariant: {fault}")
        perms.append(perm)
    if faults:
        return rep, faults
    # in vertex order, each vertex not yet reached starts its orbit
    rep = [-1] * n
    for i in range(n):
        if rep[i] < 0:
            rep[i] = i
            stack = [i]
            while stack:
                v = stack.pop()
                for perm in perms:
                    if rep[perm[v]] < 0:
                        rep[perm[v]] = i
                        stack.append(perm[v])
    return rep, []
