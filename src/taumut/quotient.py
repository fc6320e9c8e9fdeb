"""Quotients by central radical elements and the induced exchange-quiver
comparison.

An ideal generated by central elements of the radical leaves the
exchange quiver unchanged: vertices map bijectively via M -> M/MI,
arrows are carried along, and the brick labels are already modules over
the quotient.  verify_ejr checks all of that at explored scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import Algebra, field_coefficient, normalize_relation
from .errors import IncompleteExplorationError, SpecError
from .linalg import Mat, vstack
from .modules import IsoRegistry, Module, quotient_by_rows
from .tautilt import SupportPair, explore, semibrick_ids_of

Element = Tuple[object, ...]


def parse_element(algebra: Algebra, text: str) -> Element:
    """Parse "c*a1*a2 + a3*a4 - 2*a5" style sums of paths into a
    coefficient vector over the path basis."""
    field = algebra.field
    vec = [field.zero()] * algebra.dim
    terms: List[Tuple[int, str]] = []
    sign, buf = 1, []
    for ch in text:
        if ch in "+-":
            if buf and "".join(buf).strip():
                terms.append((sign, "".join(buf)))
            sign = 1 if ch == "+" else -1
            buf = []
        else:
            buf.append(ch)
    if buf and "".join(buf).strip():
        terms.append((sign, "".join(buf)))
    if not terms:
        raise SpecError("empty element expression")
    for sign, chunk in terms:
        tokens = [t.strip() for t in chunk.split("*") if t.strip()]
        if not tokens:
            raise SpecError(f"empty term in {text!r}")
        coeff = field.coerce(sign)
        if tokens[0] not in algebra.quiver.arrow_index:
            try:
                coeff = field.mul(coeff, field_coefficient(field, tokens[0], text))
            except ValueError:
                raise SpecError(f"unknown arrow {tokens[0]!r}") from None
            tokens = tokens[1:]
        if not tokens:
            raise SpecError(f"term without a path in {text!r}")
        arrows = []
        for t in tokens:
            if t not in algebra.quiver.arrow_index:
                raise SpecError(f"unknown arrow {t!r}")
            arrows.append(algebra.quiver.arrow_index[t])
        src = algebra.quiver.vertex_index[
            algebra.quiver.arrows[arrows[0]].source
        ]
        for k, c in algebra.path_class(src, tuple(arrows)):
            vec[k] = field.add(vec[k], field.mul(coeff, c))
    return tuple(vec)


def _basis_products(algebra: Algebra, z: Sequence, j: int) -> Tuple[list, list]:
    """(z * b_j, b_j * z) as coefficient vectors."""
    field = algebra.field
    left = [field.zero()] * algebra.dim
    right = [field.zero()] * algebra.dim
    for i, ci in enumerate(z):
        if field.is_zero(ci):
            continue
        for k, c in algebra.mult_basis(i, j):
            left[k] = field.add(left[k], field.mul(ci, c))
        for k, c in algebra.mult_basis(j, i):
            right[k] = field.add(right[k], field.mul(ci, c))
    return left, right


def is_central_radical(algebra: Algebra, z: Sequence) -> bool:
    """z commutes with every basis element and has no idempotent part."""
    field = algebra.field
    if len(z) != algebra.dim:
        raise SpecError("element vector has the wrong length")
    for v in range(algebra.n_vertices):
        if not field.is_zero(z[algebra.idempotent[v]]):
            return False
    for j in range(algebra.dim):
        left, right = _basis_products(algebra, z, j)
        if any(not field.is_zero(field.sub(a, b)) for a, b in zip(left, right)):
            return False
    return True


@dataclass(frozen=True)
class CentralIdeal:
    algebra: Algebra
    generators: Tuple[Element, ...]

    def __post_init__(self):
        for z in self.generators:
            if not is_central_radical(self.algebra, z):
                raise SpecError(
                    "ideal generator is not central radical; the quotient "
                    "comparison does not apply"
                )


def central_ideal(algebra: Algebra, expressions: Sequence[str]) -> CentralIdeal:
    """The ideal generated by the parsed expressions; a generator that is
    zero in the algebra is refused, as the quotient would be A itself."""
    generators = []
    for text in expressions:
        z = parse_element(algebra, text)
        if all(algebra.field.is_zero(c) for c in z):
            raise SpecError(f"generator {text!r} is zero in the algebra")
        generators.append(z)
    return CentralIdeal(algebra, tuple(generators))


def _generator_relations(algebra: Algebra, z: Sequence):
    """Split a central element into per-vertex-block relations in arrow
    names; central elements live in diagonal blocks only."""
    field = algebra.field
    names = [a.name for a in algebra.quiver.arrows]
    blocks: Dict[Tuple[int, int], list] = {}
    for k, coeff in enumerate(z):
        if field.is_zero(coeff):
            continue
        src, arrows = algebra.basis_element_path(k)
        tgt = algebra.path_target((src, arrows))
        path = tuple(names[ai] for ai in arrows)
        blocks.setdefault((src, tgt), []).append((Fraction(coeff), path))
    out = []
    for (src, tgt), terms in sorted(blocks.items()):
        if src != tgt:
            raise SpecError("central element has an off-diagonal block")
        out.append(normalize_relation(algebra.quiver, terms, min_length=1))
    return out


def quotient_algebra(
    ideal: CentralIdeal,
) -> Tuple[Algebra, Callable[[Module], Module]]:
    """The quotient algebra and the functor M -> M/MI."""
    A = ideal.algebra
    extras: list = []
    for z in ideal.generators:
        extras.extend(_generator_relations(A, z))
    quotient = Algebra(
        A.quiver,
        A.field,
        A.nilpotency,
        A.defining_relations + tuple(extras),
        label=(A.label + "/I") if A.label else "quotient",
    )
    field = A.field

    def reduce(module: Module) -> Module:
        if module.algebra is not A:
            raise SpecError("reduce expects a module over the source algebra")
        rows = []
        for v in range(A.n_vertices):
            acts = []
            for z in ideal.generators:
                act = Mat.zeros(field, module.dims[v], module.dims[v])
                for k, coeff in enumerate(z):
                    if field.is_zero(coeff):
                        continue
                    src, arrows = A.basis_element_path(k)
                    if src != v:
                        continue
                    act = act.add(
                        module.path_action(src, arrows).scale(coeff)
                    )
                acts.append(act)
            rows.append(
                vstack(field, acts, ncols=module.dims[v])
                if acts
                else Mat.zeros(field, 0, module.dims[v])
            )
        reduced, _ = quotient_by_rows(module, rows)
        return Module(quotient, reduced.dims, reduced.mats)

    return quotient, reduce


@dataclass
class EjrReport:
    n_vertices: Tuple[int, int]
    n_arrows: Tuple[int, int]
    vertex_bijection: bool
    arrows_match: bool
    labels_fixed: bool
    semibricks_match: bool

    @property
    def ok(self) -> bool:
        return (
            self.n_vertices[0] == self.n_vertices[1]
            and self.n_arrows[0] == self.n_arrows[1]
            and self.vertex_bijection
            and self.arrows_match
            and self.labels_fixed
            and self.semibricks_match
        )


def _inflate(algebra: Algebra, module: Module) -> Module:
    """View a quotient module as a module over the original algebra."""
    return Module(algebra, module.dims, module.mats)


def verify_ejr(
    ideal: CentralIdeal, max_depth: Optional[int] = None
) -> EjrReport:
    """Explore the exchange quivers of A and A/I and compare them through
    M -> M/MI.  Labels and semibricks are registered as bricks; a reduced
    summand plainly, so one that decomposes gets a fresh id that no vertex
    of A/I holds, and the vertex bijection fails."""
    A = ideal.algebra
    quotient, reduce = quotient_algebra(ideal)
    reg_a = IsoRegistry(A)
    reg_b = IsoRegistry(quotient)
    quiver_a = explore(reg_a, max_depth)
    quiver_b = explore(reg_b, max_depth)
    if not quiver_a.complete or not quiver_b.complete:
        raise IncompleteExplorationError(
            "both explorations must be complete for the comparison"
        )

    image_index: List[Optional[int]] = []
    for pair in quiver_a.pairs:
        ids = sorted(
            reg_b.register(reduce(reg_a.module(sid)))
            for sid in pair.summand_ids
        )
        mapped = SupportPair(reg_b, ids, pair.support_complement)
        image_index.append(quiver_b.find(mapped))
    vertex_bijection = (
        None not in image_index
        and len(set(image_index)) == quiver_b.n_vertices
    )

    labels_fixed = True
    mapped_arrows = set()
    for s, t, lab in quiver_a.arrows:
        label_module = reg_a.module(lab)
        reduced = reduce(label_module)
        if reduced.dims != label_module.dims:
            labels_fixed = False
            continue
        if image_index[s] is None or image_index[t] is None:
            continue
        mapped_arrows.add(
            (image_index[s], image_index[t], reg_b.register_brick(reduced))
        )
    arrows_match = mapped_arrows == set(quiver_b.arrows)

    semibricks_match = True
    for i, pair in enumerate(quiver_a.pairs):
        j = image_index[i]
        if j is None:
            semibricks_match = False
            break
        sb_a = sorted(semibrick_ids_of(pair))
        sb_b = sorted(
            reg_a.register_brick(_inflate(A, reg_b.module(bid)))
            for bid in semibrick_ids_of(quiver_b.pairs[j])
        )
        if sb_a != sb_b:
            semibricks_match = False
            break

    return EjrReport(
        n_vertices=(quiver_a.n_vertices, quiver_b.n_vertices),
        n_arrows=(quiver_a.n_arrows, quiver_b.n_arrows),
        vertex_bijection=vertex_bijection,
        arrows_match=arrows_match,
        labels_fixed=labels_fixed,
        semibricks_match=semibricks_match,
    )
