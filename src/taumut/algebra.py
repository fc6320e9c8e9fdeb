"""Bound quiver algebras with an explicit finite path basis.

An algebra is presented by a quiver, a list of parallel-path relations, a
nilpotency bound N (all paths of length >= N vanish), and a field.  The
basis consists of the paths of length < N that survive reduction by the
two-sided ideal the relations generate; multiplication is a normal-form
table over that basis.

Paths compose left to right: ``p * q`` means "p, then q", so ``e_v * p = p``
exactly when p starts at v and ``p * e_v = p`` exactly when p ends at v.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import SpecError
from .linalg import Field, Mat, PrimeField, QQ, _rref_rows

RelationTerm = Tuple[Fraction, Tuple[str, ...]]
Relation = Tuple[RelationTerm, ...]


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Quiver:
    """A finite quiver with named vertices and named arrows."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[Arrow]):
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise SpecError("duplicate vertex names")
        if not self.vertices:
            raise SpecError("a quiver needs at least one vertex")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise SpecError("duplicate arrow names")
        for v in self.vertices:
            if not isinstance(v, str) or not v:
                raise SpecError(f"bad vertex name {v!r}")
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        for a in self.arrows:
            if a.source not in self.vertex_index or a.target not in self.vertex_index:
                raise SpecError(f"arrow {a.name} has undeclared endpoints")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def opposite(self) -> "Quiver":
        return Quiver(
            self.vertices,
            [Arrow(a.name, a.target, a.source) for a in self.arrows],
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.arrows))


def _path_endpoints(quiver: Quiver, path: Sequence[str]) -> Tuple[str, str]:
    """Source and target of a nonempty composable arrow sequence."""
    prev_target = None
    for name in path:
        if name not in quiver.arrow_index:
            raise SpecError(f"unknown arrow {name!r} in path")
        a = quiver.arrows[quiver.arrow_index[name]]
        if prev_target is not None and a.source != prev_target:
            raise SpecError(f"path {'*'.join(path)} is not composable at {name}")
        prev_target = a.target
    first = quiver.arrows[quiver.arrow_index[path[0]]]
    return first.source, prev_target


def normalize_relation(quiver: Quiver, terms, *, min_length: int = 2) -> Relation:
    """Validate one relation: parallel terms, nonzero coefficients."""
    if not terms:
        raise SpecError("empty relation")
    out = []
    endpoints = None
    for coeff, path in terms:
        coeff = Fraction(coeff)
        if coeff == 0:
            raise SpecError("zero coefficient in relation")
        path = tuple(path)
        if len(path) < min_length:
            raise SpecError(
                f"relation path {'*'.join(path) or '<empty>'} shorter than "
                f"{min_length}"
            )
        ep = _path_endpoints(quiver, path)
        if endpoints is None:
            endpoints = ep
        elif ep != endpoints:
            raise SpecError("relation terms are not parallel")
        out.append((coeff, path))
    return tuple(out)


def field_coefficient(field: Field, coeff, term: str):
    """coeff as a scalar of the field; a SpecError naming it and the term
    it came from when it has no value there (1/p over F_p, or 1/0)."""
    try:
        return field.coerce(coeff)
    except ZeroDivisionError:
        raise SpecError(
            f"coefficient {coeff} in {term!r} has no value in {field.name}"
        ) from None


@dataclass(frozen=True)
class AlgebraSpec:
    """Serializable presentation: quiver, relations, nilpotency, field."""

    quiver: Quiver
    relations: Tuple[Relation, ...]
    nilpotency: int
    field: Field

    def validate(self) -> None:
        if not isinstance(self.nilpotency, int) or self.nilpotency < 2:
            raise SpecError(f"nilpotency must be an int >= 2, got {self.nilpotency!r}")
        for rel in self.relations:
            for coeff, path in normalize_relation(self.quiver, rel, min_length=2):
                term = "*".join(path)
                if self.field.is_zero(field_coefficient(self.field, coeff, term)):
                    raise SpecError(f"coefficient {coeff} in {term!r} is zero in {self.field.name}")

    def to_json_dict(self) -> dict:
        if self.field == QQ:
            field_json: dict = {"kind": "Q"}
        elif isinstance(self.field, PrimeField):
            field_json = {"kind": "Fp", "p": self.field.p}
        else:
            raise SpecError(f"unserializable field {self.field!r}")
        return {
            "vertices": list(self.quiver.vertices),
            "arrows": [
                {"name": a.name, "source": a.source, "target": a.target}
                for a in self.quiver.arrows
            ],
            "relations": [
                [{"coeff": str(c), "path": list(p)} for c, p in rel]
                for rel in self.relations
            ],
            "nilpotency": self.nilpotency,
            "field": field_json,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @staticmethod
    def from_json_dict(data: dict) -> "AlgebraSpec":
        """The spec in data, unvalidated: build_algebra validates it over the
        field it is built over, which may replace the file's own."""
        try:
            quiver = Quiver(
                [str(v) for v in data["vertices"]],
                [
                    Arrow(str(a["name"]), str(a["source"]), str(a["target"]))
                    for a in data["arrows"]
                ],
            )
            relations = tuple(
                normalize_relation(
                    quiver,
                    [(Fraction(t["coeff"]), tuple(t["path"])) for t in rel],
                )
                for rel in data.get("relations", [])
            )
            nilpotency = data["nilpotency"]
            fj = data["field"]
            if fj.get("kind") == "Q":
                field: Field = QQ
            elif fj.get("kind") == "Fp":
                field = PrimeField(int(fj["p"]))
            else:
                raise SpecError(f"unknown field spec {fj!r}")
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"malformed algebra spec: {exc}") from exc
        return AlgebraSpec(quiver, relations, nilpotency, field)

    @staticmethod
    def loads(text: str) -> "AlgebraSpec":
        return AlgebraSpec.from_json_dict(json.loads(text))

    @staticmethod
    def load(path: str) -> "AlgebraSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return AlgebraSpec.loads(fh.read())

    def with_field(self, field: Field) -> "AlgebraSpec":
        return AlgebraSpec(self.quiver, self.relations, self.nilpotency, field)


class Algebra:
    """A bound quiver algebra with a computed path basis.

    Instances are produced by :func:`build_algebra`; identity of the object
    is used to tie modules to their algebra.
    """

    def __init__(
        self,
        quiver: Quiver,
        field: Field,
        nilpotency: int,
        defining_relations: Tuple[Relation, ...],
        label: str = "",
    ):
        self.quiver = quiver
        self.field = field
        self.nilpotency = nilpotency
        self.defining_relations = defining_relations
        self.label = label
        self._opposite: Optional["Algebra"] = None
        self.nakayama_shape = None
        self._build()

    # -- construction -----------------------------------------------------

    def _enumerate_paths(self) -> None:
        quiver = self.quiver
        paths: List[Tuple[int, Tuple[int, ...]]] = [
            (v, ()) for v in range(quiver.n_vertices)
        ]
        frontier = list(paths)
        for _ in range(1, self.nilpotency):
            new = []
            for source, arrows in frontier:
                tail = (
                    source
                    if not arrows
                    else quiver.vertex_index[quiver.arrows[arrows[-1]].target]
                )
                for ai, a in enumerate(quiver.arrows):
                    if quiver.vertex_index[a.source] == tail:
                        new.append((source, arrows + (ai,)))
            paths.extend(new)
            frontier = new
            if not frontier:
                break
        self.all_paths = paths
        self.path_index = {p: i for i, p in enumerate(paths)}

    def path_target(self, path: Tuple[int, Tuple[int, ...]]) -> int:
        source, arrows = path
        if not arrows:
            return source
        return self.quiver.vertex_index[self.quiver.arrows[arrows[-1]].target]

    def _relation_vector(self, rel: Relation, left, right) -> Optional[dict]:
        """Coordinates of left * rel * right over the path list, or None."""
        ls, larr = left
        rs, rarr = right
        vec: Dict[int, object] = {}
        field = self.field
        for coeff, names in rel:
            arrows = tuple(self.quiver.arrow_index[n] for n in names)
            total = larr + arrows + rarr
            if len(total) >= self.nilpotency:
                continue
            idx = self.path_index[(ls, total)]
            c = field.coerce(coeff)
            if idx in vec:
                vec[idx] = field.add(vec[idx], c)
            else:
                vec[idx] = c
        vec = {k: v for k, v in vec.items() if not field.is_zero(v)}
        return vec or None

    def _build(self) -> None:
        self._enumerate_paths()
        quiver, field = self.quiver, self.field
        by_block: Dict[Tuple[int, int], List[int]] = {}
        for i, p in enumerate(self.all_paths):
            key = (p[0], self.path_target(p))
            by_block.setdefault(key, []).append(i)

        rel_meta = []
        for rel in self.defining_relations:
            src_name, tgt_name = _path_endpoints(quiver, rel[0][1])
            rel_meta.append(
                (
                    rel,
                    quiver.vertex_index[src_name],
                    quiver.vertex_index[tgt_name],
                )
            )

        block_vectors: Dict[Tuple[int, int], List[dict]] = {}
        for rel, rs, rt in rel_meta:
            for lp in self.all_paths:
                if self.path_target(lp) != rs:
                    continue
                for rp in self.all_paths:
                    if rp[0] != rt:
                        continue
                    vec = self._relation_vector(rel, lp, rp)
                    if vec is not None:
                        block_vectors.setdefault(
                            (lp[0], self.path_target(rp)), []
                        ).append(vec)

        # Reduce each block and record normal forms for every path.
        self.normal_form: List[Tuple[Tuple[int, object], ...]] = [
            () for _ in self.all_paths
        ]
        killed = set()
        rewritten: Dict[int, List[Tuple[int, object]]] = {}
        for block, locals_ in by_block.items():
            vecs = block_vectors.get(block)
            if not vecs:
                continue
            pos = {g: j for j, g in enumerate(locals_)}
            rows = []
            for vec in vecs:
                row = [field.zero()] * len(locals_)
                for g, c in vec.items():
                    row[pos[g]] = c
                rows.append(row)
            rank_, rows, pivots = _rref_rows(field, rows)
            pivot_set = set(pivots)
            for r, pc in enumerate(pivots):
                expansion = [
                    (locals_[j], field.neg(rows[r][j]))
                    for j in range(len(locals_))
                    if j not in pivot_set and not field.is_zero(rows[r][j])
                ]
                rewritten[locals_[pc]] = expansion
                killed.add(locals_[pc])

        self.basis = [i for i in range(len(self.all_paths)) if i not in killed]
        self.basis_pos = {g: k for k, g in enumerate(self.basis)}
        for i in range(len(self.all_paths)):
            if i in rewritten:
                self.normal_form[i] = tuple(
                    (self.basis_pos[g], c) for g, c in rewritten[i]
                )
            else:
                self.normal_form[i] = ((self.basis_pos[i], field.one()),)

        self.dim = len(self.basis)
        self.idempotent = {}
        for v in range(quiver.n_vertices):
            self.idempotent[v] = self.basis_pos[self.path_index[(v, ())]]

        self.basis_by_block: Dict[Tuple[int, int], List[int]] = {}
        for k, i in enumerate(self.basis):
            p = self.all_paths[i]
            key = (p[0], self.path_target(p))
            self.basis_by_block.setdefault(key, []).append(k)

        self.annihilator_combos: List[Tuple[Tuple[object, Tuple[int, ...]], ...]] = []
        for rel, _, _ in rel_meta:
            combo = tuple(
                (
                    field.coerce(c),
                    tuple(quiver.arrow_index[n] for n in names),
                )
                for c, names in rel
            )
            self.annihilator_combos.append(combo)
        if quiver.arrows:
            for source, arrows in self.all_paths:
                if len(arrows) != self.nilpotency - 1:
                    continue
                tail = quiver.vertex_index[quiver.arrows[arrows[-1]].target]
                for ai, a in enumerate(quiver.arrows):
                    if quiver.vertex_index[a.source] == tail:
                        self.annihilator_combos.append(
                            ((field.one(), arrows + (ai,)),)
                        )

    # -- queries -----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.quiver.n_vertices

    def basis_paths(self, source: int, target: int) -> List[Tuple[int, Tuple[int, ...]]]:
        """Basis elements from source to target as (basis index, arrows)."""
        out = []
        for k in self.basis_by_block.get((source, target), []):
            g = self.basis[k]
            out.append((k, self.all_paths[g][1]))
        return out

    def basis_element_path(self, k: int) -> Tuple[int, Tuple[int, ...]]:
        return self.all_paths[self.basis[k]]

    def mult_basis(self, i: int, j: int) -> Tuple[Tuple[int, object], ...]:
        """Normal form of basis path i followed by basis path j; zero if
        they do not compose."""
        path_i = self.basis_element_path(i)
        source, arrows = self.basis_element_path(j)
        if source != self.path_target(path_i):
            return ()
        return self.path_class(path_i[0], path_i[1] + arrows)

    def path_class(self, source: int, arrows: Tuple[int, ...]) -> Tuple[Tuple[int, object], ...]:
        """Normal form of an arbitrary path, zero if length >= N."""
        if len(arrows) >= self.nilpotency:
            return ()
        return self.normal_form[self.path_index[(source, arrows)]]

    def unit_vector(self) -> list:
        field = self.field
        out = [field.zero()] * self.dim
        for v in range(self.n_vertices):
            out[self.idempotent[v]] = field.one()
        return out

    def check_associativity(self) -> bool:
        """(ab)c == a(bc) for all basis triples; used by the test suite."""
        field = self.field
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.mult_basis(i, j)
                for k in range(self.dim):
                    jk = self.mult_basis(j, k)
                    left = [field.zero()] * self.dim
                    for m, c in ij:
                        for t, c2 in self.mult_basis(m, k):
                            left[t] = field.add(left[t], field.mul(c, c2))
                    right = [field.zero()] * self.dim
                    for m, c in jk:
                        for t, c2 in self.mult_basis(i, m):
                            right[t] = field.add(right[t], field.mul(c, c2))
                    if left != right:
                        return False
        return True

    def opposite(self) -> "Algebra":
        """The opposite algebra; each arrow keeps its name, reversed."""
        if self._opposite is None:
            op_rels = tuple(
                tuple((c, tuple(reversed(p))) for c, p in rel)
                for rel in self.defining_relations
            )
            op = Algebra(
                self.quiver.opposite(),
                self.field,
                self.nilpotency,
                op_rels,
                label=self.label + ".op" if self.label else "",
            )
            op._opposite = self
            self._opposite = op
        return self._opposite

    def __repr__(self) -> str:
        tag = self.label or "algebra"
        return (
            f"Algebra({tag}: {self.n_vertices} vertices, "
            f"{len(self.quiver.arrows)} arrows, dim {self.dim} over "
            f"{self.field.name})"
        )


def build_algebra(spec: AlgebraSpec, *, label: str = "") -> Algebra:
    """Build the bound quiver algebra a spec presents."""
    spec.validate()
    return Algebra(
        spec.quiver, spec.field, spec.nilpotency, spec.relations, label=label
    )
