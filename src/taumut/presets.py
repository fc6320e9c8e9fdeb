"""Named algebra presets so every fixture is reachable from the command
line without hand-writing a file."""

from __future__ import annotations

from typing import Dict, Union

from .algebra import Algebra, AlgebraSpec, Arrow, Quiver, build_algebra, normalize_relation
from .errors import SpecError
from .linalg import QQ, Field
from .nakayama import NakayamaShape, build_nakayama, make_nakayama

PRESET_HELP: Dict[str, str] = {
    "a-path:<n>": "linearly oriented A_n path algebra",
    "nakayama:linear:<n>:<l>": "A_{n,l}, paths of length l vanish",
    "nakayama:cyclic:<n>:<l>": "B_{n,l}, cyclic with paths of length l vanishing",
    "preproj-a:<n>": "preprojective algebra of A_n (n <= 4)",
    "msex": "three vertices, parallel arrows alpha,beta: 1->2, gamma: 2->3, "
    "relation alpha*gamma = 0",
    "a3-figure": "alias of a-path:3",
}


def _preprojective_a(n: int, field: Field) -> AlgebraSpec:
    if not 1 <= n <= 4:
        raise SpecError("preproj-a supports 1 <= n <= 4")
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = []
    for i in range(1, n):
        arrows.append(Arrow(f"a{i}", str(i), str(i + 1)))
        arrows.append(Arrow(f"b{i}", str(i + 1), str(i)))
    quiver = Quiver(vertices, tuple(arrows))
    relations = []
    for i in range(1, n + 1):
        # mesh at i: forward-then-back cycle minus back-then-forward cycle
        terms = []
        if i < n:
            terms.append((1, (f"a{i}", f"b{i}")))
        if i > 1:
            terms.append((-1, (f"b{i-1}", f"a{i-1}")))
        if terms:
            relations.append(normalize_relation(quiver, terms))
    return AlgebraSpec(quiver, tuple(relations), max(2, 2 * n - 1), field)


def _msex(field: Field) -> AlgebraSpec:
    quiver = Quiver(
        ("1", "2", "3"),
        (
            Arrow("alpha", "1", "2"),
            Arrow("beta", "1", "2"),
            Arrow("gamma", "2", "3"),
        ),
    )
    relations = (normalize_relation(quiver, [(1, ("alpha", "gamma"))]),)
    return AlgebraSpec(quiver, relations, 3, field)


def _preset(name: str, field: Field) -> Union[NakayamaShape, AlgebraSpec]:
    """A `nakayama:` preset's shape, any other preset's spec."""
    parts = name.split(":")
    kind = parts[0]
    try:
        if kind == "a-path" and len(parts) == 2:
            return NakayamaShape("linear", int(parts[1]), int(parts[1]))
        if kind == "a3-figure" and len(parts) == 1:
            return NakayamaShape("linear", 3, 3)
        if kind == "nakayama" and len(parts) == 4:
            return NakayamaShape(parts[1], int(parts[2]), int(parts[3]))
        if kind == "preproj-a" and len(parts) == 2:
            return _preprojective_a(int(parts[1]), field)
        if kind == "msex" and len(parts) == 1:
            return _msex(field)
    except ValueError:
        raise SpecError(f"bad numeric parameter in preset {name!r}") from None
    raise SpecError(
        f"unknown preset {name!r}; available: " + ", ".join(sorted(PRESET_HELP))
    )


def preset_spec(name: str, field: Field = QQ) -> AlgebraSpec:
    found = _preset(name, field)
    return make_nakayama(found, field) if isinstance(found, NakayamaShape) else found


def build_preset(name: str, field: Field = QQ) -> Algebra:
    """The preset's algebra, labelled with its canonical name."""
    found = _preset(name, field)
    if isinstance(found, NakayamaShape):
        return build_nakayama(found, field)
    return build_algebra(found, label=name)
