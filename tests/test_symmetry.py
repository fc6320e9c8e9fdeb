"""Automorphisms of the bound quiver, the equivariance of the exchange
quiver under them, and verification by orbits."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from taumut import AlgebraSpec, IsoRegistry, build_algebra, explore
from taumut.cli import main
from taumut.modules import Module, projective_module
from taumut.presets import build_preset, preset_spec
from taumut.symmetry import _keeps_the_ideal, _vertex_maps, automorphisms, orbit_representatives
from taumut.tautilt import ExchangeQuiver

from conftest import reference_indec_iso

GOLDEN = Path(__file__).resolve().parent / "golden"


def relabelled(preset: str, seed: int):
    """The preset as an algebra file would give it, with its vertices
    shuffled and renamed and its arrows shuffled; it names no preset."""
    data = preset_spec(preset).to_json_dict()
    rng = random.Random(seed)
    order = list(data["vertices"])
    rng.shuffle(order)
    rename = {v: f"x{k}" for v, k in zip(order, rng.sample(range(100, 1000), len(order)))}
    arrows = [dict(a, source=rename[a["source"]], target=rename[a["target"]]) for a in data["arrows"]]
    rng.shuffle(arrows)
    spec = dict(data, vertices=[rename[v] for v in order], arrows=arrows)
    return build_algebra(AlgebraSpec.from_json_dict(spec))


def _order(perm) -> int:
    k, power = 1, list(perm)
    while power != list(range(len(perm))):
        power = [perm[v] for v in power]
        k += 1
    return k


def _is_automorphism(algebra, sigma) -> bool:
    """Arrows go to arrows between the images of their ends, and the twist
    of each projective passes the checked Module constructor."""
    quiver = algebra.quiver
    vidx = quiver.vertex_index
    for a, image in enumerate(sigma.arrows):
        src, tgt = quiver.arrows[a], quiver.arrows[image]
        if (sigma.vertices[vidx[src.source]], sigma.vertices[vidx[src.target]]) != (
            vidx[tgt.source], vidx[tgt.target]
        ):
            return False
    for v in range(algebra.n_vertices):
        T = sigma.twist(projective_module(algebra, v))
        Module(algebra, T.dims, T.mats)  # raises unless T satisfies the relations
    return True


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_search_finds_the_rotation_of_a_cyclic_nakayama_algebra(n):
    algebra = build_preset(f"nakayama:cyclic:{n}:{n}")
    (sigma,) = automorphisms(algebra)
    assert sigma.vertices == tuple((v + 1) % n for v in range(n))
    assert _order(sigma.vertices) == n
    assert _is_automorphism(algebra, sigma)


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_the_search_finds_a_rotation_of_a_relabelled_cyclic_algebra(seed):
    algebra = relabelled("nakayama:cyclic:4:4", seed)
    # the rotation by two vertices may come first, and it goes once a
    # rotation by one reaches every image of vertex 0
    (sigma,) = automorphisms(algebra)
    assert _order(sigma.vertices) == 4 and _is_automorphism(algebra, sigma)


def test_a_generator_that_the_others_make_redundant_is_dropped():
    # In the stored relabelled nakayama:cyclic:4:4, the images of vertex 0
    # in index order find the rotation by two, (1, 0, 3, 2), before the
    # rotation by one, (2, 3, 1, 0), whose square it is; only the latter is
    # kept, so verify runs one equivariance pass.
    algebra = build_algebra(AlgebraSpec.load(str(GOLDEN / "cyclic44-relabelled.json")))
    assert [sigma.vertices for sigma in automorphisms(algebra)] == [(2, 3, 1, 0)]


@pytest.mark.parametrize("n", [3, 4])
def test_the_search_finds_the_flip_of_a_preprojective_algebra(n):
    algebra = build_preset(f"preproj-a:{n}")
    (sigma,) = automorphisms(algebra)
    assert sigma.vertices == tuple(reversed(range(n)))
    arrows = algebra.quiver.arrows
    names = {arrows[a].name: arrows[image].name for a, image in enumerate(sigma.arrows)}
    assert names == {
        **{f"a{i}": f"b{n - i}" for i in range(1, n)},
        **{f"b{i}": f"a{n - i}" for i in range(1, n)},
    }
    assert _is_automorphism(algebra, sigma)


def test_the_search_finds_the_flip_when_the_lowest_vertex_is_fixed():
    # the middle vertex of preproj-a:3 first: the flip fixes it, so it is
    # found among the automorphisms that fix vertex 0
    data = preset_spec("preproj-a:3").to_json_dict()
    algebra = build_algebra(AlgebraSpec.from_json_dict(dict(data, vertices=["2", "1", "3"])))
    (sigma,) = automorphisms(algebra)
    assert sigma.vertices == (0, 2, 1) and _is_automorphism(algebra, sigma)


@pytest.mark.parametrize("preset", ["a-path:5", "nakayama:linear:5:3", "msex", "nakayama:cyclic:1:3"])
def test_the_search_finds_nothing_on_a_rigid_algebra(preset):
    # msex has two arrows from 1 to 2, which no vertex permutation maps
    # one way; a one-vertex algebra has only the identity
    assert automorphisms(build_preset(preset)) == []


def _three_cycle(relations):
    return build_algebra(AlgebraSpec.from_json_dict({
        "vertices": ["1", "2", "3"],
        "arrows": [
            {"name": "a1", "source": "1", "target": "2"},
            {"name": "a2", "source": "2", "target": "3"},
            {"name": "a3", "source": "3", "target": "1"},
        ],
        "relations": [[{"coeff": "1", "path": list(path)}] for path in relations],
        "nilpotency": 4,
        "field": {"kind": "Q"},
    }))


def test_a_rotation_that_keeps_the_arrows_but_not_the_ideal_is_refused():
    # the rotation sends a1*a2 = 0 to a2*a3, which is not in the ideal
    one = _three_cycle([("a1", "a2")])
    assert list(_vertex_maps(3, {(0, 1), (1, 2), (2, 0)}, 0, 1)) == [[1, 2, 0]]
    assert automorphisms(one) == []
    # with all three paths of length 2 killed, it is kept
    every = _three_cycle([("a1", "a2"), ("a2", "a3"), ("a3", "a1")])
    (sigma,) = automorphisms(every)
    assert sigma.vertices == (1, 2, 0) and _is_automorphism(every, sigma)
    assert not _keeps_the_ideal(one, sigma)


@pytest.mark.parametrize(
    "preset,orbits",
    [
        ("nakayama:cyclic:2:2", 4),
        ("nakayama:cyclic:4:4", 20),
        ("nakayama:cyclic:3:5", 8),
        ("preproj-a:3", 16),
        ("preproj-a:4", 64),
        ("a-path:4", 42),
    ],
)
def test_the_orbits_of_the_exchange_quiver(preset, orbits):
    quiver = explore(IsoRegistry(build_preset(preset)))
    rep, faults = orbit_representatives(quiver)
    assert faults == []
    assert len(set(rep)) == orbits
    assert all(rep[rep[i]] == rep[i] <= i for i in range(quiver.n_vertices))


def test_the_orbits_agree_with_twisting_the_summands():
    # the image of each vertex found by twisting its summands and testing
    # isomorphism with a reference that shares no code with the registry,
    # not by g-vectors; each arrow's image is labelled by the twist of its
    # label, and the representatives are constant on the orbits
    quiver = explore(IsoRegistry(relabelled("nakayama:cyclic:3:3", 5)))
    reg = quiver.registry
    labels = {(s, t): lab for s, t, lab in quiver.arrows}
    rep, faults = orbit_representatives(quiver)
    assert (faults, len(set(rep))) == ([], 8)
    for sigma in automorphisms(quiver.algebra):

        def image(i):
            pair = quiver.pairs[i]
            twisted = [sigma.twist(reg.module(z)) for z in pair.summand_ids]
            missing = tuple(sorted(sigma.vertices[v] for v in pair.support_complement))
            (j,) = [
                j for j, other in enumerate(quiver.pairs)
                if other.support_complement == missing
                and all(any(reference_indec_iso(T, reg.module(z)) for z in other.summand_ids) for T in twisted)
            ]
            return j

        perm = [image(i) for i in range(quiver.n_vertices)]
        assert sorted(perm) == list(range(quiver.n_vertices))
        assert all(rep[perm[i]] == rep[i] for i in range(quiver.n_vertices))
        for s, t, lab in quiver.arrows:
            assert reference_indec_iso(sigma.twist(reg.module(lab)), reg.module(labels[(perm[s], perm[t])]))


def _after_exploring(monkeypatch, change):
    from taumut import cli

    real = cli.explore

    def explore_then_change(reg, max_depth=None):
        quiver = real(reg, max_depth)
        return change(quiver) or quiver

    monkeypatch.setattr(cli, "explore", explore_then_change)


def _fails(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, [line for line in out.splitlines() if line.startswith("FAIL:")]


def test_labels_swapped_within_an_orbit_break_equivariance(capsys, monkeypatch):
    # the three arrows out of (A, 0) of nakayama:cyclic:3:3 form one orbit
    # of the rotation; their labels are the three simples.  Swapping two of
    # them names the first arrow whose image is labelled by no twist of its
    # label, and the per-vertex checks then run at every vertex.
    def swap(q):
        (s, t, a), (s2, t2, b) = q.arrows[:2]
        assert s == s2 == 0 and a != b
        arrows = [(s, t, b), (s2, t2, a)] + q.arrows[2:]
        return ExchangeQuiver(q.registry, q.pairs, arrows, True, None, q.depths)

    _after_exploring(monkeypatch, swap)
    code, fails = _fails(capsys, ["verify", "--preset", "nakayama:cyclic:3:3"])
    assert code == 1
    assert fails[0] == (
        "FAIL: exchange quiver is not equivariant: the quiver automorphism "
        "1->2, 2->3, 3->1 sends arrow 0 -> 1 to 0 -> 2, whose label [1, 0, 0] "
        "is not the twist of the label [0, 1, 0]"
    )
    # unreduced: vertex 2 is in the orbit of vertex 1, and is checked too
    assert "FAIL: smc axioms fail at vertex 2: Ext1 across degrees: (0, 0, 1) -> (1, 0, 0)" in fails


def test_two_vertices_with_one_set_of_g_vectors_is_a_fault(capsys, monkeypatch):
    # g-vectors determine a pair (AIR Thm 5.5), and the vertex map needs it
    def flatten(quiver):
        reg = quiver.registry
        reg.g_vector = lambda i: (0, 0, 0)

    _after_exploring(monkeypatch, flatten)
    code, fails = _fails(capsys, ["verify", "--preset", "nakayama:cyclic:3:3"])
    assert code == 1
    assert fails[0] == "FAIL: vertices 0 and 1 have the same g-vectors"


def test_a_vertex_whose_twist_has_no_vertex_is_a_fault(capsys, monkeypatch):
    # one summand's g-vector moved: the twist of a pair that holds it has
    # g-vectors that no vertex has
    def shift(quiver):
        reg = quiver.registry
        real = reg.g_vector
        z = quiver.pairs[1].summand_ids[0]
        reg.g_vector = lambda i: tuple(g + 10 for g in real(i)) if i == z else real(i)

    _after_exploring(monkeypatch, shift)
    code, fails = _fails(capsys, ["verify", "--preset", "nakayama:cyclic:3:3"])
    assert code == 1
    assert fails[0].startswith(
        "FAIL: exchange quiver is not equivariant: the quiver automorphism "
        "1->2, 2->3, 3->1 sends vertex "
    )
    assert fails[0].endswith(" to g-vectors of no vertex")


def test_an_arrow_whose_image_is_missing_is_a_fault():
    # nakayama:cyclic:2:2 without its first arrow, 0 -> 1, into which the
    # swap sends 0 -> 2; verify itself then stops at vertex 0, whose
    # collection lacks a column (tests/test_cli.py)
    q = explore(IsoRegistry(build_preset("nakayama:cyclic:2:2")))
    cut = ExchangeQuiver(q.registry, q.pairs, q.arrows[1:], True, None, q.depths)
    rep, faults = orbit_representatives(cut)
    assert rep == list(range(6))
    assert faults == [
        "exchange quiver is not equivariant: the quiver automorphism 1->2, 2->1 "
        "sends arrow 0 -> 2 to 0 -> 1, which is not an arrow"
    ]
