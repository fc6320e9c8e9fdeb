"""Support pairs, left mutation, exploration, restriction, exports."""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taumut import IsoRegistry, modules, tautilt
from taumut.errors import (
    CompletionError,
    IncompleteExplorationError,
    IndeterminateDecompositionError,
    MutationError,
    NotTauRigidError,
    TaumutError,
    TauTiltingInfiniteError,
)
from taumut.algebra import AlgebraSpec, Arrow, Quiver, build_algebra
from taumut.linalg import QQ, PrimeField
from taumut.modules import injective_module, is_tau_rigid_pair, simple_module
from taumut.presets import build_preset
from taumut.tautilt import (
    SupportPair,
    bongartz_completion,
    explore,
    export_dot,
    export_records,
    initial_pair,
    kronecker_witness,
    left_mutate,
    mutable_positions,
    pair_is_tau_rigid,
    restrict_quiver,
    semibrick_of,
    semibrick_ids_of,
)

from conftest import (
    A3_ARROWS,
    A3_PAIRS,
    A3_S2_ARROWS,
    A3_S2_SINK,
    A3_S2_SOURCE,
    DUAL_ROUTE,
    arrow_dims,
    reference_left_mutate,
    reference_shifted_labels,
    relabeled_arrows,
    summand_dims,
    vertex_by_summands,
)


def test_initial_pair_is_the_regular_module(a3_quiver):
    init = a3_quiver.pairs[0]
    assert summand_dims(init) == ((0, 0, 1), (0, 1, 1), (1, 1, 1))
    assert init.support_complement == ()
    assert a3_quiver.depths[0] == 0


def test_pair_constructor_guards(a3_quiver):
    reg = a3_quiver.registry
    with pytest.raises(NotTauRigidError):
        SupportPair(reg, reg.projective_ids, (0,))  # |M| + |P| too big
    with pytest.raises(NotTauRigidError):
        SupportPair(reg, [0, 0, 1], ())  # repeated summand


def test_pair_rejects_bad_missing_vertices(a3_quiver):
    reg = a3_quiver.registry
    p1, p2, _ = reg.projective_ids
    with pytest.raises(NotTauRigidError, match="repeated missing vertex"):
        SupportPair(reg, [p1], [1, 1])
    with pytest.raises(NotTauRigidError, match="missing vertex 5"):
        SupportPair(reg, [p1, p2], [5])
    with pytest.raises(NotTauRigidError, match="missing vertex -1"):
        SupportPair(reg, [p1, p2], [-1])


def test_a2_exploration(a2_quiver):
    assert a2_quiver.complete
    assert a2_quiver.n_vertices == 5
    assert a2_quiver.n_arrows == 5
    # unique source (the regular pair) and sink (the zero pair)
    sources = [i for i in range(5) if not a2_quiver.in_arrows(i)]
    sinks = [i for i in range(5) if not a2_quiver.out_arrows(i)]
    assert sources == [0]
    assert len(sinks) == 1
    assert not a2_quiver.pairs[sinks[0]].summand_ids


def test_a3_matches_the_frozen_quiver(a3_quiver):
    assert (a3_quiver.n_vertices, a3_quiver.n_arrows) == (14, 21)
    assert arrow_dims(a3_quiver) == relabeled_arrows(
        a3_quiver, A3_PAIRS, A3_ARROWS
    )


def test_left_mutation_steps_follow_arrows(a3_quiver):
    init = a3_quiver.pairs[0]
    positions = mutable_positions(init)
    assert positions == list(range(3))  # every summand of the regular pair
    seen = set()
    for pos in positions:
        child, brick_id = left_mutate(init, pos)
        assert pair_in(a3_quiver, child)
        assert (0, a3_quiver.find(child), brick_id) in a3_quiver.arrows
        seen.add(a3_quiver.registry.module(brick_id).dims)
    assert seen == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def pair_in(quiver, pair) -> bool:
    return quiver.find(pair) is not None


def test_mutation_result_is_tau_rigid(a3_quiver):
    for pair in a3_quiver.pairs:
        for pos in mutable_positions(pair):
            child, _ = left_mutate(pair, pos)
            mods = child.modules()
            assert is_tau_rigid_pair(
                mods, child.support_complement, a3_quiver.algebra
            )


def test_mutable_positions_edge_cases(a3_quiver):
    # a one-summand pair still mutates (down to the zero pair), the zero
    # pair has nowhere left to go
    idx = vertex_by_summands(a3_quiver, [(0, 0, 1)])
    assert mutable_positions(a3_quiver.pairs[idx]) == [0]
    zero_idx = vertex_by_summands(a3_quiver, [])
    assert mutable_positions(a3_quiver.pairs[zero_idx]) == []


def test_semibrick_of_every_vertex_has_out_degree_size(a3_quiver):
    for i, pair in enumerate(a3_quiver.pairs):
        sb = semibrick_of(pair)
        assert len(sb) == len(a3_quiver.out_arrows(i))
        assert len(semibrick_ids_of(pair)) == len(sb)


def test_shifted_labels_of_the_regular_and_zero_pairs(a3_quiver):
    # (A, 0) has no shifted label; at (0, A) the dual pair is the three
    # injectives, whose socles are the simples.
    reg = a3_quiver.registry
    assert reference_shifted_labels(a3_quiver.pairs[0]) == {}
    zero = reference_shifted_labels(a3_quiver.pairs[vertex_by_summands(a3_quiver, [])])
    assert sorted(zero) == [("support", 0), ("support", 1), ("support", 2)]
    assert sorted(reg.module(s).dims for s in zero.values()) == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    ]


def test_depth_limited_exploration(a3_quiver):
    limited = explore(IsoRegistry(build_preset("a-path:3")), max_depth=1)
    assert not limited.complete
    assert limited.n_vertices == 4
    assert limited.n_arrows == 3
    assert limited.depths == [0, 1, 1, 1]
    # depth 3 still cannot close the 14-vertex quiver
    assert not explore(IsoRegistry(build_preset("a-path:3")), max_depth=3).complete


def test_restriction_to_s2(a3_quiver):
    s2 = a3_quiver.registry.register(simple_module(a3_quiver.algebra, 1))
    restriction = restrict_quiver(a3_quiver, [s2])
    assert restriction.ok, restriction.violations
    assert restriction.n_vertices == 5
    assert restriction.n_arrows == 5
    got = {
        (s, t, a3_quiver.registry.module(lab).dims)
        for s, t, lab in restriction.arrows
    }
    assert got == relabeled_arrows(a3_quiver, A3_PAIRS, A3_S2_ARROWS)
    assert restriction.source_index == vertex_by_summands(
        a3_quiver, A3_PAIRS[A3_S2_SOURCE]
    )
    assert restriction.sink_index == vertex_by_summands(
        a3_quiver, A3_PAIRS[A3_S2_SINK]
    )


def test_bongartz_completion_of_s2(a3_quiver):
    s2 = a3_quiver.registry.register(simple_module(a3_quiver.algebra, 1))
    pair = bongartz_completion(a3_quiver, [s2])
    assert summand_dims(pair) == ((0, 1, 0), (0, 1, 1), (1, 1, 1))
    assert pair.support_complement == ()


def test_restriction_requires_completeness():
    limited = explore(IsoRegistry(build_preset("a-path:3")), max_depth=1)
    s2 = limited.registry.register(simple_module(limited.algebra, 1))
    with pytest.raises(IncompleteExplorationError):
        restrict_quiver(limited, [s2])


def test_restriction_of_non_summand_fails(a3_quiver):
    # S1 + S2 is not tau-rigid, so no pair contains both
    a, reg = a3_quiver.algebra, a3_quiver.registry
    with pytest.raises(TaumutError):
        restrict_quiver(a3_quiver, [reg.register(simple_module(a, v)) for v in (0, 1)])


@pytest.mark.parametrize("bad", [-1, 99])
def test_restriction_to_an_unregistered_id_fails(a3_quiver, bad):
    with pytest.raises(TaumutError, match=r"registry holds ids 0\.\."):
        restrict_quiver(a3_quiver, [a3_quiver.registry.projective_ids[0], bad])


def test_export_records_shape(a3_quiver):
    rec = export_records(a3_quiver)
    assert rec["complete"] is True
    assert len(rec["vertices"]) == 14
    assert len(rec["arrows"]) == 21
    assert rec["vertices"][0]["summand_dim_vectors"] == [
        [1, 1, 1],
        [0, 1, 1],
        [0, 0, 1],
    ]
    json.dumps(rec)  # serializable


def test_export_dot_shape(a3_quiver):
    dot = export_dot(a3_quiver)
    assert dot.startswith("digraph")
    assert dot.count("->") == 21
    assert dot.count("label=") == 14 + 21
    assert '[label="0 | 1 2 3"]' in dot  # the empty pair, support all gone


def test_exploration_field_independent_counts():
    q5 = explore(IsoRegistry(build_preset("a-path:3", PrimeField(5))))
    assert (q5.n_vertices, q5.n_arrows) == (14, 21)


def test_unbounded_exploration_of_msex_raises_at_once():
    algebra = build_preset("msex")
    with pytest.raises(TauTiltingInfiniteError) as exc:
        explore(IsoRegistry(algebra))
    msg = str(exc.value)
    for word in ("alpha", "beta", "vertex 1", "vertex 2", "--max-depth"):
        assert word in msg
    bounded = explore(IsoRegistry(algebra), max_depth=2)
    assert (bounded.n_vertices, bounded.complete) == (9, False)


@pytest.mark.parametrize(
    "preset",
    [f"a-path:{n}" for n in range(1, 7)]
    + ["a3-figure"]
    + [f"preproj-a:{n}" for n in range(1, 5)]
    + [
        f"nakayama:{kind}:{n}:{l}"
        for kind in ("linear", "cyclic")
        for n in range(1, 5)
        for l in range(1, 5)
    ],
)
def test_no_kronecker_witness_on_tau_tilting_finite_presets(preset):
    assert kronecker_witness(build_preset(preset)) is None


def test_parallel_loops_are_no_kronecker_witness():
    # k<x, y>/(x, y)^2 is local, so its only support tau-tilting pairs are
    # (A, 0) and (0, A).
    quiver = Quiver(("1",), (Arrow("x", "1", "1"), Arrow("y", "1", "1")))
    algebra = build_algebra(AlgebraSpec(quiver, (), 2, QQ))
    assert kronecker_witness(algebra) is None
    assert explore(IsoRegistry(algebra)).n_vertices == 2


def test_initial_pair_holds_the_registry_projectives():
    reg = IsoRegistry(build_preset("a-path:2"))
    p = initial_pair(reg)
    assert (p.registry, p.summand_ids, p.support_complement) == (reg, tuple(reg.projective_ids), ())


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(0, 13), st.integers(0, 2))
def test_mutation_lands_inside_the_quiver(a3_quiver, vertex, pos):
    pair = a3_quiver.pairs[vertex]
    positions = mutable_positions(pair)
    if pos >= len(positions):
        return
    child, brick_id = left_mutate(pair, positions[pos])
    j = a3_quiver.find(child)
    assert j is not None
    assert (vertex, j, brick_id) in a3_quiver.arrows


# -- components built once per key, exchanges once per new summand ----------


def _counted(monkeypatch, calls, owner, name):
    real = getattr(owner, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize(
    "preset,field,depth,built,vertices,mutations,fell_back",
    [
        # before the caches: 330 approximations, 825 quotients, 485 iso tests;
        # before the face index: 129, 258, 119 and 330 mutations;
        # before the face completion: 80, 209, 96 and 131 mutations;
        # before the face bricks: 10, 139, 57, with tops at all 132 vertices;
        # before the exact index: 29 iso tests, and 10 again;
        # before the self-tops: 49 quotients
        ("a-path:5", PrimeField(32003), None, (10, 34, 0), 132, 10, 7),
        # before: 140 approximations, 364 quotients, 248 iso tests;
        # before the face index: 96, 224, 112 and 140 mutations;
        # before the face completion: 59, 187, 90 and 69 mutations;
        # before the face bricks: 12, 140, 72, with tops at all 70 vertices;
        # before the exact index: 47 iso tests, and 12 again;
        # before the one completion routine: 54 quotients;
        # before the self-tops: 52 quotients
        ("nakayama:cyclic:4:4", QQ, None, (12, 36, 6), 70, 12, 6),
        # before the face bricks: 22, 342, 314 and 38 iso tests again;
        # before the exact index: 174 iso tests, and 48 again;
        # before the one completion routine: 116 quotients, 63 iso tests;
        # before the self-tops: 68 quotients
        ("preproj-a:4", QQ, None, (22, 48, 53), 120, 22, 5),
        # before the exact index: 22 iso tests, and 7 again;
        # before the self-tops: 32 quotients
        ("nakayama:linear:5:3", QQ, None, (7, 20, 0), 98, 7, 4),
        # before the face bricks: 12, 64, 24;
        # before the exact index: 21 iso tests, and 12 again;
        # before the one completion routine: 49 quotients, 3 iso tests;
        # before the self-tops: 37 quotients
        ("msex", QQ, 6, (12, 22, 0), 27, 12, 5),
        ("msex", PrimeField(5), 6, (12, 22, 0), 27, 12, 5),
    ],
    ids=[
        "a-path:5-fp32003", "nakayama:cyclic:4:4-Q", "preproj-a:4-Q",
        "nakayama:linear:5:3-Q", "msex-depth6-Q", "msex-depth6-fp5",
    ],
)
def test_each_component_and_exchange_is_built_once(
    preset, field, depth, built, vertices, mutations, fell_back, monkeypatch
):
    # A top component is a quotient, built once per (summand, summands it
    # sees), unless the summand is a brick that sees none: then it is its
    # own top, with no quotient built. Every arrow's target, found or new,
    # is completed from its face, by a missing vertex or a known summand
    # where it has one, so the exchange (an approximation plus a cokernel,
    # a quotient) and the rigidity test of the pair it makes run once per
    # summand never seen before. Exploring never calls left_mutate, whose
    # checks hold by construction. Each arrow's label and direction are read off the known
    # bricks, so the top components are looked up once per summand met
    # (its brick) and once per vertex where some face has no known brick
    # (fell_back). A second exploration over the same registry builds no
    # top component but rebuilds each exchange once, and finds its
    # cokernel, an exact copy of a module met before, in the registry's
    # index of matrices with no iso test.
    calls = dict.fromkeys(("left_approximation", "quotient_by_rows", "_indec_iso"), 0)
    _counted(monkeypatch, calls, IsoRegistry, "left_approximation")
    _counted(monkeypatch, calls, modules, "quotient_by_rows")
    _counted(monkeypatch, calls, modules, "_indec_iso")
    mutating = dict.fromkeys(("left_mutate", "pair_is_tau_rigid", "pair_top_ids"), 0)
    _counted(monkeypatch, mutating, tautilt, "left_mutate")
    _counted(monkeypatch, mutating, tautilt, "pair_is_tau_rigid")
    _counted(monkeypatch, mutating, IsoRegistry, "pair_top_ids")
    reg = IsoRegistry(build_preset(preset, field))
    first = explore(reg, max_depth=depth)
    summands = {s for p in first.pairs for s in p.summand_ids}
    assert first.n_vertices == vertices
    assert tuple(calls.values()) == built
    assert tuple(mutating.values()) == (0, mutations, len(summands) + fell_back)
    assert mutations == len(summands) - len(reg.projective_ids)
    calls.update(dict.fromkeys(calls, 0))
    again = explore(reg, max_depth=depth)
    assert tuple(calls.values()) == (mutations, mutations, 0)
    assert (again.arrows, [p.key for p in again.pairs]) == (first.arrows, [p.key for p in first.pairs])


def test_a_face_with_two_known_bricks_is_refused(monkeypatch):
    # Over a-path:3 each projective is a brick, so at the root
    # (P_0 + P_1 + P_2, 0) the known bricks are the three projectives, and
    # W(P_i) holds those that vanish at i: W(P_0) = {P_1, P_2} and
    # W(P_1) = {P_2}.  The face that leaves out P_2 sees P_2 alone.  One
    # wrong bit, P_1 in W(P_1), gives that face a second brick.
    reg = IsoRegistry(build_preset("a-path:3"))
    p1 = reg.projective_ids[1]
    real = tautilt._FaceBricks.labels

    def perturbed(self, ids, supp):
        self.wmask[p1] |= 1 << p1
        return real(self, ids, supp)

    monkeypatch.setattr(tautilt._FaceBricks, "labels", perturbed)
    with pytest.raises(CompletionError) as err:
        explore(reg)
    assert str(err.value) == (
        "the almost-complete pair with summand dims [[1, 1, 1], [0, 1, 1]] and "
        "missing vertices [] has bricks with dims [[0, 1, 1], [0, 0, 1]] in its "
        "wide subcategory, which holds exactly one brick (Jasso reduction)"
    )


@pytest.mark.parametrize("kind", ["linear", "cyclic"])
@pytest.mark.parametrize("length", [1, 2, 3])
def test_one_vertex_explores_across_the_empty_face(kind, length):
    # With one vertex the root's only face is (0, 0), whose wide
    # subcategory is every module: all the known bricks, here the simple.
    q = explore(IsoRegistry(build_preset(f"nakayama:{kind}:1:{length}")))
    assert (q.n_vertices, q.n_arrows, q.complete) == (2, 1, True)
    assert [q.registry.module(lab).dims for _, _, lab in q.arrows] == [(1,)]


@pytest.mark.parametrize(
    "call,face_dims,missing,fault",
    [
        (2, [[1, 1, 1], [0, 0, 1]], [], "an arrow to itself"),
        (4, [[0, 0, 1]], [0], "more arrows than its 3 faces"),
    ],
    ids=["loop", "fourth-arrow"],
)
def test_a_face_with_a_third_completion_is_refused(call, face_dims, missing, fault, monkeypatch):
    # A completion that returns the key of the root (A, 0) sends a face's
    # arrow to a third pair, found in the index.  The root's second arrow,
    # across the face without P_1, then joins the root to itself.  The first
    # arrow out of vertex 1, (P_1 + P_2, {0}), across the face without P_1,
    # gives the root a fourth arrow, after one across each of its three faces.
    real = tautilt._complete_face
    faces = []

    def third(registry, face, x, label, masks=None):
        faces.append(face)
        if len(faces) == call:
            return initial_pair(registry).key
        return real(registry, face, x, label, masks)

    monkeypatch.setattr(tautilt, "_complete_face", third)
    reg = IsoRegistry(build_preset("a-path:3"))
    with pytest.raises(CompletionError) as err:
        explore(reg)
    assert str(err.value) == (
        f"the almost-complete pair with summand dims {face_dims} and missing "
        f"vertices {missing} gives vertex 0 {fault}, but a face has exactly two "
        "completions (Adachi-Iyama-Reiten, Thm 2.18)"
    )
    assert len(faces) == call
    assert [list(reg.module(u).dims) for u in faces[-1][0]] == face_dims


def _raise_once(monkeypatch, owner, name):
    real = getattr(owner, name)
    calls = []

    def once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise IndeterminateDecompositionError("the first registration fails")
        return real(*args)

    monkeypatch.setattr(owner, name, once)


def test_a_component_that_fails_to_register_is_built_again(monkeypatch):
    reg = IsoRegistry(build_preset("a-path:3"))
    ids = tuple(reg.projective_ids)
    _raise_once(monkeypatch, IsoRegistry, "register_brick")
    with pytest.raises(IndeterminateDecompositionError):
        reg.pair_top_ids(ids)
    assert reg.tops == {}
    tops = reg.pair_top_ids(ids)
    assert sorted(reg.module(t).dims for t in tops) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert len(reg.tops) == 3


def test_an_exchange_that_fails_to_register_is_built_again(monkeypatch):
    # At (A, 0) of a-path:3, a mutation whose cokernel is a new summand;
    # the cokernel is registered by theorem, with no decomposition
    pair = initial_pair(IsoRegistry(build_preset("a-path:3")))
    reg = pair.registry
    steps = [(pos, reference_left_mutate(pair, pos)) for pos in mutable_positions(pair)]
    pos, (want, label) = next(
        (pos, ref) for pos, ref in steps if len(ref[0].summand_ids) == len(pair.summand_ids)
    )
    _raise_once(monkeypatch, IsoRegistry, "register")
    with pytest.raises(IndeterminateDecompositionError):
        left_mutate(pair, pos)
    new, got = left_mutate(pair, pos)
    assert (new.key, got) == (want.key, label)


def test_a_non_rigid_pair_is_refused_before_anything_is_built(monkeypatch):
    # Over a-path:2, (S_0 + S_1, 0) has Hom(S_1, tau S_0) != 0, and neither
    # simple is generated by the other: only the rigidity test stops the
    # mutation.
    reg = IsoRegistry(build_preset("a-path:2"))
    pair = SupportPair(reg, [reg.register(simple_module(reg.algebra, v)) for v in (0, 1)], [])
    calls = dict.fromkeys(("left_approximation", "quotient_by_rows"), 0)
    _counted(monkeypatch, calls, IsoRegistry, "left_approximation")
    _counted(monkeypatch, calls, modules, "quotient_by_rows")
    with pytest.raises(MutationError, match="the pair is not tau-rigid"):
        left_mutate(pair, 0)
    assert calls == {"left_approximation": 0, "quotient_by_rows": 0}


@pytest.mark.parametrize("position", [-1, 3])
def test_a_position_with_no_summand_is_refused(position):
    pair = initial_pair(IsoRegistry(build_preset("a-path:3")))
    with pytest.raises(MutationError) as err:
        left_mutate(pair, position)
    assert str(err.value) == f"no summand at position {position}"


def test_a_summand_generated_by_the_others_is_refused(a3_quiver, monkeypatch):
    # A summand in Fac of the others has a zero top component, so it has no
    # label and no arrow out of its pair; no exchange is built for it.
    pair, position = next(
        (p, k)
        for p in a3_quiver.pairs
        for k in range(len(p.summand_ids))
        if k not in mutable_positions(p)
    )
    calls = {"left_approximation": 0}
    _counted(monkeypatch, calls, IsoRegistry, "left_approximation")
    with pytest.raises(MutationError) as err:
        left_mutate(pair, position)
    assert str(err.value) == f"summand at position {position} is generated by the others"
    assert calls == {"left_approximation": 0}


def test_a_face_missing_a_vertex_is_crossed_with_no_exchange(monkeypatch):
    # Over a-path:3, mutating P_0 away from (A, 0) leaves P_1 + P_2, which
    # vanishes at vertex 0: the other completion puts vertex 0 into the
    # support complement, and no approximation or cokernel is built.
    pair = initial_pair(IsoRegistry(build_preset("a-path:3")))
    calls = {"left_approximation": 0}
    _counted(monkeypatch, calls, IsoRegistry, "left_approximation")
    new, label = left_mutate(pair, 0)
    assert new.key == (pair.summand_ids[1:], (0,))
    assert pair.registry.module(label).dims == (1, 0, 0)
    assert calls == {"left_approximation": 0}


# (preset, verb, arguments after the preset): every verb on three small
# presets, and explore and verify on two larger ones.  No nonzero element
# of the radical of a-path:4 or nakayama:cyclic:3:3 is central, so
# quotient runs on preproj-a:3, by the central b1*a1, and on
# nakayama:cyclic:3:4, whose 3-cycles are central.
NO_DECOMPOSE_RUNS = [
    (preset, verb, [])
    for preset in ("preproj-a:4", "nakayama:cyclic:5:5")
    for verb in ("explore", "verify")
] + [
    (preset, verb, [])
    for preset in ("preproj-a:3", "nakayama:cyclic:3:3", "a-path:4")
    for verb in ("explore", "semibricks", "smc", "gvectors", "verify")
] + [
    ("preproj-a:3", "restrict", ["--summand", "1,2,1"]),
    ("nakayama:cyclic:3:3", "restrict", ["--summand", "1,0,0"]),
    ("a-path:4", "restrict", ["--summand", "0,1,1,0"]),
    ("preproj-a:3", "quotient", ["--generator", "b1*a1"]),
    ("nakayama:cyclic:3:4", "quotient", ["--generator", "a1*a2*a3"]),
]


@pytest.mark.parametrize(
    "preset,verb,extra", NO_DECOMPOSE_RUNS, ids=[f"{p}-{v}" for p, v, _ in NO_DECOMPOSE_RUNS]
)
def test_no_verb_decomposes(preset, verb, extra, monkeypatch, capsys):
    # A mutation cokernel is zero or one indecomposable (Adachi-Iyama-
    # Reiten, Thm 2.30), so it is registered plainly.  Top components are
    # bricks, registered with their dim End certified.  A module that
    # restrict fixes or that smc mutates at arrives as an id.  No verb
    # builds a translate, an injective or a socle component.
    from taumut import cli

    callers = {"register_brick": set(), "decompose": set()}

    def record(owner, name):
        real = getattr(owner, name)

        def recorded(*args):
            callers[name].add(sys._getframe(1).f_code.co_name)  # the immediate caller
            return real(*args)

        monkeypatch.setattr(owner, name, recorded)

    def refuse(*args, **kwargs):
        raise AssertionError("the verb took the dual route")

    record(IsoRegistry, "register_brick")
    record(modules, "decompose")
    for name in DUAL_ROUTE:
        monkeypatch.setattr(modules, name, refuse)
    assert cli.main([verb, "--preset", preset, *extra]) == 0
    capsys.readouterr()
    assert "pair_top_ids" in callers["register_brick"]
    assert "left_mutate" not in callers["register_brick"]
    assert callers["decompose"] == set()


def test_restrict_identifies_no_module_again(monkeypatch, capsys):
    # restrict passes the ids it matched, so restrict_quiver decomposes
    # nothing and runs no isomorphism test.
    from taumut import cli

    inside = []
    calls = dict.fromkeys(("decompose", "end_data", "_indec_iso"), 0)

    def counted(name):
        real = getattr(modules, name)

        def call(*args):
            calls[name] += bool(inside)
            return real(*args)

        return call

    def restrict(*args):
        inside.append(True)
        try:
            return tautilt.restrict_quiver(*args)
        finally:
            inside.pop()

    for name in calls:
        monkeypatch.setattr(modules, name, counted(name))
    monkeypatch.setattr(cli, "restrict_quiver", restrict)
    assert cli.main(["restrict", "--preset", "preproj-a:3", "--summand", "1,2,1"]) == 0
    capsys.readouterr()
    assert calls == {"decompose": 0, "end_data": 0, "_indec_iso": 0}


# -- new pairs completed from the face --------------------------------------


def _root_face(preset, position):
    """(A, 0) of a preset, and the face, removed summand and label of the
    arrow out of it at a position."""
    pair = initial_pair(IsoRegistry(build_preset(preset)))
    ids = pair.summand_ids
    label = pair.registry.pair_top_ids(ids)[position]
    return pair, (ids[:position] + ids[position + 1:], ()), ids[position], label


def _knowing(reg, summands):
    """The masks that explore keeps, once it has met these summands."""
    masks = tautilt._FaceBricks(reg)
    for z in summands:
        masks.add_summand(z)
    return masks


def test_a_face_missing_a_vertex_completes_with_a_shifted_projective():
    # Over a-path:3, P_1 + P_2 vanishes at vertex 0: mutating P_0 away
    # leaves the cokernel zero and puts vertex 0 into the support complement.
    pair, face, x, label = _root_face("a-path:3", 0)
    got = tautilt._complete_face(pair.registry, face, x, label, _knowing(pair.registry, pair.summand_ids))
    assert got == ((1, 2), (0,))
    assert got == left_mutate(pair, 0)[0].key


def test_an_unseen_new_summand_is_built_as_the_exchange(monkeypatch):
    # Mutating P_1 away gives P_0 / P_1 = S_0, which no pair has held yet,
    # so the face builds it as the cokernel of an approximation.
    pair, face, x, label = _root_face("a-path:3", 1)
    reg = pair.registry
    masks = _knowing(reg, pair.summand_ids)
    calls = {"left_approximation": 0}
    _counted(monkeypatch, calls, IsoRegistry, "left_approximation")
    new = SupportPair(reg, *tautilt._complete_face(reg, face, x, label, masks))
    assert calls == {"left_approximation": 1}
    assert (new, label) == left_mutate(pair, 1)
    (y,) = set(new.summand_ids) - set(pair.summand_ids)
    assert reg.module(y).dims == (1, 0, 0)
    # once S_0 is known, the same face completes with it and builds nothing
    masks.add_summand(y)
    assert tautilt._complete_face(reg, face, x, label, masks) == new.key
    assert calls == {"left_approximation": 2}


def test_a_zero_exchange_is_refused_with_the_face():
    # Over a-path:3, hand the completion X = P_0 inside U = A: the
    # approximation of P_0 into add(U) is the identity, so its cokernel is
    # zero, and U vanishes at no vertex.  No face of a support tau-tilting
    # pair gets here (Thm 2.18), so the error names the face.
    pair, _, _, label = _root_face("a-path:3", 0)
    ids = pair.summand_ids
    with pytest.raises(MutationError) as err:
        tautilt._complete_face(pair.registry, (ids, ()), ids[0], label)
    assert str(err.value) == (
        "the almost-complete pair with summand dims [[1, 1, 1], [0, 1, 1], "
        "[0, 0, 1]] and missing vertices [] has a zero exchange, so it has "
        "one completion, not two (Adachi-Iyama-Reiten, Thm 2.18)"
    )


def test_a_candidate_failing_the_pairing_costs_no_hom_space():
    # I_1 = (1, 1, 0) has g = e_0 - e_2, so <g(I_1), dim S_1> = 0: it cannot
    # be the new summand, and the completion refuses it before any Hom space
    # with I_1 as source or target is built; the exchange S_0 is built instead.
    pair, face, x, label = _root_face("a-path:3", 1)
    reg = pair.registry
    assert reg.module(label).dims == (0, 1, 0)
    i1 = reg.register(injective_module(reg.algebra, 1))
    assert (reg.module(i1).dims, reg.g_vector(i1)) == ((1, 1, 0), (1, 0, -1))
    masks = _knowing(reg, (*pair.summand_ids, i1))
    homs = set(reg._hom)
    got = tautilt._complete_face(reg, face, x, label, masks)
    assert got == left_mutate(pair, 1)[0].key
    assert i1 not in got[0]
    assert not [key for key in set(reg._hom) - homs if i1 in key]


def _scanned(reg, known, face, x, label):
    """The known summand that completes the face, by a scan of every known
    summand in id order, with no mask."""
    u_ids, supp = face
    for z in sorted(known):
        if z == x or z in u_ids or any(reg.module(z).dims[v] for v in supp):
            continue
        if reg.pairing(z, label) >= 0:
            continue
        if all(reg.tau_hom_dim(u, z) == 0 == reg.tau_hom_dim(z, u) for u in u_ids):
            return z
    return None


@pytest.mark.parametrize("preset", ["a-path:4", "preproj-a:3", "nakayama:cyclic:3:3"])
def test_every_arrow_completes_from_the_summands_of_its_quiver(preset):
    # With every summand known, each arrow's target is recognised from its
    # face, by a shifted projective or by a known summand, both of which
    # occur.  On every arrow, the masks pick the summand that a scan of all
    # known summands in id order picks, and some arrow has none to pick.
    q = explore(IsoRegistry(build_preset(preset)))
    reg = q.registry
    known = {s for p in q.pairs for s in p.summand_ids}
    masks = _knowing(reg, known)
    branches, picks = set(), []
    for s, t, lab in q.arrows:
        ids, supp = q.pairs[s].key
        (pos,) = [k for k, top in enumerate(reg.pair_top_ids(ids)) if top == lab]
        face = (ids[:pos] + ids[pos + 1:], supp)
        got = tautilt._complete_face(reg, face, ids[pos], lab, masks)
        assert got == q.pairs[t].key
        branches.add(got[1] == supp)
        picks.append(masks.completion(lab, ids[pos], *face))
        assert picks[-1] == _scanned(reg, known, face, ids[pos], lab)
    assert branches == {True, False}
    assert None in picks and len(set(picks)) > 2
