"""Two-term simple-minded collections: construction from support pairs,
axiom checking, left mutation, and agreement with the brick labels."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taumut import IsoRegistry, modules, smc
from taumut.errors import (
    ApproximationDichotomyError,
    IncompleteExplorationError,
    MutationError,
    SelfExtensionError,
    TaumutError,
)
from taumut.grothendieck import check_duality, grothendieck_data
from taumut.linalg import PrimeField
from taumut.presets import build_preset
from taumut.smc import (
    TwoTermSMC,
    check_label_coincidence,
    check_silting_table,
    check_smc_axioms,
    paired_columns,
    smc_left_mutate,
    smc_of_vertex,
)
from taumut.tautilt import ExchangeQuiver, explore

from conftest import A3_PAIRS, A3_SMC, DUAL_ROUTE, certified, collections_of, vertex_by_summands


def _norm(sig):
    return tuple(sorted(tuple(d) for d in sig))


def _expected(name):
    d0, d1 = A3_SMC[name]
    return (_norm(d0), _norm(d1))


def test_smc_of_initial_and_zero_pairs(a3_quiver):
    init = certified(a3_quiver, 0)
    assert init.signature() == (
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
        (),
    )
    zero_idx = vertex_by_summands(a3_quiver, [])
    final = certified(a3_quiver, zero_idx)
    assert final.signature() == (
        (),
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    )


def test_smc_matches_frozen_collections(a3_quiver):
    for name, dims in A3_PAIRS.items():
        i = vertex_by_summands(a3_quiver, dims)
        assert certified(a3_quiver, i).signature() == _expected(name), name


def test_axioms_hold_at_every_a2_vertex(a2_quiver):
    for i in range(a2_quiver.n_vertices):
        report = check_smc_axioms(smc_of_vertex(a2_quiver, i))
        assert report.ok, report.violations


def test_axiom_checker_rejects_wrong_cardinality(a3_quiver):
    x = smc_of_vertex(a3_quiver, 0)
    broken = TwoTermSMC(x.registry, x.degree0[:2], ())
    report = check_smc_axioms(broken)
    assert not report.ok
    assert any("cardinality" in v for v in report.violations)


def test_axiom_checker_rejects_hom_between_parts(a3_quiver):
    reg = a3_quiver.registry
    # P1 and S1 sit in one Hom chain: Hom(P1, S1) != 0
    p1 = reg.projective_ids[0]
    s1 = vertex_by_summands(a3_quiver, [(1, 0, 0)])
    s1_id = a3_quiver.pairs[s1].summand_ids[0]
    s3_id = reg.projective_ids[2]
    broken = TwoTermSMC(reg, (p1, s1_id, s3_id), ())
    report = check_smc_axioms(broken)
    assert not report.ok


def _ids_by_dims(reg):
    return {reg.module(i).dims: i for i in range(reg.count())}


def test_axiom_checker_names_each_violation(a3_quiver, preproj_quiver):
    reg = a3_quiver.registry
    ids = _ids_by_dims(reg)
    s1, s2, s3, m12 = (ids[d] for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)))
    cases = [
        ((s1, m12, s3), (), "Hom inside one degree: (1, 1, 0) -> (1, 0, 0)"),
        ((m12, s3), (s1,), "Hom across degrees: (1, 1, 0) -> (1, 0, 0)"),
        ((s1, s3), (s2,), "Ext1 across degrees: (1, 0, 0) -> (0, 1, 0)"),
    ]
    for degree0, shifted, violation in cases:
        report = check_smc_axioms(TwoTermSMC(reg, degree0, shifted))
        assert report.violations == [violation]
    # the middle projective of preproj-a:3 has End of dimension 2
    reg = preproj_quiver.registry
    p2 = reg.projective_ids[1]
    s1, s3 = (_ids_by_dims(reg)[d] for d in ((1, 0, 0), (0, 0, 1)))
    report = check_smc_axioms(TwoTermSMC(reg, (p2,), (s1, s3)))
    assert report.violations == ["element (1, 2, 1) is not a brick"]


def test_paired_columns_structure(a3_quiver):
    n = a3_quiver.algebra.n_vertices
    for i, pair in enumerate(a3_quiver.pairs):
        cols = paired_columns(a3_quiver, i)
        assert len(cols) == n
        x = smc_of_vertex(a3_quiver, i)
        plus = sorted(c.brick_id for c in cols if c.sign > 0)
        minus = sorted(c.brick_id for c in cols if c.sign < 0)
        assert tuple(plus) == x.degree0
        assert tuple(minus) == x.degree_minus1
        for c in cols:
            assert c.kind in ("summand", "support")
            assert a3_quiver.registry.is_brick_id(c.brick_id)
        support_cols = [c for c in cols if c.kind == "support"]
        assert len(support_cols) == len(pair.support_complement)
        assert all(c.sign < 0 for c in support_cols)


@pytest.mark.parametrize(
    "fault, i, violation",
    [
        # the immutable simple S_1, shifted at column 2 of vertex 2
        ("tau_hom_dim", 2, "Hom(P(1, 0, 0), (0, 1, 0)[1]) = 0, not 1"),
        ("hom_dim", 2, "Hom(P(1, 1, 1), (1, 1, 0)) = 0, not 1"),
        # the brick shifted at vertex 1's missing vertex 0, read as 0 there
        ("dims", 1, "Hom(P_0[1], (0, 0, 0)[1]) = 0, not 1"),
    ],
    ids=["tau_hom_dim", "hom_dim", "dims"],
)
def test_a_column_that_does_not_pair_fails_the_table_diagonal(a3_quiver, monkeypatch, fault, i, violation):
    # paired_columns checks only the shape of the pairing.  That each brick
    # is nonzero against its column is a diagonal entry of the Koenig-Yang
    # table, which names the first such entry.  G and C read g-vectors and
    # dimension vectors, not Hom, so only the dims fault breaks the duality.
    reg = a3_quiver.registry
    if fault == "dims":
        from types import SimpleNamespace

        brick = paired_columns(a3_quiver, i)[2].brick_id
        real = reg.module
        monkeypatch.setattr(reg, "module", lambda j: SimpleNamespace(dims=(0, 0, 0)) if j == brick else real(j))
    else:
        monkeypatch.setattr(IsoRegistry, fault, lambda self, a, b: 0)
    x = smc_of_vertex(a3_quiver, i)
    assert check_silting_table(a3_quiver.pairs[i], x).violations[0] == violation
    assert check_duality(grothendieck_data(a3_quiver.pairs[i], x))["ok"] is (fault != "dims")


def test_labels_on_the_wrong_columns_fail_the_table_and_the_duality(a3_quiver):
    # the labels of the arrows 2 -> 6 and 2 -> 7 swapped: the pairing keeps
    # its shape, so paired_columns returns, but each degree-0 brick sits at
    # the other's column
    q = a3_quiver
    assert [a[:2] for a in q.out_arrows(2)] == [(2, 6), (2, 7)]
    (_, _, l6), (_, _, l7) = q.out_arrows(2)
    swap = {(2, 6): l7, (2, 7): l6}
    arrows = [(s, t, swap.get((s, t), lab)) for s, t, lab in q.arrows]
    swapped = ExchangeQuiver(q.registry, q.pairs, arrows, True, None, q.depths)
    x = smc_of_vertex(swapped, 2)
    assert x.key == smc_of_vertex(q, 2).key
    assert not check_silting_table(q.pairs[2], x).ok
    assert not check_duality(grothendieck_data(q.pairs[2], x))["ok"]


def test_mutation_follows_every_label(a3_quiver):
    for s, t, lab in a3_quiver.arrows:
        x = smc_of_vertex(a3_quiver, s)
        y = smc_of_vertex(a3_quiver, t)
        assert smc_left_mutate(x, lab).key == y.key


def test_mutation_exercises_the_injective_branch(a3_quiver):
    # mutating ({M12}, {M123, S2}[1]) at M12: S2 embeds into M12, and the
    # cokernel S1 must land in degree 0
    x = smc_of_vertex(a3_quiver, vertex_by_summands(a3_quiver, [(1, 1, 0), (1, 0, 0)]))
    brick = next(i for i in x.degree0 if a3_quiver.registry.module(i).dims == (1, 1, 0))
    y = smc_left_mutate(x, brick)
    assert y.signature() == (
        ((1, 0, 0),),
        ((0, 0, 1), (1, 1, 0)),
    )


def test_mutation_at_a_module_outside_the_collection(a3_quiver):
    x = smc_of_vertex(a3_quiver, 0)
    outsider = a3_quiver.registry.projective_ids[0]
    with pytest.raises(MutationError):
        smc_left_mutate(x, outsider)


def test_mutation_at_an_element_whose_end_is_not_k_is_refused(monkeypatch):
    # The projective at the middle vertex of preproj-a:3 has dim End 2, so
    # no two-term collection holds it; one built by hand is refused before
    # any Ext^1 or element is built.
    reg = IsoRegistry(build_preset("preproj-a:3"))
    p1 = reg.projective_ids[1]
    x = TwoTermSMC(reg, reg.projective_ids, [])

    def refuse(*args):
        raise AssertionError("an element was mutated")

    monkeypatch.setattr(IsoRegistry, "ext1_dim", refuse)
    monkeypatch.setattr(smc, "_mutate_element", refuse)
    with pytest.raises(MutationError) as err:
        smc_left_mutate(x, p1)
    assert str(err.value) == "mutation brick with dims [1, 2, 1] has dim End 2, not 1"


def test_mutation_guard_on_self_extension():
    # one loop with square zero: the unique brick extends itself
    q = explore(IsoRegistry(build_preset("nakayama:cyclic:1:2")))
    assert (q.n_vertices, q.n_arrows) == (2, 1)
    x = smc_of_vertex(q, 0)
    brick = q.arrows[0][2]
    with pytest.raises(SelfExtensionError):
        smc_left_mutate(x, brick)
    report = check_label_coincidence(q, collections_of(q))
    assert report["ok"]
    assert report["checked"] == 0
    assert len(report["skipped"]) == 1


def test_label_coincidence_on_the_whole_a3_quiver(a3_quiver):
    report = check_label_coincidence(a3_quiver, collections_of(a3_quiver))
    assert report["ok"], report["failures"]
    assert report["checked"] == 21
    assert report["skipped"] == []


@pytest.mark.parametrize(
    "preset,checked,bases",
    [("nakayama:cyclic:4:4", 140, 24), ("a-path:4", 84, 10), ("preproj-a:3", 36, 12)],
)
def test_label_coincidence_reads_the_collections_off_the_quiver(
    preset, checked, bases, monkeypatch
):
    # Asai's labels give each collection, so no translate, injective,
    # socle or nu f is built; Ext^1 bases are built only for universal
    # extensions, once per element and brick.
    q = explore(IsoRegistry(build_preset(preset)))

    def refuse(*args, **kwargs):
        raise AssertionError("the check took the dual route")

    for name in DUAL_ROUTE:
        monkeypatch.setattr(modules, name, refuse)
    calls = []
    real = smc.ext1_basis

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(smc, "ext1_basis", counted)
    report = check_label_coincidence(q, collections_of(q))
    assert (report["checked"], report["skipped"], report["failures"]) == (checked, [], [])
    assert len(calls) == bases


@pytest.mark.parametrize("preset,bases", [("a-path:4", 10), ("preproj-a:3", 12)])
def test_an_ext1_basis_reuses_the_hom_space_of_its_dimension(preset, bases, monkeypatch):
    # IsoRegistry.ext1_dim keeps its Hom(Omega M, S0) basis where Ext^1 != 0,
    # and the universal extension picks its cocycles from it, so no Hom
    # space is built inside ext1_basis; no basis is kept where Ext^1 = 0.
    q = explore(IsoRegistry(build_preset(preset)))
    reg = q.registry
    inside, built = [], []
    real_hom_basis, real_ext1_basis = modules.hom_basis, smc.ext1_basis

    def hom_basis(M, N):
        built.append(bool(inside))
        return real_hom_basis(M, N)

    def ext1_basis(*args):
        inside.append(True)
        try:
            return real_ext1_basis(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(modules, "hom_basis", hom_basis)
    monkeypatch.setattr(smc, "ext1_basis", ext1_basis)
    assert check_label_coincidence(q, collections_of(q))["ok"]
    assert built and not any(built)
    assert len(reg.omega_homs) == bases
    assert all(reg.ext1_dim(i, j) for i, j in reg.omega_homs)


@pytest.mark.parametrize(
    "preset,built", [("nakayama:cyclic:4:4", 72), ("a-path:4", 30), ("preproj-a:3", 36)]
)
def test_each_element_mutation_is_built_once(preset, built, monkeypatch):
    # An element mutation builds an Ext^1 basis (degree 0) or a left
    # approximation (degree -1) once per (element, brick, degree): on
    # nakayama:cyclic:4:4, 24 + 48 builds serve 180 element mutations.
    q = explore(IsoRegistry(build_preset(preset)))
    calls = []
    real_ext1, real_approx = smc.ext1_basis, IsoRegistry.left_approximation

    def ext1_counted(*args):
        calls.append("ext1")
        return real_ext1(*args)

    def approx_counted(self, *args):
        calls.append("approximation")
        return real_approx(self, *args)

    monkeypatch.setattr(smc, "ext1_basis", ext1_counted)
    monkeypatch.setattr(IsoRegistry, "left_approximation", approx_counted)
    assert check_label_coincidence(q, collections_of(q))["ok"]
    assert len(calls) == built
    calls.clear()
    assert check_label_coincidence(q, collections_of(q))["ok"]
    assert calls == []


def _a3_arrow(s, t, label):
    """A fresh a-path:3 quiver (so no element mutation is cached yet), the
    collection at s and the label of the arrow s -> t."""
    q = explore(IsoRegistry(build_preset("a-path:3")))
    (lab,) = [lab for a, b, lab in q.arrows if (a, b) == (s, t)]
    assert q.registry.module(lab).dims == label
    return q.registry, smc_of_vertex(q, s), lab


def test_an_approximation_that_is_neither_mono_nor_epi_names_its_element(monkeypatch):
    _, x, lab = _a3_arrow(2, 6, (1, 1, 0))
    real = IsoRegistry.left_approximation

    def zero(self, i, ids):
        f = real(self, i, ids)
        return modules.zero_hom(f.source, f.target)

    monkeypatch.setattr(IsoRegistry, "left_approximation", zero)
    with pytest.raises(ApproximationDichotomyError) as err:
        smc_left_mutate(x, lab)
    assert str(err.value) == (
        "mutating the element with dims [0, 1, 0] in degree -1 at the brick "
        "with dims [1, 1, 0]: universal map is neither injective nor surjective"
    )


def test_a_mutation_that_breaks_the_axioms_fails_as_a_mismatch(monkeypatch):
    # every element kept in place: S1 still extends S2, now shifted.  The
    # mutation returns the broken collection unchecked, and the coincidence
    # check reports every arrow whose mutated collection breaks the axioms.
    reg, x, lab = _a3_arrow(0, 2, (0, 1, 0))
    monkeypatch.setattr(smc, "_mutate_element", lambda reg, sid, s0, degree: (degree, sid))
    report = check_smc_axioms(smc_left_mutate(x, lab))
    assert report.violations == ["Ext1 across degrees: (1, 0, 0) -> (0, 1, 0)"]
    q = explore(IsoRegistry(build_preset("a-path:3")))
    collections = collections_of(q)
    broken = {
        (s, t, q.registry.module(lab).dims)
        for s, t, lab in q.arrows
        if not check_smc_axioms(smc_left_mutate(collections[s], lab)).ok
    }
    failures = check_label_coincidence(q, collections)["failures"]
    assert (0, 2, (0, 1, 0)) in broken and broken <= set(failures)


@pytest.mark.parametrize("read", [paired_columns, smc_of_vertex], ids=lambda f: f.__name__)
def test_reading_a_vertex_off_its_arrows_needs_a_complete_quiver(read):
    q = explore(IsoRegistry(build_preset("a-path:3")), max_depth=2)
    assert not q.complete
    with pytest.raises(IncompleteExplorationError):
        read(q, 0)


def test_a_column_that_no_arrow_pairs_with_names_the_pair_and_the_column(a3_quiver):
    # Dropping the arrow 0 -> 1 of a-path:3 (it mutates P1 away, and the
    # cokernel is zero) leaves P1's column at vertex 0 and the new missing
    # vertex 0 at vertex 1 without a label.
    q = a3_quiver
    assert q.arrows[0][:2] == (0, 1)
    dropped = ExchangeQuiver(q.registry, q.pairs, q.arrows[1:], True, None, q.depths)
    with pytest.raises(TaumutError) as err:
        paired_columns(dropped, 0)
    assert str(err.value) == (
        "column 0 of the pair with summand dims [[1, 1, 1], [0, 1, 1], [0, 0, 1]] "
        "and missing vertices []: no arrow in or out pairs with this column"
    )
    with pytest.raises(TaumutError) as err:
        smc_of_vertex(dropped, 1)
    assert str(err.value) == (
        "column 2 of the pair with summand dims [[0, 1, 1], [0, 0, 1]] "
        "and missing vertices [0]: no arrow in or out pairs with this column"
    )
    # the same arrow twice gives one column two labels
    doubled = ExchangeQuiver(q.registry, q.pairs, q.arrows + q.arrows[:1], True, None, q.depths)
    with pytest.raises(TaumutError, match="the arrow 0 -> 1 does not exchange a column of its own"):
        paired_columns(doubled, 0)


def test_label_coincidence_over_a_prime_field():
    q = explore(IsoRegistry(build_preset("a-path:2", PrimeField(5))))
    report = check_label_coincidence(q, collections_of(q))
    assert report["ok"] and report["checked"] == 5


def test_smc_keys_are_all_distinct(a3_quiver):
    keys = {smc_of_vertex(a3_quiver, i).key for i in range(a3_quiver.n_vertices)}
    assert len(keys) == 14


@settings(derandomize=True, max_examples=24, deadline=None)
@given(st.integers(0, 23))
def test_axioms_on_preprojective_vertices(preproj_quiver, vertex):
    i = vertex % preproj_quiver.n_vertices
    report = check_smc_axioms(smc_of_vertex(preproj_quiver, i))
    assert report.ok, report.violations
