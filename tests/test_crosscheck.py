"""Each merged derivation against a second route to it.

The Ext^1 representatives and the registry's Ext^1 dimension (read from
its cached Hom space) are checked against the Ext^1 dimension formula,
the registry's Hom spaces and Ext^1 dimensions, zero by a support
certificate where it applies, against direct builds,
the shifted columns of the SMC read off the arrows in against the socle
components of the dual pair, the translates of the summands and the
injectives of the missing vertices, each column against that socle
component, and the exchange quiver's
adjacency lists against a scan of its arrows.  The End(M) structure constants read off
the free columns are checked against solved ones, and Hom(N, tau M) into
the uncached translate against the g-vector pairing, which needs no
translate (AIR Prop. 2.4), and pair rigidity read off that pairing against
the translate of the direct sum.  The registry's identification by a bijective
basis map is checked against the composite-outside-the-radical test, on
registered modules and on random changes of their bases; its lookup finds
an exact copy in its index of matrices with no iso test, a changed basis
by one iso test and then in the index, and no class for a sum of
simples.  Left mutation through the minimal approximation is checked
against mutation through the full Hom basis with a decomposed cokernel,
and into a brick whose End is a field of dimension two it picks one map
over that field, not one per line, and into a lone brick with End = k it
keeps the whole Hom basis, as the greedy pick does; the registry's cached top
components, each built once per (summand, summands it sees),
against that mutation and against the components over every Hom basis of
the pair.  Every arrow that explore reads off a shared face is checked
against left mutation, also on msex explored to depth 4 and 6.  Injectives and
nu f, derived from the opposite algebra's projectives, are checked against
direct constructions on the dual path basis; in_sub and tau^-1-rigidity,
derived by duality, against their own definitions; and explorations over
Q against explorations over several primes.  Each label lies in Fac of
its source's summands and not of its target's, kernels that keep their echelon
basis against the reduced left kernel, maps built without the commutation
check against that check, every matrix, module and map that a trusted
constructor builds under each verb against the public constructors'
checks, and the top components of each pair and the
socle components of its dual pair against the labels of its arrows out and in;
the collection read off the arrows must also pass the Koenig-Yang Hom
table, which must fail at a vertex whose arrow in has its label swapped,
or whose degree-0 label is swapped for one nonzero at a missing vertex,
and each entry of G^T C must be a signed difference of the table's entries.
The label and direction of each arrow, which explore reads off the known
bricks in each face's wide subcategory, are checked against the top
components of every pair, and the known bricks against the bricks of the
tau-rigid summands, one each.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from taumut import IsoRegistry, modules, smc, tautilt
from taumut.algebra import AlgebraSpec, Arrow, Quiver, build_algebra, normalize_relation
from taumut.errors import CharacteristicError, MutationError, NotABrickError
from taumut.grothendieck import grothendieck_data
from taumut.linalg import QQ, Mat, PrimeField, block_diag, hstack, kernel_basis, row_space
from taumut.modules import (
    Module,
    ModuleHom,
    _indec_iso,
    _projective_hom_block,
    ar_translate,
    ar_translate_inverse,
    cokernel,
    decompose,
    direct_sum,
    end_data,
    ext1_basis,
    ext1_dim,
    greedy_span_pick,
    hom_basis,
    hom_dim,
    in_fac,
    in_sub,
    injective_module,
    is_brick,
    is_tau_inverse_rigid,
    is_tau_rigid_pair,
    kernel,
    nakayama_functor_map,
    projective_module,
    simple_module,
)
from taumut.nakayama import uniserial_module
from taumut.presets import build_preset
from taumut.smc import (
    check_label_coincidence,
    check_silting_table,
    paired_columns,
    smc_left_mutate,
    smc_of_vertex,
)
from taumut.tautilt import (
    ExchangeQuiver,
    SupportPair,
    explore,
    export_records,
    left_mutate,
    mutable_positions,
    pair_is_tau_rigid,
    semibrick_ids_of,
)

from conftest import (
    collections_of,
    det,
    reference_components,
    reference_indec_iso,
    reference_injective,
    reference_kernel,
    reference_left_mutate,
    reference_nakayama_map,
    reference_shifted_labels,
    reference_smc_left_mutate,
    solve,
    solved_end_constants,
)
from test_modules import _quadratic_module

CASES = [
    (preset, field)
    for preset in ("nakayama:cyclic:3:3", "preproj-a:3")
    for field in (QQ, PrimeField(5))
]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def quiver(request):
    preset, field = request.param
    return explore(IsoRegistry(build_preset(preset, field)))


def test_ext1_basis_size_matches_ext1_dim(quiver):
    # the registry reads dim Hom(M, N) off its cached Hom space; ext1_dim
    # builds that space again
    reg = quiver.registry
    n = reg.count()
    dims = []
    for i in range(n):
        pres = reg.presentation(i)
        for j in range(n):
            M, N = reg.module(i), reg.module(j)
            reps, _ = ext1_basis(M, N, pres, hom_basis(pres.omega, N).basis)
            assert len(reps) == ext1_dim(M, N, pres) == reg.ext1_dim(i, j)
            dims.append(len(reps))
    assert max(dims) > 0


def test_registry_ext1_dim_matches_a_fresh_presentation(quiver):
    reg = quiver.registry
    n = reg.count()
    for i in range(n):
        for j in range(n):
            assert reg.ext1_dim(i, j) == ext1_dim(reg.module(i), reg.module(j))


CERTIFIED = [
    (preset, field)
    for preset in ("a-path:4", "preproj-a:3", "nakayama:cyclic:4:4", "nakayama:linear:5:3")
    for field in (QQ, PrimeField(5))
]


@pytest.mark.parametrize("preset,field", CERTIFIED, ids=str)
def test_zero_hom_certificates_match_a_direct_build(preset, field, monkeypatch):
    # A fresh registry of the explored classes, same ids, reads every Hom
    # space and Ext^1: a space that the support certificate stores unbuilt
    # must be zero by a direct build, and so must Hom(Omega M_i, M_j) where
    # M_j vanishes at P1's vertices.  Each certificate fires on some pair.
    explored = explore(IsoRegistry(build_preset(preset, field))).registry
    reg = IsoRegistry(explored.algebra)
    ids = [reg.register(explored.module(i)) for i in range(explored.count())]
    assert ids == list(range(explored.count()))
    pairs = [(i, j) for i in ids for j in ids]
    real = modules.hom_basis
    built = []

    def hom_basis(M, N):
        built.append((M, N))
        return real(M, N)

    monkeypatch.setattr(modules, "hom_basis", hom_basis)
    homs = {(i, j): reg.hom_space(i, j) for i, j in pairs}
    hom_certified = len(pairs) - len(built)
    built.clear()
    ext1 = {(i, j): reg.ext1_dim(i, j) for i, j in pairs}
    ext1_certified = len(pairs) - len(built)
    monkeypatch.undo()
    for i in ids:
        M = reg.module(i)
        pres = modules.minimal_projective_presentation(M)
        for j in ids:
            N = reg.module(j)
            direct = real(M, N)
            assert homs[i, j].free_cols == direct.free_cols
            assert [h.flatten() for h in homs[i, j].basis] == [h.flatten() for h in direct.basis]
            assert ext1[i, j] == ext1_dim(M, N, pres)
    assert hom_certified > 0 and ext1_certified > 0


def test_adjacency_lists_match_a_scan_of_the_arrows(quiver):
    for i in range(quiver.n_vertices):
        assert quiver.out_arrows(i) == [a for a in quiver.arrows if a[0] == i]
        assert quiver.in_arrows(i) == [a for a in quiver.arrows if a[1] == i]


def test_negative_columns_are_the_dual_cosemibrick(quiver):
    reg = quiver.registry
    for i, pair in enumerate(quiver.pairs):
        negative = Counter(c.brick_id for c in paired_columns(quiver, i) if c.sign < 0)
        dual = Counter(s for s in reference_shifted_labels(pair).values() if s is not None)
        assert negative == dual


def test_end_data_matches_solved_coordinates(quiver):
    # Every module registered on nakayama:cyclic:3:3 is a brick with
    # End = k, so only preproj-a:3 reaches the loop body.
    reg = quiver.registry
    for i in range(reg.count()):
        space = reg.hom_space(i, i)
        if space.dim > 1:
            M = reg.module(i)
            data = end_data(M, space)
            want = solved_end_constants(M, space.basis)
            assert (data.struct, data.identity_coeffs) == want


def test_presentation_pairing_is_hom_into_the_translate(quiver):
    # For a minimal presentation P1 -> P0 -> M -> 0, dim Hom(N, tau M) is
    # dim Hom(M, N) minus the pairing of g(M) with dim N.
    reg = quiver.registry
    n = reg.count()
    nonzero = 0
    for i in range(n):
        t = ar_translate(reg.module(i))
        tid = None if t.is_zero else reg.register(t)
        for j in range(n):
            got = reg.tau_hom_dim(i, j)
            assert got == (0 if tid is None else reg.hom_dim(j, tid))
            nonzero += got > 0
    assert nonzero > 0


def test_pair_rigidity_matches_the_translate_of_the_sum(quiver):
    # pair_is_tau_rigid reads the pairing summand by summand; the reference
    # builds tau of the direct sum.  Every vertex is a positive case; a pair
    # with one summand swapped for another registered module is usually not.
    reg = quiver.registry
    n = reg.count()
    pairs = list(quiver.pairs)
    for k, pair in enumerate(quiver.pairs):
        for pos, sid in enumerate(pair.summand_ids):
            other = (sid + k + pos + 1) % n
            if other not in pair.summand_ids:
                ids = pair.summand_ids[:pos] + (other,) + pair.summand_ids[pos + 1 :]
                pairs.append(SupportPair(reg, ids, pair.support_complement))
    results = Counter()
    for pair in pairs:
        got = pair_is_tau_rigid(pair)
        assert got == is_tau_rigid_pair(pair.modules(), pair.support_complement, reg.algebra)
        results[got] += 1
    assert results[True] > 0 and results[False] > 0


# One preset per family; msex is tau-tilting infinite, so its registry is
# the one of a depth-3 exploration.
FAMILIES = [
    "a-path:4",
    "a3-figure",
    "nakayama:linear:4:3",
    "nakayama:cyclic:3:3",
    "preproj-a:3",
    "msex",
]
FAMILY_CASES = [(preset, field) for preset in FAMILIES for field in (QQ, PrimeField(5))]


def _family_registry(preset, field):
    depth = 3 if preset == "msex" else None
    return explore(IsoRegistry(build_preset(preset, field)), depth).registry


@pytest.mark.parametrize(
    "preset,field", FAMILY_CASES + [("preproj-a:4", QQ)], ids=str
)
def test_injective_is_the_dual_path_basis_construction(preset, field):
    A = build_preset(preset, field)
    for v in range(A.n_vertices):
        assert injective_module(A, v) == reference_injective(A, v)


@pytest.mark.parametrize("preset,field", FAMILY_CASES, ids=str)
def test_nakayama_map_is_the_multiplication_table_construction(preset, field):
    reg = _family_registry(preset, field)
    checked = 0
    for i in range(reg.count()):
        pres = reg.presentation(i)
        if pres.p1.is_zero:
            continue
        nu_p1, nu_p0, nu_f = nakayama_functor_map(pres)
        ref_p1, ref_p0, ref_f = reference_nakayama_map(pres)
        assert (nu_p1, nu_p0, nu_f.mats) == (ref_p1, ref_p0, ref_f.mats)
        checked += 1
    assert checked > 0


def _signed_square(field):
    """1 -> 2 -> 4 (a, b) and 1 -> 3 -> 4 (c, d) with ab + cd = 0.  The
    arrows are listed a, d, c, b, so A keeps cd in its path basis and the
    opposite algebra keeps the reverse of ab = -cd."""
    quiver = Quiver(
        ("1", "2", "3", "4"),
        (Arrow("a", "1", "2"), Arrow("d", "3", "4"), Arrow("c", "1", "3"), Arrow("b", "2", "4")),
    )
    rel = normalize_relation(quiver, [(1, ("a", "b")), (1, ("c", "d"))])
    return build_algebra(AlgebraSpec(quiver, (rel,), 3, field))


def _basis_change(A, vertices):
    """Per vertex u, the map from the sum of the derived injectives at
    `vertices` to the sum of the direct ones.  Row q, column p holds the
    coefficient of the opposite algebra's basis path q in the reverse of
    A's basis path p: the dual of rewriting the one path basis in the
    other."""
    op = A.opposite()
    field = A.field
    mats = []
    for u in range(A.n_vertices):
        blocks = []
        for v in vertices:
            pos = {k: z for z, (k, _) in enumerate(op.basis_paths(v, u))}
            paths = A.basis_paths(u, v)
            rows = [[field.zero()] * len(paths) for _ in pos]
            for col, (_, arrows) in enumerate(paths):
                for k, c in op.path_class(v, arrows[::-1]):
                    rows[pos[k]][col] = c
            blocks.append(Mat._of(field, rows, len(paths)))
        mats.append(block_diag(field, blocks))
    return mats


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
def test_derived_injectives_and_nu_where_the_opposite_basis_differs(field):
    # Here the derived I_4 and some nu f are written in the opposite
    # algebra's basis, so they differ from the direct constructions.  The
    # basis change must be a module map and must carry one nu f to the
    # other.
    A = _signed_square(field)
    for v in range(4):
        inj, ref = injective_module(A, v), reference_injective(A, v)
        assert (inj == ref) == (v != 3)
        ModuleHom(inj, ref, _basis_change(A, [v]))  # raises unless it commutes
    reg = explore(IsoRegistry(A)).registry
    differing = 0
    for i in range(reg.count()):
        pres = reg.presentation(i)
        if pres.p1.is_zero:
            continue
        nu_p1, nu_p0, nu_f = nakayama_functor_map(pres)
        ref_p1, ref_p0, ref_f = reference_nakayama_map(pres)
        change1 = ModuleHom(nu_p1, ref_p1, _basis_change(A, pres.p1_vertices))
        change0 = ModuleHom(nu_p0, ref_p0, _basis_change(A, pres.p0_vertices))
        assert nu_f.compose(change0).mats == change1.compose(ref_f).mats
        differing += nu_f.mats != ref_f.mats
    assert differing > 0


def _embeds_by_joint_kernel(X, cogenerators) -> bool:
    """X embeds into a sum of the cogenerators exactly when, at every
    vertex, the maps X -> U for all U in the list have no common kernel."""
    field = X.algebra.field
    for v in range(X.algebra.n_vertices):
        if X.dims[v] == 0:
            continue
        mats = [h.mats[v] for U in cogenerators for h in hom_basis(X, U).basis]
        if kernel_basis(hstack(field, mats, nrows=X.dims[v]).transpose())[0].nrows != 0:
            return False
    return True


def test_in_sub_matches_the_joint_kernel_test(quiver):
    reg = quiver.registry
    mods = [reg.module(i) for i in range(reg.count())]
    results = Counter()
    for X in mods:
        for k, U in enumerate(mods):
            for cogens in ([U], [U, mods[k - 1]]):
                got = in_sub(X, cogens)
                assert got == _embeds_by_joint_kernel(X, cogens)
                results[got] += 1
    assert results[True] > 0 and results[False] > 0


def test_tau_inverse_rigid_matches_hom_from_the_inverse_translate(quiver):
    # The registry modules, and the sum of each with the next one.
    reg = quiver.registry
    A = reg.algebra
    mods = [reg.module(i) for i in range(reg.count())]
    sums = [direct_sum(A, [M, mods[k - 1]])[0] for k, M in enumerate(mods)]
    results = Counter()
    for M in mods + sums:
        t = ar_translate_inverse(M)
        got = is_tau_inverse_rigid(M)
        assert got == (t.is_zero or hom_dim(t, M) == 0)
        results[got] += 1
    assert results[True] > 0 and results[False] > 0


@pytest.mark.parametrize(
    "preset",
    ["a-path:3", "a-path:4", "nakayama:cyclic:3:3", "nakayama:linear:4:3", "preproj-a:3"],
)
def test_explore_over_q_matches_explore_over_primes(preset):
    # These exchange quivers do not depend on the field, so the exported
    # records over Q and over each prime must be equal.  F_2 and F_3 are at
    # or below dim End of modules that mutation meets.
    want = export_records(explore(IsoRegistry(build_preset(preset))))
    for p in (2, 3, 5, 7, 101, 32003):
        registry = IsoRegistry(build_preset(preset, PrimeField(p)))
        if (preset, p) == ("preproj-a:3", 2):
            # The trace-form radical of a projective's End (dim 2) needs p > 2.
            with pytest.raises(CharacteristicError):
                explore(registry)
            continue
        assert export_records(explore(registry)) == want, f"F_{p}"


# -- the registry's identification against the radical route ------------------

IDENTIFY_CASES = [
    (preset, field)
    for preset in ("a-path:4", "preproj-a:3", "nakayama:cyclic:3:3")
    for field in (QQ, PrimeField(5))
]


@pytest.fixture(scope="module", params=IDENTIFY_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def identified(request):
    """An explored registry and a seeded random conjugate of each of its
    modules."""
    preset, field = request.param
    reg = explore(IsoRegistry(build_preset(preset, field))).registry
    rng = random.Random(9)
    return reg, [_conjugate(reg.module(i), rng) for i in range(reg.count())]


def _conjugate(M, rng):
    """M carried along a random invertible change of basis g_v at every
    vertex: arrow u -> w acts by g_u^-1 M_a g_w.  Drawn again while it
    equals M, unless every arrow of M acts by zero, as on a simple."""
    A = M.algebra
    field = A.field
    vidx = A.quiver.vertex_index
    while True:
        g = []
        for d in M.dims:
            m = Mat.zeros(field, d, d)
            while field.is_zero(det(m)):
                entries = [[rng.randrange(-3, 4) for _ in range(d)] for _ in range(d)]
                m = Mat(field, entries, ncols=d)
            g.append(m)
        inv = [solve(m, Mat.identity(field, m.nrows)) for m in g]
        mats = [
            inv[vidx[a.source]].mul(M.mats[ai]).mul(g[vidx[a.target]])
            for ai, a in enumerate(A.quiver.arrows)
        ]
        C = Module(A, M.dims, mats)
        if C != M or all(m.is_zero() for m in M.mats):
            return C


def test_indec_iso_matches_the_radical_composite_test(identified):
    # Registered modules are pairwise non-isomorphic, and each conjugate is
    # isomorphic to its own module only.
    reg, conjugates = identified
    n = reg.count()
    assert sum(conjugates[i] != reg.module(i) for i in range(n)) > n // 2
    seen = Counter()
    for i in range(n):
        for j in range(n):
            N = reg.module(j)
            if N.dims != reg.module(i).dims:
                continue
            for M in (reg.module(i), conjugates[i]):
                got = _indec_iso(M, N)
                assert got == reference_indec_iso(M, N) == (i == j)
                seen[got] += 1
    assert seen[True] == 2 * n


def _refuse_decompose(monkeypatch):
    def refuse(M):
        raise AssertionError(f"decomposed a module with dims {M.dims}")

    monkeypatch.setattr(modules, "decompose", refuse)


def test_register_brick_certifies_a_known_module_and_decomposes_nothing(identified, monkeypatch):
    # A conjugate of a registered brick gets its id; one of a module with a
    # larger End is refused with its dims and dim End.
    reg, conjugates = identified
    n = reg.count()
    _refuse_decompose(monkeypatch)
    bricks = 0
    for i, C in enumerate(conjugates):
        d = reg.end_dim(i)
        if d == 1:
            bricks += 1
            assert reg.register_brick(C) == i
            continue
        with pytest.raises(NotABrickError) as err:
            reg.register_brick(C)
        assert str(err.value) == f"the module with dims {list(C.dims)} has dim End {d}, not a brick"
    assert bricks and reg.count() == n


def test_register_brick_refuses_a_sum(identified, monkeypatch):
    reg, _ = identified
    _refuse_decompose(monkeypatch)
    n = reg.count()
    fresh = IsoRegistry(reg.algebra)
    for i in range(n):
        S = direct_sum(reg.algebra, [reg.module(i), reg.module((i + 1) % n)])[0]
        with pytest.raises(NotABrickError) as err:
            fresh.register_brick(S)
        assert str(err.value) == (
            f"the module with dims {list(S.dims)} has dim End {hom_dim(S, S)}, not a brick"
        )


def _copy(M):
    """M with every matrix rebuilt: equal to M's, but new objects."""
    return Module(M.algebra, M.dims, [Mat(m.field, m.rows, ncols=m.ncols) for m in M.mats])


def _count_iso_tests(monkeypatch):
    calls = []
    real = modules._indec_iso

    def counted(M, N):
        calls.append(N.dims)
        return real(M, N)

    monkeypatch.setattr(modules, "_indec_iso", counted)
    return calls


def test_find_reads_an_exact_copy_off_the_index(identified, monkeypatch):
    # equal matrices make the identity an isomorphism, so no iso test runs
    reg, _ = identified
    calls = _count_iso_tests(monkeypatch)
    assert [reg._find(_copy(reg.module(i))) for i in range(reg.count())] == list(range(reg.count()))
    assert calls == []


def test_find_identifies_a_conjugate_by_the_iso_test_once(identified, monkeypatch):
    # A fresh registry has indexed only the matrices registered in it, so a
    # conjugate goes through the iso test; its matrices are then indexed
    # too, and a copy of it is found with no further iso test.
    reg, conjugates = identified
    fresh = IsoRegistry(reg.algebra)
    ids = [fresh.register(reg.module(i)) for i in range(reg.count())]
    moved = [i for i, C in enumerate(conjugates) if C != reg.module(i)]
    calls = _count_iso_tests(monkeypatch)
    assert [fresh._find(conjugates[i]) for i in moved] == [ids[i] for i in moved]
    assert len(calls) >= len(moved) > 0
    calls.clear()
    assert [fresh._find(_copy(conjugates[i])) for i in moved] == [ids[i] for i in moved]
    assert calls == []


def test_find_refuses_another_class_with_the_same_dims(identified, monkeypatch):
    # With every arrow acting by zero, a module of dimension at least two is
    # a sum of simples, so no registered class is isomorphic to it.  It is
    # tested against each class with its dims, and never indexed.
    reg, _ = identified
    A = reg.algebra
    calls = _count_iso_tests(monkeypatch)
    refused = 0
    for i in range(reg.count()):
        M = reg.module(i)
        if M.dim_total < 2:
            continue
        Z = Module(A, M.dims, [Mat.zeros(A.field, m.nrows, m.ncols) for m in M.mats])
        same_dims = sum(reg.module(j).dims == M.dims for j in range(reg.count()))
        for _ in range(2):
            calls.clear()
            assert reg._find(Z) is None
            assert len(calls) == same_dims
        refused += 1
    assert refused


def test_is_brick_id_matches_is_brick(identified):
    reg, _ = identified
    verdicts = [reg.is_brick_id(i) for i in range(reg.count())]
    assert verdicts == [is_brick(reg.module(i)) for i in range(reg.count())]
    assert any(verdicts)


# -- left mutation by the minimal approximation -------------------------------

MUTATE_CASES = IDENTIFY_CASES + [("msex", QQ), ("msex", PrimeField(5))]


@pytest.fixture(scope="module", params=MUTATE_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def mutations(request):
    """Every left mutation at every vertex of an explored quiver, as
    (pair, position, new pair, label); msex is explored to depth 3."""
    preset, field = request.param
    depth = 3 if preset == "msex" else None
    quiver = explore(IsoRegistry(build_preset(preset, field)), max_depth=depth)
    return [
        (pair, pos, *left_mutate(pair, pos))
        for pair in quiver.pairs
        for pos in mutable_positions(pair)
    ]


def _others(pair, position):
    return [sid for k, sid in enumerate(pair.summand_ids) if k != position]


def test_left_mutate_matches_the_decomposing_mutation(mutations):
    assert mutations
    for pair, pos, new, label in mutations:
        want, want_label = reference_left_mutate(pair, pos)
        assert (new.key, label) == (want.key, want_label)


def test_left_approximation_is_an_approximation(mutations):
    # Every map X -> U_u factors through f: X -> U', so the composites of f
    # with a basis of Hom(U', U_u) span Hom(X, U_u).
    spanned = 0
    for pair, pos, _, _ in mutations:
        reg = pair.registry
        xid = pair.summand_ids[pos]
        f = reg.left_approximation(xid, _others(pair, pos))
        for u in _others(pair, pos):
            rows = [f.compose(g).flatten() for g in hom_basis(f.target, reg.module(u)).basis]
            rank = len(row_space(Mat(reg.algebra.field, rows))[1]) if rows else 0
            assert rank == reg.hom_dim(xid, u)
            spanned += rank
    assert spanned


def test_mutation_cokernel_is_zero_or_one_new_summand(mutations):
    new_summands = 0
    for pair, pos, new, _ in mutations:
        reg = pair.registry
        others = _others(pair, pos)
        coker = cokernel(reg.left_approximation(pair.summand_ids[pos], others))[0]
        parts = decompose(coker)
        assert len(parts) <= 1
        if parts:
            assert not any(_indec_iso(coker, reg.module(u)) for u in others)
            assert any(_indec_iso(coker, reg.module(i)) for i in new.summand_ids)
            new_summands += 1
    assert new_summands


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
def test_left_approximation_picks_over_the_end_ring(field):
    # End(Q) = k[x]/(x^2 - 2) is a field of degree 2, and Hom(P_0, Q) is
    # one copy of it, so the minimal approximation is a single map into Q.
    # Picking over k alone would map into Q^2 and leave Q in the cokernel.
    Q = _quadratic_module(field)
    reg = IsoRegistry(Q.algebra)
    q = reg.register(Q)
    f = reg.left_approximation(reg.projective_ids[0], [q])
    assert f.target.dims == (2, 2, 0)
    assert cokernel(f)[0].dims == (1, 0, 0)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
def test_left_approximation_skips_maps_through_the_end_radical(field):
    # Hom(P, M) for P = k[x]/(x^3) and M = k[x]/(x^2) is M itself; the map
    # 1 -> x is 1 -> 1 followed by x in rad End(M).  So one copy of M
    # approximates P, and P -> M is onto.
    A = build_preset("nakayama:cyclic:1:3", field)
    reg = IsoRegistry(A)
    m = reg.register(uniserial_module(A, 1, 2))
    f = reg.left_approximation(reg.projective_ids[0], [m])
    assert f.target.dims == (2,)
    assert cokernel(f)[0].is_zero


def test_left_approximation_into_a_brick_with_a_two_dimensional_end_keeps_the_orbit():
    # K = (I, [[0, -1], [1, 0]]) on msex's Kronecker arrows: End(K) is
    # Q[x]/(x^2 + 1), a field of dimension two, and Hom(P_0, K) is one copy
    # of it.  The lines of its maps alone would pick two maps, not one.
    A = build_preset("msex", QQ)
    K = Module(A, (2, 2, 0), [Mat.identity(QQ, 2), Mat(QQ, [[0, -1], [1, 0]]), Mat.zeros(QQ, 2, 0)])
    reg = IsoRegistry(A)
    k, p = reg.register(K), reg.projective_ids[0]
    assert reg.is_brick_id(k) and reg.end_dim(k) == reg.hom_dim(p, k) == 2
    assert reg.left_approximation(p, [k]).target.dims == K.dims
    assert len(greedy_span_pick(QQ, [], reg.hom(p, k), lambda h: [h.flatten()])) == 2


@pytest.mark.parametrize(
    "preset,field", [("nakayama:cyclic:4:4", QQ), ("a-path:5", PrimeField(32003))], ids=str
)
def test_left_approximation_into_a_lone_brick_matches_the_greedy_pick(preset, field):
    # Into one brick u, no radical map of add(u) lands in u and End(u) = k,
    # so the greedy pick over the lines of Hom(M_i, u) is the minimal
    # approximation: it keeps the whole basis.
    reg = explore(IsoRegistry(build_preset(preset, field))).registry
    bricks = [u for u in range(reg.count()) if reg.is_brick_id(u)]
    checked = 0
    for i in range(reg.count()):
        for u in bricks:
            if not reg.hom(i, u):
                continue
            picks = greedy_span_pick(field, [], reg.hom(i, u), lambda h: [h.flatten()])
            assert picks == list(reg.hom(i, u))
            f = reg.left_approximation(i, [u])
            assert f.target == direct_sum(f.source.algebra, [reg.module(u)] * len(picks))[0]
            assert list(f.mats) == [
                hstack(field, [h.mats[v] for h in picks], nrows=d) for v, d in enumerate(f.source.dims)
            ]
            checked += 1
    assert checked


def _p2_s1_and_its_inverse_translate(A):
    return [projective_module(A, 2), simple_module(A, 1), ar_translate_inverse(simple_module(A, 1))]


def _s0_s1_and_the_inverse_translate_of_s2(A):
    return [simple_module(A, 0), simple_module(A, 1), ar_translate_inverse(simple_module(A, 2))]


@pytest.mark.parametrize(
    "build,at",
    [
        # dims (1, 1, 1), (0, 1, 0), (1, 1, 1), mutated at S_1; the cokernel
        # (1, 0, 1) would split into two summands
        (_p2_s1_and_its_inverse_translate, 1),
        # dims (1, 0, 0), (0, 1, 0), (1, 1, 0), mutated at S_0; the cokernel
        # (0, 1, 0) would be the kept summand S_1
        (_s0_s1_and_the_inverse_translate_of_s2, 0),
    ],
    ids=["split", "kept"],
)
def test_mutation_of_a_non_rigid_pair_is_a_typed_error(build, at):
    # The summands are built, not named by registry id, since exploration
    # numbers the modules it meets.  preproj-a:3 has two classes with dims
    # (1, 1, 1), P_2 and tau^-1 S_1.  The rigidity test comes before any
    # cokernel is built, so both cases give the one message, twice.
    reg = explore(IsoRegistry(build_preset("preproj-a:3"))).registry
    ids = [reg.register(M) for M in build(reg.algebra)]
    pair = SupportPair(reg, ids, ())
    assert not pair_is_tau_rigid(pair)
    position = pair.summand_ids.index(ids[at])
    dims = [list(reg.module(i).dims) for i in pair.summand_ids]
    for _ in range(2):
        with pytest.raises(MutationError) as err:
            left_mutate(pair, position)
        assert str(err.value) == (
            f"mutation at position {position} of the pair with summand dims "
            f"{dims}: the pair is not tau-rigid"
        )


# -- spans and maps built once -------------------------------------------------


def test_each_label_lies_in_fac_of_its_source_only(quiver):
    # A label is generated by its source pair and, receiving no map from
    # the target pair, lies outside Fac of the target's summands: every
    # arrow gives one positive and one negative case.
    reg = quiver.registry
    seen = Counter()
    for s, t, lab in quiver.arrows:
        for pair in (quiver.pairs[s], quiver.pairs[t]):
            seen[in_fac(reg.module(lab), pair.modules())] += 1
    assert seen[True] == seen[False] == quiver.n_arrows


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
def test_kernel_spans_the_reduced_left_kernel(field):
    # kernel(h) keeps the kernel basis; the reference reduces it again.  At
    # every vertex both span one subspace, and the change of basis between
    # them is a module isomorphism.
    reg = explore(IsoRegistry(build_preset("preproj-a:3", field))).registry
    n = reg.algebra.n_vertices
    proper = 0
    for i in range(reg.count()):
        for j in range(reg.count()):
            for h in reg.hom(i, j):
                ker, incl = kernel(h)
                ref, ref_incl = reference_kernel(h)
                change = []
                for v in range(n):
                    pivots = row_space(ref_incl.mats[v])[1]
                    at_pivots = [[row[c] for c in pivots] for row in incl.mats[v].rows]
                    c = Mat(field, at_pivots, ncols=len(pivots))
                    assert c.mul(ref_incl.mats[v]) == incl.mats[v]
                    change.append(c)
                assert ker.dims == ref.dims
                ModuleHom(ker, ref, change)  # raises unless it commutes
                assert incl.compose(h).is_zero()
                proper += 0 < ker.dim_total < h.source.dim_total
    assert proper


CONSTRUCTED = [
    (preset, field)
    for preset in ("preproj-a:3", "nakayama:cyclic:3:3")
    for field in (QQ, PrimeField(5))
]


@pytest.mark.parametrize("preset,field", CONSTRUCTED, ids=str)
def test_maps_made_by_construction_commute(preset, field, monkeypatch):
    # Projections, covers and nu f skip the commutation check when they are
    # built; here every one that an exploration, its collections and its
    # label-coincidence check build must pass it.  The universal extensions
    # of the SMC mutation are the quotients whose spans are not coordinate
    # subspaces; the dual pairs' translates build nu f.
    made = {}

    def record(namespace, name, kind, pick):
        fn = getattr(namespace, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            made.setdefault(kind, []).append(pick(out))
            return out

        monkeypatch.setattr(namespace, name, wrapper)

    for namespace in (modules, smc):
        record(namespace, "quotient_by_rows", "projection", lambda out: out[1])
    record(modules, "_projective_cover", "cover", lambda out: out[3])
    record(modules, "nakayama_functor_map", "nu f", lambda out: out[2])
    quiver = explore(IsoRegistry(build_preset(preset, field)))
    for pair in quiver.pairs:
        reference_shifted_labels(pair)
    assert check_label_coincidence(quiver, collections_of(quiver))["ok"]
    reg = quiver.registry
    made["Hom(P0, N)"] = [
        h
        for i in range(reg.count())
        for j in range(reg.count())
        for h in _projective_hom_block(reg.presentation(i), reg.module(j))
    ]
    assert all(made.get(kind) for kind in ("projection", "cover", "nu f", "Hom(P0, N)"))
    for maps in made.values():
        for h in maps:
            ModuleHom(h.source, h.target, h.mats)  # raises unless it commutes


# `quotient` needs a central radical element.  The path algebra of A_4 and
# nakayama:cyclic:3:3, whose only cycles have the Loewy length, have none,
# and the verb refuses them before it builds a module.
TRUSTED = [
    ("a-path:4", "q", ["--summand", "0,1,0,0", "--summand", "0,1,1,1"], None),
    ("nakayama:cyclic:3:3", "fp:5", ["--summand", "1,0,0"], None),
    ("preproj-a:3", "q", ["--summand", "1,2,1"], "b1*a1"),
]


@pytest.mark.parametrize("preset,field,summands,generator", TRUSTED, ids=[c[0] for c in TRUSTED])
def test_trusted_constructors_build_what_the_public_ones_accept(
    preset, field, summands, generator, monkeypatch, capsys
):
    # Mat._of, Module(_validated=True) and ModuleHom(_validated=True) check
    # nothing when they run, and Mat.zeros hands out one shared matrix per
    # shape; here every object they build under each verb must pass the
    # public checks: rows of ncols canonical entries, module shapes and
    # relations, map shapes and commutation, and a zero matrix must be
    # the one of its shape.
    from taumut import cli

    seen = Counter()
    of, zeros, module_init, hom_init = Mat._of.__func__, Mat.zeros, Module.__init__, ModuleHom.__init__

    def checked_of(cls, fld, rows, ncols):
        m = of(cls, fld, rows, ncols)
        seen["Mat"] += 1
        assert m.nrows == len(m.rows) and all(len(row) == ncols for row in m.rows)
        assert Mat(fld, m.rows, ncols=ncols).rows == m.rows
        assert all(type(x) is type(fld.coerce(x)) for row in m.rows for x in row)
        return m

    def checked_zeros(fld, nrows, ncols):
        m = zeros(fld, nrows, ncols)
        seen["zeros"] += 1
        assert m is zeros(fld, nrows, ncols) and m.field == fld
        assert m == Mat(fld, [[0] * ncols] * nrows, ncols=ncols)
        assert all(type(x) is type(fld.zero()) for row in m.rows for x in row)
        return m

    def checked_module(self, algebra, dims, mats, *, _validated=False):
        module_init(self, algebra, dims, mats, _validated=_validated)
        if _validated:
            seen["Module"] += 1
            assert all(type(d) is int for d in self.dims)
            Module(algebra, self.dims, self.mats)  # raises on a bad shape or relation

    def checked_hom(self, source, target, mats, *, _validated=False):
        hom_init(self, source, target, mats, _validated=_validated)
        if _validated:
            seen["ModuleHom"] += 1
            ModuleHom(source, target, self.mats)  # raises on a bad shape or unless it commutes

    monkeypatch.setattr(Mat, "_of", classmethod(checked_of))
    monkeypatch.setattr(Mat, "zeros", staticmethod(checked_zeros))
    monkeypatch.setattr(Module, "__init__", checked_module)
    monkeypatch.setattr(ModuleHom, "__init__", checked_hom)
    runs = [("explore", []), ("verify", []), ("smc", []), ("gvectors", []), ("restrict", summands)]
    if generator:
        runs.append(("quotient", ["--generator", generator]))
    for verb, extra in runs:
        assert cli.main([verb, "--preset", preset, "--field", field, *extra]) == 0
        capsys.readouterr()
    assert set(seen) == {"Mat", "zeros", "Module", "ModuleHom"}


# -- Asai's labelling: the SMC at a vertex is the labels of its arrows ---------

LABELLED = [
    (preset, field)
    for preset in (
        "a-path:4",
        "preproj-a:3",
        "nakayama:cyclic:3:3",
        "nakayama:cyclic:3:5",
        "nakayama:linear:5:3",
    )
    for field in (QQ, PrimeField(3), PrimeField(5))
]


@pytest.fixture(scope="module", params=LABELLED, ids=lambda c: f"{c[0]}-{c[1]}")
def labelled(request):
    preset, field = request.param
    return explore(IsoRegistry(build_preset(preset, field)))


def test_smc_parts_are_the_labels_of_the_arrows_out_and_in(labelled):
    # The top components of a pair and the socle components of its dual
    # pair, against the labels of the arrows out of and into its vertex.
    reg = labelled.registry
    for i, pair in enumerate(labelled.pairs):
        dual = sorted(s for s in reference_shifted_labels(pair).values() if s is not None)
        assert sorted(semibrick_ids_of(pair)) == sorted(lab for _, _, lab in labelled.out_arrows(i))
        assert dual == sorted(lab for _, _, lab in labelled.in_arrows(i))


def test_columns_read_off_the_arrows_are_the_dual_pairing(labelled):
    # Column by column, brick ids included: a degree-0 column holds its
    # summand's top component; a shifted summand column U the socle
    # component that the dual pair gives tau U; a missing vertex v that of
    # the injective I_v.
    reg = labelled.registry
    for i, pair in enumerate(labelled.pairs):
        tops = reg.pair_top_ids(pair.summand_ids)
        shifted = reference_shifted_labels(pair)
        cols = paired_columns(labelled, i)
        expected = []
        for pos in range(len(pair.summand_ids)):
            if tops[pos] is not None:
                expected.append(("summand", pos, 1, tops[pos]))
            else:
                expected.append(("summand", pos, -1, shifted[("summand", pos)]))
        for v in pair.support_complement:
            expected.append(("support", v, -1, shifted[("support", v)]))
        assert [(c.kind, c.index, c.sign, c.brick_id) for c in cols] == expected


def test_the_koenig_yang_table_holds_at_every_vertex(labelled):
    for i, pair in enumerate(labelled.pairs):
        assert check_silting_table(pair, smc_of_vertex(labelled, i)).violations == [], i


@pytest.mark.parametrize(
    "preset,field",
    [("a-path:4", QQ), ("preproj-a:3", QQ), ("nakayama:cyclic:4:4", QQ), ("nakayama:linear:5:3", PrimeField(5))],
    ids=lambda c: str(c) if isinstance(c, str) else f"char{c.characteristic()}",
)
def test_gtc_is_a_signed_difference_of_table_entries(preset, field):
    # The identity that lets verify drop the duality report: entry (k, j)
    # of G^T C is s_j (hom_dim - tau_hom_dim) of (M_k, B_j) for a summand
    # column k, and -s_j (B_j)_v for the column of a missing vertex v.
    q = explore(IsoRegistry(build_preset(preset, field)))
    reg = q.registry
    entries = 0
    for i, pair in enumerate(q.pairs):
        x = smc_of_vertex(q, i)
        data = grothendieck_data(pair, x)
        n = len(x.columns)
        for k, t in enumerate(x.columns):
            for j, col in enumerate(x.columns):
                b = col.brick_id
                if t.kind == "support":
                    want = -col.sign * reg.module(b).dims[t.index]
                else:
                    sid = pair.summand_ids[t.index]
                    want = col.sign * (reg.hom_dim(sid, b) - reg.tau_hom_dim(sid, b))
                assert sum(data.g[v][k] * data.c[v][j] for v in range(n)) == want, (i, k, j)
                entries += 1
    assert entries == q.n_vertices * reg.algebra.n_vertices ** 2


def _swappable_in_label(quiver):
    """(vertex, arrow in, brick): the first arrow in whose label can be
    swapped for another arrow label outside the vertex's collection with
    `paired_columns` still passing, which certifies only that the brick is
    nonzero at its column's vertex or maps into its summand's translate."""
    reg = quiver.registry
    labels = sorted({lab for _, _, lab in quiver.arrows})
    for i, pair in enumerate(quiver.pairs):
        cols = paired_columns(quiver, i)
        mine = {c.brick_id for c in cols}
        for c in cols:
            if c.sign > 0:
                continue
            arrow = next(a for a in quiver.in_arrows(i) if a[2] == c.brick_id)
            for b in labels:
                if c.kind == "support":
                    pairs = reg.module(b).dims[c.index] != 0
                else:
                    pairs = reg.tau_hom_dim(pair.summand_ids[c.index], b) != 0
                if b not in mine and pairs:
                    return i, arrow, b
    return None


def _table_violations(quiver, i):
    return check_silting_table(quiver.pairs[i], smc_of_vertex(quiver, i)).violations


def _swap_label(quiver, arrow, b):
    """The quiver with the label of one arrow replaced by brick b."""
    q = quiver
    arrows = [(s, t, b) if (s, t, lab) == arrow else (s, t, lab) for s, t, lab in q.arrows]
    return ExchangeQuiver(q.algebra, q.registry, q.pairs, arrows, q.complete, q.max_depth, q.depths)


def test_the_table_names_the_vertex_of_a_swapped_in_label(labelled):
    found = _swappable_in_label(labelled)
    assert found is not None
    i, arrow, b = found
    swapped = _swap_label(labelled, arrow, b)
    assert b in [c.brick_id for c in paired_columns(swapped, i)]
    # the arrow's source sees the swap as a degree-0 label, which
    # paired_columns may refuse; every other vertex keeps its collection
    flagged = [
        v for v in range(labelled.n_vertices) if v != arrow[0] and _table_violations(swapped, v)
    ]
    assert flagged == [i]


def _degree0_label_on_a_missing_vertex(quiver):
    """(vertex, arrow out, brick, missing vertex v): the first arrow out
    whose label can be swapped for another arrow label that its summand
    maps to, so that `paired_columns` still passes, but that is nonzero
    at v."""
    reg = quiver.registry
    labels = sorted({lab for _, _, lab in quiver.arrows})
    for i, pair in enumerate(quiver.pairs):
        cols = paired_columns(quiver, i)
        mine = {c.brick_id for c in cols}
        for c in cols:
            if c.sign < 0:
                continue
            arrow = next(a for a in quiver.out_arrows(i) if a[2] == c.brick_id)
            for b in labels:
                for v in pair.support_complement:
                    if b not in mine and reg.module(b).dims[v] and reg.hom_dim(pair.summand_ids[c.index], b):
                        return i, arrow, b, v
    return None


def test_the_table_sees_a_degree0_label_nonzero_at_a_missing_vertex(labelled):
    # A degree-0 element B must vanish where T has P_v[1]: Hom(P_v[1], B[1])
    # is B_v.
    found = _degree0_label_on_a_missing_vertex(labelled)
    assert found is not None
    i, arrow, b, v = found
    swapped = _swap_label(labelled, arrow, b)
    assert b in [c.brick_id for c in paired_columns(swapped, i)]
    dims = labelled.registry.module(b).dims
    want = f"Hom(P_{v}[1], {dims}[1]) = {dims[v]}, not 0"
    assert want in _table_violations(swapped, i)


@pytest.mark.parametrize(
    "preset,field",
    [(preset, field) for preset, field in LABELLED if field.characteristic() != 3],
    ids=lambda c: str(c) if isinstance(c, str) else f"char{c.characteristic()}",
)
def test_cached_element_mutations_match_the_uncached_mutation(preset, field):
    # Every arrow of a fresh quiver, first with the element cache emptied
    # before each mutation, then with it full.
    q = explore(IsoRegistry(build_preset(preset, field)))
    reg = q.registry
    arrows = [(s, t, lab) for s, t, lab in q.arrows if reg.ext1_dim(lab, lab) == 0]
    assert arrows
    collections = [smc_of_vertex(q, i) for i in range(q.n_vertices)]
    expected = [reference_smc_left_mutate(collections[s], lab).key for s, _, lab in arrows]
    emptied = []
    for s, _, lab in arrows:
        reg.element_mutations.clear()
        emptied.append(smc_left_mutate(collections[s], lab).key)
    assert emptied == expected
    # the first pass fills the cache, the second reads every element from it
    for _ in range(2):
        assert [smc_left_mutate(collections[s], lab).key for s, _, lab in arrows] == expected


# -- components built once per (summand, summands it sees) ---------------------

@pytest.mark.parametrize(
    "preset,bricks",
    [("a-path:5", 15), ("preproj-a:4", 26), ("nakayama:cyclic:4:4", 16), ("nakayama:cyclic:5:5", 25)],
)
@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(32003)], ids=str)
def test_face_brick_labels_are_the_top_components(preset, bricks, field, monkeypatch):
    # At every vertex, the label of the arrow out at each position, None
    # where the arrow comes in, against the pair's top components.  Each
    # summand brings its brick M / rad End(M) M, and that is a bijection
    # from the tau-rigid indecomposables onto the bricks, which are the
    # labels (Demonet-Iyama-Jasso).
    made = []

    class Recorded(tautilt._FaceBricks):
        def __init__(self, registry):
            super().__init__(registry)
            made.append(self)

    monkeypatch.setattr(tautilt, "_FaceBricks", Recorded)
    q = explore(IsoRegistry(build_preset(preset, field)))
    reg = q.registry
    for i, pair in enumerate(q.pairs):
        out = {}
        for _, t, lab in q.out_arrows(i):
            (x,) = set(pair.summand_ids) - set(q.pairs[t].summand_ids)
            out[x] = lab
        assert tuple(out.get(x) for x in pair.summand_ids) == reg.pair_top_ids(pair.summand_ids)
    (masks,) = made
    summands = {s for p in q.pairs for s in p.summand_ids}
    brick_of = {reg.pair_top_ids((z,))[0] for z in summands}
    known = set(tautilt._bits(masks.bricks))
    assert len(known) == len(summands) == len(brick_of) == bricks
    assert known == brick_of == {lab for _, _, lab in q.arrows}


Q_AND_F5 = [(preset, field) for preset, field in LABELLED if field.characteristic() != 3]


@pytest.mark.parametrize(
    "preset,field", Q_AND_F5, ids=lambda c: str(c) if isinstance(c, str) else f"char{c.characteristic()}"
)
def test_cached_components_match_the_components_of_the_whole_pair(preset, field):
    # The top components of every pair, against the components over every
    # Hom basis between the summands: first with the cache emptied before
    # each pair, then with it full.
    q = explore(IsoRegistry(build_preset(preset, field)))
    reg = q.registry
    tuples = [p.summand_ids for p in q.pairs]
    expected = [reference_components(reg, ids) for ids in tuples]
    emptied = []
    for ids in tuples:
        reg.tops.clear()
        emptied.append(reg.pair_top_ids(ids))
    assert emptied == expected
    for _ in range(2):
        assert [reg.pair_top_ids(ids) for ids in tuples] == expected


@pytest.mark.parametrize(
    "preset,field,depth",
    [
        pytest.param(preset, field, None, id=f"{preset}-char{field.characteristic()}")
        for preset, field in Q_AND_F5
    ]
    + [
        pytest.param("msex", field, depth, id=f"msex-depth{depth}-char{field.characteristic()}")
        for depth in (4, 6)
        for field in (QQ, PrimeField(5))
    ],
)
def test_cached_exchanges_match_the_decomposing_mutation(preset, field, depth):
    # Every arrow of a fresh quiver, most of them completed from known summands,
    # first with the top cache emptied before each mutation, then with it
    # full.  msex is tau-tilting infinite, so it is explored to a depth and
    # only the expanded vertices have arrows out.  Over F_5
    # the decomposing mutation cannot split the cokernels of two presets
    # (dim End >= 5), so there the arrows are checked against the quiver only.
    q = explore(IsoRegistry(build_preset(preset, field)), max_depth=depth)
    reg = q.registry
    steps = [
        (pair, pos)
        for pair, d in zip(q.pairs, q.depths)
        if depth is None or d < depth
        for pos in mutable_positions(pair)
    ]
    expected = [(q.pairs[t].key, lab) for _, t, lab in q.arrows]
    if field == QQ or preset not in ("nakayama:cyclic:3:5", "nakayama:linear:5:3"):
        assert [(new.key, lab) for new, lab in (reference_left_mutate(p, k) for p, k in steps)] == expected
    emptied = []
    for pair, pos in steps:
        reg.tops.clear()
        new, lab = left_mutate(pair, pos)
        emptied.append((new.key, lab))
    assert emptied == expected
    for _ in range(2):
        assert [(new.key, lab) for new, lab in (left_mutate(p, k) for p, k in steps)] == expected
