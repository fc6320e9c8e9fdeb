"""Each merged derivation against a second route to it.

The registry's translate is checked against the uncached translate, the
Ext^1 representatives and the registry's cached Ext^1 dimension against
the Ext^1 dimension formula, the shifted columns of the SMC against the
co-semibrick of the dual pair, and the exchange quiver's adjacency lists
against a scan of its arrows.  The End(M) structure constants read off
the free columns are checked against solved ones, and Hom(N, tau M) from
the registry's translate against the presentation pairing, which needs no
translate (AIR Prop. 2.4).  The registry's identification by a bijective
basis map is checked against the composite-outside-the-radical test, on
registered modules and on random changes of their bases.  Injectives and
nu f, derived from the opposite algebra's projectives, are checked against
direct constructions on the dual path basis; in_sub and tau^-1-rigidity,
derived by duality, against their own definitions; and explorations over
Q against explorations over several primes.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from taumut import IsoRegistry, modules
from taumut.algebra import AlgebraSpec, Arrow, Quiver, build_algebra, normalize_relation
from taumut.errors import IndeterminateDecompositionError
from taumut.linalg import QQ, Mat, PrimeField, block_diag, hstack, left_kernel_rows
from taumut.modules import (
    Module,
    ModuleHom,
    _indec_iso,
    ar_translate,
    ar_translate_inverse,
    direct_sum,
    end_data,
    ext1_basis,
    ext1_dim,
    hom_basis,
    hom_dim,
    in_sub,
    injective_module,
    is_brick,
    is_tau_inverse_rigid,
    nakayama_functor_map,
)
from taumut.presets import build_preset
from taumut.smc import _presentation_pairing_dim, paired_columns
from taumut.tautilt import cosemibrick_of, dual_pair, explore, export_records

from conftest import (
    det,
    reference_indec_iso,
    reference_injective,
    reference_nakayama_map,
    solve,
    solved_end_constants,
)

CASES = [
    (preset, field)
    for preset in ("nakayama:cyclic:3:3", "preproj-a:3")
    for field in (QQ, PrimeField(5))
]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def quiver(request):
    preset, field = request.param
    return explore(IsoRegistry(build_preset(preset, field)))


def test_tau_id_matches_ar_translate(quiver):
    reg = quiver.registry
    for i in range(reg.count()):
        t = ar_translate(reg.module(i))
        tid = reg.tau_id(i)
        assert (tid is None) == t.is_zero
        if tid is not None:
            assert _indec_iso(t, reg.module(tid))


def test_ext1_basis_size_matches_ext1_dim(quiver):
    reg = quiver.registry
    n = reg.count()
    dims = []
    for i in range(n):
        pres = reg.presentation(i)
        for j in range(n):
            M, N = reg.module(i), reg.module(j)
            reps, _ = ext1_basis(M, N, pres)
            assert len(reps) == ext1_dim(M, N, pres)
            dims.append(len(reps))
    assert max(dims) > 0


def test_registry_ext1_dim_matches_a_fresh_presentation(quiver):
    reg = quiver.registry
    n = reg.count()
    for i in range(n):
        for j in range(n):
            assert reg.ext1_dim(i, j) == ext1_dim(reg.module(i), reg.module(j))


def test_adjacency_lists_match_a_scan_of_the_arrows(quiver):
    for i in range(quiver.n_vertices):
        assert quiver.out_arrows(i) == [a for a in quiver.arrows if a[0] == i]
        assert quiver.in_arrows(i) == [a for a in quiver.arrows if a[1] == i]


def test_negative_columns_are_the_dual_cosemibrick(quiver):
    reg = quiver.registry
    for pair in quiver.pairs:
        negative = Counter(c.brick_id for c in paired_columns(pair) if c.sign < 0)
        dual = Counter(reg.register(m) for m in cosemibrick_of(dual_pair(pair)))
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
    # the cokernel dimension of Hom(P0, N) -> Hom(P1, N).
    reg = quiver.registry
    n = reg.count()
    nonzero = 0
    for i in range(n):
        tid = reg.tau_id(i)
        for j in range(n):
            got = _presentation_pairing_dim(reg, i, j)
            assert got == (0 if tid is None else reg.hom_dim(j, tid))
            nonzero += got > 0
    assert nonzero > 0


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
            blocks.append(Mat(field, rows, ncols=len(paths), _raw=True))
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
        if left_kernel_rows(hstack(field, mats, nrows=X.dims[v])).nrows != 0:
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
    ["a-path:4", "nakayama:cyclic:3:3", "nakayama:linear:4:3", "preproj-a:3"],
)
def test_explore_over_q_matches_explore_over_primes(preset):
    # These exchange quivers do not depend on the field, so the exported
    # records over Q and over each prime must be equal.
    want = export_records(explore(IsoRegistry(build_preset(preset))))
    for p in (5, 7, 101, 32003):
        got = export_records(explore(IsoRegistry(build_preset(preset, PrimeField(p)))))
        assert got == want, f"F_{p}"


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


def test_register_component_of_a_known_module_decomposes_nothing(identified, monkeypatch):
    reg, conjugates = identified
    n = reg.count()

    def refuse(M):
        raise AssertionError(f"decomposed a module with dims {M.dims}")

    monkeypatch.setattr(modules, "decompose", refuse)
    assert [reg.register_component(C) for C in conjugates] == list(range(n))
    assert reg.count() == n


def test_register_component_of_a_sum_still_raises(identified):
    reg, _ = identified
    p = reg.algebra.field.characteristic()
    n = reg.count()
    checked = 0
    for i in range(n):
        M, N = reg.module(i), reg.module((i + 1) % n)
        S = direct_sum(reg.algebra, [M, N])[0]
        if p and hom_dim(S, S) >= p:
            continue  # the trace-form radical needs p > dim End
        checked += 1
        with pytest.raises(IndeterminateDecompositionError) as err:
            reg.register_component(S)
        assert str(err.value) == (
            f"expected an indecomposable module, but the one with dims "
            f"{S.dims} has 2 summands"
        )
    assert checked and reg.count() == n


def test_is_brick_id_matches_is_brick(identified):
    reg, _ = identified
    verdicts = [reg.is_brick_id(i) for i in range(reg.count())]
    assert verdicts == [is_brick(reg.module(i)) for i in range(reg.count())]
    assert any(verdicts)
