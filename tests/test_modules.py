"""Module arithmetic and the homological toolkit, checked against hand
computations over the linearly oriented A3 path algebra (vertices 1->2->3,
so right modules have their projective at vertex 1 equal to the full
uniserial 1/2/3)."""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taumut
from taumut import linalg, modules
from taumut.errors import CharacteristicError, DimensionMismatchError, NotABrickError, SpecError, TaumutError
from taumut.linalg import QQ, Mat, PrimeField, hstack, row_space, vstack
from taumut.modules import (
    Module,
    ModuleHom,
    IsoRegistry,
    _end_split,
    _indec_iso,
    _minpoly,
    _powers,
    ar_translate,
    ar_translate_inverse,
    cokernel,
    decompose,
    direct_sum,
    end_data,
    ext1_dim,
    hom_basis,
    hom_dim,
    identity_hom,
    image,
    in_fac,
    in_sub,
    injective_module,
    is_brick,
    is_isomorphic,
    is_semibrick,
    is_tau_inverse_rigid,
    is_tau_rigid_pair,
    kernel,
    minimal_projective_presentation,
    projective_module,
    semibrick_socle,
    semibrick_top,
    simple_module,
    submodule_from_rows,
    top,
    zero_hom,
    zero_module,
)
from taumut.presets import build_preset
from taumut.tautilt import explore

from conftest import solve, solved_end_constants


@pytest.fixture(scope="module")
def a3():
    return build_preset("a-path:3")


@pytest.fixture(scope="module")
def simples(a3):
    return [simple_module(a3, v) for v in range(3)]


def _uniserial(a3, dims):
    """The unique indecomposable with the given interval dim vector, built
    as a quotient of the projective cover by the tail of its socle series."""
    from taumut.modules import quotient_by_rows

    topv = dims.index(1)
    m = projective_module(a3, topv)
    if m.dims != tuple(dims):
        kill = []
        for v in range(3):
            if tuple(dims)[v] == 0 and m.dims[v] == 1:
                kill.append(Mat.identity(a3.field, 1))
            else:
                kill.append(Mat.zeros(a3.field, 0, m.dims[v]))
        m, _ = quotient_by_rows(m, kill)
    return m


def test_projective_and_injective_dims(a3):
    assert [projective_module(a3, v).dims for v in range(3)] == [
        (1, 1, 1),
        (0, 1, 1),
        (0, 0, 1),
    ]
    assert [injective_module(a3, v).dims for v in range(3)] == [
        (1, 0, 0),
        (1, 1, 0),
        (1, 1, 1),
    ]


def test_module_constructor_guards(a3):
    with pytest.raises(DimensionMismatchError):
        Module(a3, (1, 0), (Mat.zeros(QQ, 1, 0), Mat.zeros(QQ, 0, 0)))
    # matrices violating a relation are rejected at construction
    msex = build_preset("msex")
    one = Mat(QQ, [[1]])
    with pytest.raises(SpecError):
        Module(msex, (1, 1, 1), (one, one, one))


def test_hom_constructor_guards(a3, simples):
    # The public constructor checks each vertex's shape and commutation.
    P0, S0 = projective_module(a3, 0), simples[0]
    one, empty = Mat.identity(QQ, 1), Mat.zeros(QQ, 0, 1)
    with pytest.raises(DimensionMismatchError, match="vertex 1: expected 1x1, got 1x2"):
        ModuleHom(P0, P0, [one, Mat.zeros(QQ, 1, 2), one])
    # S_0 -> P_0 onto the top of P_0 is not a module map: a1 kills S_0 but not P_0
    with pytest.raises(DimensionMismatchError, match="does not commute with arrow a1"):
        ModuleHom(S0, P0, [one, empty, empty])
    assert not ModuleHom(P0, S0, [one, empty.transpose(), empty.transpose()]).is_zero()


def test_hom_dims_between_uniserials(a3, simples):
    p1 = projective_module(a3, 0)
    p2 = projective_module(a3, 1)
    assert hom_dim(p1, p1) == 1
    assert hom_dim(p2, p1) == 1  # the inclusion
    assert hom_dim(p1, p2) == 0
    assert hom_dim(simples[0], p1) == 0
    assert hom_dim(p1, simples[0]) == 1  # the top quotient
    h = hom_basis(p2, p1).basis[0]
    ker, _ = kernel(h)
    assert ker.is_zero
    img, _ = image(h)
    assert img.dims == (0, 1, 1)
    cok, _ = cokernel(h)
    assert cok.dims == (1, 0, 0)


def test_submodule_rejects_rows_that_are_not_arrow_stable(a3):
    # the top of P_0 = 1/2/3 maps onto vertex 1, where no rows are given
    p0 = projective_module(a3, 0)
    rows = [Mat(QQ, [[1]]), Mat.zeros(QQ, 0, 1), Mat.zeros(QQ, 0, 1)]
    with pytest.raises(DimensionMismatchError, match="outside the expected row space"):
        submodule_from_rows(p0, [row_space(r) for r in rows])


def test_image_and_cokernel_read_off_the_echelon_form():
    # maps P_i -> P_j + P_j of the form (h, 2h): their rows are not unit
    # vectors, so the rref bases have nonzero entries at free columns
    algebra = build_preset("preproj-a:3")
    field = algebra.field
    projectives = [projective_module(algebra, v) for v in range(3)]
    for M in projectives:
        for N in projectives:
            NN, _ = direct_sum(algebra, [N, N])
            for h in hom_basis(M, N).basis:
                mats = [hstack(field, [m, m.scale(2)], nrows=m.nrows) for m in h.mats]
                h2 = ModuleHom(M, NN, mats)
                img, incl = image(h2)
                cok, proj = cokernel(h2)
                assert h2.compose(proj).is_zero()
                assert incl.compose(proj).is_zero()
                for v in range(algebra.n_vertices):
                    assert img.dims[v] + cok.dims[v] == NN.dims[v]
                    assert len(row_space(proj.mats[v])[1]) == cok.dims[v]
                    # the image is spanned by the rows of h2 at each vertex
                    both = vstack(field, [h2.mats[v], incl.mats[v]])
                    assert len(row_space(both)[1]) == img.dims[v]


def test_ar_translate_of_simples(a3, simples):
    assert ar_translate(simples[0]).dims == (0, 1, 0)
    assert ar_translate(simples[1]).dims == (0, 0, 1)
    assert ar_translate(projective_module(a3, 0)).is_zero
    # tau and tau^- are inverse on non-projective non-injectives
    s1 = simples[0]
    back = ar_translate_inverse(ar_translate(s1))
    assert is_isomorphic(back, s1)


def test_ext_dims(a3, simples):
    assert ext1_dim(simples[0], simples[1]) == 1
    assert ext1_dim(simples[1], simples[0]) == 0
    assert ext1_dim(simples[0], simples[2]) == 0
    # Ext^1 off a projective vanishes
    assert ext1_dim(projective_module(a3, 0), simples[2]) == 0


def test_presentation_of_projective_simple(a3, simples):
    pres = minimal_projective_presentation(simples[2])
    assert pres.p1.is_zero
    pres1 = minimal_projective_presentation(simples[0])
    assert pres1.p0.dims == (1, 1, 1)
    assert pres1.p1.dims == (0, 1, 1)


@pytest.mark.parametrize(
    "argv,presentations",
    [
        (["explore", "--preset", "a-path:5", "--field", "fp:32003"], 15),
        (["verify", "--preset", "nakayama:cyclic:4:4"], 16),
    ],
    ids=["explore-apath5-fp", "verify-cyclic44-q"],
)
def test_presentations_build_p1_only_when_read(argv, presentations, monkeypatch, capsys):
    # A verb reads only P1's vertices, the top of Omega M, so each
    # presentation builds one projective cover; P1, its offsets and f,
    # read later, are those of an eager second cover.
    from taumut import cli

    made, covers = [], []
    real_present, real_cover = modules.minimal_projective_presentation, modules._projective_cover

    def present(M):
        made.append(real_present(M))
        return made[-1]

    def cover(M):
        covers.append(M)
        return real_cover(M)

    monkeypatch.setattr(modules, "minimal_projective_presentation", present)
    monkeypatch.setattr(modules, "_projective_cover", cover)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(made) == len(covers) == presentations
    monkeypatch.undo()
    for pres in made:
        vertices, p1, p1_offsets, cover1 = real_cover(pres.omega)
        assert pres.p1_vertices == vertices
        assert (pres.p1, pres.p1_offsets) == (p1, p1_offsets)
        assert pres.f.mats == cover1.compose(pres.omega_incl).mats
        ModuleHom(pres.f.source, pres.f.target, pres.f.mats)  # raises unless it commutes
        assert (pres.f.source, pres.f.target) == (p1, pres.p0)


@pytest.mark.parametrize(
    "argv,calls",
    [
        (
            # before the self-tops: 49 quotients
            ["explore", "--preset", "a-path:5", "--field", "fp:32003"],
            {"_rref_rows": 242, "hom_basis": 63, "quotient_by_rows": 34, "check_smc_axioms": 0},
        ),
        (
            # once per orbit of the rotation, 20 of the 70 vertices: the
            # coincidence loop re-checks no mutated collection, and the table
            # stands in for the duality report; no label is tested for Fac of
            # its source, which the tops check already implies (a top
            # component is a quotient of its summand); the equivariance check
            # adds the Hom systems of its iso tests; before the self-tops: 188
            # quotients; before the orbits: 735 eliminations, 188 Hom
            # systems, 172 quotients and 70 axiom checks, one per vertex
            ["verify", "--preset", "nakayama:cyclic:4:4"],
            {"_rref_rows": 489, "hom_basis": 152, "quotient_by_rows": 80, "check_smc_axioms": 20},
        ),
        (
            # no automorphism: every vertex is its own orbit, and verify does
            # the work it did before the orbits
            ["verify", "--preset", "a-path:5", "--field", "fp:32003"],
            {"_rref_rows": 624, "hom_basis": 118, "quotient_by_rows": 164, "check_smc_axioms": 132},
        ),
    ],
    ids=["explore-apath5-fp", "verify-cyclic44-q", "verify-apath5-fp"],
)
def test_the_timed_verbs_do_pinned_work(argv, calls, monkeypatch, capsys):
    # Eliminations, Hom systems, quotients and axiom checks per run of each
    # timed verb, counted wherever a taumut module binds them; neither verb
    # builds g/c-matrices or takes a determinant.  How matrices, modules
    # and maps are constructed must not move these counts.
    from taumut import cli, grothendieck, smc

    calls = dict(calls, grothendieck_data=0, duality_report=0, _int_det=0)
    namespaces = [importlib.import_module(m.name) for m in pkgutil.iter_modules(taumut.__path__, "taumut.")]
    counts = Counter()
    for owner, name in (
        (linalg, "_rref_rows"),
        (modules, "hom_basis"),
        (modules, "quotient_by_rows"),
        (smc, "check_smc_axioms"),
        (grothendieck, "grothendieck_data"),
        (grothendieck, "duality_report"),
        (grothendieck, "_int_det"),
    ):
        original = getattr(owner, name)

        def counted(*args, _name=name, _fn=original):
            counts[_name] += 1
            return _fn(*args)

        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, attr, counted)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert {name: counts[name] for name in calls} == calls


def test_registry_ext1_refuses_a_nonzero_ext_with_no_hom_from_omega(a3, simples):
    # P1 of S_1 is P_2, where S_1 vanishes, so Hom(Omega S_1, S_1) = 0 is
    # not built; a cached End(S_1) emptied by hand makes the formula read
    # Ext^1 = -1, which names both modules' dims.
    reg = IsoRegistry(a3)
    s1 = reg.register(simples[0])
    reg._hom[(s1, s1)] = modules.HomSpace(simples[0], simples[0], (), ())
    with pytest.raises(TaumutError, match=r"Ext\^1 = -1 .* dims \[1, 0, 0\] and N with dims \[1, 0, 0\]"):
        reg.ext1_dim(s1, s1)


def test_tau_rigidity(a3, simples):
    s1, s2, s3 = simples
    assert is_tau_rigid_pair([s1, s3], [])
    assert not is_tau_rigid_pair([s1, s2], [])
    # support condition: the module must vanish at listed vertices
    assert is_tau_rigid_pair([s3], [0, 1])
    assert not is_tau_rigid_pair([s3], [2])
    assert is_tau_inverse_rigid(injective_module(a3, 0))


def test_fac_and_sub_membership(a3, simples):
    p1 = projective_module(a3, 0)
    assert in_fac(simples[0], p1)
    assert not in_fac(simples[2], simples[0])
    assert in_sub(simples[2], p1)
    assert not in_sub(simples[0], projective_module(a3, 1))


def test_top_of_uniserial(a3):
    t, _ = top(projective_module(a3, 0))
    assert t.dims == (1, 0, 0)


def test_decompose_and_registry(a3, simples):
    total, _ = direct_sum(a3, [simples[0], simples[2], simples[0]])
    parts = decompose(total)
    assert sorted(p.dims for p in parts) == [(0, 0, 1), (1, 0, 0), (1, 0, 0)]
    reg = IsoRegistry(a3)
    ids = sorted(reg.register(part) for part in parts)
    assert len(ids) == 3 and len(set(ids)) == 2
    assert reg.register(simples[0]) in ids


def test_register_brick_names_a_known_non_brick():
    # The projective at the middle vertex of preproj-a:3 has dim End 2.
    reg = IsoRegistry(build_preset("preproj-a:3"))
    p1 = reg.projective_ids[1]
    with pytest.raises(NotABrickError) as err:
        reg.register_brick(reg.module(p1))
    assert str(err.value) == "the module with dims [1, 2, 1] has dim End 2, not a brick"
    assert [reg.register_brick(reg.module(p)) for p in reg.projective_ids[::2]] == [0, 2]


def test_register_brick_names_a_new_sum(a3, simples):
    reg = IsoRegistry(a3)
    with pytest.raises(NotABrickError) as err:
        reg.register_brick(direct_sum(a3, [simples[0], simples[1]])[0])
    assert str(err.value) == "the module with dims [1, 1, 0] has dim End 2, not a brick"


def test_a_refused_brick_leaves_the_registry_as_it_was(a3, simples):
    # S_0 + S_1 is refused before it is added; S_0 is then added with the
    # End space that certified it.
    reg = IsoRegistry(a3)
    before = (reg.count(), {d: list(ids) for d, ids in reg._by_dims.items()}, dict(reg._exact))
    with pytest.raises(NotABrickError):
        reg.register_brick(direct_sum(a3, [simples[0], simples[1]])[0])
    assert (reg.count(), reg._by_dims, reg._exact) == before
    s0 = reg.register_brick(simples[0])
    assert (s0, reg.count(), reg.end_dim(s0)) == (3, 4, 1)
    assert (s0, s0) in reg._hom


def _state(reg):
    return (
        reg.count(),
        {d: list(ids) for d, ids in reg._by_dims.items()},
        dict(reg._exact),
        set(reg._hom),
    )


def test_register_brick_refuses_a_new_indecomposable_non_brick():
    # k[x]/x^2 over k[x]/x^3 is indecomposable with dim End 2: refused
    # before it is added, and again once plain register has added it.
    A = build_preset("nakayama:cyclic:1:3")
    M = Module(A, (2,), [Mat(A.field, [[0, 1], [0, 0]], ncols=2)])
    reg = IsoRegistry(A)
    before = _state(reg)
    message = "the module with dims [2] has dim End 2, not a brick"
    with pytest.raises(NotABrickError) as err:
        reg.register_brick(M)
    assert str(err.value) == message
    assert _state(reg) == before
    i = reg.register(M)
    assert (i, reg.count()) == (before[0], before[0] + 1)
    with pytest.raises(NotABrickError) as err:
        reg.register_brick(M)
    assert str(err.value) == message
    assert reg.count() == before[0] + 1


def test_a_summand_with_a_two_dimensional_division_ring_end_is_not_its_own_top():
    # K = (I, [[0, -1], [1, 0]]) on msex's Kronecker arrows: rad End(K) = 0
    # but End(K) = Q[x]/(x^2 + 1) has dimension two.  Alone in its tuple
    # nothing maps into K, so K is its own top, and the brick check refuses it.
    A = build_preset("msex", QQ)
    K = Module(A, (2, 2, 0), [Mat.identity(QQ, 2), Mat(QQ, [[0, -1], [1, 0]]), Mat.zeros(QQ, 2, 0)])
    reg = IsoRegistry(A)
    k = reg.register(K)
    assert (reg.rad_end(k), reg.end_dim(k)) == ([], 2)
    with pytest.raises(NotABrickError) as err:
        reg.pair_top_ids((k,))
    assert str(err.value) == "the module with dims [2, 2, 0] has dim End 2, not a brick"
    assert reg.tops == {}


def test_a_brick_alone_is_its_own_top_with_no_quotient(monkeypatch):
    # Every indecomposable over a path algebra of type A is a brick.
    reg = IsoRegistry(build_preset("a-path:5", PrimeField(32003)))
    summands = sorted({z for p in explore(reg).pairs for z in p.summand_ids})
    reg.tops.clear()
    quotients, real = [], modules.quotient_by_rows
    monkeypatch.setattr(modules, "quotient_by_rows", lambda *args: quotients.append(args) or real(*args))
    assert [reg.pair_top_ids((z,)) for z in summands] == [(z,) for z in summands]
    assert (len(summands), quotients) == (15, [])


def test_register_brick_refuses_the_zero_module_as_register_does(a3):
    reg = IsoRegistry(a3)
    before = _state(reg)
    for register in (reg.register, reg.register_brick):
        with pytest.raises(DimensionMismatchError, match="cannot register the zero module"):
            register(zero_module(a3))
    assert _state(reg) == before


def test_a_conjugate_of_a_new_brick_reads_its_stored_end(a3, monkeypatch):
    # The End space that certified a new brick is stored under its id, so
    # a conjugate of it is certified by the iso test alone, with no End
    # space built again.
    reg = IsoRegistry(a3)
    s01 = reg.register_brick(_uniserial(a3, [1, 1, 0]))
    M = reg.module(s01)
    C = Module(a3, M.dims, [M.mats[0].mul(Mat(a3.field, [[2]], ncols=1)), M.mats[1]])
    assert C != M
    ends = []
    real = modules.hom_basis

    def hom_basis(X, Y):
        ends.append(X is Y)
        return real(X, Y)

    monkeypatch.setattr(modules, "hom_basis", hom_basis)
    assert reg.register_brick(C) == s01
    assert ends == [False]
    assert reg.register_brick(C) == s01
    assert ends == [False]


def test_is_brick_on_all_a3_indecomposables(a3):
    reg = IsoRegistry(a3)
    seen = {reg.module(i).dims for i in range(reg.count())}
    assert seen == {(1, 1, 1), (0, 1, 1), (0, 0, 1)}
    # every indecomposable over the hereditary A3 is a brick
    for dims in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]:
        assert is_brick(_uniserial(a3, list(dims)))
    two, _ = direct_sum(a3, [simple_module(a3, 0)] * 2)
    assert not is_brick(two)


def test_semibricks(a3, simples):
    assert is_semibrick([])
    assert is_semibrick(simples)
    assert is_semibrick([simples[0], simples[1]])
    p1 = projective_module(a3, 0)
    # Hom(P1, S3) != 0, so the pair is not Hom-orthogonal
    assert not is_semibrick([p1, simples[2]])
    assert not is_semibrick([p1, p1])


def test_semibrick_top_and_socle(a3):
    projs = [projective_module(a3, v) for v in range(3)]
    tops = semibrick_top(projs)
    assert sorted(m.dims for m in tops) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    injs = [injective_module(a3, v) for v in range(3)]
    socs = semibrick_socle(injs)
    assert sorted(m.dims for m in socs) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert is_semibrick(tops)


def test_registry_identifies_iso_classes_not_dims():
    # two non-isomorphic modules share the dim vector (1, 1) here
    b22 = build_preset("nakayama:cyclic:2:2")
    reg = IsoRegistry(b22)
    p1 = projective_module(b22, 0)
    p2 = projective_module(b22, 1)
    assert p1.dims == p2.dims == (1, 1)
    assert not is_isomorphic(p1, p2)
    assert reg.register(p1) != reg.register(p2)


def test_prime_field_module_arithmetic():
    a3p = build_preset("a-path:3", PrimeField(5))
    s = [simple_module(a3p, v) for v in range(3)]
    assert ar_translate(s[0]).dims == (0, 1, 0)
    assert is_tau_rigid_pair([s[0], s[2]], [])
    assert is_brick(projective_module(a3p, 0))


def test_zero_module_behaviour(a3):
    z = zero_module(a3)
    assert z.is_zero
    assert ar_translate(z).is_zero
    assert in_fac(z, projective_module(a3, 0))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5))
def test_hom_spaces_respect_composition(i, j):
    """Composites of basis homs stay inside the target hom space."""
    a3 = build_preset("a-path:3")
    dims_list = [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (0, 1, 1),
        (1, 1, 1),
    ]
    m = _uniserial(a3, list(dims_list[i]))
    n = _uniserial(a3, list(dims_list[j]))
    for f in hom_basis(m, n).basis:
        for g in hom_basis(n, m).basis:
            comp = f.compose(g)
            # membership: solving for coordinates must succeed
            basis = hom_basis(m, m).basis
            if not basis:
                assert comp.is_zero()
                continue
            width = len(comp.flatten())
            coords = Mat(a3.field, [b.flatten() for b in basis], ncols=width)
            target = Mat(a3.field, [comp.flatten()], ncols=width)
            assert solve(coords.transpose(), target.transpose()) is not None


# -- a quadratic field as endomorphism ring ----------------------------------


def _quadratic_module(field):
    """dims (2, 2, 0) on msex with alpha = I and beta = [[0, 2], [1, 0]].

    An endomorphism is a pair of equal matrices commuting with beta, so
    End is k[beta] = k[x]/(x^2 - 2): a field where 2 is not a square, two
    copies of k where it is."""
    algebra = build_preset("msex", field)
    mats = [
        Mat.identity(field, 2),
        Mat(field, [[0, 2], [1, 0]]),
        Mat.zeros(field, 2, 0),
    ]
    return Module(algebra, (2, 2, 0), mats)


def _quadratic_square_module(field):
    """dims (4, 4, 0) on msex with alpha = I and beta the companion matrix
    of (x^2 - 2)^2.

    beta is cyclic, so End is k[beta] = k[x]/((x^2 - 2)^2): local with a
    radical of dimension two where 2 is not a square, so End/rad is the
    quadratic field; two local pieces where it is."""
    algebra = build_preset("msex", field)
    mats = [
        Mat.identity(field, 4),
        Mat(field, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-4, 0, 4, 0]]),
        Mat.zeros(field, 4, 0),
    ]
    return Module(algebra, (4, 4, 0), mats)


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(3), PrimeField(5)], ids=["Q", "F3", "F5"]
)
def test_quadratic_field_endomorphism_ring_is_local(field):
    M = _quadratic_module(field)
    space = hom_basis(M, M)
    E = space.basis
    assert len(E) == 2
    data = end_data(M, space)
    assert data.rad_vectors == []
    # No probe splits M, and beta's minimal polynomial x^2 - 2 is
    # irreducible of degree dim End, so it certifies that End is a field.
    assert _end_split(M, data) is None
    parts = decompose(M)
    assert [p.dims for p in parts] == [(2, 2, 0)]
    assert is_brick(M)


def test_quadratic_module_splits_where_two_is_a_square():
    field = PrimeField(7)  # 3 * 3 = 2 mod 7
    M = _quadratic_module(field)
    parts = decompose(M)
    assert sorted(p.dims for p in parts) == [(1, 1, 0), (1, 1, 0)]
    # beta acts as 3 on one summand and as -3 on the other
    assert not _indec_iso(parts[0], parts[1])
    assert not is_brick(M)
    # (x^2 - 2)^2 = (x - 3)^2 (x + 3)^2: the split keeps each multiplicity,
    # and each summand has End = k[x]/(x^2), so it is no brick
    parts = decompose(_quadratic_square_module(field))
    assert sorted(p.dims for p in parts) == [(2, 2, 0), (2, 2, 0)]
    assert not _indec_iso(parts[0], parts[1])
    assert not any(is_brick(p) for p in parts)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_quadratic_field_over_a_radical_is_local(field):
    M = _quadratic_square_module(field)
    space = hom_basis(M, M)
    data = end_data(M, space)
    assert (data.dim, len(data.rad_vectors)) == (4, 2)
    # End/rad has dimension two: neither the ground field nor all of End
    assert _end_split(M, data) is None
    assert [p.dims for p in decompose(M)] == [(4, 4, 0)]
    assert not is_brick(M)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_registry_brick_verdict_on_local_ends_over_a_quadratic_field(field):
    # End is the field k[x]/(x^2 - 2) on the first module, so it is a brick
    # although End is not the ground field; on the second End is local with
    # End/rad that field, so it is none.
    for M, brick in ((_quadratic_module(field), True), (_quadratic_square_module(field), False)):
        reg = IsoRegistry(M.algebra)
        i = reg.register(M)
        assert reg.is_brick_id(i) == is_brick(M) == brick


# -- the minimal polynomial against one solve per power ----------------------


def _poly_of_hom(coeffs, h):
    """Evaluate an ascending-coefficient polynomial at an endomorphism."""
    field = h.source.algebra.field
    acc = zero_hom(h.source, h.source)
    ident = identity_hom(h.source)
    for c in reversed(list(coeffs)):
        acc = acc.compose(h)
        if not field.is_zero(c):
            acc = acc.add(ident.scale(c))
    return acc


def _naive_minpoly(h):
    """Solve for each new power over all earlier ones until one succeeds."""
    field = h.source.algebra.field
    cur = identity_hom(h.source)
    flats = [cur.flatten()]
    while True:
        cur = cur.compose(h)
        width = len(flats[0])
        sol = solve(
            Mat(field, flats, ncols=width).transpose(),
            Mat(field, [cur.flatten()], ncols=width).transpose(),
        )
        if sol is not None:
            return [field.neg(c) for c in sol.flatten()] + [field.one()], flats
        flats.append(cur.flatten())


def _cyclic_projective(field=PrimeField(5)):
    """P_0 over the cyclic Nakayama algebra B_{2,4}: End is k[t]/(t^2)."""
    return projective_module(build_preset("nakayama:cyclic:2:4", field), 0)


def test_indec_iso_looks_past_radical_composites():
    P = _cyclic_projective()
    E = hom_basis(P, P).basis
    # the canonical basis starts with t, so the first composite t t = 0
    # lies in the radical and only a later one is a unit
    assert E[0].compose(E[0]).is_zero()
    assert _indec_iso(P, P)
    other = projective_module(P.algebra, 1)
    assert other.dims == P.dims and not _indec_iso(P, other)


END_CASES = {
    "quadratic-Q": lambda: _quadratic_module(QQ),
    "quadratic-F7": lambda: _quadratic_module(PrimeField(7)),
    "cyclic-P0": _cyclic_projective,
}


@functools.lru_cache(maxsize=None)
def _end_space(name, copies):
    M = END_CASES[name]()
    if copies > 1:
        M = direct_sum(M.algebra, [M] * copies)[0]
    return M, hom_basis(M, M)


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("name", sorted(END_CASES))
def test_end_data_matches_solved_coordinates(name, copies):
    M, space = _end_space(name, copies)
    p = M.algebra.field.characteristic()
    if p and p <= space.dim:
        # two copies over F_5 and F_7: the trace form cannot be trusted
        with pytest.raises(CharacteristicError):
            end_data(M, space)
        return
    data = end_data(M, space)
    assert (data.struct, data.identity_coeffs) == solved_end_constants(M, space.basis)


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("name", sorted(END_CASES))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_minpoly_matches_one_solve_per_power(name, copies, data):
    M, space = _end_space(name, copies)
    E = space.basis
    field = M.algebra.field
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(E), max_size=len(E)))
    h = zero_hom(M, M)
    for c, b in zip(coeffs, E):
        h = h.add(b.scale(c))
    got = _minpoly(field, map(ModuleHom.flatten, _powers(identity_hom(M), h.compose)))
    want, lower = _naive_minpoly(h)
    assert got == want
    assert got[-1] == field.one()
    assert _poly_of_hom(got, h).is_zero()
    # the powers below the degree are independent: no lower degree kills h
    assert len(lower) == len(got) - 1
    assert len(row_space(Mat(field, lower, ncols=len(lower[0])))[1]) == len(lower)


# -- is_brick and decompose against routes that share no probe search --------


@functools.lru_cache(maxsize=None)
def _registry(preset, field):
    return explore(IsoRegistry(build_preset(preset, field))).registry


def _registry_modules(preset, field):
    reg = _registry(preset, field)
    return [reg.module(i) for i in range(reg.count())]


def _brute_force_brick(M):
    """Is every nonzero element of End(M) invertible at every vertex?
    Enumerates all of End(M) over a prime field."""
    field = M.algebra.field
    E = hom_basis(M, M).basis
    for coeffs in itertools.product(range(field.p), repeat=len(E)):
        if not any(coeffs):
            continue
        h = zero_hom(M, M)
        for c, b in zip(coeffs, E):
            h = h.add(b.scale(c))
        if any(len(row_space(m)[1]) < m.nrows for m in h.mats):
            return False
    return True


F3, F5, F7 = PrimeField(3), PrimeField(5), PrimeField(7)

# each case: the modules, and the is_brick verdicts expected on them (None
# when the brute force alone is the reference)
BRICK_CASES = {
    "quadratic-F3": (lambda: [_quadratic_module(F3)], [True]),
    "quadratic-F5": (lambda: [_quadratic_module(F5)], [True]),
    "quadratic-F7": (lambda: [_quadratic_module(F7)], [False]),
    "cyclic-P0-F3": (lambda: [_cyclic_projective(F3)], [False]),
    "cyclic-P0-F5": (lambda: [_cyclic_projective(F5)], [False]),
    "cyclic-P0-F7": (lambda: [_cyclic_projective(F7)], [False]),
    "nakayama:cyclic:3:3-F5": (lambda: _registry_modules("nakayama:cyclic:3:3", F5), None),
    "preproj-a:3-F5": (lambda: _registry_modules("preproj-a:3", F5), None),
}


@pytest.mark.parametrize("name", sorted(BRICK_CASES))
def test_is_brick_matches_brute_force_over_small_fields(name):
    build, expected = BRICK_CASES[name]
    verdicts = []
    for M in build():
        if hom_dim(M, M) > 3:
            continue
        verdict = is_brick(M)
        assert verdict == _brute_force_brick(M)
        verdicts.append(verdict)
    assert verdicts
    if expected is not None:
        assert verdicts == expected
    elif name.startswith("preproj"):
        # projectives with End of dimension two are not bricks
        assert set(verdicts) == {True, False}


@pytest.mark.parametrize("preset", ["a-path:3", "nakayama:cyclic:3:3", "preproj-a:3"])
def test_decompose_recovers_both_summands_of_m_plus_n_plus_m(preset):
    reg = _registry(preset, QQ)
    pairs = [
        (i, j)
        for i in range(reg.count())
        for j in range(reg.count())
        if i != j and (reg.hom_dim(i, j) or reg.hom_dim(j, i))
    ]
    assert pairs
    for i, j in pairs:
        M, N = reg.module(i), reg.module(j)
        parts = decompose(direct_sum(reg.algebra, [M, N, M])[0])
        assert len(parts) == 3
        remaining = [M, N, M]
        for part in parts:
            hits = [k for k, X in enumerate(remaining) if _indec_iso(part, X)]
            assert hits, f"summand {part.dims} of {M.dims} + {N.dims} + {M.dims}"
            remaining.pop(hits[0])
