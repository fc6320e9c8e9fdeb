"""Each merged derivation against a second route to it.

The registry's translate is checked against the uncached translate, the
Ext^1 representatives and the registry's cached Ext^1 dimension against
the Ext^1 dimension formula, the shifted columns of the SMC against the
co-semibrick of the dual pair, and the exchange quiver's adjacency lists
against a scan of its arrows.  The End(M) structure constants read off
the free columns are checked against solved ones, and Hom(N, tau M) from
the registry's translate against the presentation pairing, which needs no
translate (AIR Prop. 2.4).
"""

from __future__ import annotations

from collections import Counter

import pytest

from taumut import IsoRegistry
from taumut.linalg import QQ, PrimeField
from taumut.modules import _indec_iso, ar_translate, end_data, ext1_basis, ext1_dim
from taumut.presets import build_preset
from taumut.smc import _presentation_pairing_dim, paired_columns
from taumut.tautilt import cosemibrick_of, dual_pair, explore

from conftest import solved_end_constants

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
