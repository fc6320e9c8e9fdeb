"""Central radical quotients A -> A/I and the exchange-quiver comparison."""

from __future__ import annotations

import pytest

from taumut.errors import SpecError
from taumut.modules import Module, direct_sum, projective_module
from taumut.nakayama import NakayamaShape, build_nakayama
from taumut.quotient import (
    central_ideal,
    is_central_radical,
    parse_element,
    quotient_algebra,
    verify_ejr,
)


@pytest.fixture(scope="module")
def b23():
    return build_nakayama(NakayamaShape("cyclic", 2, 3))


def test_parse_element_coefficients(b23):
    z = parse_element(b23, "a1*a2")
    assert parse_element(b23, "2*a1*a2 - a1*a2") == z
    assert parse_element(b23, "a1*a2 + a2*a1") != z


def test_parse_element_rejects_garbage(b23):
    with pytest.raises(SpecError):
        parse_element(b23, "")
    with pytest.raises(SpecError):
        parse_element(b23, "b7")
    with pytest.raises(SpecError):
        parse_element(b23, "2")  # a bare scalar is not in the radical


def test_centrality_test(b23):
    assert is_central_radical(b23, parse_element(b23, "a1*a2"))
    assert is_central_radical(b23, parse_element(b23, "a2*a1"))
    # an arrow between distinct vertices cannot commute with idempotents
    assert not is_central_radical(b23, parse_element(b23, "a1"))


def test_central_ideal_rejects_noncentral(b23):
    with pytest.raises(SpecError):
        central_ideal(b23, ["a1"])


def test_quotient_algebra_and_reduce(b23):
    ideal = central_ideal(b23, ["a1*a2", "a2*a1"])
    quotient, reduce = quotient_algebra(ideal)
    assert quotient.dim == 4  # paths of length <= 1 survive
    regular, _ = direct_sum(b23, [projective_module(b23, v) for v in range(2)])
    reduced = reduce(regular)
    assert reduced.dims == (2, 2)
    assert reduced.algebra is quotient


def test_reduce_rejects_foreign_modules(b23):
    ideal = central_ideal(b23, ["a1*a2", "a2*a1"])
    _, reduce = quotient_algebra(ideal)
    other = build_nakayama(NakayamaShape("cyclic", 2, 2))
    with pytest.raises(SpecError):
        reduce(projective_module(other, 0))


def test_verify_comparison_on_b23(b23):
    report = verify_ejr(central_ideal(b23, ["a1*a2", "a2*a1"]))
    assert report.n_vertices == (6, 6)
    assert report.n_arrows == (6, 6)
    assert report.vertex_bijection
    assert report.arrows_match
    assert report.labels_fixed
    assert report.semibricks_match
    assert report.ok


def test_verify_comparison_loop_case():
    # one vertex with a loop; the quotient is semisimple
    b12 = build_nakayama(NakayamaShape("cyclic", 1, 2))
    ideal = central_ideal(b12, ["a1"])
    quotient, _ = quotient_algebra(ideal)
    assert quotient.dim == 1
    report = verify_ejr(ideal)
    assert report.n_vertices == (2, 2)
    assert report.n_arrows == (1, 1)
    assert report.ok


def test_quotient_module_still_satisfies_relations(b23):
    # the reduced module must be a genuine module over the quotient:
    # rebuilding it from scratch revalidates the extra relations
    ideal = central_ideal(b23, ["a1*a2", "a2*a1"])
    quotient, reduce = quotient_algebra(ideal)
    reduced = reduce(projective_module(b23, 0))
    again = Module(quotient, reduced.dims, reduced.mats)
    assert again.dims == (1, 1)


def test_a_summand_that_reduces_to_a_sum_breaks_the_vertex_bijection(b23, monkeypatch):
    # The first summand reduces to M + M.  It is registered plainly, matches
    # no class of A/I, and so its vertices have no image; nothing is
    # decomposed on the way.
    from taumut import modules, quotient

    real = quotient.quotient_algebra
    decomposed = []

    def doubling(ideal):
        algebra, reduce = real(ideal)
        first = []

        def reduce_first_twice(M):
            first.append(M)
            N = reduce(M)
            return direct_sum(algebra, [N, N])[0] if M is first[0] else N

        return algebra, reduce_first_twice

    monkeypatch.setattr(quotient, "quotient_algebra", doubling)
    monkeypatch.setattr(modules, "decompose", decomposed.append)
    report = verify_ejr(central_ideal(b23, ["a1*a2", "a2*a1"]))
    assert report.n_vertices == (6, 6)
    assert not report.vertex_bijection
    assert not report.ok
    assert decomposed == []
