"""Nakayama families: interval modules, brick enumeration, semibrick
counting by brute force, by recurrence, and by the symmetric-function
identities."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taumut import IsoRegistry
from taumut.errors import GuardExceededError, IntervalError, SpecError
from taumut.linalg import QQ, PrimeField
from taumut.modules import is_brick
from taumut.nakayama import (
    NakayamaShape,
    a_count,
    b_count,
    build_nakayama,
    catalan,
    count_semibricks_bruteforce,
    count_table,
    count_value,
    enumerate_bricks,
    enumerate_indecomposables,
    format_count_table,
    interval_module,
    make_nakayama,
    uniserial_module,
    verify_symmetric_identities,
)
from taumut.tautilt import explore

from conftest import catalan_by_recurrence, naive_semibrick_count, reference_uniserial


def test_shape_validation():
    with pytest.raises(SpecError):
        NakayamaShape("moebius", 2, 2)
    with pytest.raises(SpecError):
        NakayamaShape("linear", 0, 2)
    assert str(NakayamaShape("cyclic", 2, 3)) == "cyclic:2:3"


def test_uniserial_and_interval_modules():
    a32 = build_nakayama(NakayamaShape("linear", 3, 2))
    assert uniserial_module(a32, 1, 2).dims == (1, 1, 0)
    assert uniserial_module(a32, 3, 1).dims == (0, 0, 1)
    assert interval_module(a32, 1, 2).dims == (1, 1, 0)
    with pytest.raises(IntervalError):
        interval_module(a32, 1, 3)  # length 3 > l = 2
    with pytest.raises(IntervalError):
        interval_module(a32, 2, 1)  # backwards on a linear quiver
    b22 = build_nakayama(NakayamaShape("cyclic", 2, 2))
    assert interval_module(b22, 2, 1).dims == (1, 1)  # wraps around
    with pytest.raises(IntervalError):
        interval_module(b22, 1, 1 + 2)  # out of range vertex


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
@pytest.mark.parametrize("kind", ["linear", "cyclic"])
def test_uniserial_is_the_walk_construction(kind, field):
    # Every top and length in range and one past each end, n <= 4, l <= 5:
    # the same exact matrices, or the same IntervalError message.
    errors = 0
    for n in range(1, 5):
        for l in range(1, 6):
            algebra = build_nakayama(NakayamaShape(kind, n, l), field)
            for u in range(0, n + 2):
                for k in range(0, l + 2):
                    try:
                        want = reference_uniserial(algebra, u, k)
                    except IntervalError as exc:
                        with pytest.raises(IntervalError) as got:
                            uniserial_module(algebra, u, k)
                        assert str(got.value) == str(exc)
                        errors += 1
                        continue
                    assert uniserial_module(algebra, u, k) == want
    assert errors > 0


def test_brick_enumeration_counts():
    assert len(enumerate_bricks(build_nakayama(NakayamaShape("linear", 3, 2)))) == 5
    assert len(enumerate_bricks(build_nakayama(NakayamaShape("cyclic", 2, 2)))) == 4
    # bricks cap at length min(l, n) even when l exceeds n
    assert len(enumerate_bricks(build_nakayama(NakayamaShape("cyclic", 2, 3)))) == 4
    assert len(enumerate_bricks(build_nakayama(NakayamaShape("cyclic", 1, 3)))) == 1


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["Q", "F2"])
def test_the_bricks_are_the_thin_uniserials(field):
    # A uniserial is a brick exactly when no composition factor repeats.
    # is_brick is compared over Q only: over F_2 its trace form needs
    # p > dim End, which k[x]/x^2 (cyclic:1:2) already breaks.
    for kind in ("linear", "cyclic"):
        for n in range(1, 6):
            for l in range(1, 8):
                algebra = build_nakayama(NakayamaShape(kind, n, l), field)
                indecs = enumerate_indecomposables(algebra)
                thin = [M for M in indecs if max(M.dims) == 1]
                assert enumerate_bricks(algebra) == thin
                if field == QQ:
                    assert [is_brick(M) for M in indecs] == [M in thin for M in indecs]


def test_indecomposables_of_the_path_algebra_case():
    a35 = build_nakayama(NakayamaShape("linear", 3, 5))
    # hereditary: all six intervals
    assert len(enumerate_indecomposables(a35)) == 6


def test_recurrence_base_values():
    assert a_count(0, 3) == 1
    assert a_count(1, 1) == 2
    assert b_count(1, 2) == 2
    with pytest.raises(SpecError):
        count_value("spiral", 2, 2)


def test_catalan_closed_forms():
    for k in range(10):
        assert catalan(k) == catalan_by_recurrence(k)
    # small n is insensitive to l: a is a Catalan number, b its cousin
    for n in range(1, 6):
        assert a_count(n, n) == catalan(n + 1)
        assert a_count(n, 7) == catalan(n + 1)
        assert b_count(n, n) == (n + 1) * catalan(n)


def test_counts_match_brute_force_small_grid():
    for l in (1, 2, 3):
        for n in (1, 2, 3, 4):
            a = build_nakayama(NakayamaShape("linear", n, l))
            assert count_semibricks_bruteforce(a) == a_count(n, l), (n, l)
    for l in (1, 2, 3):
        for n in (1, 2, 3):
            b = build_nakayama(NakayamaShape("cyclic", n, l))
            assert count_semibricks_bruteforce(b) == b_count(n, l), (n, l)


def test_bruteforce_agrees_with_subset_filter_oracle():
    for shape in (
        NakayamaShape("linear", 3, 2),
        NakayamaShape("linear", 4, 3),
        NakayamaShape("cyclic", 3, 2),
    ):
        algebra = build_nakayama(shape)
        assert count_semibricks_bruteforce(algebra) == naive_semibrick_count(
            algebra
        ), str(shape)


def test_bruteforce_guard():
    a = build_nakayama(NakayamaShape("linear", 4, 3))
    with pytest.raises(GuardExceededError):
        count_semibricks_bruteforce(a, guard=3)


def test_exploration_vertex_count_equals_recurrence():
    for shape in (
        NakayamaShape("linear", 4, 2),
        NakayamaShape("cyclic", 3, 3),
    ):
        q = explore(IsoRegistry(build_nakayama(shape)))
        assert q.complete
        assert q.n_vertices == count_value(shape.kind, shape.n, shape.l)


def test_count_table_and_formatting():
    table = count_table("cyclic", 4, 4)
    assert table[(4, 4)] == 70
    text = format_count_table("cyclic", 4, 4)
    assert "70" in text
    assert text.splitlines()[0].startswith("l\\n")


def test_symmetric_function_identities():
    for l in range(1, 5):
        assert verify_symmetric_identities(l, 7)


def test_deep_recurrence_values_terminate_quickly():
    # memoised and clipped: far beyond the table sizes
    assert a_count(40, 6) > 0
    assert b_count(40, 6) > 0


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.sampled_from(["linear", "cyclic"]))
def test_recurrence_equals_bruteforce_property(n, l, kind):
    algebra = build_nakayama(NakayamaShape(kind, n, l))
    assert count_semibricks_bruteforce(algebra) == count_value(kind, n, l)


def test_make_nakayama_l1_is_arrowless():
    spec = make_nakayama(NakayamaShape("cyclic", 3, 1))
    assert not spec.quiver.arrows
    q = explore(IsoRegistry(build_nakayama(NakayamaShape("cyclic", 3, 1))))
    assert q.n_vertices == b_count(3, 1) == 8
