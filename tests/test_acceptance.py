"""End-to-end acceptance checks.

Each test pins exact expected values and asserts its own wall-clock
budget, so a regression in either correctness or performance fails here.
"""

from __future__ import annotations

import time

from taumut import IsoRegistry
from taumut.cli import _verify_quiver, main
from taumut.grothendieck import duality_report
from taumut.modules import (
    injective_module,
    is_semibrick,
    is_tau_inverse_rigid,
    is_tau_rigid_pair,
    projective_module,
    simple_module,
)
from taumut.nakayama import (
    NakayamaShape,
    build_nakayama,
    count_semibricks_bruteforce,
    count_table,
    count_value,
)
from taumut.presets import build_preset
from taumut.quotient import central_ideal, verify_ejr
from taumut.smc import check_label_coincidence
from taumut.tautilt import bongartz_completion, explore, restrict_quiver

from conftest import (
    A3_ARROWS,
    collections_of,
    A3_PAIRS,
    A3_SMC,
    arrow_dims,
    certified,
    relabeled_arrows,
    summand_dims,
    vertex_by_summands,
    weak_order_cover_count,
)

# rows l = 1..7, columns n = 1..7
TABLE_A = [
    [2, 4, 8, 16, 32, 64, 128],
    [2, 5, 12, 29, 70, 169, 408],
    [2, 5, 14, 37, 98, 261, 694],
    [2, 5, 14, 42, 118, 331, 934],
    [2, 5, 14, 42, 132, 387, 1130],
    [2, 5, 14, 42, 132, 429, 1298],
    [2, 5, 14, 42, 132, 429, 1430],
]
TABLE_B = [
    [2, 4, 8, 16, 32, 64, 128],
    [2, 6, 14, 34, 82, 198, 478],
    [2, 6, 20, 50, 132, 354, 940],
    [2, 6, 20, 70, 182, 504, 1430],
    [2, 6, 20, 70, 252, 672, 1920],
    [2, 6, 20, 70, 252, 924, 2508],
    [2, 6, 20, 70, 252, 924, 3432],
]


def test_criterion_01_count_tables():
    start = time.perf_counter()
    got_a = count_table("linear", 7, 7)
    got_b = count_table("cyclic", 7, 7)
    for l in range(1, 8):
        for n in range(1, 8):
            assert got_a[(n, l)] == TABLE_A[l - 1][n - 1], ("a", n, l)
            assert got_b[(n, l)] == TABLE_B[l - 1][n - 1], ("b", n, l)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_three_way_count_agreement():
    start = time.perf_counter()
    grid = [
        ("linear", n, l) for n in range(1, 6) for l in range(1, 4)
    ] + [
        ("cyclic", n, l) for n in range(1, 5) for l in range(1, 4)
    ]
    for kind, n, l in grid:
        algebra = build_nakayama(NakayamaShape(kind, n, l))
        brute = count_semibricks_bruteforce(algebra)
        recurrence = count_value(kind, n, l)
        explored = explore(IsoRegistry(algebra))
        assert explored.complete, (kind, n, l)
        assert brute == recurrence == explored.n_vertices, (kind, n, l)
    assert time.perf_counter() - start < 120.0


def test_criterion_03_path_algebra_quiver_fixture():
    start = time.perf_counter()
    quiver = explore(IsoRegistry(build_preset("a-path:3")))
    assert quiver.n_vertices == 14
    assert quiver.n_arrows == 21
    assert arrow_dims(quiver) == relabeled_arrows(quiver, A3_PAIRS, A3_ARROWS)
    assert time.perf_counter() - start < 5.0


def test_criterion_04_preprojective_quiver_size():
    start = time.perf_counter()
    quiver = explore(IsoRegistry(build_preset("preproj-a:3")))
    assert quiver.complete
    assert quiver.n_vertices == 24
    # covers of the weak order on 4 letters, counted by ascent enumeration
    assert weak_order_cover_count(4) == 36
    assert quiver.n_arrows == 36
    assert time.perf_counter() - start < 60.0


def test_criterion_05_simple_minded_collections_fixture():
    start = time.perf_counter()
    quiver = explore(IsoRegistry(build_preset("a-path:3")))
    reg = quiver.registry
    expected = set()
    for degree0, shifted in A3_SMC.values():
        expected.add((tuple(sorted(degree0)), tuple(sorted(shifted))))
    got = set()
    for i in range(quiver.n_vertices):
        x = certified(quiver, i)
        got.add(
            (
                tuple(sorted(reg.module(i).dims for i in x.degree0)),
                tuple(sorted(reg.module(i).dims for i in x.degree_minus1)),
            )
        )
    assert got == expected
    coincidence = check_label_coincidence(quiver, collections_of(quiver))
    assert coincidence["checked"] == 21
    assert coincidence["skipped"] == []
    assert coincidence["ok"]
    assert time.perf_counter() - start < 10.0


def test_criterion_06_grothendieck_duality():
    start = time.perf_counter()
    presets = ["a-path:3", "a-path:2", "preproj-a:3"]
    presets += [
        f"nakayama:{kind}:{n}:{l}"
        for kind in ("linear", "cyclic")
        for n in range(1, 5)
        for l in range(1, 4)
    ]
    for name in presets:
        quiver = explore(IsoRegistry(build_preset(name)))
        assert quiver.complete, name
        for i, pair in enumerate(quiver.pairs):
            report = duality_report(pair, certified(quiver, i))
            assert report["gtc_equals_dprime"], (name, i)
            assert abs(report["det_g"]) == 1, (name, i)
            assert abs(report["det_c"]) == 1, (name, i)
    assert time.perf_counter() - start < 60.0


def test_criterion_07_restriction_at_a_summand():
    start = time.perf_counter()
    quiver = explore(IsoRegistry(build_preset("a-path:3")))
    s2 = quiver.registry.register(simple_module(quiver.algebra, 1))
    restriction = restrict_quiver(quiver, [s2])
    assert restriction.n_vertices == 5
    assert restriction.n_arrows == 5
    assert restriction.sources == [restriction.source_index]
    source_pair = quiver.pairs[restriction.source_index]
    assert set(summand_dims(source_pair)) == {(0, 1, 1), (1, 1, 1), (0, 1, 0)}
    completion = bongartz_completion(quiver, [s2])
    assert vertex_by_summands(quiver, summand_dims(completion)) == (
        restriction.source_index
    )
    inner_in = {v: 0 for v in restriction.vertex_indices}
    inner_out = {v: 0 for v in restriction.vertex_indices}
    for s, t, _ in restriction.arrows:
        inner_out[s] += 1
        inner_in[t] += 1
    for v in restriction.vertex_indices:
        if v in (restriction.source_index, restriction.sink_index):
            continue
        assert inner_in[v] + inner_out[v] == 2, v
    assert not restriction.violations
    assert time.perf_counter() - start < 5.0


def test_criterion_08_central_quotient_comparison():
    start = time.perf_counter()
    b23 = build_nakayama(NakayamaShape("cyclic", 2, 3))
    report = verify_ejr(central_ideal(b23, ["a1*a2", "a2*a1"]))
    assert report.n_vertices == (6, 6)
    assert report.vertex_bijection
    assert report.arrows_match
    assert report.labels_fixed
    assert report.ok
    assert time.perf_counter() - start < 5.0


def test_criterion_09_infinite_type_spot_checks():
    start = time.perf_counter()
    algebra = build_preset("msex")
    s2 = simple_module(algebra, 1)
    p1 = projective_module(algebra, 0)
    assert is_tau_rigid_pair([s2, p1], [])
    i3 = injective_module(algebra, 2)
    assert is_tau_inverse_rigid(i3)
    assert is_semibrick([i3, s2])
    quiver = explore(IsoRegistry(algebra), max_depth=4)
    assert not quiver.complete
    assert time.perf_counter() - start < 10.0


def test_criterion_10_property_suite(a2_quiver, a3_quiver, preproj_quiver):
    fixture_quivers = [a2_quiver, a3_quiver, preproj_quiver]
    for kind in ("linear", "cyclic"):
        for n in range(1, 4):
            for l in range(1, 4):
                shape = NakayamaShape(kind, n, l)
                fixture_quivers.append(
                    explore(IsoRegistry(build_nakayama(shape)))
                )
    for quiver in fixture_quivers:
        assert quiver.complete
        assert _verify_quiver(quiver) == []
    assert main(["verify", "--preset", "a-path:3"]) == 0
