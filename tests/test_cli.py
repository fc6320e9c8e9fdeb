"""Command line behaviour: output shapes, exit codes, file exports."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import taumut
from taumut.cli import main
from taumut.modules import ModuleHom
from taumut.presets import preset_spec

from conftest import DUAL_ROUTE


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_explore_complete(capsys):
    code, out, _ = run(capsys, ["explore", "--preset", "a-path:3"])
    assert code == 0
    assert out == "14 vertices, 21 arrows, complete\n"


def test_explore_depth_limited_exit_code(capsys):
    code, out, _ = run(
        capsys, ["explore", "--preset", "msex", "--max-depth", "2"]
    )
    assert code == 3
    assert "incomplete (max depth 2)" in out


def test_verify_msex_without_max_depth_fails_fast(capsys):
    # msex is tau-tilting infinite; without the witness check verify would
    # run forever, so an alarm turns a hang into a failure.
    def hang(signum, frame):
        raise TimeoutError("verify --preset msex did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(20)
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, ["verify", "--preset", "msex"])
        assert time.perf_counter() - start < 5
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    assert out == ""
    assert err.startswith("error: arrows alpha and beta both go from vertex 1 to vertex 2")
    assert "--max-depth" in err


def test_smc_and_restrict_refuse_incomplete(capsys):
    assert main(["smc", "--preset", "msex", "--max-depth", "1"]) == 3
    capsys.readouterr()
    assert main(
        ["restrict", "--preset", "a-path:3", "--max-depth", "1",
         "--summand", "0,1,0"]
    ) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["explore", "--preset", "a-path:3", "--max-depth", "-1"],
        ["quotient", "--preset", "preproj-a:3", "--generator", "b1*a1", "--max-depth", "-1"],
    ],
    ids=["explore", "quotient"],
)
def test_a_negative_max_depth_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --max-depth: must be >= 0, got -1" in captured.err


@pytest.mark.parametrize(
    "kind,n,l", [("cyclic", "3", "0"), ("linear", "0", "2"), ("linear", "-1", "2")]
)
def test_count_checks_its_parameters_before_it_prints(capsys, kind, n, l):
    code, out, err = run(capsys, ["count", "--kind", kind, "--n", n, "--l", l])
    assert (code, out) == (2, "")
    assert err == "error: Nakayama parameters must be >= 1\n"


def test_count_cyclic(capsys):
    code, out, _ = run(capsys, ["count", "--kind", "cyclic", "--n", "4", "--l", "4"])
    assert code == 0
    assert out.rstrip().endswith("b(4,4) = 70")


def test_count_linear_table_and_json(capsys, tmp_path):
    out_file = tmp_path / "table.json"
    code, out, _ = run(
        capsys,
        ["count", "--kind", "linear", "--n", "7", "--l", "7",
         "--out", str(out_file)],
    )
    assert code == 0
    assert "1430" in out
    payload = json.loads(out_file.read_text())
    assert payload["kind"] == "linear"
    values = {(rec["n"], rec["l"]): rec["value"] for rec in payload["values"]}
    assert values[(7, 7)] == 1430
    assert values[(3, 2)] == 12


def test_verify_path_algebra(capsys):
    code, out, _ = run(capsys, ["verify", "--preset", "a-path:3"])
    assert code == 0
    assert "verify: ok" in out
    assert "FAIL" not in out


def test_verify_nakayama_checks_recurrence(capsys):
    code, out, _ = run(capsys, ["verify", "--preset", "nakayama:cyclic:2:2"])
    assert code == 0
    assert "6 vertices, 6 arrows, complete" in out
    assert "verify: ok" in out


@pytest.mark.parametrize("emptied", ["degree0", "shifted"])
def test_verify_reports_an_smc_that_is_not_the_arrow_labels(emptied, capsys, monkeypatch):
    # a-path:3 has 14 vertices: the source has no arrows in and the sink no
    # arrows out.  verify reaches the degree-0 part by a second route, the
    # top components of the pair; emptying them leaves them unequal to the
    # labels out at the other 13.  The shifted part is checked against the
    # Koenig-Yang table: doubling Hom(S, tau M) breaks the diagonal entry
    # Hom(P_M, S[1]) = dim End(S) at the 6 vertices with a shifted summand
    # column.
    from taumut.modules import IsoRegistry

    if emptied == "degree0":
        change = lambda q: monkeypatch.setattr(IsoRegistry, "pair_top_ids", lambda self, ids: (None,) * len(ids))
    else:
        real = IsoRegistry.tau_hom_dim
        change = lambda q: monkeypatch.setattr(IsoRegistry, "tau_hom_dim", lambda self, i, j: 2 * real(self, i, j))
    _after_exploring(monkeypatch, change)
    code, out, _ = run(capsys, ["verify", "--preset", "a-path:3"])
    assert code == 1
    if emptied == "degree0":
        flagged = [line for line in out.splitlines() if line.endswith("is not the labels of its arrows")]
        assert len(flagged) == 13
    else:
        fails = [line for line in out.splitlines() if line.startswith("FAIL:")]
        assert [int(line.split("at vertex ")[1].split(":")[0]) for line in fails] == [2, 3, 5, 7, 8, 12]
        assert all(line.startswith("FAIL: Koenig-Yang table fails at vertex ") for line in fails)
        assert all(line.endswith("[1]) = 2, not 1") for line in fails)


def _verify_failures(capsys, preset):
    code, out, _ = run(capsys, ["verify", "--preset", preset])
    return code, [line for line in out.splitlines() if line.startswith("FAIL:")]


def _after_exploring(monkeypatch, change):
    """Let `verify` explore as usual, then apply `change` to the quiver;
    a quiver that `change` returns replaces it."""
    from taumut import cli

    real = cli.explore

    def explore(reg, max_depth=None):
        quiver = real(reg, max_depth)
        return change(quiver) or quiver

    monkeypatch.setattr(cli, "explore", explore)


def test_verify_stops_at_a_column_no_arrow_pairs_with(capsys, monkeypatch):
    # verify prints no degree-law line: reading a vertex's collection pairs
    # each of its n columns with exactly one arrow in or out, so a quiver
    # with in + out != n at a vertex stops verify there with the pair and
    # the column.  Vertex 0 of nakayama:cyclic:2:2 has the arrows 0 -> 1
    # and 0 -> 2 out and none in; 0 -> 1 is dropped.  A duplicated arrow is
    # caught by the same reader (test_smc.py).
    from taumut.tautilt import ExchangeQuiver

    _after_exploring(
        monkeypatch,
        lambda q: ExchangeQuiver(q.registry, q.pairs, q.arrows[1:], True, None, q.depths),
    )
    code, out, err = run(capsys, ["verify", "--preset", "nakayama:cyclic:2:2"])
    at = "the pair with summand dims [[1, 1], [1, 1]] and missing vertices []"
    assert (code, out, err) == (1, "", f"error: column 0 of {at}: no arrow in or out pairs with this column\n")


def _perturbed_tops(monkeypatch):
    """verify reads the top components once per vertex it checks; the
    returned setter picks how they are perturbed."""
    state = {}

    def perturb(quiver):
        reg = quiver.registry
        real = reg.pair_top_ids
        reg.pair_top_ids = lambda ids: state["change"](real(ids))

    _after_exploring(monkeypatch, perturb)
    return lambda change: state.update(change=change)


def _doubled(size):
    def change(tops):
        bricks = tuple(t for t in tops if t is not None)
        return tops + bricks if len(bricks) == size else tops
    return change


def _renamed(tops):
    return tuple(t if t is None else 0 for t in tops)


def test_verify_reports_semibrick_size_and_repeats(capsys, monkeypatch):
    # No size line is printed: the tops are checked against the labels of
    # the arrows out, whose number is the out-degree, at most n.  So every
    # checked vertex whose semibrick has the wrong size is flagged there.
    # The swap of the two vertices of nakayama:cyclic:2:2 makes the orbits
    # {0}, {1, 2}, {3, 4} and {5}, and the tops are read only at 0, 1, 3
    # and 5; semibrick injectivity reads the labels out at 2 and 4.
    set_change = _perturbed_tops(monkeypatch)
    # one-brick semibricks counted twice: out-degree 1 against size 2, at
    # vertices 1 to 4 (before the orbits: all four were flagged)
    set_change(_doubled(1))
    code, fails = _verify_failures(capsys, "nakayama:cyclic:2:2")
    assert code == 1
    assert fails == [f"FAIL: smc of vertex {i} is not the labels of its arrows" for i in (1, 3)]
    # the simples counted twice at (A, 0): size 4, larger than n = 2
    set_change(_doubled(2))
    code, fails = _verify_failures(capsys, "nakayama:cyclic:2:2")
    assert code == 1
    assert fails == ["FAIL: smc of vertex 0 is not the labels of its arrows"]
    # every brick renamed to id 0: semibricks of one size coincide, and
    # only the arrow out of vertex 2, labelled by brick 0, still matches
    # (before the orbits, vertex 4 repeated vertex 3 and was flagged too)
    set_change(_renamed)
    code, fails = _verify_failures(capsys, "nakayama:cyclic:2:2")
    assert code == 1
    assert fails == [
        "FAIL: smc of vertex 0 is not the labels of its arrows",
        "FAIL: smc of vertex 1 is not the labels of its arrows",
        "FAIL: semibrick of vertex 2 repeats vertex 1",
        "FAIL: semibrick of vertex 3 repeats vertex 2",
        "FAIL: smc of vertex 3 is not the labels of its arrows",
    ]


def test_verify_reports_semibrick_faults_at_every_vertex_of_a_rigid_quiver(capsys, monkeypatch):
    # a-path:3 has no automorphism, so every vertex is its own orbit and
    # each of its 14 vertices is checked
    set_change = _perturbed_tops(monkeypatch)
    smc_line = "FAIL: smc of vertex {} is not the labels of its arrows".format
    set_change(_doubled(1))
    code, fails = _verify_failures(capsys, "a-path:3")
    assert code == 1
    assert fails == [smc_line(i) for i in (4, 5, 7, 10, 11, 12)]
    set_change(_doubled(2))
    code, fails = _verify_failures(capsys, "a-path:3")
    assert code == 1
    assert fails == [smc_line(i) for i in (1, 2, 3, 6, 8, 13)]
    set_change(_renamed)
    code, fails = _verify_failures(capsys, "a-path:3")
    repeats = {2: 1, 3: 2, 5: 4, 6: 3, 7: 5, 8: 6, 10: 7, 11: 10, 12: 11, 13: 8}
    expected = []
    for i in range(14):
        if i in repeats:
            expected.append(f"FAIL: semibrick of vertex {i} repeats vertex {repeats[i]}")
        if i not in (7, 9):
            expected.append(smc_line(i))
    assert code == 1
    assert fails == expected


def test_verify_sees_a_broken_duality_in_the_table(capsys, monkeypatch):
    # verify runs no duality report: G^T C = diag(d') follows from the
    # Koenig-Yang table.  dim End of one label read as 2 after exploring
    # breaks G^T C = diag(d') at exactly the vertices whose collection holds
    # the label, and the table fails there.  The coincidence loop sees the
    # true dim End, since its mutation guard refuses a brick with End 2.
    from taumut import cli
    from taumut.grothendieck import check_duality, grothendieck_data
    from taumut.smc import smc_of_vertex

    holders, broken = [], []

    def claim(quiver):
        reg = quiver.registry
        (label,) = {lab for _, _, lab in quiver.arrows if reg.module(lab).dims == (0, 1, 0)}
        holders.extend(sorted({v for s, t, lab in quiver.arrows if lab == label for v in (s, t)}))
        real = reg.end_dim
        reg.end_dim = lambda i: 2 if i == label else real(i)
        for i, pair in enumerate(quiver.pairs):
            if not check_duality(grothendieck_data(pair, smc_of_vertex(quiver, i)))["ok"]:
                broken.append(i)

    real_coincidence = cli.check_label_coincidence

    def coincidence(quiver, collections, **kwargs):
        del quiver.registry.end_dim
        return real_coincidence(quiver, collections, **kwargs)

    _after_exploring(monkeypatch, claim)
    monkeypatch.setattr(cli, "check_label_coincidence", coincidence)
    code, fails = _verify_failures(capsys, "a-path:3")
    assert code == 1
    assert 0 < len(holders) < 14 and broken == holders
    prefix = "FAIL: Koenig-Yang table fails at vertex "
    assert [int(line[len(prefix):].split(":")[0]) for line in fails] == holders
    assert all(line.startswith(prefix) and line.endswith(", not 2") for line in fails)


def test_gvectors_fails_where_a_label_claims_a_larger_end(capsys, monkeypatch):
    # dim End of one label read as 2 after exploring: G^T C, still the
    # identity, no longer equals diag(d') at exactly the vertices with an
    # arrow, in or out, that carries the label
    holders = []

    def claim(quiver):
        reg = quiver.registry
        (label,) = {lab for _, _, lab in quiver.arrows if reg.module(lab).dims == (0, 1, 0)}
        holders.extend(sorted({v for s, t, lab in quiver.arrows if lab == label for v in (s, t)}))
        real = reg.end_dim
        reg.end_dim = lambda i: 2 if i == label else real(i)

    _after_exploring(monkeypatch, claim)
    code, out, _ = run(capsys, ["gvectors", "--preset", "a-path:3"])
    assert code == 1
    lines = out.splitlines()[:-1]
    assert len(lines) == 14 and 0 < len(holders) < 14
    assert [i for i, line in enumerate(lines) if line.endswith("duality FAIL")] == holders
    assert all(line.endswith("duality ok") for i, line in enumerate(lines) if i not in holders)


@pytest.mark.parametrize("verb", ["verify", "smc", "gvectors"])
def test_each_vertex_is_read_off_its_arrows_once(verb, capsys, monkeypatch):
    from taumut import grothendieck, smc

    real = smc.paired_columns
    calls = []

    def counted(quiver, i):
        calls.append(i)
        return real(quiver, i)

    for namespace in (smc, grothendieck):
        if hasattr(namespace, "paired_columns"):
            monkeypatch.setattr(namespace, "paired_columns", counted)
    code, _, _ = run(capsys, [verb, "--preset", "nakayama:cyclic:4:4"])
    assert code == 0
    assert sorted(calls) == list(range(70))


def test_verify_reports_hom_from_the_target(capsys, monkeypatch):
    # On a-path:3 the arrow 3->8 is labelled M23 and its target has the
    # summand M12.  Claiming Hom(M12, M23) != 0 once the quiver is explored
    # breaks one entry of vertex 8's Koenig-Yang table: the shifted M23 must
    # receive no map from a summand, Hom(P_M12, M23[1][-1]) = 0.
    from taumut.modules import IsoRegistry

    def claim(quiver):
        reg = quiver.registry
        ids = {reg.module(i).dims: i for i in range(reg.count())}
        pair = (ids[(1, 1, 0)], ids[(0, 1, 1)])
        real = IsoRegistry.hom_dim
        monkeypatch.setattr(
            IsoRegistry, "hom_dim", lambda self, i, j: 1 if (i, j) == pair else real(self, i, j)
        )

    _after_exploring(monkeypatch, claim)
    code, fails = _verify_failures(capsys, "a-path:3")
    assert code == 1
    assert fails == ["FAIL: Koenig-Yang table fails at vertex 8: Hom(P(1, 1, 0), (0, 1, 1)) = 1, not 0"]


def test_verify_reports_the_nakayama_recurrence(capsys, monkeypatch):
    from taumut import cli

    real = cli.count_value
    monkeypatch.setattr(cli, "count_value", lambda kind, n, l: real(kind, n, l) + 1)
    code, fails = _verify_failures(capsys, "nakayama:cyclic:2:2")
    assert code == 1
    assert fails == ["FAIL: vertex count 6 != recurrence 7"]


def test_smc_reports_a_collection_that_fails_its_axioms(capsys, monkeypatch):
    # one more Ext1 than there is: the first collection with both degrees
    # fails the "no Ext1 across degrees" axiom
    from taumut import IsoRegistry

    real = IsoRegistry.ext1_dim
    _after_exploring(
        monkeypatch,
        lambda q: monkeypatch.setattr(IsoRegistry, "ext1_dim", lambda reg, i, j: real(reg, i, j) + 1),
    )
    code, out, err = run(capsys, ["smc", "--preset", "a-path:2"])
    assert (code, out) == (1, "vertex 01: degree0 01,10 | shifted -\n")
    assert err == (
        "error: the pair with summand dims [[0, 1]] and missing vertices [0]: "
        "constructed collection failed its axioms: Ext1 across degrees: (0, 1) -> (1, 0)\n"
    )


def test_verify_reports_label_coincidence(capsys, monkeypatch):
    # the first Koenig-Yang mutation leaves its collection unchanged
    from taumut import smc

    real = smc.smc_left_mutate
    calls = []

    def first_unmutated(x, brick):
        calls.append(brick)
        return x if len(calls) == 1 else real(x, brick)

    monkeypatch.setattr(smc, "smc_left_mutate", first_unmutated)
    code, fails = _verify_failures(capsys, "nakayama:cyclic:2:2")
    assert code == 1
    assert fails == ["FAIL: label coincidence failures: [(0, 1, (1, 0))]"]


@pytest.mark.parametrize(
    "preset,note",
    [
        ("nakayama:cyclic:2:5", "skipped 2 of 6 arrows"),
        ("nakayama:cyclic:1:3", "skipped 1 of 1 arrows"),
        ("nakayama:cyclic:2:2", None),
        ("a-path:3", None),
    ],
)
def test_verify_notes_the_arrows_coincidence_skips(preset, note, capsys):
    # an arrow whose label has self-extensions is not mutated across; the
    # skips go to stderr, and stdout is the same with or without them
    code, out, err = run(capsys, ["verify", "--preset", preset])
    assert code == 0 and out.endswith("verify: ok\n")
    if note is None:
        assert err == ""
    else:
        assert err == f"verify: label coincidence {note}, whose labels have self-extensions\n"


def test_the_smc_axioms_catch_an_ext1_that_coincidence_skips(capsys, monkeypatch):
    # one more Ext1 than there is makes every label look self-extending, so
    # the coincidence check skips all 21 arrows of a-path:3 and only the
    # axioms' Ext1 across degrees sees the fault
    from taumut import IsoRegistry

    real = IsoRegistry.ext1_dim
    _after_exploring(
        monkeypatch,
        lambda q: monkeypatch.setattr(IsoRegistry, "ext1_dim", lambda reg, i, j: real(reg, i, j) + 1),
    )
    code, out, err = run(capsys, ["verify", "--preset", "a-path:3"])
    fails = [line for line in out.splitlines() if line.startswith("FAIL:")]
    assert code == 1
    assert len(fails) == 12
    assert all(line.startswith("FAIL: smc axioms fail at vertex ") for line in fails)
    assert out.endswith("verify: 12 failures\n")
    assert err == "verify: label coincidence skipped 21 of 21 arrows, whose labels have self-extensions\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--preset", "a-path:4"],
        ["verify", "--preset", "preproj-a:3"],
        ["explore", "--preset", "a-path:5", "--field", "fp:32003"],
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_the_verbs_build_no_map_that_needs_a_commutation_check(argv, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError(f"checked the commutation of {self!r}")

    monkeypatch.setattr(ModuleHom, "_check_commutes", refuse)
    code, _, _ = run(capsys, argv)
    assert code == 0


NO_TRANSLATE_RUNS = [
    [verb, "--preset", preset]
    for verb in ("explore", "semibricks", "smc", "gvectors", "verify")
    for preset in ("preproj-a:3", "nakayama:cyclic:3:3")
] + [
    ["quotient", "--preset", "preproj-a:3", "--generator", "b1*a1"],
    ["restrict", "--preset", "preproj-a:3", "--summand", "0,1,0"],
    ["count", "--kind", "cyclic", "--n", "4", "--l", "4"],
]


@pytest.mark.parametrize("argv", NO_TRANSLATE_RUNS, ids=lambda argv: " ".join(argv[:3]))
def test_the_verbs_build_no_translate(argv, capsys, monkeypatch):
    # Rigidity is read off the g-vector pairing, the collection's columns
    # and its Koenig-Yang table off Hom dimensions, so no verb builds a
    # translate module, an injective or a socle component.
    def refuse(what):
        def call(*args, **kwargs):
            raise AssertionError(f"built {what}")

        return call

    for name in DUAL_ROUTE:
        monkeypatch.setattr(taumut.modules, name, refuse(name))
    code, _, _ = run(capsys, argv)
    assert code == 0


def test_restrict_output(capsys):
    code, out, _ = run(
        capsys, ["restrict", "--preset", "a-path:3", "--summand", "0,1,0"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "restriction: 5 vertices, 5 arrows"
    assert "source (the completion): 111,011,010" in lines
    assert "sink: 010 | 1,3" in lines
    assert lines[-1] == "restriction: ok"
    labels = sorted(l.split("label ")[1] for l in lines if "->" in l)
    assert labels == ["011", "011", "100", "100", "111"]


def test_restrict_usage_errors(capsys):
    assert main(["restrict", "--preset", "a-path:3"]) == 2
    capsys.readouterr()
    assert main(
        ["restrict", "--preset", "a-path:3", "--summand", "x,y"]
    ) == 2
    capsys.readouterr()
    # two non-isomorphic explored summands share this dim vector
    code, _, err = run(
        capsys,
        ["restrict", "--preset", "nakayama:cyclic:2:2", "--summand", "1,1"],
    )
    assert code == 2
    assert "matches 2" in err


@pytest.mark.parametrize(
    "extra,message",
    [
        ([], "restrict needs at least one --summand dim vector"),
        (["--summand", "0,1,0", "--summand", "x,y"], "bad dimension vector 'x,y'"),
        (["--summand", "0,1"], "dim vector 0,1 has 2 entries, but the algebra has 3 vertices"),
    ],
    ids=["missing", "not-integers", "wrong-length"],
)
def test_restrict_checks_its_summands_before_exploring(extra, message, capsys, monkeypatch):
    from taumut import cli

    def refuse(*args, **kwargs):
        raise AssertionError("explored before checking --summand")

    monkeypatch.setattr(cli, "explore", refuse)
    code, out, err = run(capsys, ["restrict", "--preset", "a-path:3", "--max-depth", "1", *extra])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_restrict_names_the_hom_that_breaks_tau_rigidity(capsys):
    code, out, err = run(
        capsys, ["restrict", "--preset", "a-path:3", "--summand", "1,0,0", "--summand", "0,1,0"]
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: the fixed module U with summand dims [[1, 0, 0], [0, 1, 0]] is not "
        "tau-rigid: Hom((0, 1, 0), tau (1, 0, 0)) = 1\n"
    )


def test_quotient_comparison(capsys):
    code, out, _ = run(
        capsys,
        ["quotient", "--preset", "nakayama:cyclic:2:3",
         "--generator", "a1*a2", "--generator", "a2*a1"],
    )
    assert code == 0
    assert "vertices: 6 vs 6" in out
    assert "arrows: 6 vs 6" in out
    assert out.rstrip().endswith("quotient comparison: ok")


def test_quotient_usage_errors(capsys):
    assert main(["quotient", "--preset", "nakayama:cyclic:2:3"]) == 2
    capsys.readouterr()
    assert main(
        ["quotient", "--preset", "nakayama:cyclic:2:3", "--generator", "a1"]
    ) == 2


@pytest.mark.parametrize(
    "field,generator",
    [("fp:5", "5*a1*a2"), ("q", "0*a1*a2"), ("q", "a1*a2*a1*a2")],
)
def test_a_generator_that_is_zero_in_the_algebra_is_a_usage_error(field, generator, capsys):
    # the quotient by zero is the algebra itself, so the comparison would
    # certify nothing; a1*a2*a1*a2 is zero since paths of length 3 vanish
    code, out, err = run(
        capsys,
        ["quotient", "--preset", "nakayama:cyclic:2:3", "--field", field, "--generator", generator],
    )
    assert (code, out) == (2, "")
    assert err == f"error: generator {generator!r} is zero in the algebra\n"


def test_smc_listing(capsys):
    code, out, _ = run(capsys, ["smc", "--preset", "a-path:2"])
    assert code == 0
    assert "vertex 01: degree0 01,10 | shifted -" in out
    assert "vertex 04: degree0 - | shifted 01,10" in out


def test_semibricks_listing(capsys):
    code, out, _ = run(capsys, ["semibricks", "--preset", "a-path:2"])
    assert code == 0
    assert "vertex 04: pair 0 | 1,2 ; semibrick -" in out


def test_gvectors_json(capsys, tmp_path):
    out_file = tmp_path / "g.json"
    code, out, _ = run(
        capsys, ["gvectors", "--preset", "a-path:2", "--out", str(out_file)]
    )
    assert code == 0
    records = json.loads(out_file.read_text())
    assert len(records) == 5
    assert all(rec["ok"] for rec in records)
    assert {abs(rec["det_g"]) for rec in records} == {1}
    assert {abs(rec["det_c"]) for rec in records} == {1}


def test_dot_export(capsys, tmp_path):
    dot_file = tmp_path / "q.dot"
    code, _, _ = run(
        capsys, ["explore", "--preset", "a-path:1", "--dot", str(dot_file)]
    )
    assert code == 0
    dot = dot_file.read_text()
    assert dot.startswith("digraph")
    assert dot.count("->") == 1
    assert '[label="0 | 1"]' in dot


def test_records_export_deterministic(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        assert main(["explore", "--preset", "a-path:3", "--out", str(path)]) == 0
        capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    records = json.loads(first.read_text())
    assert records["complete"]
    assert len(records["vertices"]) == 14
    assert len(records["arrows"]) == 21


def test_dot_export_escapes_vertex_names(capsys, tmp_path):
    # A vertex name from an algebra file may hold a quote or a backslash;
    # inside a DOT string both are escaped with a backslash.
    spec_file = tmp_path / "algebra.json"
    spec_file.write_text(json.dumps({
        "vertices": ['x"y', "a\\b"],
        "arrows": [{"name": "a1", "source": 'x"y', "target": "a\\b"}],
        "relations": [],
        "nilpotency": 2,
        "field": {"kind": "Q"},
    }))
    dot_file = tmp_path / "q.dot"
    code, _, _ = run(capsys, ["explore", "--algebra", str(spec_file), "--dot", str(dot_file)])
    assert code == 0
    lines = dot_file.read_text().splitlines()
    assert [line for line in lines if line.startswith("  v") and "->" not in line] == [
        '  v0 [label="11 01"];',
        '  v1 [label="01 | x\\"y"];',
        '  v2 [label="11 10"];',
        '  v3 [label="0 | x\\"y a\\\\b"];',
        '  v4 [label="10 | a\\\\b"];',
    ]


def test_algebra_file_source(capsys, tmp_path):
    spec_file = tmp_path / "algebra.json"
    preset_spec("nakayama:linear:3:2").save(spec_file)
    code, out, _ = run(capsys, ["explore", "--algebra", str(spec_file)])
    assert code == 0
    assert "complete" in out


def test_algebra_source_usage_errors(capsys, tmp_path):
    assert main(["explore"]) == 2
    capsys.readouterr()
    spec_file = tmp_path / "algebra.json"
    preset_spec("a-path:2").save(spec_file)
    assert main(
        ["explore", "--preset", "a-path:2", "--algebra", str(spec_file)]
    ) == 2
    capsys.readouterr()
    assert main(["explore", "--algebra", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    assert main(["explore", "--preset", "frobnicate"]) == 2


def test_field_flag(capsys):
    assert main(["explore", "--preset", "a-path:3", "--field", "fp:5"]) == 0
    capsys.readouterr()
    code, _, err = run(
        capsys, ["explore", "--preset", "a-path:3", "--field", "fp:4"]
    )
    assert code == 2
    assert "bad prime" in err


@pytest.mark.parametrize("modulus", ["561", "3215031751"])
def test_field_flag_rejects_pseudoprime_moduli(modulus, capsys):
    code, out, err = run(
        capsys, ["explore", "--preset", "a-path:2", "--field", f"fp:{modulus}"]
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: bad prime in field spec 'fp:{modulus}': "
        f"modulus {modulus} is not a prime\n"
    )


@pytest.mark.parametrize(
    "spec,reason",
    [("fp:abc", "'abc' is not an integer"), ("fp:1", "modulus 1 is not a prime")],
)
def test_field_flag_names_the_cause(spec, reason, capsys):
    code, out, err = run(capsys, ["explore", "--preset", "a-path:2", "--field", spec])
    assert (code, out) == (2, "")
    assert err == f"error: bad prime in field spec '{spec}': {reason}\n"


def test_a_characteristic_too_small_for_the_radical_names_the_module(capsys):
    # P_2 of preproj-a:3 has End of dimension 2, and the trace form over F_2
    # cannot find its radical; it is met at the first pair, (A, 0)
    code, out, err = run(capsys, ["explore", "--preset", "preproj-a:3", "--field", "fp:2"])
    assert (code, out) == (1, "")
    assert err == (
        "error: endomorphism radical of the module with dims [1, 2, 1] over F_2 "
        "needs p > dim End = 2, at the support pair with summand dims "
        "[[1, 1, 1], [1, 2, 1], [1, 1, 1]] and missing vertices []\n"
    )


def test_a_characteristic_error_past_the_first_pair_names_that_pair(capsys, tmp_path):
    # A free bound quiver whose summand [3, 0, 2, 3, 1], first met by a
    # mutation, has End of dimension 5: the pair named is the one it joins.
    arrows = [("a0", "3", "1"), ("a1", "4", "3"), ("a2", "3", "4"), ("a3", "1", "3"), ("a4", "5", "3")]
    spec = {
        "vertices": ["1", "2", "3", "4", "5"],
        "arrows": [{"name": n, "source": s, "target": t} for n, s, t in arrows],
        "relations": [],
        "nilpotency": 3,
        "field": {"kind": "Q"},
    }
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(spec))
    argv = ["explore", "--algebra", str(path), "--max-depth", "7", "--field", "fp:5"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == (
        "error: endomorphism radical of the module with dims [3, 0, 2, 3, 1] over F_5 "
        "needs p > dim End = 5, at the support pair with summand dims [[2, 0, 1, 1, 0], "
        "[0, 1, 0, 0, 0], [1, 0, 1, 2, 0], [1, 0, 1, 1, 1], [3, 0, 2, 3, 1]] and "
        "missing vertices []\n"
    )


def test_field_flag_accepts_a_mersenne_prime(capsys):
    code, out, _ = run(
        capsys,
        ["explore", "--preset", "a-path:2", "--field", "fp:2305843009213693951"],
    )
    assert (code, out) == (0, "5 vertices, 5 arrows, complete\n")


def _relation_file(tmp_path, coeff, field):
    # two parallel paths 1 -> 2 -> 3 with coeff * a*b + c*d = 0
    spec_file = tmp_path / "algebra.json"
    spec_file.write_text(json.dumps({
        "vertices": ["1", "2", "3"],
        "arrows": [
            {"name": name, "source": source, "target": target}
            for name, source, target in (("a", "1", "2"), ("b", "2", "3"), ("c", "1", "2"), ("d", "2", "3"))
        ],
        "relations": [[{"coeff": coeff, "path": ["a", "b"]}, {"coeff": "1", "path": ["c", "d"]}]],
        "nilpotency": 3,
        "field": field,
    }))
    return str(spec_file)


@pytest.mark.parametrize(
    "source,message",
    [
        ("fp5-file", "coefficient 1/5 in 'a*b' has no value in F5"),
        ("field-flag", "coefficient 1/5 in 'a*b' has no value in F5"),
        ("zero-denominator", "malformed algebra spec: Fraction(1, 0)"),
    ],
)
def test_a_relation_coefficient_with_no_value_in_the_field_is_a_usage_error(
    source, message, capsys, tmp_path
):
    coeff = "1/0" if source == "zero-denominator" else "1/5"
    field = {"kind": "Fp", "p": 5} if source == "fp5-file" else {"kind": "Q"}
    argv = ["explore", "--algebra", _relation_file(tmp_path, coeff, field), "--max-depth", "1"]
    if source == "field-flag":
        argv += ["--field", "fp:5"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("source", ["fp5-file", "field-flag"])
def test_a_relation_coefficient_that_vanishes_in_the_field_is_a_usage_error(
    source, capsys, tmp_path
):
    # 5*a*b + c*d would be read as c*d over F5, with no word that a term
    # vanished
    field = {"kind": "Fp", "p": 5} if source == "fp5-file" else {"kind": "Q"}
    argv = ["explore", "--algebra", _relation_file(tmp_path, "5", field), "--max-depth", "2"]
    if source == "field-flag":
        argv += ["--field", "fp:5"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: coefficient 5 in 'a*b' is zero in F5\n"


@pytest.mark.parametrize("coeff", ["1/5", "5"])
def test_the_relation_coefficient_is_fine_over_q(coeff, capsys, tmp_path):
    path = _relation_file(tmp_path, coeff, {"kind": "Q"})
    code, out, err = run(capsys, ["explore", "--algebra", path, "--max-depth", "1"])
    assert (code, out, err) == (3, "4 vertices, 3 arrows, incomplete (max depth 1)\n", "")


@pytest.mark.parametrize("coeff", ["1/5", "5"])
def test_an_f5_file_is_validated_in_the_field_that_replaces_its_own(coeff, capsys, tmp_path):
    # 5*a*b + c*d is fine over Q, so the F5 file runs under --field q
    path = _relation_file(tmp_path, coeff, {"kind": "Fp", "p": 5})
    argv = ["explore", "--algebra", path, "--max-depth", "1", "--field", "q"]
    assert run(capsys, argv) == (3, "4 vertices, 3 arrows, incomplete (max depth 1)\n", "")


@pytest.mark.parametrize(
    "field,generator,message",
    [
        ("q", "1/0*a1", "coefficient 1/0 in '1/0*a1' has no value in Q"),
        ("fp:3", "a1*a2 - 1/3*a1*a2", "coefficient 1/3 in 'a1*a2 - 1/3*a1*a2' has no value in F3"),
    ],
)
def test_a_generator_coefficient_with_no_value_in_the_field_is_a_usage_error(
    field, generator, message, capsys
):
    code, out, err = run(
        capsys, ["quotient", "--preset", "a-path:3", "--field", field, "--generator", generator]
    )
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("env", ["fp:4", "fp:5"])
def test_the_environment_sets_no_field(env, capsys, monkeypatch, tmp_path):
    # identical invocations give identical bytes, so TAUMUT_FIELD sets no
    # field, neither for a preset nor for an algebra file (whose
    # coefficient 1/5 has no value in F5)
    runs = [
        ["explore", "--preset", "a-path:2"],
        ["explore", "--algebra", _relation_file(tmp_path, "1/5", {"kind": "Q"}), "--max-depth", "1"],
    ]
    want = [run(capsys, argv) for argv in runs]
    monkeypatch.setenv("TAUMUT_FIELD", env)
    assert [run(capsys, argv) for argv in runs] == want
    assert want[1] == (3, "4 vertices, 3 arrows, incomplete (max depth 1)\n", "")


def _child_env() -> dict:
    """Environment whose ``PYTHONPATH`` starts at the imported ``taumut``.

    The child processes then run the package this session imported, however
    pytest was launched, and never a stale installed copy.
    """
    pkg_root = str(Path(taumut.__file__).resolve().parents[1])
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + rest if rest else "")
    return env


def test_console_script(tmp_path):
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "taumut.cli", "count",
         "--kind", "cyclic", "--n", "4", "--l", "4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "b(4,4) = 70" in proc.stdout
    # Run the declared entry point through the launcher an installer writes
    # for it, so the check needs no installed package.
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["taumut"]
    module, func = entry.split(":")
    launcher = tmp_path / "taumut"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({func}())\n"
    )
    launcher.chmod(0o755)
    script = subprocess.run(
        [str(launcher), "explore", "--preset", "a-path:2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert script.returncode == 0
    assert "5 vertices, 5 arrows, complete" in script.stdout


# A fresh process: sympy is loaded only where a minimal polynomial must be
# factored, which neither verb below needs, and is then imported on demand;
# taumut.symmetry only by verify.
_COLD_START = """
import contextlib, io, json, sys
import taumut, taumut.cli
seen = {"import": "sympy" in sys.modules}
symmetry = {"import": "taumut.symmetry" in sys.modules}
from taumut.cli import main
for name, argv in (
    ("explore", ["explore", "--preset", "a-path:5", "--field", "fp:32003"]),
    ("verify", ["verify", "--preset", "nakayama:cyclic:4:4"]),
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, name
    seen[name] = "sympy" in sys.modules
    symmetry[name] = "taumut.symmetry" in sys.modules
from taumut.linalg import QQ, Mat, PrimeField
from taumut.modules import Module, decompose
from taumut.presets import build_preset
parts = {}
for field in (QQ, PrimeField(7)):
    companion = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-4, 0, 4, 0]]
    mats = [Mat.identity(field, 4), Mat(field, companion), Mat.zeros(field, 4, 0)]
    M = Module(build_preset("msex", field), (4, 4, 0), mats)
    parts[field.name] = sorted(p.dims for p in decompose(M))
seen["decompose"] = "sympy" in sys.modules
print(json.dumps({"seen": seen, "symmetry": symmetry, "parts": parts}))
"""


def test_cold_start_does_not_import_sympy():
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["seen"] == {
        "import": False, "explore": False, "verify": False, "decompose": True,
    }
    # the automorphism search and the orbits are loaded by verify alone
    assert result["symmetry"] == {"import": False, "explore": False, "verify": True}
    # End = k[x]/((x^2 - 2)^2) is local over Q; over F_7, 2 = 3^2 splits it
    assert result["parts"] == {"Q": [[4, 4, 0]], "F7": [[2, 2, 0], [2, 2, 0]]}


@pytest.mark.skipif(
    shutil.which("taumut") is None, reason="taumut console script not installed"
)
def test_installed_console_script():
    script = subprocess.run(
        ["taumut", "explore", "--preset", "a-path:2"],
        capture_output=True,
        text=True,
    )
    assert script.returncode == 0
    assert "5 vertices, 5 arrows, complete" in script.stdout
