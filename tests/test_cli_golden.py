"""CLI output against stored copies, byte for byte.

The verbs number vertices in breadth-first order, which follows registry
ids, so these files also pin the order in which modules are registered.
While exploring, the registry holds only the projectives, the brick of
each summand met, the top components built where a face has no known
brick, and the new summands of mutation, in the order the breadth-first
search meets them; no translate is registered, since rigidity is read off
the g-vector pairing.  `nakayama:cyclic:4:4` is
here because the relative ids of its summands and labels depend on
whether translates are registered too.
Each `.stdout` file under `golden/` is the stdout of one run, and each
`.stderr` file the stderr of a `verify` run; `SHA256SUMS` holds the digests
of the files that `--out` and `--dot` write.  The `-relabelled.json` files
are presets with their vertices shuffled and renamed and their arrows
shuffled, as an algebra file that names no preset.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from taumut import modules
from taumut.cli import main

from conftest import DUAL_ROUTE

GOLDEN = Path(__file__).resolve().parent / "golden"

STDOUT_RUNS = {
    f"{verb}-{tag}": [verb, "--preset", preset]
    for verb in ("semibricks", "smc", "gvectors")
    for tag, preset in (
        ("preproj-a3", "preproj-a:3"),
        ("cyclic33", "nakayama:cyclic:3:3"),
        ("cyclic44", "nakayama:cyclic:4:4"),
    )
}
STDOUT_RUNS["semibricks-preproj-a3-fp5"] = ["semibricks", "--preset", "preproj-a:3", "--field", "fp:5"]
STDOUT_RUNS.update({
    "restrict-preproj-a3": ["restrict", "--preset", "preproj-a:3", "--summand", "1,2,1"],
    "restrict-cyclic33": ["restrict", "--preset", "nakayama:cyclic:3:3", "--summand", "1,0,0"],
    "restrict-apath4-two": [
        "restrict", "--preset", "a-path:4", "--summand", "0,1,0,0", "--summand", "0,1,1,1",
    ],
    "quotient-preproj-a3": ["quotient", "--preset", "preproj-a:3", "--generator", "b1*a1"],
    "quotient-cyclic23": [
        "quotient", "--preset", "nakayama:cyclic:2:3", "--generator", "a1*a2", "--generator", "a2*a1",
    ],
})


@pytest.mark.parametrize("name", sorted(STDOUT_RUNS))
def test_stdout_matches_the_stored_copy(name, capsys):
    assert main(STDOUT_RUNS[name]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()


@pytest.mark.parametrize(
    "name", ["smc-cyclic44", "smc-preproj-a3", "gvectors-cyclic44", "gvectors-preproj-a3"]
)
def test_smc_and_gvectors_take_no_dual_route(name, capsys, monkeypatch):
    # Both verbs read each collection off the arrows and build no
    # translate, injective or socle component (nor does verify, which checks
    # the collection against the Koenig-Yang table).
    def refuse(*args, **kwargs):
        raise AssertionError("the verb took the dual route")

    for attr in DUAL_ROUTE:
        monkeypatch.setattr(modules, attr, refuse)
    test_stdout_matches_the_stored_copy(name, capsys)


# verify finds the automorphisms of each algebra, here from files that name
# no preset, and checks one vertex per orbit; nakayama:cyclic:2:5 notes on
# stderr the arrows that label coincidence skips, counted over all arrows
VERIFY_RUNS = {
    "verify-cyclic44-relabelled": ["--algebra", str(GOLDEN / "cyclic44-relabelled.json")],
    "verify-preproj-a3-relabelled": ["--algebra", str(GOLDEN / "preproj-a3-relabelled.json")],
    "verify-cyclic25": ["--preset", "nakayama:cyclic:2:5"],
}


@pytest.mark.parametrize("name", sorted(VERIFY_RUNS))
def test_verify_output_matches_the_stored_copies(name, capsys):
    assert main(["verify", *VERIFY_RUNS[name]]) == 0
    captured = capsys.readouterr()
    assert captured.out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    assert captured.err.encode() == (GOLDEN / f"{name}.stderr").read_bytes()


def _digests() -> dict:
    lines = (GOLDEN / "SHA256SUMS").read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


# tag -> (explore arguments, exit code); a depth-bounded exploration of the
# tau-tilting infinite msex is incomplete, which exits 3.  These files pin
# every arrow's target, most of which a face completes from known summands
# and finds in the pair index, and its label, most of which the known bricks
# supply.  a-path:9 (16,796 vertices, 75,582 arrows) pins the masks at scale.
EXPORT_RUNS = {
    "preproj-a3": (["--preset", "preproj-a:3"], 0),
    "preproj-a4": (["--preset", "preproj-a:4"], 0),
    "cyclic44": (["--preset", "nakayama:cyclic:4:4"], 0),
    "apath5-fp": (["--preset", "a-path:5", "--field", "fp:32003"], 0),
    "apath6-fp": (["--preset", "a-path:6", "--field", "fp:32003"], 0),
    "apath7-fp": (["--preset", "a-path:7", "--field", "fp:32003"], 0),
    "apath9-fp": (["--preset", "a-path:9", "--field", "fp:32003"], 0),
    "msex6": (["--preset", "msex", "--max-depth", "6"], 3),
}
GVECTOR_RUNS = ("preproj-a3", "cyclic44")


def test_exported_files_match_the_stored_digests(tmp_path, capsys):
    got = {}
    for tag, (args, code) in EXPORT_RUNS.items():
        json_out, dot_out = tmp_path / f"explore-{tag}.json", tmp_path / f"explore-{tag}.dot"
        assert main(["explore", *args, "--out", str(json_out), "--dot", str(dot_out)]) == code
        outputs = [json_out, dot_out]
        if tag in GVECTOR_RUNS:
            outputs.append(tmp_path / f"gvectors-{tag}.json")
            assert main(["gvectors", *args, "--out", str(outputs[-1])]) == 0
        for path in outputs:
            got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    capsys.readouterr()
    assert got == _digests()
