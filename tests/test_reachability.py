"""Every registry method and every tautilt, smc, grothendieck and cli
function is on some verb's path.

Each verb runs in-process on small presets under a profiler that records
the code objects it enters.  A registry method that no verb enters is dead
code; any other function that no verb enters must be named below, with the
reason it stays.
"""

from __future__ import annotations

import inspect
import sys

from taumut import cli, grothendieck, modules, smc, tautilt

# functions that no verb enters, by module, each kept for its reason; the
# dunders (__eq__, __hash__, __repr__) are left out of the comparison, as
# Python calls them implicitly, if at all
UNREACHED = {
    tautilt: {
        # the Bongartz completion, kept for ROADMAP item 13
        "bongartz_completion",
        # library API: brick modules rather than ids, the positions with a
        # label, the summands as modules, and a restriction's sizes
        "semibrick_of",
        "mutable_positions",
        "SupportPair.modules",
        "Restriction.n_vertices",
        "Restriction.n_arrows",
    },
    smc: {
        # a stable comparison key for the tests
        "TwoTermSMC.signature",
        # error messages only: the pair, the table's term and the mutated
        # element a failure is about
        "_where",
        "_term",
        "_element_at",
    },
    grothendieck: {
        # resolved by name in perfbench/tracing.py's SPANS, and the tests'
        # one-call duality check
        "duality_report",
    },
    cli: set(),
}


def _functions(owner, module_name: str) -> dict:
    """qualname -> code object of each function, method and property
    defined in owner, a module or a class, and in the classes it defines."""
    out = {}
    for obj in vars(owner).values():
        if inspect.isclass(obj) and obj.__module__ == module_name:
            out.update(_functions(obj, module_name))
            continue
        fn = obj.fget if isinstance(obj, property) else getattr(obj, "__func__", obj)
        if inspect.isfunction(fn) and fn.__module__ == module_name:
            out[fn.__qualname__] = fn.__code__
    return out


def test_every_function_is_reached_or_allowlisted(tmp_path, capsys):
    runs = [[verb, "--preset", "preproj-a:3"] for verb in ("semibricks", "smc", "gvectors", "verify")]
    runs += [
        ["explore", "--preset", "a-path:3", "--out", str(tmp_path / "q.json"), "--dot", str(tmp_path / "q.dot")],
        ["restrict", "--preset", "preproj-a:3", "--field", "q", "--summand", "1,2,1"],
        ["quotient", "--preset", "preproj-a:3", "--generator", "b1*a1"],
        ["count", "--kind", "cyclic", "--n", "3", "--l", "3"],
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(runs)
    registry = _functions(modules.IsoRegistry, "taumut.modules")
    assert sorted(name for name, code in registry.items() if code not in entered) == []
    for module, allowed in UNREACHED.items():
        unreached = {
            name
            for name, code in _functions(module, module.__name__).items()
            if code not in entered and not name.rsplit(".", 1)[-1].startswith("__")
        }
        assert unreached == allowed, module.__name__
