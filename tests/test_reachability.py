"""Every registry method and every function of the modules that a verb
runs through (linalg, modules, tautilt, smc, grothendieck, cli, algebra,
quotient, presets, nakayama and symmetry) is on some verb's path; all of
symmetry is on the path of verify on a preset with an automorphism.

Each verb runs in-process on small presets under a profiler that records
the code objects it enters.  A registry method that no verb enters is dead
code; any other function that no verb enters must be named below, with the
reason it stays.
"""

from __future__ import annotations

import inspect
import json
import sys
from functools import cached_property

from taumut import algebra, cli, grothendieck, linalg, modules, nakayama, presets, quotient, smc, symmetry, tautilt

# functions that no verb enters, by module, each kept for its reason; the
# dunders (__eq__, __hash__, __repr__) are left out of the comparison, as
# Python calls them implicitly, if at all
UNREACHED = {
    linalg: {
        # the abstract field, which QQ and PrimeField implement
        "Field.coerce",
        "Field.zero",
        "Field.one",
        "Field.add",
        "Field.sub",
        "Field.neg",
        "Field.mul",
        "Field.inv",
        "Field.characteristic",
        "Field.to_string",
        "Field._rref",
        "Field._matmul",
        "Field._reduce_row",
        # library API: a row of a matrix, and a difference of matrices
        "Mat.row",
        "Mat.sub",
    },
    modules: {
        # the dual route, the tests' reference for the projective side:
        # injectives, nu f and tau through D, tau-rigidity of a module
        # and its inverse, Sub, socles and their semibricks
        "dualize",
        "_dual_hom",
        "injective_module",
        "_translate",
        "ar_translate",
        "ar_translate_inverse",
        "is_tau_rigid_pair",
        "is_tau_inverse_rigid",
        "_as_single_module",
        "in_sub",
        "_radical_maps",
        "semibrick_socle",
        "Presentation.p1",
        "Presentation.p1_offsets",
        "Presentation.f",
        "Presentation._second_cover",
        # resolved by name in perfbench/tracing.py's SPANS, and the dual
        # route above
        "nakayama_functor_map",
        "socle_components",
        # splitting a module into indecomposables, the tests' reference
        # for the registry's certified summands; resolved by name in
        # perfbench/tracing.py's SPANS
        "decompose",
        "_end_split",
        "_minpoly",
        "_factor_poly",
        "_poly_at",
        "_poly_mul",
        "_powers",
        "is_brick",
        "is_isomorphic",
        # library API on modules rather than registry ids, and the tests'
        # reference for the registry's cached answers
        "ext1_dim",
        "hom_dim",
        "in_fac",
        "trace_rows",
        "is_semibrick",
        "semibrick_top",
        "image",
        "top",
        "simple_module",
        "zero_module",
        "zero_hom",
        "ModuleHom.add",
        "ModuleHom.is_zero",
        # the public constructor's check; every verb builds its maps with
        # the commutation already known
        "ModuleHom._check_commutes",
    },
    tautilt: {
        # the Bongartz completion, kept for ROADMAP item 13
        "bongartz_completion",
        # the checked library mutation, which the tests compare with
        # reference_left_mutate; explore takes each arrow's target from
        # _complete_face, as a key it looks up in its pair index
        "left_mutate",
        # library API: brick modules rather than ids, the positions with a
        # label, and the summands as modules
        "semibrick_of",
        "mutable_positions",
        "SupportPair.modules",
        # error messages only: the face a failed completion is about
        "_face_words",
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
    algebra: {
        # the tests' check of the structure constants
        "Algebra.check_associativity",
        # library API: the unit of A as a vector
        "Algebra.unit_vector",
        # the dual route (injective_module, dualize), the tests' reference
        "Algebra.opposite",
        "Quiver.opposite",
        # library API: writing an algebra file, the inverse of load
        "AlgebraSpec.to_json_dict",
        "AlgebraSpec.dumps",
        "AlgebraSpec.save",
    },
    quotient: set(),
    # verify preproj-a:3 enters all of it through the flip
    symmetry: set(),
    presets: {
        # library API: a preset as a spec, which perfbench/run.py and the
        # tests write out as an algebra file
        "preset_spec",
    },
    nakayama: {
        # the tests' references: modules, bricks and semibricks of a
        # Nakayama algebra by enumeration, against the counts
        "_shape_of",
        "uniserial_module",
        "interval_module",
        "enumerate_bricks",
        "enumerate_indecomposables",
        "count_semibricks_bruteforce",
        # the tests' check of the closed-form counts that count prints
        "_symmetric_sums",
        "verify_symmetric_identities",
    },
}


def _functions(owner, module_name: str) -> dict:
    """qualname -> code object of each function, method, property and
    cached property defined in owner, a module or a class, and in the
    classes it defines.
    A lambda is named by the attribute that holds it."""
    out = {}
    for attr, obj in vars(owner).items():
        if inspect.isclass(obj) and obj.__module__ == module_name:
            out.update(_functions(obj, module_name))
            continue
        if isinstance(obj, cached_property):
            obj = obj.func
        fn = obj.fget if isinstance(obj, property) else getattr(obj, "__func__", obj)
        if inspect.isfunction(fn) and fn.__module__ == module_name:
            out[fn.__qualname__.replace("<lambda>", attr)] = fn.__code__
    return out


def test_every_function_is_reached_or_allowlisted(tmp_path, capsys):
    # a-path:3 modulo the path a*b, as an algebra file
    spec_file = tmp_path / "algebra.json"
    spec_file.write_text(json.dumps({
        "vertices": ["1", "2", "3"],
        "arrows": [{"name": "a", "source": "1", "target": "2"}, {"name": "b", "source": "2", "target": "3"}],
        "relations": [[{"coeff": "1", "path": ["a", "b"]}]],
        "nilpotency": 3,
        "field": {"kind": "Q"},
    }))
    runs = [[verb, "--preset", "preproj-a:3"] for verb in ("semibricks", "smc", "gvectors", "verify")]
    runs += [
        ["explore", "--preset", "a-path:3", "--out", str(tmp_path / "q.json"), "--dot", str(tmp_path / "q.dot")],
        ["explore", "--algebra", str(spec_file), "--field", "fp:5"],
        ["explore", "--preset", "preproj-a:3", "--field", "fp:5"],
        ["explore", "--preset", "nakayama:cyclic:2:2"],
        ["restrict", "--preset", "preproj-a:3", "--field", "q", "--summand", "1,2,1"],
        ["quotient", "--preset", "preproj-a:3", "--generator", "b1*a1"],
        ["count", "--kind", "cyclic", "--n", "3", "--l", "3"],
        ["explore", "--preset", "msex", "--max-depth", "2"],
    ]
    # count's recurrences are memoized across the session; start them cold
    # so that what they call is entered here
    nakayama.a_count.cache_clear()
    nakayama.b_count.cache_clear()
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
    assert codes == [0] * (len(runs) - 1) + [3]
    registry = _functions(modules.IsoRegistry, "taumut.modules")
    assert sorted(name for name, code in registry.items() if code not in entered) == []
    for module, allowed in UNREACHED.items():
        unreached = {
            name
            for name, code in _functions(module, module.__name__).items()
            if code not in entered and not name.rsplit(".", 1)[-1].startswith("__")
        }
        assert unreached == allowed, module.__name__
