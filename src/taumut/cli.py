"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 depth
limit reached before the exploration closed.  Output is deterministic:
identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from .algebra import Algebra, AlgebraSpec, build_algebra
from .errors import (
    IncompleteExplorationError,
    SpecError,
    TaumutError,
)
from .grothendieck import check_duality, grothendieck_data
from .linalg import QQ, Field, PrimeField
from .modules import IsoRegistry
from .nakayama import NakayamaShape, count_value, format_count_table
from .presets import PRESET_HELP
from .quotient import central_ideal, verify_ejr
from .smc import (
    _where,
    check_label_coincidence,
    check_silting_table,
    check_smc_axioms,
    smc_of_vertex,
)
from .tautilt import (
    ExchangeQuiver,
    SupportPair,
    _dim_string,
    explore,
    export_dot,
    export_records,
    restrict_quiver,
    semibrick_ids_of,
)


def _field_from_text(text: str) -> Field:
    low = text.strip().lower()
    if low in ("q", "qq"):
        return QQ
    if low.startswith("fp:"):
        digits = text.strip()[3:]
        try:
            return PrimeField(int(digits))
        except ValueError:
            reason = f"{digits!r} is not an integer"
        except TaumutError as exc:
            reason = str(exc)
        raise SpecError(f"bad prime in field spec {text!r}: {reason}")
    raise SpecError(f"unknown field {text!r}; use q or fp:<p>")


def _load_algebra(args) -> Algebra:
    field = QQ if args.field is None else _field_from_text(args.field)
    if args.preset and args.algebra:
        raise SpecError("give either --preset or --algebra, not both")
    if args.preset:
        from .presets import build_preset

        return build_preset(args.preset, field)
    if args.algebra:
        try:
            spec = AlgebraSpec.load(args.algebra)
        except (OSError, ValueError, KeyError) as exc:
            raise SpecError(f"cannot read algebra file: {exc}") from None
        if args.field is not None:
            spec = spec.with_field(field)
        return build_algebra(spec, label=os.path.basename(args.algebra))
    raise SpecError("an algebra source is required: --preset or --algebra")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _pair_line(reg: IsoRegistry, pair: SupportPair) -> str:
    dims = ",".join(_dim_string(reg.module(i).dims) for i in pair.summand_ids)
    supp = ",".join(
        reg.algebra.quiver.vertices[v] for v in pair.support_complement
    )
    out = dims if dims else "0"
    if supp:
        out += f" | {supp}"
    return out


def _explore(args) -> ExchangeQuiver:
    algebra = _load_algebra(args)
    return explore(IsoRegistry(algebra), args.max_depth)


def _status(quiver: ExchangeQuiver) -> str:
    state = "complete" if quiver.complete else (
        f"incomplete (max depth {quiver.max_depth})"
    )
    return f"{quiver.n_vertices} vertices, {quiver.n_arrows} arrows, {state}"


def cmd_explore(args) -> int:
    quiver = _explore(args)
    if args.dot:
        _write(args.dot, export_dot(quiver))
    if args.out:
        _write(
            args.out,
            json.dumps(export_records(quiver), indent=2, sort_keys=True) + "\n",
        )
    print(_status(quiver))
    return 0 if quiver.complete else 3


def cmd_semibricks(args) -> int:
    quiver = _explore(args)
    reg = quiver.registry
    for i, pair in enumerate(quiver.pairs):
        sb = sorted(
            _dim_string(reg.module(t).dims) for t in semibrick_ids_of(pair)
        )
        print(f"vertex {i + 1:02d}: pair {_pair_line(reg, pair)} ; semibrick "
              + (",".join(sb) if sb else "-"))
    print(_status(quiver))
    return 0 if quiver.complete else 3


def cmd_smc(args) -> int:
    quiver = _explore(args)
    if not quiver.complete:
        print(_status(quiver))
        return 3
    reg = quiver.registry
    for i in range(quiver.n_vertices):
        x = smc_of_vertex(quiver, i)
        report = check_smc_axioms(x)
        if not report.ok:
            raise TaumutError(
                f"{_where(quiver.pairs[i])}: constructed collection failed its "
                "axioms: " + "; ".join(report.violations)
            )
        d0 = ",".join(
            sorted(_dim_string(reg.module(s).dims) for s in x.degree0)
        )
        d1 = ",".join(
            sorted(_dim_string(reg.module(s).dims) for s in x.degree_minus1)
        )
        print(f"vertex {i + 1:02d}: degree0 {d0 or '-'} | shifted {d1 or '-'}")
    print(_status(quiver))
    return 0


def cmd_gvectors(args) -> int:
    quiver = _explore(args)
    if not quiver.complete:
        print(_status(quiver))
        return 3
    failures = 0
    records = []
    for i, pair in enumerate(quiver.pairs):
        data = grothendieck_data(pair, smc_of_vertex(quiver, i))
        report = check_duality(data)
        if not report["ok"]:
            failures += 1
        records.append(
            {
                "vertex": i,
                "g": [list(r) for r in data.g],
                "c": [list(r) for r in data.c],
                "d": [1] * len(data.d_prime),
                "d_prime": list(data.d_prime),
                "det_g": report["det_g"],
                "det_c": report["det_c"],
                "ok": report["ok"],
            }
        )
        print(
            f"vertex {i + 1:02d}: det g {report['det_g']:+d}, det c "
            f"{report['det_c']:+d}, duality "
            + ("ok" if report["ok"] else "FAIL")
        )
    if args.out:
        _write(
            args.out, json.dumps(records, indent=2, sort_keys=True) + "\n"
        )
    print(_status(quiver))
    return 1 if failures else 0


def cmd_count(args) -> int:
    NakayamaShape(args.kind, args.n, args.l)  # raises SpecError before any output
    table = format_count_table(args.kind, args.n, args.l)
    print(table)
    letter = "a" if args.kind == "linear" else "b"
    value = count_value(args.kind, args.n, args.l)
    print(f"{letter}({args.n},{args.l}) = {value}")
    if args.out:
        payload = {
            "kind": args.kind,
            "values": [
                {"n": n, "l": l, "value": count_value(args.kind, n, l)}
                for l in range(1, args.l + 1)
                for n in range(1, args.n + 1)
            ],
        }
        _write(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _verify_quiver(quiver: ExchangeQuiver) -> List[str]:
    """Invariant suite for a completely explored quiver; returns failure
    descriptions.  Arrows the coincidence check skips are counted on stderr.

    The per-vertex checks (tops, axioms, tops against labels, Koenig-Yang
    table) run at one representative per orbit of the algebra's
    automorphisms, and label coincidence on the arrows out of those, once
    `orbit_representatives` has certified that the quiver is equivariant;
    its docstring gives the argument.  Each vertex's collection is still
    read, and semibrick injectivity covers every vertex: away from the
    representatives the semibrick is the labels out, which are the twist of
    the representative's, and so equal to the tops wherever the
    representative's tops equal its labels.  A trivial group makes every
    vertex its own representative."""
    from .symmetry import orbit_representatives

    reg = quiver.registry
    rep, failures = orbit_representatives(quiver)
    seen_semibricks = {}
    collections = []
    for i, pair in enumerate(quiver.pairs):
        tops = reg.pair_top_ids(pair.summand_ids) if rep[i] == i else None
        x = smc_of_vertex(quiver, i)
        collections.append(x)
        sb = x.degree0 if tops is None else tuple(sorted(t for t in tops if t is not None))
        if sb in seen_semibricks:
            failures.append(
                f"semibrick of vertex {i} repeats vertex {seen_semibricks[sb]}"
            )
        seen_semibricks[sb] = i
        if tops is None:
            continue
        report = check_smc_axioms(x)
        if not report.ok:
            failures.append(
                f"smc axioms fail at vertex {i}: {report.violations[0]}"
            )
        # Asai, by a second route: the pair's top components label the
        # arrows out, which explore read off the known bricks of each face.
        # So the semibrick has the out-degree's size, at most n, since
        # `paired_columns` raises unless in + out = n; and each label, a
        # quotient of its source's summand, lies in Fac of the source
        if sb != x.degree0:
            failures.append(f"smc of vertex {i} is not the labels of its arrows")
        # Koenig-Yang: the collection, shifted part included, is the one of
        # the vertex's two-term silting complex; the table implies the duality
        table = check_silting_table(pair, x)
        if not table.ok:
            failures.append(
                f"Koenig-Yang table fails at vertex {i}: {table.violations[0]}"
            )
    shape = quiver.algebra.nakayama_shape
    if shape is not None:
        expected = count_value(shape.kind, shape.n, shape.l)
        if quiver.n_vertices != expected:
            failures.append(
                f"vertex count {quiver.n_vertices} != recurrence {expected}"
            )
    sources = {i for i, r in enumerate(rep) if r == i}
    coincidence = check_label_coincidence(quiver, collections, sources=sources)
    if coincidence["skipped"]:
        print(
            f"verify: label coincidence skipped {len(coincidence['skipped'])} of "
            f"{quiver.n_arrows} arrows, whose labels have self-extensions",
            file=sys.stderr,
        )
    if not coincidence["ok"]:
        failures.append(f"label coincidence failures: {coincidence['failures']}")
    return failures


def cmd_verify(args) -> int:
    quiver = _explore(args)
    if not quiver.complete:
        print(_status(quiver))
        print("verification needs a complete exploration")
        return 3
    failures = _verify_quiver(quiver)
    print(_status(quiver))
    for f in failures:
        print("FAIL:", f)
    print("verify:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


def cmd_quotient(args) -> int:
    algebra = _load_algebra(args)
    if not args.generator:
        raise SpecError("quotient needs at least one --generator expression")
    ideal = central_ideal(algebra, args.generator)
    report = verify_ejr(ideal, args.max_depth)
    print(f"vertices: {report.n_vertices[0]} vs {report.n_vertices[1]}")
    print(f"arrows: {report.n_arrows[0]} vs {report.n_arrows[1]}")
    print(f"vertex bijection: {report.vertex_bijection}")
    print(f"arrows match: {report.arrows_match}")
    print(f"labels fixed: {report.labels_fixed}")
    print(f"semibricks match: {report.semibricks_match}")
    print("quotient comparison:", "ok" if report.ok else "FAIL")
    return 0 if report.ok else 1


def _parse_dims(text: str, n: int) -> tuple:
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SpecError(f"bad dimension vector {text!r}") from None
    if len(dims) != n:
        raise SpecError(
            f"dim vector {text} has {len(dims)} entries, but the algebra has {n} vertices"
        )
    return dims


def cmd_restrict(args) -> int:
    algebra = _load_algebra(args)
    if not args.summand:
        raise SpecError("restrict needs at least one --summand dim vector")
    wanted = [_parse_dims(text, algebra.n_vertices) for text in args.summand]
    quiver = explore(IsoRegistry(algebra), args.max_depth)
    if not quiver.complete:
        print(_status(quiver))
        return 3
    reg = quiver.registry
    summand_ids = sorted(
        {i for pair in quiver.pairs for i in pair.summand_ids}
    )
    u_ids = []
    for text, dims in zip(args.summand, wanted):
        matches = [i for i in summand_ids if reg.module(i).dims == dims]
        if len(matches) != 1:
            raise SpecError(
                f"dim vector {text} matches {len(matches)} explored summands"
            )
        u_ids.append(matches[0])
    restriction = restrict_quiver(quiver, u_ids)
    print(
        f"restriction: {restriction.n_vertices} vertices, "
        f"{restriction.n_arrows} arrows"
    )
    for s, t, lab in restriction.arrows:
        print(
            f"  {s + 1:02d} -> {t + 1:02d} label "
            f"{_dim_string(reg.module(lab).dims)}"
        )
    if restriction.source_index >= 0:
        source = quiver.pairs[restriction.source_index]
        print("source (the completion):", _pair_line(reg, source))
    if restriction.sink_index >= 0:
        print(
            "sink:", _pair_line(reg, quiver.pairs[restriction.sink_index])
        )
    for v in restriction.violations:
        print("FAIL:", v)
    print("restriction:", "ok" if restriction.ok else "FAIL")
    return 0 if restriction.ok else 1


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="taumut",
        description="support tau-tilting pairs, semibricks, and exchange "
        "quivers over bound quiver algebras",
        epilog="presets: "
        + "; ".join(f"{k} ({v})" for k, v in sorted(PRESET_HELP.items())),
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def depth(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    def add_algebra_options(p):
        p.add_argument("--preset", help="named preset algebra")
        p.add_argument("--algebra", help="algebra file (JSON)")
        p.add_argument(
            "--field",
            help="ground field: q or fp:<p> (default: an algebra file's own field, else q)",
        )
        p.add_argument("--max-depth", type=depth, default=None)

    for verb, fn in (
        ("explore", cmd_explore),
        ("semibricks", cmd_semibricks),
        ("smc", cmd_smc),
        ("gvectors", cmd_gvectors),
        ("verify", cmd_verify),
        ("quotient", cmd_quotient),
        ("restrict", cmd_restrict),
    ):
        p = sub.add_parser(verb)
        add_algebra_options(p)
        p.set_defaults(fn=fn)
        if verb == "explore":
            p.add_argument("--dot", help="write DOT to this path")
            p.add_argument("--out", help="write export records (JSON) to this path")
        if verb == "gvectors":
            p.add_argument("--out", help="write matrices as JSON")
        if verb == "quotient":
            p.add_argument(
                "--generator",
                action="append",
                default=[],
                help="ideal generator expression, e.g. 'a1*a2'",
            )
        if verb == "restrict":
            p.add_argument(
                "--summand",
                action="append",
                default=[],
                help="dim vector of a summand to fix, e.g. '0,1,0'",
            )

    p = sub.add_parser("count")
    p.add_argument("--kind", required=True, choices=("linear", "cyclic"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--out", help="write the table as JSON")
    p.set_defaults(fn=cmd_count)

    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        return args.fn(args)
    except IncompleteExplorationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TaumutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
