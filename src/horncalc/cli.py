"""Command-line entry point.

Exit codes: 0 success (and mathematically "true" verdicts), 1 mathematical
"false"/violated verdicts (so shell pipelines can branch on them), 2 usage
errors including malformed JSON payloads and arguments that violate a
precondition or a budget, 3 any other (internal) failure.

All output is deterministic for a fixed argv and --seed: JSON objects are
emitted with sorted keys and every randomized routine derives its streams
from the master seed.

Imports: this module loads only ``argparse``, ``json``, ``sys`` and
``.errors`` at import time.  Each ``_cmd_*`` handler (and each helper)
imports the library modules it runs, so a process compiles and loads only
what its subcommand executes, and an import failure inside a handler is
reported by ``main`` like any other internal failure.  Parser construction
imports nothing: defaults that live in a library module (``--budget``,
``--tolerance``) are ``None`` in the parser and resolved by the handler.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BudgetError, DomainError, ShapeError

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n")


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON in {what} at position {exc.pos}: {exc.msg}") from exc


def _checked(value, depth: int, entry, what: str):
    """``value`` as lists nested ``depth`` deep, each entry converted by ``entry``.

    Wrong nesting raises ``ShapeError`` and an entry that ``entry`` rejects
    raises ``DomainError``, so every malformed argument is a usage error.
    """
    if depth:
        if not isinstance(value, list):
            raise ShapeError(f"bad {what}: expected a list, got {json.dumps(value)}")
        return [_checked(x, depth - 1, entry, what) for x in value]
    if isinstance(value, (list, dict)):
        raise ShapeError(f"bad {what}: expected a scalar entry, got {json.dumps(value)}")
    try:
        return entry(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(f"bad {what}: entry {json.dumps(value)}: {exc}") from exc


def _json_arg(text: str, what: str, depth: int, entry=int):
    return _checked(_parse_json(text, what), depth, entry, what)


def _tuple_from_args(args):
    from .subsets import PositionTuple

    return PositionTuple.from_lists(args.n, _json_arg(args.tuple, "--tuple", 2))


def _field_from_args(args, default):
    from .fields import DEFAULT_PRIME, QQ, SQRT5, PrimeField

    if args.prime is not None:
        return PrimeField(args.prime)
    name = args.field or default
    if name == "rational":
        return QQ
    if name == "sqrt5":
        return SQRT5
    return PrimeField(DEFAULT_PRIME)


def _load_matrix_file(path: str):
    from .fields import field_from_tag
    from .matrices import Mat

    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON in {path} at position {exc.pos}: {exc.msg}") from exc
    if not (isinstance(obj, dict) and {"field", "entries"} <= obj.keys()):
        raise ShapeError(f"bad matrix file {path}: expected an object with \"field\" and \"entries\"")
    field = field_from_tag(obj["field"])
    entries = _checked(obj["entries"], 2, field.parse, f"matrix file {path}")
    return field, Mat(field, entries, len(entries[0]) if entries else 0)


def _format_subset(elems) -> str:
    return "{" + ",".join(str(x) for x in elems) + "}"


# ---------------------------------------------------------------- horn


def _cmd_horn_enumerate(args) -> int:
    from .horn import HornTable, horn_classes

    classes = horn_classes(args.r, args.n, args.s, HornTable())
    rows = [
        {"tuple": [list(p.elements) for p in tup.parts], "edim": e}
        for tup, e in classes
    ]
    if args.format == "json":
        _emit({"r": args.r, "n": args.n, "s": args.s, "classes": rows})
    elif args.format == "csv":
        lines = ["r,n," + ",".join(f"J{k + 1}" for k in range(args.s)) + ",edim"]
        for row in rows:
            cells = [str(args.r), str(args.n)]
            cells += [_format_subset(p) for p in row["tuple"]]
            cells.append(str(row["edim"]))
            lines.append(",".join(cells))
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(_render_table(args.r, args.n, args.s, rows, args.format) + "\n")
    return EXIT_OK


def _render_table(r: int, n: int, s: int, rows: list[dict], fmt: str) -> str:
    if fmt == "tex":
        lines = [f"% Horn({r},{n},{s})", "\\begin{tabular}{" + "c" * (s + 1) + "}"]
        lines.append(" & ".join(f"$J_{k + 1}$" for k in range(s)) + " & edim \\\\")
        for row in rows:
            cells = ["\\{" + ",".join(map(str, p)) + "\\}" for p in row["tuple"]]
            lines.append(" & ".join(cells + [str(row["edim"])]) + " \\\\")
        lines.append("\\end{tabular}")
        return "\n".join(lines)
    lines = [f"Horn({r},{n},{s}) classes up to permutation"]
    for row in rows:
        cells = "  ".join(f"{_format_subset(p):<12}" for p in row["tuple"])
        lines.append(f"  {cells}edim {row['edim']}")
    return "\n".join(lines)


def _cmd_horn_check(args) -> int:
    from .horn import HornTable, horn_member

    tup = _tuple_from_args(args)
    verdict = horn_member(tup, HornTable())
    _emit({"tuple": tup.to_json(), **verdict.to_json()})
    return EXIT_OK if verdict.member else EXIT_FALSE


def _cmd_horn0(args) -> int:
    from .horn import HornTable, horn0

    cache = HornTable()
    tuples = horn0(args.d, args.r, args.s, cache)
    _emit(
        {
            "d": args.d,
            "r": args.r,
            "s": args.s,
            "tuples": [[list(p.elements) for p in t.parts] for t in tuples],
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------- intersect


def _cmd_intersect_certify(args) -> int:
    from . import rng as rngmod
    from .tangent import certify_intersecting

    tup = _tuple_from_args(args)
    field = _field_from_args(args, default="prime")
    verdict = certify_intersecting(tup, field, args.samples, rngmod.spawn(args.seed, 0))
    _emit({"tuple": tup.to_json(), "seed": args.seed, **verdict.to_json()})
    return EXIT_OK if verdict.intersecting else EXIT_FALSE


# ---------------------------------------------------------------- kirwan / lr


def _cmd_kirwan_ineqs(args) -> int:
    from .horn import HornTable
    from .kirwan import kirwan_inequality_set

    cache = HornTable()
    ineqs = kirwan_inequality_set(args.r, args.s, cache)
    rows = [{"d": d, "parts": [list(p.elements) for p in j.parts]} for d, j in ineqs]
    if args.format == "json":
        _emit({"r": args.r, "s": args.s, "count": len(rows), "inequalities": rows})
    elif args.format == "csv":
        lines = ["d," + ",".join(f"J{k + 1}" for k in range(args.s))]
        for row in rows:
            lines.append(",".join([str(row["d"])] + [_format_subset(p) for p in row["parts"]]))
        sys.stdout.write("\n".join(lines) + "\n")
    elif args.format == "tex":
        lines = []
        for row in rows:
            terms = []
            for k, part in enumerate(row["parts"], start=1):
                terms.extend(f"\\xi_{{{k}}}({j})" for j in part)
            lines.append(" + ".join(terms) + " \\leq 0 \\\\")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        lines = [f"inequalities of the Kirwan cone for r={args.r}, s={args.s} (plus the trace equality)"]
        for row in rows:
            terms = []
            for k, part in enumerate(row["parts"], start=1):
                terms.extend(f"xi{k}({j})" for j in part)
            lines.append("  " + " + ".join(terms) + " <= 0")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_kirwan_check(args) -> int:
    from fractions import Fraction

    from .horn import HornTable
    from .kirwan import kirwan_check

    parts = _json_arg(args.xi, "--xi", 2, lambda x: Fraction(str(x)))
    ok, violated = kirwan_check(parts, HornTable())
    _emit(
        {
            "member": ok,
            "violations": [c.to_json() for c in violated],
        }
    )
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_lr_nonzero(args) -> int:
    from .horn import HornTable
    from .kirwan import kirwan_check, lr_nonvanishing, tuple_from_weights
    from .subsets import Weight

    weights = [Weight(tuple(part)) for part in _json_arg(args.lam, "--lambda", 2)]
    cache = HornTable()
    ok = lr_nonvanishing(weights, cache)
    out = {"nonzero": ok, "weights": [w.to_json() for w in weights]}
    if ok:
        n, tup = tuple_from_weights(weights)
        out["subset_tuple"] = tup.to_json()
    else:
        _, violated = kirwan_check([w.entries for w in weights], cache)
        out["violations"] = [c.to_json() for c in violated]
    _emit(out)
    return EXIT_OK if ok else EXIT_FALSE


# ---------------------------------------------------------------- geometry


def _cmd_pos_compute(args) -> int:
    from .flags import Flag, SubspaceBasis, check_flag_budget, position

    field_f, flag_mat = _load_matrix_file(args.flag)
    field_s, sub_mat = _load_matrix_file(args.subspace)
    if field_f != field_s:
        raise DomainError("flag and subspace files use different fields")
    check_flag_budget(flag_mat.nrows, field_f)
    flag = Flag(field_f, flag_mat)
    pos = position(SubspaceBasis(field_s, sub_mat), flag)
    _emit({"position": list(pos.elements), "ground": pos.ground})
    return EXIT_OK


def _cmd_cell_sample(args) -> int:
    from . import rng as rngmod
    from .flags import Flag, check_flag_budget, position, sample_cell_point
    from .subsets import CardSubset

    subset = CardSubset(args.n, tuple(_json_arg(args.subset, "--subset", 1)))
    field = _field_from_args(args, default="rational")
    rng = rngmod.spawn(args.seed, 0)
    if args.flag:
        flag_field, fmat = _load_matrix_file(args.flag)
        if flag_field != field and (args.field is not None or args.prime is not None):
            raise DomainError("the --flag file's field differs from the --field/--prime given")
        field = flag_field
        check_flag_budget(fmat.nrows, field)  # before the flag is built
        flag = Flag(field, fmat)
    else:
        check_flag_budget(args.n, field)
        flag = Flag.standard(field, args.n)
    sample = sample_cell_point(subset, flag, rng)
    _emit(
        {
            "subset": subset.to_json(),
            "seed": args.seed,
            "field": field.to_json_tag(),
            "basis": sample.mat.format_entries(),
            "verified_position": list(position(sample, flag).elements),
        }
    )
    return EXIT_OK


def _cmd_hn_search(args) -> int:
    from . import rng as rngmod
    from .fields import PrimeField
    from .flags import Flag
    from .hn import DEFAULT_SUBSPACE_BUDGET, check_subspace_budget, hn_minimizer_exhaustive
    from .subsets import Weight

    field = PrimeField(args.q)
    budget = DEFAULT_SUBSPACE_BUDGET if args.budget is None else args.budget
    check_subspace_budget(args.r, args.q, budget)  # before any flag is drawn
    rng = rngmod.spawn(args.seed, 0)
    flags = [Flag.random(field, args.r, rng) for _ in range(args.s)]
    if args.theta:
        thetas = [Weight(tuple(part)) for part in _json_arg(args.theta, "--theta", 2)]
    else:
        thetas = []
        for _ in range(args.s):
            entries = sorted(rng.randrange(-4, 5) for _ in range(args.r))
            thetas.append(Weight(tuple(entries)))
    result = hn_minimizer_exhaustive(flags, thetas, budget=budget)
    _emit(
        {
            "r": args.r,
            "q": args.q,
            "seed": args.seed,
            "thetas": [w.to_json() for w in thetas],
            "minimizer": result.minimizer.mat.format_entries(),
            "dim": result.minimizer.dim,
            "slope": [result.slope.numerator, result.slope.denominator],
            "multiplicity": result.multiplicity,
            "subspaces_scanned": result.scanned,
        }
    )
    return EXIT_OK if result.multiplicity == 1 else EXIT_FALSE


def _cmd_delta_eval(args) -> int:
    from . import rng as rngmod
    from .fields import QQ
    from .matrices import random_invertible
    from .tangent import check_delta_budget, delta_determinant

    tup = _tuple_from_args(args)
    check_delta_budget(tup, QQ)  # before any matrix is drawn
    rng = rngmod.spawn(args.seed, 0)
    r, q = tup.cardinality, tup.ground - tup.cardinality
    gs = [random_invertible(QQ, r, rng) for _ in range(tup.s)]
    hs = [random_invertible(QQ, q, rng) for _ in range(tup.s)]
    value = delta_determinant(tup, gs, hs)
    _emit(
        {
            "tuple": tup.to_json(),
            "seed": args.seed,
            "delta": str(value),
            "g": [g.format_entries() for g in gs],
            "h": [h.format_entries() for h in hs],
        }
    )
    return EXIT_OK if value != 0 else EXIT_FALSE


def _cmd_variational_demo(args) -> int:
    from . import rng as rngmod
    from .subsets import CardSubset
    from .variational import DEFAULT_TOLERANCE, check_trial_budget, variational_check

    elems = _json_arg(args.j, "--j", 1)
    rng = rngmod.spawn(args.seed, 0)
    if args.xi:
        xi = sorted(_json_arg(args.xi, "--xi", 1, float), reverse=True)
    else:
        check_trial_budget(args.r, args.trials)  # before the spectrum is drawn
        xi = sorted((rng.uniform(-2.0, 2.0) for _ in range(args.r)), reverse=True)
    subset = CardSubset(args.r, tuple(elems))
    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    report = variational_check(xi, subset, args.trials, tolerance, rngmod.derive_seed(args.seed, 1))
    _emit({"xi": xi, "j": list(subset.elements), **report.to_json()})
    return EXIT_OK if report.ok else EXIT_FALSE


# ---------------------------------------------------------------- tables & fixtures


def _cmd_tables_a(args) -> int:
    from .horn import HornTable, horn_classes
    from .tables import APPENDIX_A_KEYS, appendix_a_tuple

    cache = HornTable()
    out = []
    for d, r in APPENDIX_A_KEYS:
        computed = horn_classes(d, r, 3, cache)
        expected = appendix_a_tuple(d, r)
        match = [(t.canonical(), e) for t, e in expected] == computed
        if not match:
            raise AssertionError(f"computed Horn({d},{r},3) deviates from the embedded table")
        out.append(
            {
                "d": d,
                "r": r,
                "classes": [
                    {"tuple": [list(p.elements) for p in t.parts], "edim": e}
                    for t, e in computed
                ],
            }
        )
    if args.format == "json":
        _emit({"tables": out, "verified": True})
    else:
        blocks = []
        for block in out:
            rows = block["classes"]
            blocks.append(_render_table(block["d"], block["r"], 3, rows, args.format))
        sys.stdout.write("\n\n".join(blocks) + "\n")
    return EXIT_OK


def _cmd_tables_b(args) -> int:
    from .horn import HornTable
    from .kirwan import kirwan_inequality_set
    from .subsets import PositionTuple
    from .tables import APPENDIX_B, appendix_b_closure

    cache = HornTable()
    out = []
    for r in sorted(APPENDIX_B):
        closure = appendix_b_closure(r)
        computed = set(kirwan_inequality_set(r, 3, cache))
        if closure != computed:
            raise AssertionError(f"computed cone system for r={r} deviates from the embedded table")
        reps = [
            {
                "d": d,
                "representative": [list(p) for p in rep],
                "closure_size": len(PositionTuple.from_lists(r, rep).permutations()),
            }
            for d, rep in APPENDIX_B[r]
        ]
        out.append({"r": r, "count": len(computed), "representatives": reps})
    if args.format == "json":
        _emit({"tables": out, "verified": True})
    else:
        lines = []
        for block in out:
            lines.append(f"r = {block['r']}: trace equality plus {block['count']} inequalities")
            for rep in block["representatives"]:
                subs = " ".join(_format_subset(p) for p in rep["representative"])
                lines.append(
                    f"  d={rep['d']}  {subs}  (x{rep['closure_size']} permutations)"
                )
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_fixtures_two_point(args) -> int:
    from .flags import position
    from .tables import two_point_flags, two_point_subspaces, two_point_tuple

    flags = two_point_flags()
    v1, v2 = two_point_subspaces()
    target = two_point_tuple().parts[0]
    results = []
    ok = True
    for name, sub in (("V1", v1), ("V2", v2)):
        for t, flag in zip((0, 1, -1), flags):
            pos = position(sub, flag)
            good = pos == target
            ok = ok and good
            results.append(
                {"subspace": name, "t": t, "position": list(pos.elements), "expected": list(target.elements)}
            )
    _emit({"field": "sqrt5", "ok": ok, "checks": results})
    return EXIT_OK if ok else EXIT_FALSE


# ---------------------------------------------------------------- wiring


def _add_seed(parser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed for all randomness")


def _add_format(parser, *formats) -> None:
    parser.add_argument("--format", choices=formats, default="json")


def _add_field(parser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--prime", type=int, default=None, help="use GF(p) with this prime")
    group.add_argument(
        "--field",
        choices=["rational", "sqrt5", "prime"],
        default=None,
        help="scalar field (default depends on the subcommand)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horncalc",
        description="Horn inequalities, Schubert intersection certificates, and Kirwan cone membership",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    horn = sub.add_parser("horn", help="Horn recursion").add_subparsers(dest="action", required=True)
    p = horn.add_parser("enumerate")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, default=3)
    _add_format(p, "json", "csv", "tex", "text")
    p.set_defaults(func=_cmd_horn_enumerate)
    p = horn.add_parser("check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tuple", required=True)
    p.set_defaults(func=_cmd_horn_check)

    p = sub.add_parser("horn0", help="edim-0 slice of a Horn set")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, default=3)
    p.set_defaults(func=_cmd_horn0)

    inter = sub.add_parser("intersect").add_subparsers(dest="action", required=True)
    p = inter.add_parser("certify")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tuple", required=True)
    _add_seed(p)
    p.add_argument("--samples", type=int, default=3)
    _add_field(p)
    p.set_defaults(func=_cmd_intersect_certify)

    kirwan = sub.add_parser("kirwan").add_subparsers(dest="action", required=True)
    p = kirwan.add_parser("ineqs")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, default=3)
    _add_format(p, "json", "csv", "tex", "text")
    p.set_defaults(func=_cmd_kirwan_ineqs)
    p = kirwan.add_parser("check")
    p.add_argument("--xi", required=True)
    p.set_defaults(func=_cmd_kirwan_check)

    lr = sub.add_parser("lr").add_subparsers(dest="action", required=True)
    p = lr.add_parser("nonzero")
    p.add_argument("--lambda", dest="lam", required=True)
    p.set_defaults(func=_cmd_lr_nonzero)

    pos = sub.add_parser("pos").add_subparsers(dest="action", required=True)
    p = pos.add_parser("compute")
    p.add_argument("--flag", required=True, help="JSON matrix file; columns are the adapted basis")
    p.add_argument("--subspace", required=True, help="JSON matrix file; columns span the subspace")
    p.set_defaults(func=_cmd_pos_compute)

    cell = sub.add_parser("cell").add_subparsers(dest="action", required=True)
    p = cell.add_parser("sample")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("--flag", default=None)
    _add_seed(p)
    _add_field(p)
    p.set_defaults(func=_cmd_cell_sample)

    hn = sub.add_parser("hn").add_subparsers(dest="action", required=True)
    p = hn.add_parser("search")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, default=2, help="small prime field order")
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--theta", default=None)
    _add_seed(p)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=_cmd_hn_search)

    delta = sub.add_parser("delta").add_subparsers(dest="action", required=True)
    p = delta.add_parser("eval")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tuple", required=True)
    _add_seed(p)
    p.set_defaults(func=_cmd_delta_eval)

    var = sub.add_parser("variational").add_subparsers(dest="action", required=True)
    p = var.add_parser("demo")
    p.add_argument("--r", type=int, default=6)
    p.add_argument("--j", required=True)
    p.add_argument("--xi", default=None)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--tolerance", type=float, default=None)
    _add_seed(p)
    p.set_defaults(func=_cmd_variational_demo)

    tables = sub.add_parser("tables").add_subparsers(dest="action", required=True)
    p = tables.add_parser("appendix-a")
    _add_format(p, "json", "tex", "text")
    p.set_defaults(func=_cmd_tables_a)
    p = tables.add_parser("appendix-b")
    _add_format(p, "json", "text")
    p.set_defaults(func=_cmd_tables_b)

    fixtures = sub.add_parser("fixtures").add_subparsers(dest="action", required=True)
    p = fixtures.add_parser("two-point")
    p.set_defaults(func=_cmd_fixtures_two_point)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a message; normalize the code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (DomainError, ShapeError, BudgetError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception:
        # exit 1 means "false", so no failure may escape with that code
        import traceback

        sys.stderr.write("internal error:\n" + traceback.format_exc())
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
