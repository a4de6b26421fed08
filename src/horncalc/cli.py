"""Command-line entry point.

Exit codes: 0 success (and mathematically "true" verdicts), 1 mathematical
"false"/violated verdicts (so shell pipelines can branch on them), 2 usage
errors including malformed JSON payloads and arguments that violate a
precondition or a budget, 3 any other (internal) failure.

Handlers: each ``_cmd_*`` handler takes the parsed arguments and returns
``(output, verdict)``, where ``output`` is a JSON object or rendered text
and ``verdict`` says whether the answer is true.  Handlers write nothing;
``main`` alone writes ``output`` to stdout and turns the verdict into exit
0 or 1, inside the same ``try`` as the handler, so an output that JSON
cannot encode is an internal failure like any other, except an integer past
the digit limit, which entries inside it can make (the LCM of their
denominators): a usage error, refused before anything is written.

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


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON in {what} at position {exc.pos}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer over the digit limit, or nesting too deep
        raise DomainError(f"malformed JSON in {what}: {exc}") from exc


def _checked(value, depth: int, entry, what: str):
    """``value`` as lists nested ``depth`` deep, each entry converted by ``entry``.

    Wrong nesting raises ``ShapeError``; a boolean, an entry that ``entry``
    rejects or one past the int-to-str digit limit raises ``DomainError``.
    """
    if depth:
        if not isinstance(value, list):
            raise ShapeError(f"bad {what}: expected a list, got {json.dumps(value)}")
        return [_checked(x, depth - 1, entry, what) for x in value]
    if isinstance(value, (list, dict)):
        raise ShapeError(f"bad {what}: expected a scalar entry, got {json.dumps(value)}")
    if isinstance(value, bool):  # a Python int, but no payload format allows it
        raise DomainError(f"bad {what}: entry {json.dumps(value)}: not a number")
    try:
        x = entry(value)
        str(x)  # ValueError past the int-to-str digit limit, which no answer could print
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(f"bad {what}: entry {json.dumps(value)}: {exc}") from exc
    return x


def _int(value) -> int:
    """An integer or integer string: a float is refused, not truncated."""
    if isinstance(value, float):
        raise TypeError("not an integer")
    return int(value)


def _json_arg(text: str, what: str, depth: int, entry=_int):
    return _checked(_parse_json(text, what), depth, entry, what)


def _tuple_from_args(args):
    from .subsets import PositionTuple

    return PositionTuple.from_lists(args.n, _json_arg(args.tuple, "--tuple", 2))


def _field_from_args(args, default):
    from .fields import DEFAULT_PRIME, field_from_tag

    tag = {"prime": args.prime} if args.prime is not None else args.field or default
    return field_from_tag({"prime": DEFAULT_PRIME} if tag == "prime" else tag)


def _load_matrix_file(path: str):
    from .fields import field_from_tag
    from .matrices import Mat

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    obj = _parse_json(text, path)
    if not (isinstance(obj, dict) and {"field", "entries"} <= obj.keys()):
        raise ShapeError(f"bad matrix file {path}: expected an object with \"field\" and \"entries\"")
    field = field_from_tag(obj["field"])
    entries = _checked(obj["entries"], 2, field.parse, f"matrix file {path}")
    return field, Mat(field, entries, len(entries[0]) if entries else 0)


def _format_subset(elems) -> str:
    return "{" + ",".join(str(x) for x in elems) + "}"


def _class_table(r: int, n: int, s: int, classes, fmt: str):
    """Horn(r, n, s) classes as JSON rows, or rendered as csv, tex or text."""
    rows = [(tup.to_lists(), e) for tup, e in classes]
    if fmt == "json":
        return [{"tuple": parts, "edim": e} for parts, e in rows]
    if fmt == "csv":
        lines = ["r,n," + ",".join(f"J{k + 1}" for k in range(s)) + ",edim"]
        for parts, e in rows:
            lines.append(",".join([str(r), str(n)] + [_format_subset(p) for p in parts] + [str(e)]))
    elif fmt == "tex":
        lines = [f"% Horn({r},{n},{s})", "\\begin{tabular}{" + "c" * (s + 1) + "}"]
        lines.append(" & ".join(f"$J_{k + 1}$" for k in range(s)) + " & edim \\\\")
        for parts, e in rows:
            cells = ["\\{" + ",".join(map(str, p)) + "\\}" for p in parts]
            lines.append(" & ".join(cells + [str(e)]) + " \\\\")
        lines.append("\\end{tabular}")
    else:
        lines = [f"Horn({r},{n},{s}) classes up to permutation"]
        for parts, e in rows:
            cells = "  ".join(f"{_format_subset(p):<12}" for p in parts)
            lines.append(f"  {cells}edim {e}")
    return "\n".join(lines)


# ---------------------------------------------------------------- horn


def _cmd_horn_enumerate(args):
    from .horn import HornTable, horn_classes

    table = _class_table(args.r, args.n, args.s, horn_classes(args.r, args.n, args.s, HornTable()), args.format)
    if args.format == "json":
        return {"r": args.r, "n": args.n, "s": args.s, "classes": table}, True
    return table, True


def _cmd_horn_check(args):
    from .horn import HornTable, horn_member

    tup = _tuple_from_args(args)
    verdict = horn_member(tup, HornTable())
    return {"tuple": tup.to_json(), **verdict.to_json()}, verdict.member


def _cmd_horn0(args):
    from .horn import HornTable, horn0

    tuples = horn0(args.d, args.r, args.s, HornTable())
    return {"d": args.d, "r": args.r, "s": args.s, "tuples": [t.to_lists() for t in tuples]}, True


# ---------------------------------------------------------------- intersect


def _cmd_intersect_certify(args):
    from . import rng as rngmod
    from .tangent import certify_intersecting

    tup = _tuple_from_args(args)
    field = _field_from_args(args, default="prime")
    verdict = certify_intersecting(tup, field, args.samples, rngmod.spawn(args.seed, 0))
    return {"tuple": tup.to_json(), "seed": args.seed, **verdict.to_json()}, verdict.intersecting


# ---------------------------------------------------------------- kirwan / lr


def _cmd_kirwan_ineqs(args):
    from .horn import HornTable
    from .kirwan import kirwan_inequality_set

    rows = [(d, j.to_lists()) for d, j in kirwan_inequality_set(args.r, args.s, HornTable())]
    if args.format == "json":
        inequalities = [{"d": d, "parts": parts} for d, parts in rows]
        return {"r": args.r, "s": args.s, "count": len(rows), "inequalities": inequalities}, True
    if args.format == "csv":
        lines = ["d," + ",".join(f"J{k + 1}" for k in range(args.s))]
        lines += [",".join([str(d)] + [_format_subset(p) for p in parts]) for d, parts in rows]
        return "\n".join(lines), True
    # term and line templates of one inequality sum_k sum_{j in J_k} xi_k(j) <= 0
    term, line = ("\\xi_{{{}}}({})", "{} \\leq 0 \\\\") if args.format == "tex" else ("xi{}({})", "  {} <= 0")
    header = f"inequalities of the Kirwan cone for r={args.r}, s={args.s} (plus the trace equality)"
    lines = [header] if args.format == "text" else []
    for _, parts in rows:
        terms = [term.format(k, j) for k, part in enumerate(parts, start=1) for j in part]
        lines.append(line.format(" + ".join(terms)))
    return "\n".join(lines), True


def _cmd_kirwan_check(args):
    from fractions import Fraction

    from .horn import HornTable
    from .kirwan import kirwan_check

    parts = _json_arg(args.xi, "--xi", 2, lambda x: Fraction(str(x)))
    ok, violated = kirwan_check(parts, HornTable())
    return {"member": ok, "violations": [c.to_json() for c in violated]}, ok


def _cmd_lr_nonzero(args):
    from .horn import HornTable
    from .kirwan import kirwan_check, tuple_from_weights
    from .subsets import Weight

    weights = [Weight(tuple(part)) for part in _json_arg(args.lam, "--lambda", 2)]
    # by saturation the coefficient is nonzero exactly when the weights lie in the Kirwan cone
    ok, violated = kirwan_check([w.entries for w in weights], HornTable())
    out = {"nonzero": ok, "weights": [w.to_json() for w in weights]}
    if ok:
        out["subset_tuple"] = tuple_from_weights(weights)[1].to_json()
    else:
        out["violations"] = [c.to_json() for c in violated]
    return out, ok


# ---------------------------------------------------------------- geometry


def _cmd_pos_compute(args):
    from .flags import Flag, SubspaceBasis, check_flag_budget, position

    field_f, flag_mat = _load_matrix_file(args.flag)
    field_s, sub_mat = _load_matrix_file(args.subspace)
    if field_f != field_s:
        raise DomainError("flag and subspace files use different fields")
    check_flag_budget(flag_mat.nrows, field_f)
    flag = Flag(field_f, flag_mat)
    pos = position(SubspaceBasis(field_s, sub_mat), flag)
    return {"position": list(pos.elements), "ground": pos.ground}, True


def _cmd_cell_sample(args):
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
    return {
        "subset": subset.to_json(),
        "seed": args.seed,
        "field": field.to_json_tag(),
        "basis": sample.mat.format_entries(),
        "verified_position": list(position(sample, flag).elements),
    }, True


def _cmd_hn_search(args):
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
        rows = _json_arg(args.theta, "--theta", 2)
    else:
        rows = [sorted(rng.randrange(-4, 5) for _ in range(args.r)) for _ in range(args.s)]
    thetas = [Weight(tuple(row)) for row in rows]
    result = hn_minimizer_exhaustive(flags, thetas, budget=budget)
    return {
        "r": args.r,
        "q": args.q,
        "seed": args.seed,
        "thetas": [w.to_json() for w in thetas],
        "minimizer": result.minimizer.mat.format_entries(),
        "dim": result.minimizer.dim,
        "slope": [result.slope.numerator, result.slope.denominator],
        "multiplicity": result.multiplicity,
        "subspaces_scanned": result.scanned,
    }, result.multiplicity == 1


def _cmd_delta_eval(args):
    from . import rng as rngmod
    from .fields import QQ
    from .flags import Flag
    from .tangent import check_delta_budget, delta_determinant

    tup = _tuple_from_args(args)
    check_delta_budget(tup, QQ)  # before any matrix is drawn
    rng = rngmod.spawn(args.seed, 0)
    r, q = tup.cardinality, tup.ground - tup.cardinality
    gs = [Flag.random(QQ, r, rng).mat for _ in range(tup.s)]
    hs = [Flag.random(QQ, q, rng).mat for _ in range(tup.s)]
    value = delta_determinant(tup, gs, hs)
    return {
        "tuple": tup.to_json(),
        "seed": args.seed,
        "delta": str(value),
        "g": [g.format_entries() for g in gs],
        "h": [h.format_entries() for h in hs],
    }, value != 0


def _cmd_variational_demo(args):
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
    return {"xi": xi, "j": list(subset.elements), **report.to_json()}, report.ok


# ---------------------------------------------------------------- tables & fixtures


def _cmd_tables_a(args):
    from .horn import HornTable, horn_classes
    from .tables import APPENDIX_A_KEYS, appendix_a_tuple

    cache = HornTable()
    blocks = []
    for d, r in APPENDIX_A_KEYS:
        computed = horn_classes(d, r, 3, cache)
        if [(t.canonical(), e) for t, e in appendix_a_tuple(d, r)] != computed:
            raise AssertionError(f"computed Horn({d},{r},3) deviates from the embedded table")
        blocks.append(_class_table(d, r, 3, computed, args.format))
    if args.format == "json":
        tables = [{"d": d, "r": r, "classes": rows} for (d, r), rows in zip(APPENDIX_A_KEYS, blocks)]
        return {"tables": tables, "verified": True}, True
    return "\n\n".join(blocks), True


def _cmd_tables_b(args):
    from .horn import HornTable
    from .kirwan import kirwan_inequality_set
    from .subsets import PositionTuple
    from .tables import APPENDIX_B, appendix_b_closure

    cache = HornTable()
    tables, lines = [], []
    for r in sorted(APPENDIX_B):
        computed = set(kirwan_inequality_set(r, 3, cache))
        if appendix_b_closure(r) != computed:
            raise AssertionError(f"computed cone system for r={r} deviates from the embedded table")
        lines.append(f"r = {r}: trace equality plus {len(computed)} inequalities")
        reps = []
        for d, rep in APPENDIX_B[r]:
            size = len(PositionTuple.from_lists(r, rep).permutations())
            reps.append({"d": d, "representative": [list(p) for p in rep], "closure_size": size})
            lines.append(f"  d={d}  {' '.join(_format_subset(p) for p in rep)}  (x{size} permutations)")
        tables.append({"r": r, "count": len(computed), "representatives": reps})
    if args.format == "json":
        return {"tables": tables, "verified": True}, True
    return "\n".join(lines), True


def _cmd_fixtures_two_point(args):
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
            ok = ok and pos == target
            results.append(
                {"subspace": name, "t": t, "position": list(pos.elements), "expected": list(target.elements)}
            )
    return {"field": "sqrt5", "ok": ok, "checks": results}, ok


# ---------------------------------------------------------------- wiring


def _opt(*flags, **settings):
    """One option's declaration, as a function that adds it to a parser."""
    return lambda parser: parser.add_argument(*flags, **settings)


def _formats(*choices):
    return _opt("--format", choices=choices, default="json")


def _add_field(parser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--prime", type=int, default=None, help="use GF(p) with this prime")
    group.add_argument(
        "--field",
        choices=["rational", "sqrt5", "prime"],
        default=None,
        help="scalar field (default depends on the subcommand)",
    )


# options that several commands take, each declared once
_N = _opt("--n", type=int, required=True)
_R = _opt("--r", type=int, required=True)
_S = _opt("--s", type=int, default=3)
_TUPLE = _opt("--tuple", required=True)
_SEED = _opt("--seed", type=int, default=0, help="master seed for all randomness")
_ALL_FORMATS = _formats("json", "csv", "tex", "text")

_GROUP_SETTINGS = {"horn": {"help": "Horn recursion"}, "horn0": {"help": "edim-0 slice of a Horn set"}}

# every command in --help order: "group action" (or a lone group), handler, option adders
_COMMANDS = (
    ("horn enumerate", _cmd_horn_enumerate, [_R, _N, _S, _ALL_FORMATS]),
    ("horn check", _cmd_horn_check, [_N, _TUPLE]),
    ("horn0", _cmd_horn0, [_opt("--d", type=int, required=True), _R, _S]),
    ("intersect certify", _cmd_intersect_certify, [_N, _TUPLE, _SEED, _opt("--samples", type=int, default=3), _add_field]),
    ("kirwan ineqs", _cmd_kirwan_ineqs, [_R, _S, _ALL_FORMATS]),
    ("kirwan check", _cmd_kirwan_check, [_opt("--xi", required=True)]),
    ("lr nonzero", _cmd_lr_nonzero, [_opt("--lambda", dest="lam", required=True)]),
    (
        "pos compute",
        _cmd_pos_compute,
        [
            _opt("--flag", required=True, help="JSON matrix file; columns are the adapted basis"),
            _opt("--subspace", required=True, help="JSON matrix file; columns span the subspace"),
        ],
    ),
    ("cell sample", _cmd_cell_sample, [_N, _opt("--subset", required=True), _opt("--flag", default=None), _SEED, _add_field]),
    (
        "hn search",
        _cmd_hn_search,
        [
            _R,
            _opt("--q", type=int, default=2, help="small prime field order"),
            _S,
            _opt("--theta", default=None),
            _SEED,
            _opt("--budget", type=int, default=None),
        ],
    ),
    ("delta eval", _cmd_delta_eval, [_N, _TUPLE, _SEED]),
    (
        "variational demo",
        _cmd_variational_demo,
        [
            _opt("--r", type=int, default=6),
            _opt("--j", required=True),
            _opt("--xi", default=None),
            _opt("--trials", type=int, default=50),
            _opt("--tolerance", type=float, default=None),
            _SEED,
        ],
    ),
    ("tables appendix-a", _cmd_tables_a, [_formats("json", "tex", "text")]),
    ("tables appendix-b", _cmd_tables_b, [_formats("json", "text")]),
    ("fixtures two-point", _cmd_fixtures_two_point, []),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horncalc",
        description="Horn inequalities, Schubert intersection certificates, and Kirwan cone membership",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for path, func, options in _COMMANDS:
        group, _, action = path.partition(" ")
        if group not in groups:
            groups[group] = sub.add_parser(group, **_GROUP_SETTINGS.get(group, {}))
            if action:
                groups[group] = groups[group].add_subparsers(dest="action", required=True)
        p = groups[group].add_parser(action) if action else groups[group]
        for add in options:
            add(p)
        p.set_defaults(func=func)
    return parser


def _encode(output) -> str:
    try:
        return json.dumps(output, sort_keys=True, allow_nan=False)
    except ValueError:
        try:
            json.dumps(output)  # allows NaN, so only an integer past the digit limit fails again
        except ValueError as exc:
            raise DomainError(f"the answer cannot be printed: {exc}") from None
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a message; normalize the code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        output, verdict = args.func(args)
        if not isinstance(output, str):
            output = _encode(output)
        sys.stdout.write(output + "\n")
        return EXIT_OK if verdict else EXIT_FALSE
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
