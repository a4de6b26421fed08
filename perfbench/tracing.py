"""Spans and counters recorded around horncalc's public functions.

The benchmark installs these wrappers from outside the package, only for a
traced pass, and removes them afterwards; untraced runs execute the
unmodified code.  A function is rebound in every horncalc module that holds
it, because ``from .matrices import kernel_basis`` gives ``tangent`` its own
name for the same object.

A span has a name, start, end, parent and the id of the benchmark operation
it belongs to.  Its self time is its duration minus the time its child spans
and timed leaf calls cover.  Very hot leaf functions (tuple composition and
expected dimension) are timed and counted without a span each, and field
operations are only counted, so that a traced run keeps its spans in memory.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

from horncalc import fields, flags, hn, horn, kirwan, matrices, subsets, tangent
from horncalc.fields import PrimeField, RationalField

# GF(p) with p above this is the large certification field; below it the
# tiny fields of the exhaustive Harder-Narasimhan scans.
SMALL_PRIME_LIMIT = 1 << 16


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, op id)
        self._open: list = []  # [span index, name, start, child seconds]
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.op = -1
        self._restore: list = []

    # -- recording

    def begin(self, name: str) -> None:
        self._open.append([len(self.spans), name, perf_counter(), 0.0])
        self.spans.append(None)

    def end(self) -> None:
        idx, name, start, child = self._open.pop()
        end = perf_counter()
        dur = end - start
        parent = self._open[-1][0] if self._open else -1
        self.spans[idx] = (name, start, end, parent, self.op)
        self.counts[name] += 1
        self.self_s[name] += dur - child
        if self._open:
            self._open[-1][3] += dur

    def leaf(self, name: str, dur: float) -> None:
        self.counts[name] += 1
        self.self_s[name] += dur
        if self._open:
            top = self._open[-1]
            top[3] += dur
            self.counts[name + "@" + top[1]] += 1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "self_s": dict(self.self_s),
                },
                fh,
            )

    # -- wrappers

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before() if before is not None else None
            self.begin(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(args, result, token)
            return result

        return wrapper

    def timed_leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leaf(name, perf_counter() - t0)

        return wrapper

    # -- installation

    def _rebind(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, module, attr, make):
        """Rebind ``module.attr`` in every loaded horncalc module holding it."""
        orig = getattr(module, attr)
        new = make(orig)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "horncalc" or name.startswith("horncalc.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._rebind(mod, key, new)

    def wrap_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._rebind(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._rebind(cls, attr, make(raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def field_kind(field) -> str:
    if isinstance(field, PrimeField):
        return "gfp" if field.p > SMALL_PRIME_LIMIT else "small_p"
    if isinstance(field, RationalField):
        return "qq"
    return "other"


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    t = tracer
    counts = t.counts

    # horn: one span per level build, with the size of its candidate space
    def level_built(args, _result, _token):
        table, (d, r, s) = args
        counts["horn.candidates"] += comb(r, d) ** s
        counts["horn.survivors"] += len(table.members(d, r, s))
        counts["horn.zero_slice_tuples"] += len(table.zero_slice(d, r, s))

    t.wrap_method(horn.HornTable, "_build", lambda f: t.span("horn.level_build", f, after=level_built))
    t.wrap_function(horn, "horn_member", lambda f: t.span("horn.member", f))
    t.wrap_function(horn, "horn_classes", lambda f: t.span("horn.classes", f))

    # subsets: hot leaves, timed and counted without spans
    t.wrap_method(subsets.PositionTuple, "compose", lambda f: t.timed_leaf("subsets.compose", f))
    t.wrap_method(subsets.PositionTuple, "edim", lambda f: t.timed_leaf("subsets.edim", f))

    # kirwan
    def certs_built(_args, result, _token):
        counts["kirwan.certs"] += len(result)

    def ineqs_listed(_args, result, _token):
        counts["kirwan.ineqs"] += len(result)

    t.wrap_function(kirwan, "lr_nonvanishing", lambda f: t.span("kirwan.lr", f))
    t.wrap_function(kirwan, "kirwan_check", lambda f: t.span("kirwan.check", f))
    t.wrap_function(kirwan, "kirwan_certificates", lambda f: t.span("kirwan.certificates", f, after=certs_built))
    t.wrap_function(kirwan, "kirwan_inequality_set", lambda f: t.span("kirwan.ineq_set", f, after=ineqs_listed))

    # tangent: a certify call draws samples until one reaches edim
    def samples_so_far():
        return counts["tangent.sample"]

    def certified(_args, result, drawn_before):
        if result.intersecting and counts["tangent.sample"] - drawn_before == 1:
            counts["tangent.first_sample_hits"] += 1

    t.wrap_function(
        tangent, "certify_intersecting", lambda f: t.span("tangent.certify", f, before=samples_so_far, after=certified)
    )
    t.wrap_function(tangent, "h_intersection_dim", lambda f: t.span("tangent.sample", f))
    t.wrap_function(tangent, "h_constraint_rows", lambda f: t.span("tangent.constraint_rows", f))

    # matrices: elimination work counted as rows x columns x rank
    def kernel_cells(args, result, _token):
        m = args[0]
        counts["matrices.elim_cells." + field_kind(m.field)] += m.nrows * m.ncols * (m.ncols - len(result))

    def rank_cells(args, result, _token):
        m = args[0]
        counts["matrices.elim_cells." + field_kind(m.field)] += m.nrows * m.ncols * result

    def inverse_cells(args, _result, _token):
        m = args[0]
        counts["matrices.elim_cells." + field_kind(m.field)] += 2 * m.nrows ** 3

    t.wrap_function(
        matrices,
        "kernel_basis",
        lambda f: t.span(lambda a: "matrices.kernel." + field_kind(a[0].field), f, after=kernel_cells),
    )
    t.wrap_function(matrices, "rank", lambda f: t.span("matrices.rank", f, after=rank_cells))
    t.wrap_function(matrices, "inverse", lambda f: t.span("matrices.inverse", f, after=inverse_cells))

    # flags and hn
    def scanned(_args, result, _token):
        counts["hn.subspaces_scanned"] += result.scanned

    t.wrap_method(flags.Flag, "random", lambda f: t.span("flags.random_flag", f))
    t.wrap_function(flags, "position", lambda f: t.span("flags.position", f))
    t.wrap_function(hn, "hn_minimizer_exhaustive", lambda f: t.span("hn.scan", f, after=scanned))

    # fields: counts only; subtraction counts as an addition
    def counted(op, fn, kind_of):
        def wrapper(self, a, b):
            counts["fields." + op + "_count." + kind_of(self)] += 1
            return fn(self, a, b)

        return wrapper

    def prime_kind(fld):
        return "gfp" if fld.p > SMALL_PRIME_LIMIT else "small_p"

    def rational_kind(_fld):
        return "qq"

    for cls, kind_of in ((fields.PrimeField, prime_kind), (fields.RationalField, rational_kind)):
        t.wrap_method(cls, "mul", lambda f, k=kind_of: counted("mul", f, k))
        t.wrap_method(cls, "add", lambda f, k=kind_of: counted("add", f, k))
        t.wrap_method(cls, "sub", lambda f, k=kind_of: counted("add", f, k))


FIELD_KINDS = ("gfp", "qq", "small_p")


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics of a traced pass (values without units)."""
    c, s = t.counts, t.self_s
    candidates = c["horn.candidates"]
    certify_calls = c["tangent.certify"]
    out = {
        "horn.levels_built": c["horn.level_build"],
        "horn.level_build_s": s["horn.level_build"],
        "horn.candidates": candidates,
        "horn.survivor_ratio": c["horn.survivors"] / candidates if candidates else 0.0,
        "horn.zero_slice_tuples": c["horn.zero_slice_tuples"],
        "horn.member_calls": c["horn.member"],
        "horn.member_s": s["horn.member"],
        "horn.compositions_tested": c["subsets.compose@horn.member"],
        "horn.classes_s": s["horn.classes"],
        "subsets.compose_calls": c["subsets.compose"],
        "subsets.edim_calls": c["subsets.edim"],
        "subsets.compose_edim_s": s["subsets.compose"] + s["subsets.edim"],
        "kirwan.check_calls": c["kirwan.check"],
        "kirwan.check_s": s["kirwan.lr"] + s["kirwan.check"] + s["kirwan.certificates"],
        "kirwan.ineq_set_s": s["kirwan.ineq_set"],
        "kirwan.ineqs_evaluated": c["kirwan.ineqs"],
        "kirwan.certificates_built": c["kirwan.certs"],
        "tangent.certify_calls": certify_calls,
        "tangent.samples_drawn": c["tangent.sample"],
        "tangent.first_sample_ratio": c["tangent.first_sample_hits"] / certify_calls if certify_calls else 0.0,
        "tangent.sample_s": s["tangent.certify"] + s["tangent.sample"],
        "tangent.constraint_rows_s": s["tangent.constraint_rows"],
    }
    for kind in ("gfp", "qq"):
        out["matrices.kernel_calls." + kind] = c["matrices.kernel." + kind]
        out["matrices.kernel_s." + kind] = s["matrices.kernel." + kind]
        out["matrices.elim_cells." + kind] = c["matrices.elim_cells." + kind]
    out["matrices.inverse_s"] = s["matrices.inverse"]
    out["matrices.rank_s"] = s["matrices.rank"]
    for op in ("mul", "add"):
        for kind in FIELD_KINDS:
            out[f"fields.{op}_count.{kind}"] = c[f"fields.{op}_count.{kind}"]
    out.update(
        {
            "flags.random_flag_s": s["flags.random_flag"],
            "flags.position_calls": c["flags.position"],
            "flags.position_s": s["flags.position"],
            "hn.scans": c["hn.scan"],
            "hn.subspaces_scanned": c["hn.subspaces_scanned"],
            "hn.scan_s": s["hn.scan"],
            "trace.spans": len(t.spans),
            "trace.op_self_s": sum(v for k, v in s.items() if k.startswith("op.")),
        }
    )
    return out
