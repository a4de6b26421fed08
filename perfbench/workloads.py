"""The four benchmark workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns.  One cycle is a fixed list of operation kinds
in a seeded order; each kind walks through its own seeded inputs.  Keeping
the mix of kinds (and, where the cost depends on it, the share of members
and non-members) fixed per cycle is what keeps throughput and latency
comparable across seeds.  Runs end on a cycle boundary.

* ``horn-build``: the write path of the Horn recursion.  Builds class tables
  and cold ``horn_member`` answers from an empty ``HornTable``; ``horn`` and
  ``subsets`` do all the work, ``tangent``/``matrices``/``fields`` none.
* ``query-warm``: the read path.  LR nonvanishing, Kirwan checks on rational
  points and ``horn_member`` against a table warmed during set-up; ``horn``
  levels are never rebuilt and no tangent-map algebra runs.
* ``geometry``: the tangent route.  ``certify_intersecting`` over GF(2^31-1)
  and over Q, and exhaustive Harder-Narasimhan scans over GF(2)/GF(3); no
  ``horn`` or ``kirwan`` code runs.
* ``cli``: sequential ``python -m horncalc.cli`` processes covering every
  subcommand, so interpreter start, imports, argument parsing and a cold
  per-process ``HornTable`` are paid as a user pays them.

Answers are checked after the timed loop: against recorded answers from
``data/expected.json``, the r = 2 closed form, Appendix A, and the other
exact route (``horn_member`` against ``certify_intersecting``, escalating
once to 10 samples as the acceptance suite does).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from statistics import median

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "data", "expected.json")

from horncalc import horn, hn, kirwan, tables, tangent  # noqa: E402
from horncalc.fields import DEFAULT_PRIME, QQ, PrimeField  # noqa: E402
from horncalc.flags import Flag  # noqa: E402
from horncalc.matrices import Mat  # noqa: E402
from horncalc.subsets import PositionTuple, Weight  # noqa: E402

GFP = PrimeField(DEFAULT_PRIME)
S = 3  # every workload asks three-flag questions


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def classes_digest(classes) -> str:
    rows = [[[list(p.elements) for p in tup.parts], e] for tup, e in classes]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, cwd=None) -> tuple[int, bytes]:
    proc = subprocess.run(args, cwd=cwd, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.returncode, proc.stdout


_IMPORT_PROBE = """
import sys, time
t = time.perf_counter()
import horncalc
took = time.perf_counter() - t
sys.path.insert(0, sys.argv[1])
import statistics, speed
costs = []
for _ in range(3):
    t = time.perf_counter()
    speed.kernel()
    costs.append(time.perf_counter() - t)
print(took, took * speed.REFERENCE_KERNEL_S / statistics.median(costs))
"""


def import_seconds() -> tuple[float, float]:
    """``import horncalc`` in a fresh interpreter: (reference-speed s, raw s).

    The child scales its own time by kernel samples taken right after the
    import, on whichever core it ran.
    """
    rc, out = run_child([sys.executable, "-c", _IMPORT_PROBE, HERE])
    if rc != 0:
        raise RuntimeError("import horncalc failed in a child interpreter")
    raw, scaled = map(float, out.split())
    return scaled, raw


class Op:
    """One operation kind: ``fn(input, call_number)`` over cycled inputs,
    and ``check(input, call_number, answer)``."""

    def __init__(self, kind, inputs, fn, check):
        if not inputs:
            raise ValueError(f"operation {kind} has no inputs")
        self.kind, self.inputs, self.fn, self.check = kind, inputs, fn, check
        self.calls = 0


def _seeded_cycle(seed, name, mix) -> list:
    """Each (op, count) entry repeated count times, in a seeded order."""
    cycle = [op for op, count in mix for _ in range(count)]
    gen.stream(name, seed, "order").shuffle(cycle)
    return cycle


def _quota_pick(candidates, verdict_of, members: int, non_members: int):
    """First candidates that fill the member / non-member quotas."""
    picked = []
    need = {True: members, False: non_members}
    for cand in candidates:
        v = verdict_of(cand)
        if need[v] > 0:
            need[v] -= 1
            picked.append((cand, v))
        if not any(need.values()):
            return picked
    raise RuntimeError(f"seeded candidates did not fill the quotas {need}")


def tail(latencies) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    lat = sorted(latencies)
    n = len(lat)
    i = n - 11 if n > 10 else n - 1
    return lat[i], 100.0 * (i + 1) / n, n


def _per_s(records, prefix) -> float:
    lat = [r.seconds for r in records if r.op.kind.startswith(prefix)]
    return len(lat) / sum(lat) if lat else 0.0


def _median_cycle_sum(records, prefixes) -> float:
    per_cycle: dict = {}
    for rec in records:
        if rec.op.kind.startswith(prefixes):
            per_cycle[rec.cycle] = per_cycle.get(rec.cycle, 0.0) + rec.seconds
    return median(per_cycle.values()) if per_cycle else 0.0


class Workload:
    name = ""
    in_process = True
    trace_cycles = 1

    def __init__(self, seed: int, smoke: bool):
        self.seed, self.smoke = seed, smoke
        self.expected = load_expected()

    def generate(self):
        """Seeded inputs, made in plain Python (timed as part of set-up)."""

    def warm(self):
        """Work the program does before its first timed answer (set-up)."""

    def prepare(self):
        """Expected answers from the other route or the recorded data."""

    def cycle(self) -> list:
        raise NotImplementedError

    def details(self, records) -> dict:
        return {}

    def cli_layers(self, records, probe) -> dict:
        return {}

    def _rng(self, *key) -> random.Random:
        return gen.stream(self.name, self.seed, *key)

    def _certified(self, tup) -> bool:
        """Tangent-route verdict used to pick inputs; "intersecting" is exact."""
        return tangent.certify_intersecting(tup, GFP, 3, _certify_stream(self.seed, "pick", tup.sort_key())).intersecting


def _certify_stream(seed, kind, k):
    return gen.stream("certify", seed, kind, k)


class HornBuild(Workload):
    name = "horn-build"
    trace_cycles = 1

    def generate(self):
        # Operations stay below a few hundred milliseconds, so that the
        # speed samples around each one describe it (see speed.py).  By cost
        # the cycle is three cheap builds, a middle cluster of seven
        # (five cold r = 5 answers, (2,5,4) and (2,7,3)) that holds the
        # median, and (2,6,4) twice on top, which holds the tail.
        if self.smoke:
            self.shapes, self.cold_mix = [(2, 5, 3)], [(4, 1)]
        else:
            self.shapes = [(1, 6, 5), (2, 4, 5), (2, 5, 4), (2, 7, 3), (3, 6, 3), (3, 5, 4), (2, 8, 3), (4, 6, 3)]
            self.shapes += [(2, 6, 4)] * 2
            self.cold_mix = [(5, 5)]
        rnd = self._rng("tuples")
        self.candidates = {
            r: [PositionTuple.from_lists(2 * r, gen.random_parts(rnd, r, 2 * r, 0)) for _ in range(40)]
            for r, _ in self.cold_mix
        }

    def prepare(self):
        # Members only: their cold answer builds every level below r, so the
        # cost does not depend on where a violation happens to be found.
        # "intersecting_certified" is exact, so each pick is a true member.
        self.members = {}
        for r, _ in self.cold_mix:
            picks = _quota_pick(
                self.candidates[r],
                self._certified,
                1 if self.smoke else 10,
                0,
            )
            self.members[r] = [t for t, _ in picks]

    def cycle(self):
        recorded = self.expected["horn_classes"]

        def build_classes(shape, _k):
            return horn.horn_classes(*shape, horn.HornTable())

        def check_classes(shape, _k, classes):
            want = recorded[",".join(map(str, shape))]
            return len(classes) == want["count"] and classes_digest(classes) == want["sha256"]

        def appendix_a(_x, _k):
            table = horn.HornTable()
            return [horn.horn_classes(d, r, 3, table) for d, r in tables.APPENDIX_A_KEYS]

        def check_appendix(_x, _k, computed):
            return computed == [
                [(t.canonical(), e) for t, e in tables.appendix_a_tuple(d, r)] for d, r in tables.APPENDIX_A_KEYS
            ]

        def cold_member(tup, _k):
            return horn.horn_member(tup, horn.HornTable())

        def check_member(_tup, _k, verdict):
            return verdict.member and verdict.violation is None and verdict.edim == 0

        # The classes op appears once per shape in a cycle, so every cycle
        # builds each shape exactly once.
        mix = [
            (Op("appendix_a", [None], appendix_a, check_appendix), 1),
            (Op("classes", self.shapes, build_classes, check_classes), len(self.shapes)),
        ]
        for r, count in self.cold_mix:
            mix.append((Op(f"member_cold_r{r}", self.members[r], cold_member, check_member), count))
        return _seeded_cycle(self.seed, self.name, mix)

    def details(self, records):
        return {
            "horn_build_s": (_median_cycle_sum(records, ("classes", "appendix_a")), "s"),
            "horn_member_cold_s": (_median_cycle_sum(records, "member_cold"), "s"),
        }


class QueryWarm(Workload):
    name = "query-warm"
    trace_cycles = 20

    def generate(self):
        if self.smoke:
            self.lr_mix, self.kw_mix, self.member_mix = [(2, 1), (3, 1)], [(3, 1)], [(3, 1), (4, 1)]
        else:
            # r = 3 queries are the most frequent kind, so the median
            # latency falls inside one cluster rather than between two.
            self.lr_mix = [(2, 6), (3, 8), (4, 2), (5, 1)]
            self.kw_mix = [(3, 1), (4, 1)]
            self.member_mix = [(3, 2), (4, 2), (5, 1), (6, 1)]
        self.top_rank = max(r for r, _ in self.lr_mix + self.kw_mix + self.member_mix)
        rnd = self._rng("inputs")
        lr_pool, kw_pool = self.expected["lr"], self.expected["kirwan"]
        self.lr_inputs = {}
        for r, _ in self.lr_mix:
            if r == 2:
                ws = [gen.dominant_weights(rnd, 2, -6, 6) for _ in range(64)]
                self.lr_inputs[r] = [([Weight(tuple(w)) for w in ws_], gen.triangle_criterion(ws_)) for ws_ in ws]
            else:
                pool = lr_pool[str(r)]
                picks = [pool[rnd.randrange(len(pool))] for _ in range(64)]
                self.lr_inputs[r] = [([Weight(tuple(w)) for w in ws], bool(ans)) for ws, ans in picks]
        self.kw_inputs = {}
        for r, _ in self.kw_mix:
            pool = kw_pool[str(r)]
            picks = [pool[rnd.randrange(len(pool))] for _ in range(32)]
            self.kw_inputs[r] = [
                ([[Fraction(x, den) for x in part] for part in parts], (bool(member), nviol))
                for den, parts, member, nviol in picks
            ]
        self.member_candidates = {
            r: [PositionTuple.from_lists(2 * r, gen.random_parts(rnd, r, 2 * r, 0)) for _ in range(60)]
            for r, _ in self.member_mix
        }

    def warm(self):
        self.table = horn.HornTable()
        for r in range(2, self.top_rank + 1):
            for d in range(1, r):
                self.table.zero_slice(d, r, S)

    def prepare(self):
        # The tangent route decides membership; ten members and six
        # non-members per rank keep the early-exit share fixed.
        members, non = (1, 1) if self.smoke else (10, 6)
        self.member_inputs = {}
        for r, _ in self.member_mix:
            self.member_inputs[r] = _quota_pick(
                self.member_candidates[r],
                self._certified,
                members,
                non,
            )
        self._escalated = {}

    def _check_member(self, tup, expected, verdict):
        if verdict.member == expected:
            return True
        key = tup.sort_key()
        if key not in self._escalated:
            self._escalated[key] = tangent.certify_intersecting(
                tup, GFP, 10, _certify_stream(self.seed, "escalate", key)
            ).intersecting
        return verdict.member == self._escalated[key]

    def cycle(self):
        table = self.table
        mix = []
        for r, count in self.lr_mix:
            inputs = self.lr_inputs[r]
            op = Op(
                f"lr_r{r}",
                inputs,
                lambda x, _k: kirwan.lr_nonvanishing(x[0], table),
                lambda x, _k, ans: ans == x[1],
            )
            mix.append((op, count))
        for r, count in self.kw_mix:
            inputs = self.kw_inputs[r]
            op = Op(
                f"kirwan_r{r}",
                inputs,
                lambda x, _k: kirwan.kirwan_check(x[0], table),
                lambda x, _k, ans: (ans[0], len(ans[1])) == x[1],
            )
            mix.append((op, count))
        for r, count in self.member_mix:
            inputs = self.member_inputs[r]
            op = Op(
                f"member_r{r}",
                inputs,
                lambda x, _k: horn.horn_member(x[0], table),
                lambda x, _k, v: self._check_member(x[0], x[1], v),
            )
            mix.append((op, count))
        return _seeded_cycle(self.seed, self.name, mix)

    def details(self, records):
        return {
            "lr_queries_per_s": (_per_s(records, "lr_"), "1/s"),
            "member_queries_per_s": (_per_s(records, "member_"), "1/s"),
            "kirwan_checks_per_s": (_per_s(records, "kirwan_"), "1/s"),
        }


def _flag_from_json(field, obj) -> Flag:
    return Flag(field, Mat(field, [[field.parse(x) for x in row] for row in obj["entries"]]))


class Geometry(Workload):
    name = "geometry"
    trace_cycles = 4

    def generate(self):
        # (field tag, rank, ops per cycle, members, non-members); ranks at or
        # above witness_rank are too large for the Horn oracle, so they use
        # certified-intersecting inputs whose witnesses are re-checked.
        if self.smoke:
            self.certify_mix = [("gfp", 3, 1, 1, 1), ("gfp", 4, 1, 1, 0), ("qq", 3, 1, 1, 1)]
            self.hn_mix = [(2, 2)]
            self.witness_rank = 4
        else:
            # Most operations are r = 4 certifications, which puts the
            # median latency inside their cluster rather than between two.
            self.certify_mix = [
                ("gfp", 4, 20, 17, 3),
                ("gfp", 6, 2, 8, 4),
                ("gfp", 8, 1, 6, 0),
                ("qq", 3, 2, 8, 4),
                ("qq", 4, 1, 4, 2),
            ]
            self.hn_mix = [(3, 3), (4, 2), (4, 3)]
            self.witness_rank = 8
        rnd = self._rng("inputs")
        self.candidates = {
            (tag, r): [PositionTuple.from_lists(2 * r, gen.random_parts(rnd, r, 2 * r, 0)) for _ in range(60)]
            for tag, r, *_ in self.certify_mix
        }
        self.hn_inputs = {}
        for r, q in self.hn_mix:
            field = PrimeField(q)
            self.hn_inputs[(r, q)] = [
                (
                    [Flag(field, Mat(field, gen.unitriangular_product(rnd, r, q))) for _ in range(S)],
                    [Weight(tuple(sorted(rnd.randrange(-4, 5) for _ in range(r)))) for _ in range(S)],
                )
                for _ in range(8)
            ]

    def prepare(self):
        oracle = horn.HornTable()
        self.certify_inputs = {}
        for tag, r, _count, members, non in self.certify_mix:
            field = GFP if tag == "gfp" else QQ
            if r >= self.witness_rank:
                verdict_of = self._certified
            else:
                verdict_of = lambda t: horn.horn_member(t, oracle).member  # noqa: E731
            picks = _quota_pick(self.candidates[(tag, r)], verdict_of, members, non)
            self.certify_inputs[(tag, r)] = [(t, field, member) for t, member in picks]

    def _check_certify(self, kind, x, k, verdict, witness_check):
        tup, field, expected = x
        if verdict.edim != 0:
            return False
        if verdict.intersecting != expected:
            verdict = tangent.certify_intersecting(tup, field, 10, gen.stream("escalate", self.seed, kind, k))
            if verdict.intersecting != expected:
                return False
        if witness_check:
            fs = [_flag_from_json(field, f) for f in verdict.witness["source_flags"]]
            gs = [_flag_from_json(field, g) for g in verdict.witness["target_flags"]]
            return tangent.h_intersection_dim(tup, fs, gs) == tup.edim()
        return True

    def cycle(self):
        seed = self.seed
        mix = []
        for tag, r, count, _m, _n in self.certify_mix:
            kind = f"certify_{tag}_r{r}"
            inputs = self.certify_inputs[(tag, r)]
            witness = r >= self.witness_rank

            def certify(x, k, kind=kind):
                return tangent.certify_intersecting(x[0], x[1], 3, _certify_stream(seed, kind, k))

            def check(x, k, verdict, kind=kind, witness=witness):
                return self._check_certify(kind, x, k, verdict, witness)

            mix.append((Op(kind, inputs, certify, check), count))
        for r, q in self.hn_mix:
            total = gen.nonzero_subspaces(r, q)
            op = Op(
                f"hn_r{r}_q{q}",
                self.hn_inputs[(r, q)],
                lambda x, _k: hn.hn_minimizer_exhaustive(x[0], x[1]),
                lambda _x, _k, res, total=total: res.multiplicity == 1 and res.scanned == total,
            )
            mix.append((op, 1))
        return _seeded_cycle(self.seed, self.name, mix)

    def details(self, records):
        return {
            "certify_gfp_per_s": (_per_s(records, "certify_gfp"), "1/s"),
            "certify_qq_per_s": (_per_s(records, "certify_qq"), "1/s"),
            "hn_scans_per_s": (_per_s(records, "hn_"), "1/s"),
        }


CLI_SUBCOMMANDS = (
    "horn_enumerate",
    "horn_check",
    "horn0",
    "intersect_certify",
    "kirwan_ineqs",
    "kirwan_check",
    "lr_nonzero",
    "pos_compute",
    "cell_sample",
    "hn_search",
    "delta_eval",
    "variational_demo",
    "tables_appendix_a",
    "tables_appendix_b",
    "fixtures_two_point",
)
SMOKE_CLI_SUBCOMMANDS = ("horn0", "horn_check", "kirwan_check", "lr_nonzero")


class Cli(Workload):
    name = "cli"
    in_process = False
    trace_cycles = 1

    def generate(self):
        self.work = os.path.join(OUT, "cli-work")
        os.makedirs(self.work, exist_ok=True)
        for fname, obj in self.expected["cli_files"].items():
            with open(os.path.join(self.work, fname), "w") as fh:
                json.dump(obj, fh)
        pool = self.expected["cli"]
        rnd = self._rng("argv")
        subs = SMOKE_CLI_SUBCOMMANDS if self.smoke else CLI_SUBCOMMANDS
        self.inputs = {}
        for sub in subs:
            entries = [e for e in pool if e["sub"] == sub]
            self.inputs[sub] = [entries[rnd.randrange(len(entries))] for _ in range(8)]

    def invoke(self, entry, _k=None):
        rc, out = run_child([sys.executable, "-m", "horncalc.cli", *entry["argv"]], cwd=self.work)
        return rc, hashlib.sha256(out).hexdigest()

    def warm(self):
        # One process start pages in the interpreter and the package.
        self.invoke(self.inputs[SMOKE_CLI_SUBCOMMANDS[0]][0])

    def cycle(self):
        mix = []
        for sub, inputs in self.inputs.items():
            op = Op(sub, inputs, self.invoke, lambda entry, _k, ans: ans == (entry["exit"], entry["sha256"]))
            mix.append((op, 1))
        return _seeded_cycle(self.seed, self.name, mix)

    def details(self, records):
        value, _pct, _n = tail(records.seconds)
        return {
            "cli_latency_p50_ms": (1000 * median(records.seconds), "ms"),
            "cli_latency_tail_ms": (1000 * value, "ms"),
        }

    def cli_layers(self, records, probe):
        """Command time per subcommand, in process and untraced."""
        from horncalc import cli

        times: dict = {sub: [] for sub in CLI_SUBCOMMANDS}
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            for rec in records:
                entry = rec.op.inputs[rec.idx]
                with contextlib.redirect_stdout(io.StringIO()):
                    _, seconds, _ = probe.timed(cli.main, entry["argv"])
                times[entry["sub"]].append(seconds)
        finally:
            os.chdir(cwd)
        return {f"cli.command_ms.{sub}": 1000 * median(v) if v else 0.0 for sub, v in times.items()}


WORKLOADS = {w.name: w for w in (HornBuild, QueryWarm, Geometry, Cli)}


def interpreter_layers(probe, reps: int) -> dict:
    """Interpreter start and ``import horncalc.cli`` in fresh processes."""
    start = median(probe.timed(run_child, [sys.executable, "-c", "pass"])[1] for _ in range(reps))
    full = median(probe.timed(run_child, [sys.executable, "-c", "import horncalc.cli"])[1] for _ in range(reps))
    return {"cli.interpreter_start_ms": 1000 * start, "cli.import_ms": 1000 * (full - start)}
