"""Write ``data/expected.json``: recorded answers the workloads check against.

Run once, at the commit that introduced the benchmark, from the repository
root::

    python3 perfbench/record.py

The file then stays fixed: a later change that makes a check fail has
changed an answer (or the CLI's output bytes), and regenerating the file to
make the check pass would hide exactly that.

Contents:

* ``horn_classes``: class count and digest of ``horn_classes(r, n, s)``;
* ``lr``: pools of dominant trace-zero weight triples at r = 3, 4, 5 with
  ``lr_nonvanishing``;
* ``kirwan``: pools of rational points (integer weights over a common
  denominator) at r = 3, 4 with membership and the number of violated
  inequalities;
* ``cli`` and ``cli_files``: argv variants of every subcommand with exit
  code and stdout digest, plus the matrix files they read.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import workloads  # noqa: E402
from horncalc import horn, kirwan  # noqa: E402
from horncalc.subsets import Weight  # noqa: E402

CLASS_SHAPES = [(2, 5, 3), (1, 6, 5), (2, 4, 5), (2, 5, 4), (2, 7, 3), (3, 6, 3), (3, 5, 4), (2, 8, 3), (4, 6, 3), (2, 6, 4)]
LR_POOL = {3: 300, 4: 300, 5: 200}
KIRWAN_POOL = {3: 150, 4: 150}


def record_classes() -> dict:
    out = {}
    for shape in CLASS_SHAPES:
        classes = horn.horn_classes(*shape, horn.HornTable())
        out[",".join(map(str, shape))] = {"count": len(classes), "sha256": workloads.classes_digest(classes)}
    return out


def record_lr(table) -> dict:
    out = {}
    for r, size in LR_POOL.items():
        rnd = gen.stream("lr-pool", r)
        rows = []
        for _ in range(size):
            ws = gen.dominant_weights(rnd, r, -5, 5)
            rows.append([ws, int(kirwan.lr_nonvanishing([Weight(tuple(w)) for w in ws], table))])
        out[str(r)] = rows
    return out


def record_kirwan(table) -> dict:
    from fractions import Fraction

    out = {}
    for r, size in KIRWAN_POOL.items():
        rnd = gen.stream("kirwan-pool", r)
        rows = []
        for _ in range(size):
            den = rnd.randrange(2, 8)
            parts = gen.dominant_weights(rnd, r, -9, 9)
            ok, violated = kirwan.kirwan_check([[Fraction(x, den) for x in p] for p in parts], table)
            rows.append([den, parts, int(ok), len(violated)])
        out[str(r)] = rows
    return out


def cli_variants() -> tuple[list, dict]:
    rnd = gen.stream("cli-pool")
    variants, files = [], {}

    def add(sub, *argv):
        variants.append({"sub": sub, "argv": [str(a) for a in argv]})

    for r, n, fmt in [(1, 4, "json"), (2, 4, "csv"), (2, 5, "text"), (1, 5, "tex"), (2, 5, "json"), (1, 3, "csv")]:
        add("horn_enumerate", "horn", "enumerate", "--r", r, "--n", n, "--format", fmt)
    for i in range(6):
        add("horn_check", "horn", "check", "--n", 6, "--tuple", json.dumps(gen.random_parts(rnd, 3, 6, i % 2)))
    for d, r in [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]:
        add("horn0", "horn0", "--d", d, "--r", r)
    for i in range(6):
        tup = json.dumps(gen.random_parts(rnd, 3, 6, 0))
        add("intersect_certify", "intersect", "certify", "--n", 6, "--tuple", tup, "--seed", i,
            "--field", "rational" if i % 2 else "prime")
    for r in (2, 3, 4):
        for fmt in ("json", "text"):
            add("kirwan_ineqs", "kirwan", "ineqs", "--r", r, "--format", fmt)
    for i in range(6):
        den = rnd.randrange(2, 6)
        xi = [[f"{x}/{den}" for x in part] for part in gen.dominant_weights(rnd, 2 + i % 2, -4, 4)]
        add("kirwan_check", "kirwan", "check", "--xi", json.dumps(xi))
    for i in range(6):
        add("lr_nonzero", "lr", "nonzero", "--lambda", json.dumps(gen.dominant_weights(rnd, 2 + i % 2, -4, 4)))
    for i in range(6):
        n, d = 3 + i % 2, 1 + i % 2
        # L U with unit and nonzero pivots is invertible over Q
        basis = gen.unitriangular_product(rnd, n, 5)
        files[f"flag{i}.json"] = {"field": "rational", "entries": gen.unitriangular_product(rnd, n, 5)}
        files[f"sub{i}.json"] = {"field": "rational", "entries": [row[:d] for row in basis]}
        add("pos_compute", "pos", "compute", "--flag", f"flag{i}.json", "--subspace", f"sub{i}.json")
    for i in range(6):
        n = 5 + i % 2
        subset = json.dumps(sorted(rnd.sample(range(1, n + 1), 2)))
        extra = ["--field", "prime"] if i % 3 == 2 else []
        add("cell_sample", "cell", "sample", "--n", n, "--subset", subset, "--seed", i, *extra)
    for i, (r, q) in enumerate([(2, 2), (3, 2), (2, 3), (3, 3), (2, 2), (3, 2)]):
        add("hn_search", "hn", "search", "--r", r, "--q", q, "--seed", i)
    for i in range(6):
        n = 3 + i % 2
        add("delta_eval", "delta", "eval", "--n", n, "--tuple", json.dumps(gen.random_parts(rnd, 2 if n == 4 else 1, n, 0)),
            "--seed", i)
    for i in range(6):
        r = 4 + i % 2
        j = json.dumps(sorted(rnd.sample(range(1, r + 1), 2)))
        add("variational_demo", "variational", "demo", "--r", r, "--j", j, "--trials", 10, "--seed", i)
    for fmt in ("json", "text", "tex"):
        add("tables_appendix_a", "tables", "appendix-a", "--format", fmt)
    for fmt in ("json", "text"):
        add("tables_appendix_b", "tables", "appendix-b", "--format", fmt)
    add("fixtures_two_point", "fixtures", "two-point")
    return variants, files


def record_cli() -> tuple[list, dict]:
    variants, files = cli_variants()
    work = os.path.join(workloads.OUT, "record-work")
    os.makedirs(work, exist_ok=True)
    for fname, obj in files.items():
        with open(os.path.join(work, fname), "w") as fh:
            json.dump(obj, fh)
    for entry in variants:
        rc, out = workloads.run_child([sys.executable, "-m", "horncalc.cli", *entry["argv"]], cwd=work)
        if rc not in (0, 1):
            raise SystemExit(f"{entry['argv']} exited {rc}")
        entry.update({"exit": rc, "sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)})
    return variants, files


def main() -> None:
    table = horn.HornTable()
    variants, files = record_cli()
    data = {
        "horn_classes": record_classes(),
        "lr": record_lr(table),
        "kirwan": record_kirwan(table),
        "cli": variants,
        "cli_files": files,
    }
    os.makedirs(os.path.dirname(workloads.EXPECTED), exist_ok=True)
    with open(workloads.EXPECTED, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {workloads.EXPECTED}: {len(variants)} CLI variants")


if __name__ == "__main__":
    main()
