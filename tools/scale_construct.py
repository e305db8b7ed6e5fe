"""Time construct, dump and verify at growing n; append a record to
BENCH_construct.json.

For each n in SIZES, on gen_random_tree(n, 0) and gen_path(n): RUNS runs
of as_tree + parse_edge_list on the tree's formatted edge list, of
construct_general, of document_from_certificate + dump_document, and of
json.loads + verify_document.  The host's speed drifts by minutes, so
each run is scaled as perfbench scales a timed window: a block of
perfbench/reference.py's kernel runs before and after it, and the run
counts raw * NOMINAL_MS / (mean of the two blocks' median kernel times).
Each phase records the median of its scaled runs (parse_s, construct_s,
dump_s, verify_s), the scaled runs (parse_runs_s, ...) and the raw ones
(parse_raw_runs_s, ...), so one slow run does not move a record and
records from different sessions compare.  Times keep 3 significant
digits; earlier records kept 4 decimals of a second (0.1 ms steps).
Records made before the scaling have no "nominal_ms" key and hold raw
times.  The scaling exponent of each
phase is fitted from the last two orders' medians,
log(t2 / t1) / log(n2 / n1).  The record also holds the git revision of the
checkout that was timed ("-dirty" when a tracked file other than
BENCH_construct.json differs from that commit; earlier records counted that
file too, so an `after` record timed just after a `before` one in the same
checkout read "-dirty"), the Python version, each tree's level count, the sha256 of its
sequence (json.dumps of the source list) and of its certificate as written
(the bytes dump_document returns), so two records show whether the
sequences and the certificates stayed byte-identical, and a trace or format
change stays distinguishable from a sequence change.  A layout change alone (such as the one-line dump) changes
every cert_sha256 and no sequence_sha256.  Each row also holds
cert_bytes_per_vertex, the length of that text over n to 2 decimals;
records made before it was added have none.

    python tools/scale_construct.py --label after
    python tools/scale_construct.py --src ../other-checkout/src --label before
    python tools/scale_construct.py --check
    python tools/scale_construct.py --pair ../parent/src src --rounds 5

--src picks the checkout whose treeburn is imported (default: this one's).
--check reruns the sizes up to CHECK_MAX_N, compares each tree's
sequence_sha256 and cert_sha256 with the last record, writes nothing, and
exits 1 on a mismatch.
--pair A B compares two src/ directories at PAIR_N without writing a
record.  Each round times A, B, B, A, each in a fresh subprocess that
measures both trees as a record row does (RUNS runs, raw median), and takes
B/A as (B + B) / (A + A) per tree and phase; the order cancels a host speed
that drifts linearly over the round, so the ratio needs no reference
kernel.  It prints each ratio's median and quartiles over the rounds.  Two
records made minutes apart cannot resolve a 20% change at PAIR_N, because
the host's speed for the large phases moves more than the kernel's.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from reference import NOMINAL_MS, Speedometer  # noqa: E402
SIZES = (1600, 6400, 25600, 102400)
CHECK_MAX_N = 6400
HASHES = ("sequence_sha256", "cert_sha256")
OUT = ROOT / "BENCH_construct.json"
PHASES = ("parse_s", "construct_s", "dump_s", "verify_s")
RUNS = 3
PAIR_N = 102400


def revision(src: Path) -> str:
    """The commit of src's checkout, "-dirty" when a tracked file other
    than BENCH_construct.json differs from it: a `before` record rewrites
    that file, so an `after` timed next in the same checkout stays clean."""
    def git(*args: str) -> str:
        out = subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True, check=True
        )
        return out.stdout.strip()

    try:
        changed = git(
            "status", "--porcelain", "--untracked-files=no",
            "--", ":(top)", f":(top,exclude){OUT.name}",
        )
        return git("describe", "--always", "--abbrev=7") + ("-dirty" if changed else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def timed(speed: Speedometer, fn, *args):
    """fn(*args), its raw seconds and its seconds at the reference speed."""
    gc.collect()
    before = speed.block()
    start = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - start
    gc.collect()
    return result, (raw, raw * Speedometer.factor(before, speed.block(raw)))


def measure(treeburn, certs, cli, tree) -> dict:
    speed = Speedometer()
    times = {phase: [] for phase in PHASES}
    edge_list = cli.format_edge_list(tree)
    for _ in range(RUNS):
        parsed, parse_s = timed(
            speed, lambda s: treeburn.as_tree(cli.parse_edge_list(s)), edge_list
        )
        assert parsed == tree
        cert, construct_s = timed(speed, treeburn.construct_general, tree)
        text, dump_s = timed(
            speed, lambda c: certs.dump_document(certs.document_from_certificate(c)), cert
        )
        summary, verify_s = timed(
            speed, lambda s: certs.verify_document(json.loads(s)), text
        )
        assert summary["ok"] and summary["length"] == len(cert.sequence)
        for phase, t in zip(PHASES, (parse_s, construct_s, dump_s, verify_s)):
            times[phase].append(t)
    levels = sum(row["step"] in ("smooth", "pendant", "exact") for row in cert.trace)
    row = {}
    for phase, runs in times.items():
        scaled = [t for _, t in runs]
        row[phase] = sig3(statistics.median(scaled))
        row[phase.replace("_s", "_runs_s")] = [sig3(t) for t in scaled]
        row[phase.replace("_s", "_raw_runs_s")] = [sig3(t) for t, _ in runs]
    return {
        **row,
        "levels": levels,
        "length": len(cert.sequence),
        "cert_bytes_per_vertex": round(len(text) / tree.n, 2),
        "sequence_sha256": hashlib.sha256(
            json.dumps(list(cert.sequence.sources)).encode()
        ).hexdigest(),
        "cert_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def sig3(seconds: float) -> float:
    """seconds to 3 significant digits."""
    return float(f"{seconds:.3g}")


def exponents(rows) -> dict:
    r1, r2 = rows[-2:]
    n1, n2 = r1["n"], r2["n"]
    return {
        phase: round(math.log(r2[phase] / r1[phase]) / math.log(n2 / n1), 3)
        for phase in PHASES
    }


def check(treeburn, certs, cli, trees) -> int:
    """Compare the hashes at sizes up to CHECK_MAX_N with the last record."""
    last = json.loads(OUT.read_text())[-1]
    failed = 0
    for kind, make in trees.items():
        for want in last["results"][kind]["runs"]:
            if want["n"] > CHECK_MAX_N:
                continue
            got = measure(treeburn, certs, cli, make(want["n"]))
            for key in HASHES:
                same = got[key] == want[key]
                failed |= not same
                print(kind, want["n"], key, "ok" if same else
                      f"MISMATCH: {got[key]} against {want[key]} "
                      f"({last['label']} {last['revision']})")
    return int(failed)


def sample(src: Path) -> dict:
    """Each tree's raw median seconds per phase at PAIR_N, timed in a fresh
    subprocess that imports treeburn from src."""
    out = subprocess.run(
        [sys.executable, __file__, "--src", str(src), "--sample"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def pair(a: Path, b: Path, rounds: int) -> int:
    """Print B/A per tree and phase at PAIR_N over ABBA rounds."""
    ratios: dict[str, dict[str, list[float]]] = {}
    for r in range(rounds):
        a1, b1, b2, a2 = map(sample, (a, b, b, a))
        for kind in a1:
            for phase in PHASES:
                b_s = b1[kind][phase] + b2[kind][phase]
                a_s = a1[kind][phase] + a2[kind][phase]
                ratios.setdefault(kind, {}).setdefault(phase, []).append(b_s / a_s)
        print(f"round {r + 1} of {rounds} done", file=sys.stderr, flush=True)
    print(f"B/A at n = {PAIR_N}, {rounds} ABBA rounds: median [quartiles]")
    print(f"A = {a}\nB = {b}")
    for kind, phases in ratios.items():
        for phase, values in phases.items():
            q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
            print(f"{kind:12} {phase:12} {q2:.3f} [{q1:.3f}, {q3:.3f}]")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--rounds", type=int, default=5, help="ABBA rounds of --pair")
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--label")
    group.add_argument("--check", action="store_true")
    group.add_argument("--pair", nargs=2, type=Path, metavar=("A", "B"))
    group.add_argument("--sample", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.pair:
        if args.rounds < 2:
            ap.error("--pair needs at least 2 rounds for quartiles")
        return pair(*(src.resolve() for src in args.pair), args.rounds)

    sys.path.insert(0, str(args.src.resolve()))
    import treeburn
    from treeburn import certs, cli

    trees = {"random-tree": lambda n: treeburn.gen_random_tree(n, 0),
             "path": treeburn.gen_path}
    if args.check:
        return check(treeburn, certs, cli, trees)
    if args.sample:
        rows = {kind: measure(treeburn, certs, cli, make(PAIR_N)) for kind, make in trees.items()}
        print(json.dumps({
            kind: {p: statistics.median(row[p.replace("_s", "_raw_runs_s")]) for p in PHASES}
            for kind, row in rows.items()
        }))
        return 0
    results = {}
    for kind, make in trees.items():
        rows = []
        for n in SIZES:
            row = {"n": n, **measure(treeburn, certs, cli, make(n))}
            print(kind, json.dumps(row), flush=True)
            rows.append(row)
        results[kind] = {"runs": rows, "exponent": exponents(rows)}

    record = {
        "label": args.label,
        "revision": revision(args.src),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nominal_ms": NOMINAL_MS,
        "results": results,
    }
    history = json.loads(OUT.read_text()) if OUT.exists() else []
    history.append(record)
    OUT.write_text(json.dumps(history, indent=2) + "\n")
    print(json.dumps({k: v["exponent"] for k, v in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
