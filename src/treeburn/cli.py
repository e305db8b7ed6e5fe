"""Command-line front end.

Exit codes: 0 success, 1 contract violation (failed verification, violated
bench invariant), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .bounds import bound_table
from .certs import (
    VerificationFailure,
    document_from_certificate,
    dump_document,
    verify_document,
)
from .construct import construct_general
from .engine import simulate
from .errors import TooLarge
from .exact import burning_number
from .graphs import (
    Graph,
    _tree,
    as_tree,
    build_graph,
    gen_cycle,
    gen_double_star,
    gen_full_binary,
    gen_path,
    gen_random_no_deg2,
    gen_random_tree,
)
from .rng import derive_seed

DEFAULT_EXACT_CAP = 30


class ParseError(Exception):
    pass


# The layout format_edge_list writes: no comment, blank line, tab, CR or
# sign, one space per edge line, a newline after every line.
_PLAIN_LAYOUT = re.compile(r"[0-9]+\n(?:[0-9]+ [0-9]+\n)*")


def _read_lines(text: str, name: str) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count and the edges, line by line; words a layout error."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise ParseError(f"{name}:{lineno}: expected vertex count, got {raw!r}")
            try:
                n = int(fields[0])
            except ValueError:
                raise ParseError(f"{name}:{lineno}: vertex count is not an integer")
            continue
        if len(fields) != 2:
            raise ParseError(f"{name}:{lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"{name}:{lineno}: edge endpoints are not integers")
        edges.append((u, v))
    if n is None:
        raise ParseError(f"{name}: empty edge-list file")
    return n, edges


def parse_edge_list(text: str, name: str = "<input>") -> Graph:
    """Edge-list format: first data line is n, then one 'u v' line per edge.

    Lines starting with '#' and blank lines are ignored.  Text in the plain
    layout format_edge_list writes is tokenized by one json.loads; any
    other text, or one json rejects (leading zeros, an integer past int's
    digit limit), is read line by line, which words every layout error.
    n - 1 edges come back as the Tree graphs._tree makes when
    graphs._tree_lists, the check verify_document also runs, proves them a
    tree; any other edge list goes to build_graph, which returns a bare
    Graph or raises."""
    numbers = None
    if _PLAIN_LAYOUT.fullmatch(text):
        try:
            numbers = json.loads("[" + text[:-1].replace(" ", ",").replace("\n", ",") + "]")
        except ValueError:
            pass
    if numbers is None:
        n, edges = _read_lines(text, name)
        count = len(edges)
    else:
        tokens = iter(numbers)
        n, count = next(tokens), len(numbers) // 2
        edges = zip(tokens, tokens)  # pairs on demand: a tree needs no edge list
    # Checked before anything is allocated in proportion to n.  A connected
    # graph has at least n - 1 edges.
    if n < 0:
        raise ParseError(f"{name}: vertex count {n} is negative")
    if n > count + 1:
        raise ParseError(f"{name}: {count} edges cannot connect {n} vertices")
    if count == n - 1 and (tree := _tree(n, edges)) is not None:
        return tree
    if numbers is not None:  # _tree may have read some of the pairs
        edges = list(zip(numbers[1::2], numbers[2::2]))
    try:
        return build_graph(n, edges)
    except ValueError as exc:
        raise ParseError(f"{name}: {exc}")


def format_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def _load_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}")
    return parse_edge_list(text, name=path)


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(str(exc))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

# kind -> (parameter count, generator taking the parameters and the seed)
GENERATORS = {
    "path": (1, lambda n, seed: gen_path(n)),
    "cycle": (1, lambda n, seed: gen_cycle(n)),
    "full-binary": (1, lambda height, seed: gen_full_binary(height)),
    "double-star": (2, lambda s, t, seed: gen_double_star(s, t)),
    "random-tree": (1, gen_random_tree),
    "random-no-deg2": (1, gen_random_no_deg2),
}


def cmd_gen(args) -> int:
    count, generate = GENERATORS[args.kind]
    if len(args.params) != count:
        raise ParseError(f"kind {args.kind!r} takes {count} parameter(s)")
    try:
        g = generate(*map(int, args.params), args.seed)
    except ValueError as exc:
        raise ParseError(str(exc))
    _emit(format_edge_list(g), args.out)
    return 0


def _labeling_text(labeling) -> str:
    lines = [f"total_rounds {labeling.total_rounds}"]
    lines += [f"{v} {r}" for v, r in enumerate(labeling.labels)]
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    g = _load_graph(args.tree)
    rounds = []
    for tok in args.sources:
        if tok == "_":
            rounds.append(None)
        else:
            try:
                rounds.append(int(tok))
            except ValueError:
                raise ParseError(f"source token {tok!r} is not an integer or '_'")
    try:
        labeling = simulate(g, rounds)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        out = {
            "total_rounds": labeling.total_rounds,
            "labels": {str(v): r for v, r in enumerate(labeling.labels)},
        }
        _emit(json.dumps(out, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(_labeling_text(labeling), args.out)
    return 0


def cmd_exact(args) -> int:
    g = _load_graph(args.graph)
    if g.n > args.cap:
        raise ParseError(f"graph order {g.n} exceeds cap {args.cap} (raise with --cap)")
    try:
        res = burning_number(g)
    except TooLarge:
        raise  # over the search budget: a usage error, exit 2 from main
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        out = {
            "burning_number": res.burning_number,
            "witness": list(res.witness.sources),
            "nodes_explored": res.nodes_explored,
        }
        _emit(json.dumps(out, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(
            f"burning_number {res.burning_number}\n"
            f"witness {' '.join(map(str, res.witness.sources))}\n"
            f"nodes_explored {res.nodes_explored}\n",
            args.out,
        )
    return 0


def cmd_construct(args) -> int:
    g = _load_graph(args.tree)
    try:
        tree = as_tree(g)
    except ValueError as exc:
        raise ParseError(f"{args.tree}: {exc}")
    cert = construct_general(tree)
    _emit(dump_document(document_from_certificate(cert, seed=args.seed)), args.cert)
    print(
        f"n {cert.n}  n2 {cert.n2}  m {cert.m}  target {cert.target}  "
        f"length {len(cert.sequence)}  -> {args.cert}"
    )
    return 0


def cmd_bounds(args) -> int:
    try:
        d = bound_table(args.n, args.n2).as_dict()
    except ValueError as exc:
        raise ParseError(str(exc))
    if args.format == "json":
        _emit(json.dumps(d, indent=2, sort_keys=True) + "\n", args.out)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(d))
        writer.writeheader()
        writer.writerow(d)
        _emit(buf.getvalue(), args.out)
    else:
        width = max(len(k) for k in d)
        _emit("".join(f"{k:<{width}}  {v}\n" for k, v in d.items()), args.out)
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.cert, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(str(exc))
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, non-UTF-8 bytes and integer
        # literals past Python's digit limit
        raise ParseError(f"{args.cert}: {exc}")
    try:
        summary = verify_document(doc)
    except VerificationFailure as exc:
        out = {"ok": False, "reason": exc.reason}
        _emit(json.dumps(out, sort_keys=True) + "\n", args.out)
        return 1
    _emit(json.dumps(summary, sort_keys=True) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# Benchmark runner
# ---------------------------------------------------------------------------

BENCH_KINDS = ("random-tree", "random-no-deg2", "path")

BENCH_COLUMNS = [
    "instance",
    "kind",
    "n",
    "n2",
    "seed",
    "exact",
    "constructed",
    "conjecture",
    "refined",
    "murakami",
    "bessy",
    "land_lu",
    "bastide_floor",
    "bonato_2016",
    "m",
    "conjecture_guaranteed",
    "us_gen",
    "us_exact",
    "us_construct",
]


def parse_corpus_spec(spec: str) -> tuple[str, int, int, int]:
    """One clause: kind:count:nmin..nmax (or kind:count:n)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParseError(f"corpus clause {spec!r} is not kind:count:range")
    kind, count_s, range_s = parts
    if kind not in BENCH_KINDS:
        raise ParseError(f"bench kind must be one of {', '.join(BENCH_KINDS)}")
    try:
        count = int(count_s)
        if ".." in range_s:
            lo_s, hi_s = range_s.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(range_s)
    except ValueError:
        raise ParseError(f"corpus clause {spec!r} has non-integer fields")
    if count < 1 or lo < 1 or hi < lo:
        raise ParseError(f"corpus clause {spec!r} has an empty range")
    return kind, count, lo, hi


def _bench_instance(task: tuple[str, str, int, int, int]) -> dict:
    instance, kind, n, seed, cap = task
    t0 = time.perf_counter()
    tree = GENERATORS[kind][1](n, seed)
    us_gen = int((time.perf_counter() - t0) * 1e6)

    exact_val = ""
    us_exact = ""
    if tree.n <= cap:
        t0 = time.perf_counter()
        exact_val = burning_number(tree).burning_number
        us_exact = int((time.perf_counter() - t0) * 1e6)

    t0 = time.perf_counter()
    cert = construct_general(tree)
    us_construct = int((time.perf_counter() - t0) * 1e6)

    return dict(
        bound_table(cert.n, cert.n2).as_dict(),
        instance=instance,
        kind=kind,
        seed=seed,
        exact=exact_val,
        constructed=len(cert.sequence),
        us_gen=us_gen,
        us_exact=us_exact,
        us_construct=us_construct,
    )


def cmd_bench(args) -> int:
    if args.jobs < 1:
        raise ParseError(f"--jobs must be at least 1, got {args.jobs}")
    tasks = []
    ordinal = 0
    for spec in args.spec:
        kind, count, lo, hi = parse_corpus_spec(spec)
        for i in range(count):
            n = lo + (i % (hi - lo + 1))
            instance = f"{kind}-{ordinal:05d}-n{n}"
            tasks.append((instance, kind, n, derive_seed(args.seed, ordinal), args.cap))
            ordinal += 1

    # The pool starts every worker up front, so never more than can run.
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_instance, tasks))
    else:
        rows = [_bench_instance(t) for t in tasks]
    rows.sort(key=lambda r: r["instance"])

    violations = []
    for row in rows:
        if row["constructed"] > row["refined"]:
            violations.append(f"{row['instance']}: constructed > refined bound")
        if row["exact"] != "" and row["exact"] > row["constructed"]:
            violations.append(f"{row['instance']}: exact > constructed")

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _emit(buf.getvalue(), args.out)
    if violations:
        for v in violations:
            print(f"contract violation: {v}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeburn",
        description="Graph burning: simulation, exact solving, bounds, certificates.",
    )
    parser.add_argument("--version", action="version", version=f"treeburn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated graph as an edge list")
    p.add_argument("kind", choices=list(GENERATORS))
    p.add_argument("params", nargs="+", help="size parameters for the kind")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("simulate", help="burn a graph with the given per-round sources")
    p.add_argument("tree", help="edge-list file")
    p.add_argument("sources", nargs="+", help="vertex id per round, '_' for an empty round")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exact", help="exact burning number of a small graph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--cap", type=int, default=DEFAULT_EXACT_CAP)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("construct", help="construct a bounded burning sequence certificate")
    p.add_argument("tree", help="edge-list file (must be a tree)")
    p.add_argument("--cert", required=True, help="certificate JSON output path")
    p.add_argument("--seed", type=int, default=None, help="recorded in the certificate")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("bounds", help="closed-form bound table for (n, n2)")
    p.add_argument("n", type=int)
    p.add_argument("n2", type=int)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="re-derive every claim of a certificate from its tree and sequence")
    p.add_argument("cert", help="certificate JSON file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run a seeded corpus and write a CSV")
    p.add_argument("spec", nargs="+", help="corpus clause kind:count:nmin..nmax")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=DEFAULT_EXACT_CAP)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, TooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
