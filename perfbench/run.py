"""treeburn benchmark: one workload per process, every output checked.

Run from the root of a treeburn checkout:

    python3 perfbench/run.py --workload certify_large --seed 1 --seconds 40 --trace 0

The program is imported from the checkout's `src/`.  Set-up builds the
seeded inputs several times and reports the median as `setup_s`.  The run
then makes whole passes over the inputs until the next pass would end after
`--seconds`; there is always at least one.  Each pass is single-threaded.
Every input is timed once per pass, and the timing metrics use each input's
median over the passes.  Every timed window is scaled to a fixed reference
speed by a kernel timed between groups of inputs (perfbench/reference.py),
because the host's speed for the same work drifts by 2-4x over minutes
(perfbench/README.md, "Steadiness"); the unscaled times are in the detail
line.

`--trace 0` reports the end-to-end metrics, measured with tracing off.
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones; the spans of the first traced pass are written to
`.perfbench_out/` in the checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when every output passed its checks and 1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import NOMINAL_MS, Speedometer
from spans import SPAN_NAMES, Tracer, write_spans
from workloads import (
    WORKLOADS,
    Reference,
    build,
    check_certificate,
    check_exact,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# Inputs are timed in groups of at least this much work between two blocks
# of the reference kernel.
GROUP_S = 0.02
# Timed windows shorter than this repeat their call (see `timed`).
MIN_WINDOW_S = 0.0005
clock = time.perf_counter


class Program:
    """The treeburn modules, imported from the checkout's own sources."""

    MODULES = ("graphs", "engine", "construct", "exact", "certs", "cli", "rng")

    def __init__(self, root: Path):
        src = root / "src"
        if not (src / "treeburn" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no treeburn sources under {src}")
        sys.path.insert(0, str(src))
        package = importlib.import_module("treeburn")
        if Path(package.__file__).resolve().parent != (src / "treeburn").resolve():
            raise SystemExit(f"perfbench: imported treeburn from {package.__file__}")
        self.package = package
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"treeburn.{name}"))

    def bindings(self) -> dict:
        out = {name: getattr(self, name) for name in self.MODULES}
        out["treeburn"] = self.package
        return out


def load_document(text: str) -> dict:
    """The benchmark's JSON load of a certificate, as `treeburn verify` does."""
    return json.loads(text)


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


class PassResult:
    def __init__(self):
        # per input label: scaled milliseconds of its timed window in this pass
        self.certify_ms: dict[str, float] = {}
        self.verify_ms: dict[str, float] = {}
        self.exact_tree_ms: dict[str, float] = {}
        self.exact_graph_ms: dict[str, float] = {}
        self.vertices = 0
        self.cert_bytes = 0
        self.rounds = 0
        self.exact_nodes = 0
        self.certified: list[tuple[int, bool]] = []  # (order, random kind) per certified input
        self.attempted = 0
        self.failures: list[str] = []
        self.raw_ms = 0.0  # unscaled sum of the timed windows
        self.wall_s = 0.0


def timed(call, min_window_s: float):
    """(output of the last call, seconds per call).  A call shorter than
    min_window_s is repeated until the window lasts that long, and the
    window is divided by the number of calls."""
    count = 0
    start = clock()
    while True:
        out = call()
        count += 1
        elapsed = clock() - start
        if elapsed >= min_window_s:
            return out, elapsed / count


def json_depth(value) -> int:
    depth = 0
    stack = [(value, 1)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, dict):
            depth = max(depth, d)
            stack.extend((v, d + 1) for v in node.values())
        elif isinstance(node, list):
            depth = max(depth, d)
            stack.extend((v, d + 1) for v in node)
    return depth


class Runner:
    def __init__(self, program: Program, items, tracer: Tracer, speed: Speedometer,
                 min_window_s: float, corrupt: bool):
        self.p = program
        self.items = items
        self.tracer = tracer
        self.speed = speed
        self.min_window_s = min_window_s
        self.corrupt = corrupt
        # Outputs are deterministic: each is checked in full the first time,
        # and later passes must reproduce it exactly.
        self.outputs: dict[tuple[str, str], tuple] = {}
        self.json_depth = 0

    def seen(self, key: tuple[str, str], output: tuple, res: PassResult) -> bool:
        """True if `output` was checked before; a changed output is a failure."""
        before = self.outputs.get(key)
        if before is None:
            self.outputs[key] = output
            return False
        if before != output:
            res.failures.append(f"{key[0]}: {key[1]} output differs from an earlier pass")
        return True

    def run_pass(self) -> PassResult:
        p = self.p
        res = PassResult()
        gc.collect()
        start = clock()
        before = self.speed.block()
        group: list[tuple[str, str, float]] = []  # (metric, label, raw s)
        group_s = 0.0
        for index, item in enumerate(self.items):
            raw_s: dict[str, float] = {}  # timed windows of this input, in s
            cert = result = graph = None
            if item.certify:
                res.attempted += 1

                def certify():
                    tree = p.graphs.as_tree(p.cli.parse_edge_list(item.text))
                    cert = p.construct.construct_general(tree)
                    return cert, p.certs.dump_document(p.certs.document_from_certificate(cert))

                def verify():
                    loaded = load_document(blob)
                    if self.corrupt and index == 0:
                        loaded["labels"]["0"] += 1
                    return loaded, p.certs.verify_document(loaded)

                try:
                    (cert, blob), raw_s["certify_ms"] = timed(certify, self.min_window_s)
                    (loaded, summary), raw_s["verify_ms"] = timed(verify, self.min_window_s)
                except Exception as exc:  # any raise is a failed operation
                    cert = None
                    raw_s.clear()
                    res.failures.append(f"{item.label}: certify raised {type(exc).__name__}: {exc}")
            if item.exact:
                res.attempted += 1
                try:
                    graph = p.cli.parse_edge_list(item.text)
                    result, seconds = timed(lambda: p.exact.burning_number(graph), self.min_window_s)
                except Exception as exc:  # any raise is a failed operation
                    result = None
                    res.failures.append(f"{item.label}: exact raised {type(exc).__name__}: {exc}")
                else:
                    raw_s["exact_tree_ms" if item.is_tree else "exact_graph_ms"] = seconds
            constructed = None
            if cert is not None:
                res.vertices += item.n
                res.cert_bytes += len(blob)
                res.rounds += len(cert.sequence)
                constructed = len(cert.sequence)
                res.certified.append((item.n, item.random_tree))
                if not self.seen((item.label, "certify"), (cert.sequence.sources, hash(blob)), res):
                    with self.tracer.paused():
                        self.json_depth = max(self.json_depth, json_depth(loaded))
                        ref = Reference(item, need_distances=False)
                        res.failures += check_certificate(item, ref, cert, loaded, summary)
            if result is not None:
                res.exact_nodes += result.nodes_explored
                output = (result.burning_number, result.witness.sources, result.nodes_explored)
                if not self.seen((item.label, "exact"), output, res):
                    with self.tracer.paused():
                        ref = Reference(item, need_distances=True)
                        res.failures += check_exact(
                            item, ref, result, graph, p.engine.validate_sequence, constructed
                        )

            group += [(attr, item.label, seconds) for attr, seconds in raw_s.items()]
            group_s += sum(raw_s.values())
            if group_s >= GROUP_S or index == len(self.items) - 1:
                # The kernel block after a group of inputs closes its window
                # and opens the next one.  Cheap inputs share a group so the
                # blocks cost about `share` of the timed work.  The collection
                # starts each group from the same collector state.
                gc.collect()
                after = self.speed.block(group_s)
                scale = Speedometer.factor(before, after)
                for attr, label, seconds in group:
                    getattr(res, attr)[label] = seconds * 1e3 * scale
                res.raw_ms += group_s * 1e3
                group, group_s = [], 0.0
                before = after
        res.wall_s = clock() - start
        return res


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(samples: list[float]) -> tuple[float, dict]:
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it,
    or the maximum when there are fewer than 20 samples."""
    s = sorted(samples)
    count = len(s)
    for pct in TAIL_PERCENTILES:
        beyond = count * (100.0 - pct) / 100.0
        if beyond >= 10:
            index = min(count - 1, math.ceil(count * pct / 100.0) - 1)
            break
    else:
        pct, index, beyond = 100.0, count - 1, 0
    return s[index], {"percentile": pct, "samples": count, "beyond": beyond}


def median_or_nan(samples: list[float]) -> float:
    return statistics.median(samples) if samples else math.nan


def loglog_slope(xs: list[int], ys: list[float]) -> float:
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if y > 0]
    if len(pts) < 2 or len({x for x, _ in pts}) < 2:
        return math.nan
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def typical(passes: list[PassResult], attr: str) -> dict[str, float]:
    """Each input's median time over the passes."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for label, ms in getattr(p, attr).items():
            samples.setdefault(label, []).append(ms)
    return {label: statistics.median(ms) for label, ms in samples.items()}


TIMED = ("certify_ms", "verify_ms", "exact_tree_ms", "exact_graph_ms")


def typical_total_ms(passes: list[PassResult]) -> float:
    """Sum over inputs of each timed window's median over the passes."""
    return sum(sum(typical(passes, attr).values()) for attr in TIMED)


def end_to_end(passes: list[PassResult], setup_s: float, details: dict) -> dict:
    certify = list(typical(passes, "certify_ms").values())
    verify = list(typical(passes, "verify_ms").values())
    exact_tree = list(typical(passes, "exact_tree_ms").values())
    exact_graph = list(typical(passes, "exact_graph_ms").values())
    first = passes[0]
    pipeline_s = (sum(certify) + sum(verify)) / 1e3
    certify_tail, details["certify_ms_tail"] = tail(certify) if certify else (math.nan, {})
    exact_tail, details["exact_ms_tail"] = (
        tail(exact_tree + exact_graph) if exact_tree + exact_graph else (math.nan, {})
    )
    values = {
        "setup_s": (setup_s, "s"),
        "certify_vertices_per_s": (first.vertices / pipeline_s if pipeline_s else math.nan, "vertices/s"),
        "certify_ms_p50": (median_or_nan(certify), "ms"),
        "certify_ms_tail": (certify_tail, "ms"),
        "verify_ms_p50": (median_or_nan(verify), "ms"),
        "cert_bytes_per_vertex": (first.cert_bytes / first.vertices if first.vertices else math.nan, "B/vertex"),
        "sequence_rounds_total": (first.rounds, "rounds"),
        "exact_tree_ms_p50": (median_or_nan(exact_tree), "ms"),
        "exact_graph_ms_p50": (median_or_nan(exact_graph), "ms"),
        "exact_ms_tail": (exact_tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def per_layer(traced: list[tuple[PassResult, dict, dict]], plain: list[PassResult], json_depth: int) -> dict:
    """traced: (pass result, self times, extras) per traced pass."""
    metrics: dict[str, tuple[float, str]] = {}
    first_times = traced[0][1]
    for name in SPAN_NAMES:
        calls = first_times.get(name, (0, 0.0))[0]
        self_s = statistics.median(t.get(name, (0, 0.0))[1] for _, t, _ in traced)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    extras = traced[0][2]
    result = traced[0][0]
    levels = extras["levels"]
    metrics["construct.levels"] = (levels, "count")
    metrics["construct.scaling_exponent"] = (
        statistics.median(e["scaling_exponent"] for _, _, e in traced),
        "slope",
    )
    metrics["engine.simulations_per_level"] = (
        extras["simulate_under_construct"] / levels if levels else math.nan,
        "calls/level",
    )
    metrics["exact.nodes"] = (result.exact_nodes, "count")
    metrics["exact.nodes_per_s"] = (
        statistics.median(e["nodes_per_s"] for _, _, e in traced),
        "1/s",
    )
    metrics["certs.bytes"] = (result.cert_bytes, "B")
    metrics["certs.json_depth"] = (json_depth, "count")
    metrics["trace.overhead"] = (
        typical_total_ms([t for t, _, _ in traced]) / typical_total_ms(plain),
        "ratio",
    )
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def calibration_s() -> float:
    """Time of a fixed pure-Python loop; recorded, never used to scale metrics."""
    t0 = clock()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return clock() - t0


def git_revision(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="input sizes; smoke finishes in seconds")
    ap.add_argument("--corrupt-cert", action="store_true",
                    help="alter the first certificate before verifying it (checks the checks)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def setup_once(program: Program, args) -> tuple[list, float]:
    """Build the inputs and warm up both paths; returns the inputs and the time."""
    t0 = clock()
    items = build(args.workload, args.seed, args.scale, program)
    warm = program.graphs.gen_random_tree(30, args.seed)
    cert = program.construct.construct_general(warm)
    doc = load_document(program.certs.dump_document(program.certs.document_from_certificate(cert)))
    program.certs.verify_document(doc)
    program.exact.burning_number(program.graphs.gen_cycle(9))
    return items, clock() - t0


def measure(seconds: float, one_round, between=None) -> list:
    """Whole rounds until the next one would end after `seconds`; `between`
    runs untimed between two rounds."""
    start = clock()
    rounds = []
    while True:
        t0 = clock()
        rounds.append(one_round())
        took = clock() - t0
        if clock() - start + took > seconds:
            return rounds
        if between is not None:
            between()


def main(argv=None) -> int:
    args = parse_args(argv)
    program = Program(ROOT)
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(ROOT),
        "calibration_start_s": calibration_s(),
    }
    speed = Speedometer()
    # Set-up runs SETUP_REPEATS times before the first pass and once more
    # between passes, so its median is not taken from one moment of the host.
    # Each time is scaled by the kernel blocks around it, as passes are.
    setup_times, setup_raw = [], []

    def timed_setup():
        before = speed.block()
        items, took = setup_once(program, args)
        setup_times.append(took * Speedometer.factor(before, speed.block(took)))
        setup_raw.append(took)
        return items

    for _ in range(SETUP_REPEATS):
        items = timed_setup()

    tracer = Tracer()
    # The traced run makes each call once, so that its call counts are those
    # of one pass and its traced and untraced passes do the same work.
    min_window_s = 0.0 if args.trace else MIN_WINDOW_S
    runner = Runner(program, items, tracer, speed, min_window_s, args.corrupt_cert)
    details: dict = {"workload": args.workload, "seed": args.seed, "scale": args.scale, "env": env}

    if args.trace:
        tracer.install(program.bindings(), extra=(("certs.load", sys.modules[__name__], "load_document"),))
        first_spans: list = []

        def one_round():
            plain = runner.run_pass()
            tracer.reset()
            with tracer.recording_on():
                traced = runner.run_pass()
            # one construct_general span per certified input, in pass order
            durations = tracer.durations("construct.construct_general")
            random_pairs = [
                (n, d) for (n, is_random), d in zip(traced.certified, durations) if is_random
            ] if len(durations) == len(traced.certified) else []
            bench_exact_s = sum(tracer.durations("exact.burning_number.bench"))
            extras = {
                "levels": tracer.levels,
                "simulate_under_construct": tracer.count_under(
                    "engine.simulate", "construct.construct_general"
                ),
                "scaling_exponent": loglog_slope(
                    [n for n, _ in random_pairs], [d for _, d in random_pairs]
                ),
                "nodes_per_s": traced.exact_nodes / bench_exact_s if bench_exact_s else math.nan,
            }
            if not first_spans:
                first_spans.extend(tracer.spans)
            return plain, (traced, tracer.self_times(), extras)

        try:
            rounds = measure(args.seconds, one_round)
        finally:
            tracer.uninstall()
        plain = [r[0] for r in rounds]
        traced = [r[1] for r in rounds]
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        write_spans(path, first_spans, {"workload": args.workload, "seed": args.seed, "env": env})
        details["spans_file"] = str(path.relative_to(ROOT))
        passes = plain + [t[0] for t in traced]
        metrics = per_layer(traced, plain, runner.json_depth)
    else:
        passes = measure(args.seconds, runner.run_pass, between=timed_setup)
        details["setup_repeats"] = len(setup_times)
        details["setup_raw_s"] = setup_raw
        metrics = end_to_end(passes, statistics.median(setup_times), details)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    env["calibration_end_s"] = calibration_s()
    details["pass_wall_s"] = [p.wall_s for p in passes]
    details["pass_raw_ms"] = [p.raw_ms for p in passes]
    details["pass_median_ms"] = {
        attr: [median_or_nan(list(getattr(p, attr).values())) for p in passes] for attr in TIMED
    }
    kernel_ms = sorted(speed.kernel_ms)
    details["kernel_ms"] = {
        "nominal": NOMINAL_MS,
        "samples": len(kernel_ms),
        "min": kernel_ms[0],
        "median": statistics.median(kernel_ms),
        "max": kernel_ms[-1],
    }
    details["error_rate"] = len(failures) / attempted if attempted else 1.0
    details["failures"] = failures[:20]
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:>16.6g} {m['unit']}")
    print("# detail " + json.dumps(details, sort_keys=True))
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    correct = not failures and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
