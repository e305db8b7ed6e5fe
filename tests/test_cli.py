import csv
import dataclasses
import json
import re
import subprocess
import sys
import tracemalloc

import pytest

from treeburn import cli, exact
from treeburn.cli import main, parse_edge_list, format_edge_list, ParseError
from treeburn import Graph, Tree, as_tree, build_graph, gen_cycle, gen_path, gen_random_tree
from treeburn.bounds import bound_table
from treeburn.graphs import _bfs_tree
from treeburn.rng import SplitMix64

from .reference_parse import reference_parse_edge_list


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        text = format_edge_list(g)
        assert text == "4\n0 1\n1 2\n2 3\n"
        assert parse_edge_list(text) == as_tree(g)

    def test_comments_and_blanks_ignored(self):
        g = parse_edge_list("# a path\n\n3\n0 1\n# middle\n1 2\n")
        assert g == as_tree(build_graph(3, [(0, 1), (1, 2)]))

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ParseError, match=r":3:"):
            parse_edge_list("3\n0 1\n1 2 9\n", name="bad.txt")

    def test_two_fields_on_the_first_data_line(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("# no count\n0 1\n1 2\n", name="bad.txt")
        assert str(exc.value).startswith("bad.txt:2: expected vertex count, got '0 1'")

    def test_bad_edge_reported(self):
        with pytest.raises(ParseError):
            parse_edge_list("2\n0 5\n")

    @pytest.mark.parametrize("text", ["2000000\n", "2000000\n0 1\n", "-1\n"])
    def test_implausible_order_rejected_before_allocating(self, text):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError):
                parse_edge_list(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_implausible_order_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("2000000\n")
        code, out, err = run(["simulate", str(path), "0"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


def plain_texts() -> list[str]:
    """format_edge_list of seeded trees, paths, cycles and trees plus chords."""
    rng = SplitMix64(2026)
    graphs = [gen_path(n) for n in (1, 2, 3, 17)] + [gen_cycle(n) for n in (3, 4, 11)]
    for _ in range(40):
        tree = gen_random_tree(1 + rng.below(400), rng.below(1 << 30))
        graphs.append(tree)
        edges = set(tree.edges())
        for _ in range(1 + rng.below(3)):
            u, v = sorted((rng.below(tree.n), rng.below(tree.n)))
            if u != v:
                edges.add((u, v))
        graphs.append(build_graph(tree.n, sorted(edges)))
    return [format_edge_list(g) for g in graphs]


# each rewrite leaves the text outside format_edge_list's layout
LAYOUTS = [
    lambda t: "# a comment\n" + t,
    lambda t: t.replace("\n", "\n\n", 2),
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.replace(" ", "\t"),
    lambda t: t.replace("\n", " \n"),
    lambda t: t[:-1],
]

ODD_TEXTS = [
    "3\n00 1\n1 2\n",
    "03\n0 1\n1 2\n",
    "+3\n0 1\n1 2\n",
    "3\n0 +1\n1 2\n",
    "-1\n",
    "3\n-1 0\n1 2\n",
    "3\n0 -1\n1 2\n",
    "3\n0 3\n1 2\n",
    "3\n0 1\n0 1\n",
    "3\n0 1\n1 0\n",
    "3\n0 1\n1 2\n2 1\n",
    "3\n0 0\n1 2\n",
    "2\n1 1\n",
    "4\n0 1\n1 2\n2 0\n",
    "5\n0 1\n1 2\n2 0\n3 4\n",
    "0\n",
    "1\n",
    "0\n0 1\n",
    "",
    "# nothing\n",
    "3\n0 1 2\n",
    "9" * 5000 + "\n",
    "3\n0 " + "9" * 5000 + "\n1 2\n",
]


def parse_outcome(parse, text):
    try:
        return parse(text, name="t.txt")
    except ParseError as exc:
        return str(exc)


def assert_same_parse(text):
    got = parse_outcome(parse_edge_list, text)
    want = parse_outcome(reference_parse_edge_list, text)
    if isinstance(want, str):
        assert got == want, text[:40]
        return
    assert got.adjacency == want.adjacency, text[:40]
    try:
        as_tree(want)
    except ValueError:
        assert type(got) is Graph, text[:40]
    else:
        assert type(got) is Tree, text[:40]
        assert list(got.parent) == _bfs_tree(got.adjacency, 0)[1], text[:40]


class TestAgainstReferenceParser:
    """The bulk tokenizer and the one-pass tree check against the line loop
    plus build_graph of earlier releases (tests/reference_parse.py)."""

    def test_plain_layout(self):
        for text in plain_texts():
            assert_same_parse(text)

    @pytest.mark.parametrize("layout", range(len(LAYOUTS)))
    def test_other_layouts(self, layout):
        for text in plain_texts()[:24]:
            assert_same_parse(LAYOUTS[layout](text))

    @pytest.mark.parametrize("index", range(len(ODD_TEXTS)))
    def test_odd_texts(self, index):
        assert_same_parse(ODD_TEXTS[index])


class TestGen:
    def test_path_file_bytes(self, tmp_path, capsys):
        out = tmp_path / "p4.txt"
        code, _, _ = run(["gen", "path", "4", "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text() == "4\n0 1\n1 2\n2 3\n"

    def test_double_star(self, capsys):
        code, out, _ = run(["gen", "double-star", "2", "2"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "6"

    def test_random_tree_deterministic(self, capsys):
        code, out1, _ = run(["gen", "random-tree", "50", "--seed", "7"], capsys)
        code, out2, _ = run(["gen", "random-tree", "50", "--seed", "7"], capsys)
        code, out3, _ = run(["gen", "random-tree", "50", "--seed", "8"], capsys)
        assert out1 == out2
        assert out1 != out3

    def test_bad_params(self, capsys):
        code, _, err = run(["gen", "cycle", "2"], capsys)
        assert code == 2
        assert "error" in err

    def test_wrong_parameter_count(self, capsys):
        code, out, err = run(["gen", "path", "4", "5"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: kind 'path' takes 1 parameter(s)")


class TestSimulate:
    def test_two_source_pair(self, tmp_path, capsys):
        tree = tmp_path / "p4.txt"
        tree.write_text("4\n0 1\n1 2\n2 3\n")
        code, out, _ = run(["simulate", str(tree), "1", "3"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "total_rounds 2"
        assert "0 2" in out and "1 1" in out and "2 2" in out and "3 2" in out

    def test_empty_round_token(self, tmp_path, capsys):
        tree = tmp_path / "p3.txt"
        tree.write_text("3\n0 1\n1 2\n")
        code, out, _ = run(
            ["simulate", str(tree), "1", "_", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["total_rounds"] == 2
        assert doc["labels"] == {"0": 2, "1": 1, "2": 2}

    @pytest.mark.parametrize(
        "sources, message",
        [(["0", "_", "1"], "burned"), (["_", "1"], "round 1")],
        ids=["source-already-burned", "empty-first-round"],
    )
    def test_invalid_schedule_exits_1(self, tmp_path, capsys, sources, message):
        tree = tmp_path / "p2.txt"
        tree.write_text("2\n0 1\n")
        code, _, err = run(["simulate", str(tree), *sources], capsys)
        assert code == 1
        assert err.startswith("error: ") and message in err


    def test_bad_source_token(self, tmp_path, capsys):
        tree = tmp_path / "p2.txt"
        tree.write_text("2\n0 1\n")
        code, out, err = run(["simulate", str(tree), "0", "x"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: source token 'x' is not an integer or '_'")


class TestExact:
    def test_disconnected_graph_with_n_minus_1_edges_exits_1(self, tmp_path, capsys):
        # a triangle and an isolated vertex: the edge count of a tree
        graph = tmp_path / "split.txt"
        graph.write_text("4\n1 2\n1 3\n2 3\n")
        code, out, err = run(["exact", str(graph)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: graph with 4 vertices is not connected")

    def test_path9(self, tmp_path, capsys):
        tree = tmp_path / "p9.txt"
        tree.write_text("9\n" + "\n".join(f"{i} {i+1}" for i in range(8)) + "\n")
        code, out, _ = run(["exact", str(tree), "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["burning_number"] == 3
        assert len(doc["witness"]) == 3

    def test_cap(self, tmp_path, capsys):
        tree = tmp_path / "p9.txt"
        tree.write_text("9\n" + "\n".join(f"{i} {i+1}" for i in range(8)) + "\n")
        code, _, err = run(["exact", str(tree), "--cap", "5"], capsys)
        assert code == 2
        assert "cap" in err

    def test_search_budget_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(exact, "NODE_BUDGET", 2)
        tree = tmp_path / "p9.txt"
        tree.write_text("9\n" + "\n".join(f"{i} {i+1}" for i in range(8)) + "\n")
        code, out, err = run(["exact", str(tree)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "budget" in err
        # b(P9) = 3 = ceil_sqrt(diameter + 1); burning from vertex 0 takes 9
        assert "; 3 <= b <= 9 (every smaller k ruled out)" in err


class TestBounds:
    def test_csv_row(self, capsys):
        code, out, _ = run(["bounds", "50", "0", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert rows[0]["refined"] == "7"
        assert rows[0]["conjecture"] == "8"
        assert rows[0]["bonato_2016"] == "15"

    def test_text(self, capsys):
        code, out, _ = run(["bounds", "9", "7"], capsys)
        assert code == 0
        assert re.search(r"refined\s+4", out)

    def test_json(self, capsys):
        code, out, _ = run(["bounds", "9", "7", "--format", "json"], capsys)
        assert code == 0
        assert out.startswith("{\n")
        assert json.loads(out) == bound_table(9, 7).as_dict()


class TestConstructVerify:
    def test_roundtrip(self, tmp_path, capsys):
        tree = tmp_path / "t.txt"
        cert = tmp_path / "cert.json"
        run(["gen", "random-tree", "40", "--seed", "3", "--out", str(tree)], capsys)
        code, out, _ = run(["construct", str(tree), "--cert", str(cert)], capsys)
        assert code == 0
        code, out, _ = run(["verify", str(cert)], capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_tampered_sequence_fails(self, tmp_path, capsys):
        tree = tmp_path / "t.txt"
        cert = tmp_path / "cert.json"
        run(["gen", "path", "9", "--out", str(tree)], capsys)
        run(["construct", str(tree), "--cert", str(cert)], capsys)
        doc = json.loads(cert.read_text())
        doc["sequence"] = list(reversed(doc["sequence"]))
        cert.write_text(json.dumps(doc))
        code, out, _ = run(["verify", str(cert)], capsys)
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_tampered_labels_report_mismatch(self, tmp_path, capsys):
        tree = tmp_path / "t.txt"
        cert = tmp_path / "cert.json"
        run(["gen", "random-tree", "20", "--seed", "5", "--out", str(tree)], capsys)
        run(["construct", str(tree), "--cert", str(cert)], capsys)
        doc = json.loads(cert.read_text())
        some = next(iter(doc["labels"]))
        doc["labels"][some] += 1
        cert.write_text(json.dumps(doc))
        code, out, _ = run(["verify", str(cert)], capsys)
        assert code == 1
        assert json.loads(out)["reason"] == "labels mismatch"

    def test_tampered_target_fails(self, tmp_path, capsys):
        tree = tmp_path / "t.txt"
        cert = tmp_path / "cert.json"
        run(["gen", "path", "9", "--out", str(tree)], capsys)
        run(["construct", str(tree), "--cert", str(cert)], capsys)
        doc = json.loads(cert.read_text())
        doc["target"] += 1
        cert.write_text(json.dumps(doc))
        code, out, _ = run(["verify", str(cert)], capsys)
        assert code == 1
        assert json.loads(out)["reason"] == "target mismatch"

    def test_malformed_sequence_entries_fail(self, tmp_path, capsys):
        tree = tmp_path / "t.txt"
        cert = tmp_path / "cert.json"
        run(["gen", "path", "9", "--out", str(tree)], capsys)
        run(["construct", str(tree), "--cert", str(cert)], capsys)
        doc = json.loads(cert.read_text())
        doc["sequence"] = [float(x) for x in doc["sequence"]]
        cert.write_text(json.dumps(doc))
        code, out, _ = run(["verify", str(cert)], capsys)
        assert code == 1
        assert "malformed sequence" in json.loads(out)["reason"]

    def test_non_tree_rejected(self, tmp_path, capsys):
        bad = tmp_path / "c4.txt"
        bad.write_text("4\n0 1\n1 2\n2 3\n3 0\n")
        code, _, err = run(["construct", str(bad), "--cert", str(tmp_path / "x.json")], capsys)
        assert code == 2

    def test_deeply_nested_certificate_is_a_parse_error(self, tmp_path, capsys):
        cert = tmp_path / "deep.json"
        cert.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run(["verify", str(cert)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_oversized_integer_certificate_is_a_parse_error(self, tmp_path, capsys):
        cert = tmp_path / "huge.json"
        cert.write_text('{"tree": ' + "9" * 5000 + "}")
        code, out, err = run(["verify", str(cert)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{path}"],
        ["construct", "{path}", "--cert", "{path}.json"],
        ["exact", "{path}"],
        ["simulate", "{path}", "0"],
    ],
)
def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"3\n0 1\n1 2 # \xe9t\xe9\n")
    code, out, err = run([a.format(path=path) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "{path}", "0"],
        ["exact", "{path}"],
        ["construct", "{path}", "--cert", "{path}.json"],
        ["verify", "{path}"],
    ],
    ids=["simulate", "exact", "construct", "verify"],
)
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "missing.txt"
    code, out, err = run([a.format(path=path) for a in argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] No such file or directory")


@pytest.mark.parametrize("n, n2", [("0", "0"), ("5", "9"), ("-3", "0")])
def test_bounds_outside_their_domain_are_a_usage_error(capsys, n, n2):
    code, out, err = run(["bounds", n, n2], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "path", "4", "--out", "{out}"],
        ["exact", "{tree}", "--out", "{out}"],
        ["bounds", "9", "7", "--out", "{out}"],
        ["construct", "{tree}", "--cert", "{out}"],
        ["simulate", "{tree}", "1", "3", "--out", "{out}"],
        ["verify", "{cert}", "--out", "{out}"],
        ["bench", "path:2:4", "--out", "{out}"],
    ],
)
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    tree, cert = tmp_path / "p4.txt", tmp_path / "cert.json"
    tree.write_text("4\n0 1\n1 2\n2 3\n")
    assert run(["construct", str(tree), "--cert", str(cert)], capsys)[0] == 0
    paths = {"tree": tree, "cert": cert, "out": tmp_path / "missing" / "out.txt"}
    code, out, err = run([a.format(**paths) for a in argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


class TestBench:
    def test_small_corpus(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _, err = run(
            [
                "bench",
                "random-tree:6:5..30",
                "path:3:9",
                "--seed", "11",
                "--cap", "16",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0, err
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 9
        assert rows == sorted(rows, key=lambda r: r["instance"])
        for row in rows:
            assert int(row["constructed"]) <= int(row["refined"])
            if row["exact"]:
                assert int(row["exact"]) <= int(row["constructed"])
        path_rows = [r for r in rows if r["kind"] == "path"]
        assert all(r["exact"] == "3" for r in path_rows)

    def test_determinism_modulo_timing(self, tmp_path, capsys):
        out1 = tmp_path / "b1.csv"
        out2 = tmp_path / "b2.csv"
        args = ["bench", "random-tree:5:4..40", "--seed", "23", "--cap", "12"]
        assert run(args + ["--out", str(out1)], capsys)[0] == 0
        assert run(args + ["--out", str(out2)], capsys)[0] == 0

        def strip_timing(text):
            rows = list(csv.DictReader(text.splitlines()))
            for row in rows:
                for col in ("us_gen", "us_exact", "us_construct"):
                    row.pop(col)
            return rows

        assert strip_timing(out1.read_text()) == strip_timing(out2.read_text())

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        base = ["bench", "random-tree:4:6..20", "--seed", "9", "--cap", "10"]
        assert run(base + ["--out", str(serial)], capsys)[0] == 0
        assert run(base + ["--jobs", "2", "--out", str(parallel)], capsys)[0] == 0

        def strip_timing(text):
            rows = list(csv.DictReader(text.splitlines()))
            for row in rows:
                for col in ("us_gen", "us_exact", "us_construct"):
                    row.pop(col)
            return rows

        assert strip_timing(serial.read_text()) == strip_timing(parallel.read_text())

    @pytest.mark.parametrize(
        "spec, jobs, cpus, expected",
        [
            ("path:5:4", "100000", 3, [3]),
            ("path:2:4", "100000", 8, [2]),
            ("path:5:4", "4", None, []),
        ],
    )
    def test_jobs_capped_by_tasks_and_cpus(
        self, monkeypatch, tmp_path, capsys, spec, jobs, cpus, expected
    ):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        out = tmp_path / "bench.csv"
        code, _, err = run(["bench", spec, "--jobs", jobs, "--out", str(out)], capsys)
        assert code == 0, err
        assert started == expected
        assert len(out.read_text().splitlines()) == 1 + int(spec.split(":")[1])

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, monkeypatch, capsys, jobs):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", None)
        code, out, err = run(["bench", "path:1:4", "--jobs", jobs], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_bad_spec(self, capsys):
        code, _, err = run(["bench", "nonsense"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("cycle:1:4", "bench kind must be one of"),
            ("path:two:4", "corpus clause 'path:two:4' has non-integer fields"),
            ("path:1:5..x", "corpus clause 'path:1:5..x' has non-integer fields"),
            ("path:1:5..4", "corpus clause 'path:1:5..4' has an empty range"),
            ("path:0:4", "corpus clause 'path:0:4' has an empty range"),
        ],
        ids=["unknown-kind", "count", "range", "empty-range", "no-instances"],
    )
    def test_bad_clauses_are_worded(self, capsys, spec, message):
        code, out, err = run(["bench", spec], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    def test_contract_violations_exit_1_after_the_full_csv(self, monkeypatch, capsys):
        """One row claims more rounds than the refined bound, another an
        exact value above its constructed length: each gets one line on
        stderr, and every row still reaches the CSV."""
        construct, solve = cli.construct_general, cli.burning_number

        def long_construct(tree):
            cert = construct(tree)
            if tree.n == 4:  # 100 rounds against a refined bound of 3
                cert = dataclasses.replace(cert, sequence=tuple(range(100)))
            return cert

        def high_exact(g):
            res = solve(g)
            return dataclasses.replace(res, burning_number=99) if g.n == 6 else res

        monkeypatch.setattr(cli, "construct_general", long_construct)
        monkeypatch.setattr(cli, "burning_number", high_exact)
        code, out, err = run(["bench", "path:3:4..6", "--jobs", "1"], capsys)
        assert code == 1
        rows = list(csv.DictReader(out.splitlines()))
        assert [(r["instance"], r["exact"], r["constructed"]) for r in rows] == [
            ("path-00000-n4", "2", "100"),
            ("path-00001-n5", "3", "3"),
            ("path-00002-n6", "99", "3"),
        ]
        assert err.splitlines() == [
            "contract violation: path-00000-n4: constructed > refined bound",
            "contract violation: path-00002-n6: exact > constructed",
        ]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "treeburn.cli", "bounds", "50", "0", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "refined" in proc.stdout
