"""Acceptance gate: every criterion in order, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines.
Criteria that sweep millions of integers or thousands of trees carry
explicit wall-clock budgets, asserted at the end of the test.
"""

import time
from math import isqrt

import pytest

from treeburn import (
    BurningSequence,
    burning_number,
    ceil_sqrt,
    construct_general,
    construct_no_deg2,
    degree2_census,
    gen_cycle,
    gen_double_star,
    gen_path,
    gen_random_no_deg2,
    gen_random_tree,
    refined_bound,
    validate_sequence,
)
from treeburn.bounds import margin
from treeburn.errors import PreconditionViolated

from .oracles import burning_number_naive, labeled_trees, spanning_tree_min
from .smallgraphs import connected_graph_reps


def report(tag: str, started: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    print(f"PASS  {tag}  ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"{tag}: {elapsed:.1f}s exceeded budget {budget}s"


def test_01_paths_and_cycles_burn_in_ceil_sqrt_rounds():
    t0 = time.perf_counter()
    for n in range(1, 26):
        assert burning_number(gen_path(n)).burning_number == ceil_sqrt(n), f"P_{n}"
    for n in range(3, 26):
        assert burning_number(gen_cycle(n)).burning_number == ceil_sqrt(n), f"C_{n}"
    report("paths and cycles match ceil_sqrt(n) for n <= 25", t0, budget=120)


def test_02_four_path_burns_in_two_rounds_from_sources_1_and_3():
    t0 = time.perf_counter()
    labeling = validate_sequence(gen_path(4), BurningSequence((1, 3)))
    assert labeling.total_rounds == 2
    assert dict(enumerate(labeling.labels)) == {0: 2, 1: 1, 2: 2, 3: 2}
    report("order-4 path burns in 2 rounds with labels {1:1,0:2,2:2,3:2}", t0)


def test_03_order6_double_star_is_the_margin_boundary_case():
    t0 = time.perf_counter()
    t = gen_double_star(2, 2)
    exact = burning_number(t).burning_number
    assert exact == 3
    assert exact > ceil_sqrt(6 - 2) == 2
    with pytest.raises(PreconditionViolated):
        construct_no_deg2(t, 2)  # order 6 == m*(m+1): one vertex short
    cert = construct_no_deg2(t, 1)
    assert cert.target == 3
    assert len(cert.sequence) == 3
    assert validate_sequence(t, cert.sequence) == cert.labeling
    report("double star D(2,2): exact 3, margin 2 rejected, margin 1 certified", t0)


def test_04_thousand_degree2_free_trees_certify_at_full_margin():
    t0 = time.perf_counter()
    for i in range(1000):
        t = gen_random_no_deg2(6 + (i % 195), seed=40_000 + i)
        n = t.n
        assert 6 <= n <= 400
        m = margin(n)
        assert m * (m + 1) + 1 <= n < (m + 1) * (m + 2) + 1  # m is maximal
        cert = construct_no_deg2(t, m)
        assert len(cert.sequence) <= ceil_sqrt(n - m)
        assert validate_sequence(t, cert.sequence) == cert.labeling
    report("1000 degree-2-free trees: length <= ceil_sqrt(n - m)", t0, budget=300)


def test_05_thousand_arbitrary_trees_certify_at_refined_bound():
    t0 = time.perf_counter()
    for i in range(1000):
        n = 2 + (i % 399)
        t = gen_random_tree(n, seed=50_000 + i)
        n2, _ = degree2_census(t)
        cert = construct_general(t)
        assert len(cert.sequence) <= refined_bound(n, n2)
        assert validate_sequence(t, cert.sequence) == cert.labeling
    report("1000 arbitrary trees: length <= refined bound", t0, budget=300)


def test_06_refined_bound_stays_within_conjecture_for_sparse_degree2():
    t0 = time.perf_counter()
    # Step 1: exhaustively verify that total - margin(total) never decreases
    # (so the refined bound is monotone in n2 and the worst case per n is
    # n2 = isqrt(n - 1)).
    m = 0
    prev = 0
    for total in range(1, 2_001_001):
        while (m + 1) * (m + 2) < total:
            m += 1
        assert m * (m + 1) + 1 <= total  # the margin's defining inequality
        g = total - m
        assert g >= prev
        prev = g
    # Step 2: exhaustively check the worst n2 for every n up to one million.
    m = 0
    for n in range(2, 1_000_001):
        n2 = isqrt(n - 1)
        total = n + n2
        while (m + 1) * (m + 2) < total:
            m += 1
        g = total - m
        r = isqrt(g)
        r += r * r < g
        s = isqrt(n)
        s += s * s < n
        assert r <= s, (n, n2)
    report(
        "refined bound <= ceil_sqrt(n) for all n <= 1e6, n2 <= isqrt(n-1)",
        t0,
        budget=60,
    )


def test_07_exact_solution_is_sandwiched_by_certificate_and_bound():
    t0 = time.perf_counter()
    for n in range(1, 8):
        for t in labeled_trees(n):
            exact = burning_number(t).burning_number
            n2, _ = degree2_census(t)
            cert = construct_general(t)
            assert exact <= len(cert.sequence) <= refined_bound(n, n2)
    for i in range(200):
        t = gen_random_tree(8 + (i % 11), seed=70_000 + i)
        exact = burning_number(t).burning_number
        cert = construct_general(t)
        assert exact <= len(cert.sequence) <= cert.target
    report(
        "exact <= constructed <= bound on all trees n <= 7 plus 200 seeded n <= 18",
        t0,
        budget=600,
    )


def test_08_search_solver_agrees_with_enumeration_and_spanning_trees():
    t0 = time.perf_counter()
    for n in range(1, 8):
        for t in labeled_trees(n):
            assert (
                burning_number(t).burning_number
                == burning_number_naive(t).burning_number
            )
    for i in range(200):
        t = gen_random_tree(8 + (i % 2), seed=80_000 + i)
        assert (
            burning_number(t).burning_number
            == burning_number_naive(t).burning_number
        )
    # burning numbers and spanning-tree minima are invariant under vertex
    # relabeling, so one representative per isomorphism class is exhaustive
    for n in range(1, 7):
        for g in connected_graph_reps(n):
            assert spanning_tree_min(g) == burning_number(g).burning_number
    report(
        "search == enumeration on trees n <= 9; spanning minimum == exact n <= 6",
        t0,
    )


def test_09_internal_vertex_count_bound_on_seeded_corpus():
    t0 = time.perf_counter()
    for i in range(1000):
        n = 5 + (i % 196)
        t = gen_random_tree(n, seed=i)
        n2, _ = degree2_census(t)
        internal = sum(1 for v in range(t.n) if t.degree(v) >= 2)
        assert internal <= (n2 + n - 2) // 2
    report("internal vertices <= floor((n2 + n - 2)/2) on 1000 trees", t0)


def test_10_refined_bound_never_exceeds_augmented_sqrt_bound():
    t0 = time.perf_counter()
    # both sides depend only on total = n + n2, so sweeping totals up to
    # 2e6 covers every pair with n <= 1e6, n2 <= n
    m = 0
    for total in range(1, 2_000_001):
        while (m + 1) * (m + 2) < total:
            m += 1
        g = total - m
        r = isqrt(g)
        r += r * r < g
        s = isqrt(total)
        s += s * s < total
        assert r <= s, total
    report("refined bound <= ceil_sqrt(n + n2) for all n <= 1e6, n2 <= n", t0)
