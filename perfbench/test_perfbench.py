"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench

They check the operand-derived work counts against brute-force counts,
the self-time arithmetic on nested spans, the rebinding of aliased
names, the seeded input generator, that the output gate counts a
skipped or wrong unit as failed, and that BENCHMARK.json matches the code.
"""

import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import crown  # noqa: E402
from crown.graph_algebra import annihilator_grading  # noqa: E402

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FIELDS = (crown.QQ, crown.GF(2), crown.GF(5))


def random_matrix(rng, field, nrows, ncols, density=0.4):
    entries = [
        (r, c, rng.randint(1, 4))
        for r in range(nrows)
        for c in range(ncols)
        if rng.random() < density
    ]
    return crown.Matrix.from_entries(field, nrows, ncols, entries)


def nonzero(m, r, c):
    return m.entry(r, c) != m.field.zero


# -- work counts against brute force -------------------------------------

def test_kron_power_nnz_matches_materialized_power():
    rng = random.Random(1)
    for field in FIELDS:
        for p in range(4):
            m = random_matrix(rng, field, 3, 4)
            assert layers.kron_nnz_out(m, p) == {"nnz_out": crown.kron_power(m, p).nnz()}


def test_compose_mults_counts_every_scalar_product():
    rng = random.Random(2)
    for field in FIELDS:
        a = random_matrix(rng, field, 4, 5)
        b = random_matrix(rng, field, 5, 3)
        brute = sum(
            1
            for r, k, c in itertools.product(range(4), range(5), range(3))
            if nonzero(a, r, k) and nonzero(b, k, c)
        )
        assert layers.compose_mults(a, b) == {"mults": brute}


def test_add_nnz_in_counts_both_operands():
    rng = random.Random(3)
    a, b = random_matrix(rng, crown.QQ, 4, 4), random_matrix(rng, crown.QQ, 4, 4)
    assert layers.add_nnz_in(a, b) == {"nnz_in": len(a.to_triples()) + len(b.to_triples())}


def test_witness_row_tuples_counts_nonzero_index_tuples():
    rng = random.Random(4)
    field = crown.GF(5)
    dim, p = 3, 2
    terms = [(field.one, [random_matrix(rng, field, dim, dim) for _ in range(p)]) for _ in range(3)]
    brute = 0
    for _, mats in terms:
        for cols in itertools.product(range(dim), repeat=p):
            for rows in itertools.product(range(dim), repeat=p):
                brute += all(nonzero(m, r, c) for m, r, c in zip(mats, rows, cols))
    assert layers.witness_row_tuples(terms, p) == {"row_tuples": brute}


def test_loday_cols_is_the_matrix_width():
    alg = crown.q_ungraded(crown.build_F(2, 1)[0], crown.GF(3))
    for s in crown.surjections(2, 1) + crown.surjections(3, 2):
        assert layers.loday_cols(alg, s) == {"cols": crown.loday_matrix(alg, s).ncols}


def test_reconstruct_points_match_the_regraded_enumeration():
    rng = random.Random(5)
    for field in (crown.GF(2), crown.GF(3)):
        for _ in range(5):
            g = workloads.random_graph(rng, 4, 3, admissible=False)
            alg = crown.q_ungraded(g, field)
            dim1 = annihilator_grading(alg).dim1
            assert layers.annihilator_codim(alg) == dim1
            points = sum(
                1
                for vec in itertools.product(range(field.p), repeat=dim1)
                if any(vec) and next(x for x in vec if x) == 1
            )
            assert layers.reconstruct_points(alg) == {"points": points, "pairs": points * (points + 1) // 2}


# -- spans ---------------------------------------------------------------

class FakeClock:
    """Advances by one tick per reading; `work` advances it further."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now

    def work(self, ticks):
        self.now += ticks


def test_self_time_subtracts_children_and_their_bookkeeping():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf(n):
        clock.work(n)

    leaf_t = tracer.wrap("leaf", leaf, count=lambda n: {"n": n})

    def mid():
        clock.work(10)
        leaf_t(5)
        leaf_t(7)

    mid_t = tracer.wrap("mid", mid)
    mid_t()
    leaf_t(3)
    stats, bookkeeping = spans.summarize(tracer.spans)

    # a wrapper reads the clock at t0, t1, t2, t3: a leaf of n ticks has a
    # span t2 - t1 = n + 1, a wrapper interval t3 - t0 = n + 3, and moves
    # the clock by n + 4 (the t0 reading falls in the caller's self time)
    assert stats["leaf"] == [3, 6 + 8 + 4, 6 + 8 + 4]
    mid_span = 10 + (5 + 4) + (7 + 4) + 1
    assert stats["mid"] == [1, mid_span, mid_span - (5 + 3) - (7 + 3)]
    assert bookkeeping == 4 * 2
    top_wrappers = (mid_span + 2) + (3 + 3)
    assert sum(s[2] for s in stats.values()) + bookkeeping == top_wrappers
    assert tracer.counts == {"leaf.n": 15}


def test_inclusive_time_counts_recursion_once():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def rec(depth):
        clock.work(2)
        if depth:
            rec_t(depth - 1)

    rec_t = tracer.wrap("rec", rec)
    rec_t(2)
    stats, _ = spans.summarize(tracer.spans)
    # spans from the inside out: 2 + 1, 2 + 6 + 1, 2 + 12 + 1
    assert stats["rec"] == [3, 15, 3 + (9 - 5) + (15 - 11)]


def test_install_rebinds_every_alias_and_methods_by_identity():
    def kernel(x):
        return x + 1

    class Box:
        def grow(self):
            return kernel(1)

    defining = types.ModuleType("crown.fake")
    defining.kernel = kernel
    defining.Box = Box
    importer = types.ModuleType("crown.user")
    importer.kernel = kernel
    importer.renamed = kernel
    tracer = spans.Tracer()
    missing = spans.install(
        tracer, {"fake.kernel": None, "fake.Box.grow": None, "fake.gone": None}, [defining, importer]
    )
    assert missing == ["fake.gone"]
    assert defining.kernel is importer.kernel is importer.renamed is not kernel
    assert importer.renamed(1) == 2 and Box().grow() == 2
    assert [rec[spans.NAME] for rec in tracer.spans] == ["fake.kernel", "fake.Box.grow"]


# -- inputs --------------------------------------------------------------

def test_small_graph_inputs_depend_only_on_the_seed_and_keep_their_sizes():
    noniso, recon, functor = workloads.setup("small-graphs", 7)
    _, recon2, functor2 = workloads.setup("small-graphs", 7)
    assert [g for g, _ in recon] == [g for g, _ in recon2]
    assert [g for g, _ in functor] == [g for g, _ in functor2]
    sizes = [(len(g.vertices), g.edge_count, f.p) for g, f in recon]
    assert sizes == [(v, e, p) for v, e, p, k in workloads.RECONSTRUCT_CASES for _ in range(k)]
    assert all(crown.is_admissible(g) for g, _ in recon)
    v, e, p, k = workloads.FUNCTOR_CASE
    assert [(len(g.vertices), g.edge_count, f.p) for g, f in functor] == [(v, e, p)] * k


# -- the output gate -------------------------------------------------------

def test_gate_accepts_a_full_suite_at_level_two():
    config = crown.RunConfig(n=2, field=crown.GF(2))
    units = workloads.run_suite_units(config)
    assert [name for name, _ in units] == list(crown.harness.CHECK_ORDER)
    assert run.failed_units([{"units": units}]) == (8, 0)


def test_gate_counts_units_skipped_by_a_lowered_cap_as_failed():
    # noniso reports PASS with its reconstruction skipped; explore reports
    # "not computed"; iso is skipped outright
    for check, cap in (("noniso", {"max_proj_points": 100}), ("explore", {"max_tensor_dim": 100}),
                       ("iso", {"max_tensor_dim": 10})):
        config = crown.RunConfig(n=2, field=crown.GF(2), checks=(check,), **cap)
        units = workloads.run_suite_units(config)
        assert run.failed_units([{"units": units}]) == (1, 1), units


def test_gate_rejects_wrong_results():
    good = {"check": "lemma", "params": {"n": 3, "field": "fp:2"}, "status": "pass",
            "details": {"powers": {"1": "zero", "2": "zero"}}}
    assert gate.check_problems(good) == []
    wrong = dict(good, details={"powers": {"1": "zero", "2": {"col": [0], "row": [1], "value": "1"}}})
    assert gate.check_problems(wrong)
    assert gate.check_problems(dict(good, status="skipped"))
    iso = {"check": "iso", "params": {"n": 2, "field": "fp:2"}, "status": "pass",
           "details": {"iso": {"status": "PASS"}, "negative_control": {"status": "PASS"}}}
    assert gate.check_problems(iso) == ["negative control did not fail"]
    explore = {"check": "explore", "params": {"n": 3, "field": "rational"}, "status": "info",
               "details": {"components": {"1": "zero", "2": "zero", "3": {"nnz": 1}}}}
    assert gate.check_problems(explore) == ["power-3 family has nnz 1, expected 24576"]
    assert gate.expect_true("functor_check", False)
    assert gate.expect_true("functor_check", True) == []


# -- the benchmark definition ------------------------------------------------

def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [workloads.WHY[w] for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.metric_names()
    names = [m["name"] for m in bench["per_layer"] + bench["end_to_end"]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-graphs", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout
