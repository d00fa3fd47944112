"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test prints a single ACCEPTANCE line (visible with `pytest -s` or in
captured output on failure) and enforces the stated runtime budget where
one applies.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from crown.fields import GF, QQ
from crown.graph_algebra import cover_injectivity, q_ungraded, reconstruct_graph
from crown.graphs import (
    act_on_B,
    build_B,
    build_C,
    build_F,
    graphs_isomorphic,
    is_admissible,
    is_cover,
    is_triangle_free,
    min_valency,
    valency2_cycle_count,
)
from crown.harness import RunConfig, report_json, run_suite
from crown.loday import (
    functor_check,
    iso_check,
    lemma_check,
    lemma_proof_trace,
    transport_square_check,
)
from crown.monoid import (
    MonoidAlgElem,
    build_T,
    build_Z,
    check_T_squared,
    gen_g,
    gen_h,
    wn_enumerate,
)
from conftest import random_graph

FIELDS = (QQ, GF(2), GF(5))


@pytest.fixture
def criterion(capsys):
    """One pass/fail line per criterion, shown even under output capture."""

    @contextmanager
    def _criterion(num, name, budget_s=None):
        t0 = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            elapsed = time.perf_counter() - t0
            budget = f" (budget {budget_s}s)" if budget_s else ""
            line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} in {elapsed:.2f}s{budget}"
            with capsys.disabled():
                print(f"\n{line}", flush=True)
        if budget_s is not None:
            assert elapsed <= budget_s, f"runtime {elapsed:.1f}s exceeded budget {budget_s}s"

    return _criterion


def test_criterion_1_monoid_identity(criterion):
    with criterion(1, "square identity and word counts", budget_s=5):
        for n in range(1, 7):
            assert len(wn_enumerate(n)) == 2 * 3**n
            for field in FIELDS:
                assert check_T_squared(n, field)


def test_criterion_2_strip_schema_suite(criterion):
    with criterion(2, "strip edge-schema suite, n = 2..4", budget_s=30):
        for n in (2, 3, 4):
            b = build_B(n)
            assert len(b.vertices) == 5 * n + 2 and b.edge_count == 8 * n
            # (a) every word acts as an endomorphism
            for w in wn_enumerate(n):
                act_on_B(n, w)
            # (b) the windows cover the strip
            incls = [build_F(n, i)[1] for i in range(1, n + 1)]
            assert is_cover(incls)
            # (c) the idempotent generators act trivially off their window
            for i in range(1, n + 1):
                act = act_on_B(n, gen_g(n, i))
                for i_prime in range(1, n + 1):
                    if i_prime == i:
                        continue
                    window = build_F(n, i_prime)[0]
                    assert all(act.mapping[v] == v for v in window.vertices)
            # (d) crowns are triangle-free, pendant-free, admissible
            for s in (1, -1):
                c, proj = build_C(n, s)
                assert is_triangle_free(c)
                assert min_valency(c) >= 2
                assert is_admissible(c)
                assert is_cover([proj])
            # (e) valency-2 cycle structure distinguishes the crowns
            plus = valency2_cycle_count(build_C(n, 1)[0])
            minus = valency2_cycle_count(build_C(n, -1)[0])
            assert plus.count == 2 and plus.all_cycles
            assert minus.count == 1 and minus.all_cycles


def test_criterion_3_annihilation(criterion):
    with criterion(3, "annihilation below the level, n = 2, 3"):
        for n in (2, 3):
            for field in (QQ, GF(2)):
                for p in range(1, n):
                    assert lemma_check(n, p, field)
            trace = lemma_proof_trace(n, n - 1, QQ)
            assert trace.e1_cols == 18 * n + 4
            assert trace.e1_rank == 18 * n + 4  # full column rank
            assert trace.left_inverse_verified
            assert trace.ep_rank == (18 * n + 4) ** (n - 1)
            assert trace.ep_full_column_rank
            assert trace.intertwining_ok
            assert trace.off_window_identity_ok
            assert trace.missing_index_always_exists
            assert trace.summand_annihilation_ok


def test_criterion_3_optional_level_four(criterion):
    # optional in the exit criteria; the prefix-state kernel makes it cheap
    with criterion(3, "annihilation at level 4 over the rationals and fp:2", budget_s=600):
        for field in (QQ, GF(2)):
            for p in (1, 2, 3):
                assert lemma_check(4, p, field)


def test_criterion_3_optional_levels_five_and_six(criterion):
    # every power, within the streamed walk's work budget
    with criterion(3, "annihilation at levels 5 and 6 over fp:2, every power", budget_s=60):
        for n in (5, 6):
            for p in range(1, n):
                assert lemma_check(n, p, GF(2))


def test_criterion_4_crown_isomorphism_level_two(criterion):
    with criterion(4, "mutual inverses at n = 2 over the rationals", budget_s=5):
        report = iso_check(2, QQ)
        assert report.status == "PASS"
        assert report.certified_ok and report.inverse_ok
        control = report.control
        assert control.status == "FAIL"


def test_criterion_4_crown_isomorphism_level_three(criterion):
    with criterion(4, "mutual inverses at n = 3 over fp:2", budget_s=300):
        report = iso_check(3, GF(2))
        assert report.status == "PASS"
        assert report.certified_ok and report.inverse_ok
        assert report.z_component_zero and report.factored_identity_ok


def test_criterion_4_optional_level_five_streamed_sub_claims(criterion):
    # naturality is certified word by word, at every power
    with criterion(4, "mutual inverses at n = 5 over fp:2, naturality certified", budget_s=120):
        report = iso_check(5, GF(2))
        assert report.inverse_ok and report.factored_identity_ok and report.z_component_zero
        assert report.certified_ok and report.status == "PASS"


def test_criterion_5_non_isomorphism(criterion):
    with criterion(5, "crown non-isomorphism and reconstruction", budget_s=120):
        for n in range(2, 7):
            assert not graphs_isomorphic(build_C(n, 1)[0], build_C(n, -1)[0])
            plus = valency2_cycle_count(build_C(n, 1)[0])
            minus = valency2_cycle_count(build_C(n, -1)[0])
            assert (plus.count, minus.count) == (2, 1)
        rebuilt = {}
        for s in (1, -1):
            crown = build_C(2, s)[0]
            rebuilt[s] = reconstruct_graph(q_ungraded(crown, GF(2)))
            assert graphs_isomorphic(crown, rebuilt[s])
        assert not graphs_isomorphic(rebuilt[1], rebuilt[-1])


def test_criterion_6_functor_and_cover_properties(criterion):
    with criterion(6, "functor laws and cover injectivity", budget_s=120):
        rng = random.Random(20240)
        for _ in range(20):
            g = random_graph(rng, max_vertices=6)
            assert functor_check(q_ungraded(g, GF(5)), 3)
        for n in (2, 3):
            incls = [build_F(n, i)[1] for i in range(1, n + 1)]
            assert cover_injectivity(incls, QQ)
            for s in (1, -1):
                assert cover_injectivity([build_C(n, s)[1]], QQ)


def test_criterion_7_transport_squares(criterion):
    with criterion(7, "transport squares at n = 2, 3 and every power p <= n - 1"):
        f = QQ
        for n in (2, 3):
            cases = [
                ("1", MonoidAlgElem.one(f, n), 1, 1),
                ("g1", MonoidAlgElem.from_word(f, gen_g(n, 1)), 1, 1),
                ("g2", MonoidAlgElem.from_word(f, gen_g(n, 2)), 1, 1),
                ("h1", MonoidAlgElem.from_word(f, gen_h(n, 1)), 1, -1),
                ("h2", MonoidAlgElem.from_word(f, gen_h(n, 2)), 1, -1),
                ("T", build_T(n, f), -1, 1),
                ("Z", build_Z(n, f), 1, 1),
            ]
            for name, x, s, t in cases:
                assert transport_square_check(n, n - 1, x, s, t), name


def test_criterion_8_determinism(criterion):
    with criterion(8, "byte-identical reports modulo timing"):
        cfg = RunConfig(n=2)
        first = report_json(cfg, run_suite(cfg))
        second = report_json(cfg, run_suite(cfg))

        def scrub(payload):
            data = json.loads(payload)
            for rep in data["reports"]:
                rep["elapsed_ms"] = 0
            return json.dumps(data, sort_keys=True)

        assert scrub(first) == scrub(second)
