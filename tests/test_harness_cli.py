import hashlib
import json

import pytest

from crown import graph_algebra as ga
from crown import graphs, harness, linalg, loday
from crown import monoid as mo
from crown.errors import CapExceeded
from crown.cli import main
from crown.fields import GF, QQ, parse_field
from crown.graphs import graph_new
from crown.harness import (
    CHECK_ORDER,
    DEFAULT_MAX_TENSOR_DIM,
    CheckReport,
    RunConfig,
    exit_code_for,
    export_objects,
    report_json,
    run_suite,
)
from crown.linalg import kron_sum
from crown.loday import cofunctor_eval
from crown.monoid import Word, build_Z
from conftest import bumped_row, family_reference, with_row


def scrub_timing(payload: str) -> str:
    data = json.loads(payload)
    for report in data["reports"]:
        report["elapsed_ms"] = 0
    return json.dumps(data, sort_keys=True, indent=2)


# -- run_suite ----------------------------------------------------------------

def test_full_suite_level_two_passes():
    reports = run_suite(RunConfig(n=2))
    statuses = {r.check: r.status for r in reports}
    assert [r.check for r in reports] == list(CHECK_ORDER)
    for check in ("monoid", "graphs", "lemma", "transport", "iso", "noniso", "functor"):
        assert statuses[check] == "pass", statuses
    assert statuses["explore"] == "info"
    assert exit_code_for(reports) == 0


def test_subset_of_checks_runs_in_canonical_order():
    reports = run_suite(RunConfig(n=2, checks=("iso", "monoid")))
    assert [r.check for r in reports] == ["monoid", "iso"]


def test_crown_checks_skipped_at_level_one():
    reports = run_suite(RunConfig(n=1, checks=("monoid", "iso", "graphs")))
    statuses = {r.check: r.status for r in reports}
    assert statuses["monoid"] == "pass"
    assert statuses["iso"] == "skipped"
    assert statuses["graphs"] == "skipped"
    assert exit_code_for(reports) == 0


def test_reconstruction_downgrades_on_cap():
    reports = run_suite(RunConfig(n=2, checks=("noniso",), max_proj_points=100))
    (report,) = reports
    # the graph-level checks still run, but an unattempted reconstruction
    # must not let the check pass
    assert report.status == "skipped"
    assert report.details["graphs_isomorphic"] is False
    assert report.details["reconstruction"]["status"] == "skipped"
    assert "cap exceeded" in report.details["reason"]


def test_noniso_rebuilds_both_crowns_at_level_three():
    # the certificate rebuilds the level-3 crowns, and the enumeration
    # cross-checks it at level 2 only: well under a second
    (report,) = run_suite(RunConfig(n=3, field=GF(2), checks=("noniso",)))
    assert report.status == "pass", report.details
    recon = report.details["reconstruction"]
    for tag in ("plus", "minus"):
        assert recon[tag] == {"round_trip": True, "vertices": 15}
    assert recon["rebuilt_pair_isomorphic"] is False


@pytest.mark.parametrize("field", ["fp:2", "rational"])
@pytest.mark.parametrize("n", [4, 8, 12])
def test_noniso_passes_by_the_certificate(n, field):
    # no enumeration at level n: the certificate rebuilds both crowns, and
    # the enumeration cross-checks it on the level-2 crowns
    (report,) = run_suite(RunConfig(n=n, field=parse_field(field), checks=("noniso",)))
    assert report.status == "pass", report.details
    recon = report.details["reconstruction"]
    assert recon["method"] == "degree-1 basis certificate"
    assert recon["cross_check"] == {"level": 2, "agrees": True}
    for tag in ("plus", "minus"):
        assert recon[tag] == {"round_trip": True, "vertices": 5 * n}
    assert recon["rebuilt_pair_isomorphic"] is False


@pytest.mark.parametrize("n", [2, 4])
def test_noniso_runs_three_isomorphism_searches(monkeypatch, n):
    # the crown pair and the two round trips; the rebuilt pair is then
    # isomorphic iff the crowns are, and is not searched
    searches = []
    search = graphs.graphs_isomorphic
    monkeypatch.setattr(graphs, "graphs_isomorphic", lambda *args, **kw: searches.append(args) or search(*args, **kw))
    (report,) = run_suite(RunConfig(n=n, field=GF(2), checks=("noniso",)))
    assert report.status == "pass", report.details
    assert len(searches) == 3
    assert report.details["reconstruction"]["rebuilt_pair_isomorphic"] is False


def test_noniso_reports_no_rebuilt_pair_after_a_failed_round_trip(monkeypatch):
    # negative control: a rebuilt crown missing one edge fails its round
    # trip, so the rebuilt pair is not derived from the crowns
    points_graph = ga._points_graph

    def dropping(ag, chosen):
        g = points_graph(ag, chosen)
        return graph_new(g.vertices, list(g.edges())[1:])

    monkeypatch.setattr(ga, "_points_graph", dropping)
    (report,) = run_suite(RunConfig(n=3, field=GF(2), checks=("noniso",)))
    assert report.status == "fail"
    recon = report.details["reconstruction"]
    assert recon["plus"]["round_trip"] is False and recon["minus"]["round_trip"] is False
    assert "rebuilt_pair_isomorphic" not in recon
    assert report.details["failures"] == ["reconstruction round trip (plus)", "reconstruction round trip (minus)"]


def test_noniso_fails_where_the_certificate_disagrees_or_declines(monkeypatch):
    certified = ga._certified_representatives
    # one point dropped: the cross-check disagrees, and the rebuilt crowns lose a vertex
    monkeypatch.setattr(ga, "_certified_representatives", lambda ag: certified(ag)[1:])
    (report,) = run_suite(RunConfig(n=3, field=GF(2), checks=("noniso",)))
    assert report.status == "fail"
    assert report.details["reconstruction"]["cross_check"] == {"level": 2, "agrees": False}
    assert "certificate differs from the enumeration at level 2" in report.details["failures"]
    # a premise failing at level 3 alone: the cross-check agrees, and nothing is rebuilt
    monkeypatch.setattr(ga, "_certified_representatives", lambda ag: None if ag.dim1 == 15 else certified(ag))
    (report,) = run_suite(RunConfig(n=3, field=GF(2), checks=("noniso",)))
    assert report.status == "fail"
    recon = report.details["reconstruction"]
    assert recon["cross_check"] == {"level": 2, "agrees": True}
    assert recon["plus"] == recon["minus"] == {"premise": False}
    assert "rebuilt_pair_isomorphic" not in recon
    assert report.details["failures"] == ["certificate premise fails (plus)", "certificate premise fails (minus)"]


def test_monoid_counts_its_words_at_the_level_asked(monkeypatch):
    # the forward pass counts at n = 9, past the enumeration's cap, which
    # cross-checks it at level 8; T.T + Z = 1 comes from the factored form
    (report,) = run_suite(RunConfig(n=9, field=GF(2), checks=("monoid",)))
    assert report.status == "pass", report.details
    assert report.details["word_count"] == {"n": 9, "count": 39366, "expected": 39366}
    # a level-8 enumeration missing a word fails the cross-check
    enumerate_words = mo.wn_enumerate
    monkeypatch.setattr(mo, "wn_enumerate", lambda n: enumerate_words(n)[n == 8:])
    (report,) = run_suite(RunConfig(n=9, field=GF(2), checks=("monoid",)))
    assert report.details["failures"] == ["word count"]


def test_cli_verify_level_four_skips_nothing(capsys):
    rc = main(["verify", "--n", "4", "--field", "fp:2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "SKIPPED" not in out and "FAIL" not in out
    assert "PASS    noniso" in out


def test_noniso_uses_f2_for_rational_configs():
    (report,) = run_suite(RunConfig(n=2, field=QQ, checks=("noniso",)))
    assert "fp:2" in report.details["reconstruction_field_note"]
    assert report.details["reconstruction"]["plus"]["round_trip"]


def test_prime_field_suite_passes():
    reports = run_suite(RunConfig(n=2, field=GF(2), checks=("monoid", "lemma", "noniso")))
    assert all(r.status == "pass" for r in reports)


def test_graphs_fails_on_a_strip_edge_that_skips_a_column(monkeypatch):
    """x1+ -- x3+ breaks the strip's edge schema: a word with w_3 = -1 and
    w_1 = +1 sends it to x1+ -- x3-, which is not an edge."""
    build_B = graphs.build_B

    def skewed(n):
        b = build_B(n)
        return graph_new(b.vertices, list(b.edges()) + [((1, 1), (3, 1))])

    monkeypatch.setattr(graphs, "build_B", skewed)
    for cache in ("_B_CACHE", "_F_CACHE", "_C_CACHE"):
        monkeypatch.setattr(graphs, cache, {})
    (report,) = run_suite(RunConfig(n=3, field=GF(2), checks=("graphs",)))
    assert report.status == "fail"
    assert report.details["actions_valid"] is False
    assert "word action broke the edge schema" in report.details["failures"]
    assert "(1, 1)" in report.details["action_witness"] and "(3, 1)" in report.details["action_witness"]


@pytest.mark.parametrize("add, drop", [([((2, 1), (4, 1))], []), ([], [((1, 1), (2, 0))])], ids=["added edge", "dropped rung"])
def test_graphs_fails_on_an_added_edge_or_a_dropped_rung(monkeypatch, add, drop):
    """x2+ -- x4+ is broken by the word +++0+++; without the rung x1+ -- x2^0,
    g1 sends the rung x1+ -- x2+ onto a non-edge.  Either way the certificate
    fails, and the generators' maps, which would raise, are not built."""
    build_B = graphs.build_B

    def variant(n):
        b = build_B(n)
        return graph_new(b.vertices, [e for e in b.edges() if e not in drop] + add)

    monkeypatch.setattr(graphs, "build_B", variant)
    for cache in ("_B_CACHE", "_F_CACHE", "_C_CACHE"):
        monkeypatch.setattr(graphs, cache, {})
    (report,) = run_suite(RunConfig(n=3, field=GF(2), checks=("graphs",)))
    assert report.status == "fail"
    assert report.details["actions_valid"] is False
    assert "word action broke the edge schema" in report.details["failures"]
    assert "off_window_identity" not in report.details


@pytest.mark.parametrize("field", [GF(2), QQ], ids=["fp2", "rational"])
@pytest.mark.parametrize("n", [9, 12])
def test_graphs_passes_past_the_word_enumeration_cap(n, field):
    (report,) = run_suite(RunConfig(n=n, field=field, checks=("graphs",)))
    assert report.status == "pass", report.details
    assert report.details["action_mode"] == "per-edge certificate"
    assert report.details["actions_valid"] is True
    text = json.dumps(report.details).lower()
    assert "reason" not in report.details and "skipped" not in text and "not computed" not in text


def test_lemma_passes_under_a_lowered_walk_budget(monkeypatch):
    # the proof trace decides every power with no walk, so a budget of 0,
    # which stops every walk, leaves lemma at n = 5 over F2 passing
    monkeypatch.setattr(linalg, "WALK_BUDGET", 0)
    (report,) = run_suite(RunConfig(n=5, field=GF(2), checks=("lemma",)))
    assert report.status == "pass"
    assert report.details["powers"] == {str(p): "zero" for p in range(1, 5)}
    assert "reason" not in report.details


def test_lemma_starts_no_walk(monkeypatch):
    # the walk still bounds its own work: at n = 5 over F2 its layer 3
    # reaches 4416 work units, over 3000; lemma starts no walk, so the
    # budget does not reach it
    monkeypatch.setattr(linalg, "WALK_BUDGET", 3000)
    with pytest.raises(CapExceeded, match="streamed walk reached 4416 work units, over the budget 3000"):
        loday.lemma_witness(5, 4, GF(2))

    def raising(*args, **kwargs):
        raise AssertionError("lemma started a walk")

    monkeypatch.setattr(linalg, "tensor_sum_prefixes", raising)
    monkeypatch.setattr(loday, "tensor_sum_prefixes", raising)
    (report,) = run_suite(RunConfig(n=5, field=GF(2), checks=("lemma",)))
    assert report.status == "pass"
    assert report.details["powers"] == {str(p): "zero" for p in range(1, 5)}


def test_lemma_fails_with_the_proof_trace(monkeypatch):
    # row 0's weight one more on window 1's matrix of the words without g_1
    # breaks step (ii); the check fails on the trace and reports no powers
    window_action = loday._window_rows

    def bumped(n, i, coords):
        rows = window_action(n, i, coords)
        return bumped_row(rows) if (i, coords) == (1, (1, 1, 1)) else rows

    monkeypatch.setattr(loday, "_window_rows", bumped)
    for field in (QQ, GF(2)):
        (report,) = run_suite(RunConfig(n=3, field=field, checks=("lemma",)))
        assert report.status == "fail"
        assert report.details["failures"] == ["proof trace"]
        assert "powers" not in report.details
        assert report.details["trace"]["intertwining_ok"] is False


def test_run_suite_walks_each_power_family_once(monkeypatch):
    # every family is decided at all of its powers by one walk to its top
    # power, not one walk per power, or by a certificate with no walk
    walks = []
    real = linalg.tensor_sum_prefixes

    def counted(field, family, p):
        walks.append(p)
        return real(field, family, p)

    monkeypatch.setattr(linalg, "tensor_sum_prefixes", counted)
    monkeypatch.setattr(loday, "tensor_sum_prefixes", counted)
    families = {
        "lemma": 0,  # the proof trace decides the alternating family on the strip
        "transport": 0,  # every word's square holds, which proves each element at every power
        # on each sign the Z control's factored family; T's are read off T.T = 1 - Z and
        # the alternating one is certified
        "iso": 2,
        "explore": 1,  # the alternating family on the crown, to p = n
    }
    for check, count in families.items():
        walks.clear()
        (report,) = run_suite(RunConfig(n=3, field=GF(2), checks=(check,)))
        assert report.status in ("pass", "info"), check
        assert walks == [3 if check == "explore" else 2] * count, check


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_every_suite_walk_matches_the_column_walk_oracle(monkeypatch, field):
    # each family the streamed checks walk at n = 2..4 agrees at every
    # power with the column walk over its transposed word matrices
    walks = []
    real = linalg.tensor_sum_prefixes

    def recorded(walk_field, family, p):
        assert walk_field == field
        results = list(real(field, family, p))
        walks.append((family, p, results))
        return iter(results)

    monkeypatch.setattr(linalg, "tensor_sum_prefixes", recorded)
    monkeypatch.setattr(loday, "tensor_sum_prefixes", recorded)
    for n in (2, 3, 4):
        reports = run_suite(RunConfig(n=n, field=field, checks=("lemma", "transport", "iso", "explore")))
        assert [r.status for r in reports] == ["pass", "pass", "pass", "info"], n
    nonzero = 0
    for family, p, results in walks:
        assert results == family_reference(field, family, p)
        nonzero += sum(witness is not None for witness, _ in results)
    assert nonzero >= 4  # explore's top powers at n = 2, 3 and iso's families


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_every_suite_walk_receives_row_maps(monkeypatch, field):
    # every check at n = 2..4 hands the walk (coefficient, row map) pairs,
    # each row map a tuple of None or (column, integer weight), never a Matrix
    walks = []
    real = linalg.tensor_sum_prefixes

    def recorded(walk_field, family, p):
        walks.append(family)
        return real(walk_field, family, p)

    monkeypatch.setattr(linalg, "tensor_sum_prefixes", recorded)
    monkeypatch.setattr(loday, "tensor_sum_prefixes", recorded)
    for n in (2, 3, 4):
        assert harness.exit_code_for(run_suite(RunConfig(n=n, field=field))) == 0, n
    assert walks
    for family in walks:
        assert isinstance(family, list) and family
        for _, rows in family:
            assert isinstance(rows, tuple)
            assert all(e is None or (type(e) is tuple and len(e) == 2 and type(e[1]) is int) for e in rows)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_iso_converts_row_maps_only_to_rank_and_certify(monkeypatch, field):
    # at n = 3 iso makes a Matrix of a row map only for the lemma trace's n
    # stacked window restrictions, the two projections' injectivity ranks
    # and the naturality certificate, one per word of T on each sign,
    # 2 * (2^n - 1): 3 + 2 + 14.  Its walks read the row maps themselves.
    n, calls = 3, []
    real = ga.rows_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ga, "rows_matrix", counted)
    monkeypatch.setattr(loday, "rows_matrix", counted)
    (report,) = run_suite(RunConfig(n=n, field=field, checks=("iso",)))
    assert report.status == "pass"
    assert len(calls) == n + 2 + 2 * (2**n - 1) == 19


def test_lemma_and_transport_decide_every_power_at_level_eight():
    reports = run_suite(RunConfig(n=8, field=GF(2), checks=("lemma", "transport")))
    assert [r.status for r in reports] == ["pass", "pass"]
    assert reports[0].details["powers"] == {str(p): "zero" for p in range(1, 8)}
    assert reports[1].details["max_power"] == 7


def test_graph_size_cap_bounds_only_the_isomorphism_searches():
    # graphs runs no search and enumerates no words: its word actions are proved per edge
    reports = run_suite(RunConfig(n=2, checks=("graphs", "noniso"), max_graph_size=5))
    assert [r.status for r in reports] == ["pass", "skipped"]


def test_one_walk_budget_bounds_every_streamed_check(monkeypatch):
    # transport's sums cancel in the merge, so they do no work, and lemma
    # walks nothing; every other streamed claim walks, and over the budget
    # its check is skipped
    monkeypatch.setattr(linalg, "WALK_BUDGET", 0)
    checks = ("lemma", "transport", "iso", "explore")
    reports = {r.check: r for r in run_suite(RunConfig(n=2, field=GF(2), checks=checks))}
    assert reports["transport"].status == "pass"
    assert reports["lemma"].status == "pass"
    for check in ("iso", "explore"):
        assert reports[check].status == "skipped"
        assert reports[check].details["reason"].startswith("cap exceeded: streamed walk reached ")


@pytest.mark.parametrize("n, power", [(2, 1), (3, 2), (4, 3)])
def test_lemma_reports_the_power_its_trace_replays(n, power):
    # the trace proves every p <= n - 1 and reports its top power, n - 1
    (report,) = run_suite(RunConfig(n=n, field=GF(2), checks=("lemma",)))
    assert report.status == "pass"
    assert list(report.details["powers"]) == [str(p) for p in range(1, n)]
    assert report.details["trace"]["power"] == power


LEVEL_THREE_EXPLORE = {"1": "zero", "2": "zero", "3": {"first_nonzero": [6222, 6222, "1"], "nnz": 24576}}


@pytest.mark.parametrize(
    "n, field, cap, components",
    [
        (2, QQ, DEFAULT_MAX_TENSOR_DIM, {"1": "zero", "2": {"first_nonzero": [79, 79, "1"], "nnz": 512}}),
        (2, GF(2), DEFAULT_MAX_TENSOR_DIM, {"1": "zero", "2": {"first_nonzero": [79, 79, "1"], "nnz": 512}}),
        (3, GF(2), DEFAULT_MAX_TENSOR_DIM, LEVEL_THREE_EXPLORE),
        (3, QQ, DEFAULT_MAX_TENSOR_DIM, LEVEL_THREE_EXPLORE),
        (4, GF(2), 72**4, {
            "1": "zero", "2": "zero", "3": "zero",
            "4": {"first_nonzero": [783665, 783665, "1"], "nnz": 1572864},
        }),
    ],
    ids=["2-rational", "2-fp2", "3-fp2", "3-rational", "4-fp2"],
)
def test_explore_pins_the_alternating_family(n, field, cap, components):
    # the alternating family vanishes below the level and not at p = n
    (report,) = run_suite(RunConfig(n=n, field=field, checks=("explore",), max_tensor_dim=cap))
    assert report.status == "info"
    assert report.details["components"] == components


def materialized_explore(n, field):
    """The explore components read off the materialized alternating family."""
    family = cofunctor_eval(n, n, build_Z(n, field), 1, 1, target="C")
    components = {}
    for p in range(1, n + 1):
        m = family.components[p]
        if m.is_zero():
            components[str(p)] = "zero"
        else:
            r, c, v = m.to_triples()[0]
            components[str(p)] = {"first_nonzero": [r, c, str(v)], "nnz": m.nnz()}
    return components


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
@pytest.mark.parametrize("n", [2, 3])
def test_explore_matches_the_materialized_family(n, field):
    # the streamed first entry and nonzero count against the built family
    (report,) = run_suite(RunConfig(n=n, field=field, checks=("explore",)))
    assert report.details["components"] == materialized_explore(n, field)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_explore_reads_an_asymmetric_family_row_major(monkeypatch, field):
    # One alternating word, the identity (coefficient 1), gets row 1's
    # weight one more and row 2 sent from column 2 to column 0, so at p = 1
    # the family is exactly +(1, 1), +(2, 0) and -(2, 2): row-major order
    # puts (1, 1) first and column-major order (2, 0).  The pinned families
    # have their first entry on the diagonal and cannot tell the two orders apart.
    action = loday._action_rows
    word = min(build_Z(2, field).terms, key=Word.sort_key)
    assert word == Word.identity(2)

    def perturbed(n, w, s, target):
        rows = action(n, w, s, target)
        if target != "C" or w != word:
            return rows
        return with_row(bumped_row(rows, 1), 2, (0, 1))

    monkeypatch.setattr(loday, "_action_rows", perturbed)
    (report,) = run_suite(RunConfig(n=2, field=field, checks=("explore",)))
    assert report.details["components"]["1"] == {"first_nonzero": [1, 1, "1"], "nnz": 3}
    assert report.details["components"] == materialized_explore(2, field)


def test_explore_materializes_nothing(monkeypatch):
    # cofunctor_eval is never called, and no Kronecker sum wider than one
    # column is built, so no operator of width dim^p
    def raising(*args, **kwargs):
        raise AssertionError("explore materialized a family")

    widths = []

    def recording(terms):
        m = kron_sum(terms)
        widths.append(m.ncols)
        return m

    monkeypatch.setattr(loday, "cofunctor_eval", raising)
    monkeypatch.setattr(linalg, "kron_sum", recording)
    (report,) = run_suite(RunConfig(n=3, field=QQ, checks=("explore",)))
    assert report.details["components"] == LEVEL_THREE_EXPLORE
    assert all(width <= 1 for width in widths)
    (capped,) = run_suite(RunConfig(n=2, field=GF(2), checks=("explore",), max_tensor_dim=100))
    assert capped.status == "info" and "not computed" in capped.details["note"]


def test_iso_control_attempts_no_naturality(monkeypatch):
    # only the twist element's word matrices reach the naturality
    # certificate, 3 per sign at n = 2, and no square is materialized; the
    # report of the control is its status and streamed witnesses, as before
    calls = []
    certify = loday.is_multiplicative

    def counting(source, target, m):
        calls.append(m)
        return certify(source, target, m)

    def raising(*args, **kwargs):
        raise AssertionError("naturality square materialized")

    monkeypatch.setattr(loday, "is_multiplicative", counting)
    monkeypatch.setattr(loday, "_LodayCache", raising)
    (report,) = run_suite(RunConfig(n=2, field=QQ, checks=("iso",)))
    assert report.status == "pass" and len(calls) == 2 * 3
    assert report.details["negative_control"] == {
        "status": "FAIL",
        "witness": {
            "inverse": "composite on sign 1 differs at power 1",
            "factored": "composite on sign 1 power 1 breaks the factored identity",
        },
    }


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        run_suite(RunConfig(n=2, checks=("nosuch",)))
    with pytest.raises(ValueError):
        run_suite(RunConfig(n=0))
    with pytest.raises(ValueError):
        run_suite(RunConfig(n=2, max_tensor_dim=0))


def test_exit_code_logic():
    ok = CheckReport("monoid", {}, "pass", {}, 1)
    bad = CheckReport("iso", {}, "fail", {}, 1)
    info = CheckReport("explore", {}, "info", {}, 1)
    skip = CheckReport("noniso", {}, "skipped", {}, 1)
    assert exit_code_for([ok, info, skip]) == 0
    assert exit_code_for([ok, bad]) == 1


@pytest.mark.parametrize(
    "check, failures, skip_reason, status, added",
    [
        ("monoid", ["broken"], "not attempted", "fail", {"failures": ["broken"]}),
        ("monoid", [], "not attempted", "skipped", {"reason": "not attempted"}),
        ("monoid", [], None, "pass", {}),
        ("explore", [], None, "info", {}),
    ],
)
def test_run_suite_alone_picks_the_status(monkeypatch, check, failures, skip_reason, status, added):
    # a check returns what failed and why something was not attempted;
    # failures win over a skip, and a skip over a pass
    monkeypatch.setitem(harness._CHECKS, check, lambda config: ({"seen": True}, list(failures), skip_reason))
    (report,) = run_suite(RunConfig(n=2, checks=(check,)))
    assert report.status == status
    assert report.details == {"seen": True, **added}


def test_run_suite_turns_a_raised_cap_into_skipped(monkeypatch):
    def capped(config):
        raise CapExceeded("level 9 exceeds cap 8")

    monkeypatch.setitem(harness._CHECKS, "monoid", capped)
    (report,) = run_suite(RunConfig(n=2, checks=("monoid",)))
    assert report.status == "skipped"
    assert report.details == {"reason": "cap exceeded: level 9 exceeds cap 8"}


def test_report_json_deterministic_modulo_timing():
    cfg = RunConfig(n=2, checks=("monoid", "graphs", "lemma", "iso"))
    first = report_json(cfg, run_suite(cfg))
    second = report_json(cfg, run_suite(cfg))
    assert scrub_timing(first) == scrub_timing(second)
    data = json.loads(first)
    assert data["version"] == 1
    assert data["config"]["n"] == 2


# -- exports ------------------------------------------------------------------

def test_export_graphs(tmp_path):
    cfg = RunConfig(n=2)
    path = tmp_path / "graphs.json"
    export_objects(cfg, "graphs", str(path))
    data = json.loads(path.read_text())
    assert len(data["crown_plus"]["vertices"]) == 10
    assert len(data["crown_plus"]["edges"]) == 16
    assert len(data["strip"]["vertices"]) == 12


def test_export_algebras(tmp_path):
    cfg = RunConfig(n=2)
    path = tmp_path / "algebras.json"
    export_objects(cfg, "algebras", str(path))
    data = json.loads(path.read_text())
    assert len(data["crown_plus"]["basis"]) == 36
    assert len(data["strip"]["basis"]) == 40


def test_export_nat_trans(tmp_path):
    cfg = RunConfig(n=2)
    path = tmp_path / "nt.json"
    export_objects(cfg, "nat_trans", str(path))
    data = json.loads(path.read_text())
    assert data["twist_family"]["r"] == 1
    assert data["twist_family"]["dims"] == [36, 36]


def test_export_is_byte_deterministic(tmp_path):
    cfg = RunConfig(n=2)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    export_objects(cfg, "matrices", str(a))
    export_objects(cfg, "matrices", str(b))
    assert a.read_bytes() == b.read_bytes()


# sha256 of the exported files at n = 2; the content must not drift
EXPORT_SHA256 = {
    ("algebras", "rational"): "208f91425c3474cb8fb275b8a6e253f8069d8e22035321848346edd3b7b648e1",
    ("matrices", "rational"): "2b41f6e99b1c702b0380a99c74bdfd2130b724ff6399a9f9112cae05a628259b",
    ("nat_trans", "rational"): "89bb66a3823459fbec7ba15345e6eed4849268a7738512fb4d6eef5431bd5ce5",
    ("algebras", "fp:2"): "abb81f86deb7f8e717fbed5dd3fa7612c223ebd9408adccf95aace0a1f092b43",
    ("matrices", "fp:2"): "7b437e60c8c50febc0ba17bf590711770d78cd6b63b0a658e70617226ab7967b",
    ("nat_trans", "fp:2"): "f34801d2962ec4873d7d66aed3429dde0e196365ce42ce67c9d34f9d37d1efd3",
}


@pytest.mark.parametrize("what,field", sorted(EXPORT_SHA256))
def test_export_content_is_pinned(tmp_path, what, field):
    path = tmp_path / "export.json"
    export_objects(RunConfig(n=2, field=parse_field(field)), what, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_SHA256[(what, field)]


def test_export_unknown_kind(tmp_path):
    with pytest.raises(ValueError):
        export_objects(RunConfig(n=2), "pictures", str(tmp_path / "x.json"))


# -- CLI ----------------------------------------------------------------------

def test_cli_verify_exit_zero(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc = main(["verify", "--n", "2", "--checks", "monoid,graphs", "--json", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    data = json.loads(path.read_text())
    assert {r["check"] for r in data["reports"]} == {"monoid", "graphs"}


def test_cli_verify_skips_at_level_one(capsys):
    rc = main(["verify", "--n", "1", "--checks", "iso"])
    assert rc == 0
    assert "SKIPPED" in capsys.readouterr().out.upper()


def test_cli_verify_skips_noniso_above_the_point_cap(capsys):
    # the certificate's cross-check enumerates the level-2 crowns, 2^10
    # degree-1 vectors each: over a lowered cap it is not attempted, and
    # the skip is reported with exit 0
    rc = main(["verify", "--n", "4", "--field", "fp:2", "--checks", "noniso", "--max-proj-points", "100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "SKIPPED noniso" in out
    assert "2^10 projective vectors exceed cap 100" in out


def test_cli_verify_level_four_iso_passes(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc = main(["verify", "--n", "4", "--field", "fp:2", "--checks", "iso", "--json", str(path)])
    assert rc == 0
    assert "PASS    iso" in capsys.readouterr().out
    (iso,) = json.loads(path.read_text())["reports"]
    assert iso["status"] == "pass" and iso["details"]["iso"]["status"] == "PASS"
    assert iso["details"]["iso"]["natural"] == {"certified": {"status": "pass"}}
    assert iso["details"]["negative_control"]["status"] == "FAIL"


def test_cli_verify_level_four_iso_skips_naturality_alone(tmp_path, capsys):
    # the cap bounds only iso's crown word matrices: a cap between the crown
    # dimension 72 and 72^2 leaves it passing, with the certificate, the
    # streamed sub-claims and the failing negative control; a cap below 72
    # skips iso before any work, and transport, which materializes
    # nothing, passes under both
    path = tmp_path / "report.json"
    rc = main(["verify", "--n", "4", "--field", "fp:2", "--checks", "iso,transport", "--max-tensor-dim", "5000",
               "--json", str(path)])
    assert rc == 0
    assert "PASS    transport" in capsys.readouterr().out
    transport, iso = json.loads(path.read_text())["reports"]
    assert transport["details"]["max_power"] == 3
    assert all(transport["details"][name] for name in ("1", "g1", "h4", "T", "Z"))
    assert iso["status"] == "pass"
    claims = iso["details"]["iso"]
    assert claims["status"] == "PASS"
    assert claims["natural"] == {"certified": {"status": "pass"}}
    assert claims["mutually_inverse"] and claims["factored_identity"] and claims["alternating_family_zero"]
    assert iso["details"]["negative_control"]["status"] == "FAIL"

    rc = main(["verify", "--n", "4", "--field", "fp:2", "--checks", "iso,transport", "--max-tensor-dim", "50",
               "--json", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS    transport" in out and "SKIPPED iso" in out
    transport, iso = json.loads(path.read_text())["reports"]
    assert transport["status"] == "pass"
    assert iso["status"] == "skipped"
    assert iso["details"] == {"reason": "cap exceeded: tensor dimension 72^1 exceeds cap 50"}


def test_cli_rejects_bad_usage(capsys):
    assert main(["verify", "--field", "float32"]) == 2
    assert main(["nosuchcommand"]) == 2
    assert main(["verify", "--checks", "nosuch"]) == 2


@pytest.mark.parametrize("command", [
    ["verify", "--n", "2", "--json"],
    ["export", "--what", "graphs", "--n", "2", "--out"],
])
def test_cli_rejects_an_unwritable_output_before_any_work(monkeypatch, tmp_path, capsys, command):
    # a missing directory, or a directory as the file, is a usage error
    # (exit 2) named before any check runs or any object is built
    def raising(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(harness, "run_suite", raising)
    monkeypatch.setattr(harness, "export_objects", raising)
    for path in (tmp_path / "no" / "such" / "r.json", tmp_path):
        assert main(command + [str(path)]) == 2
        assert f"error: cannot write {path}" in capsys.readouterr().err


def test_cli_reports_a_cap_as_an_error(tmp_path, capsys):
    out = tmp_path / "nt.json"
    rc = main(["export", "--what", "nat_trans", "--n", "3", "--out", str(out), "--max-tensor-dim", "10"])
    assert rc == 2
    assert "error: tensor dimension 54^2 exceeds cap 10" in capsys.readouterr().err
    assert not out.exists()


def test_cli_info(capsys):
    rc = main(["info", "--n", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "|W_2| = 18" in out
    assert "12 vertices" in out


def test_cli_info_above_the_level_cap(capsys):
    # info prints the count 2*3^n; only the monoid check enumerates the words
    rc = main(["info", "--n", "9"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "|W_9| = 39366 sign words" in out
    assert "47 vertices" in out


def test_cli_export(tmp_path, capsys):
    out = tmp_path / "g.json"
    rc = main(["export", "--what", "graphs", "--n", "2", "--out", str(out)])
    assert rc == 0
    assert out.exists()
