import hashlib
import json
import sys

import pytest

from crown import harness, linalg, loday
from crown.errors import CapExceeded
from crown.cli import main
from crown.fields import GF, QQ, parse_field
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
from crown.linalg import Matrix, kron_sum
from crown.loday import cofunctor_eval, naturality_witness
from crown.monoid import Word, build_Z


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
    # 2^15 degree-1 vectors per crown, exactly the default point cap;
    # about 10 s on a 2-core machine
    (report,) = run_suite(RunConfig(n=3, field=GF(2), checks=("noniso",)))
    assert report.status == "pass", report.details
    recon = report.details["reconstruction"]
    for tag in ("plus", "minus"):
        assert recon[tag] == {"round_trip": True, "vertices": 15}
    assert recon["rebuilt_pair_isomorphic"] is False


def test_noniso_uses_f2_for_rational_configs():
    (report,) = run_suite(RunConfig(n=2, field=QQ, checks=("noniso",)))
    assert "fp:2" in report.details["reconstruction_field_note"]
    assert report.details["reconstruction"]["plus"]["round_trip"]


def test_prime_field_suite_passes():
    reports = run_suite(RunConfig(n=2, field=GF(2), checks=("monoid", "lemma", "noniso")))
    assert all(r.status == "pass" for r in reports)


def test_lemma_keeps_powers_below_the_cap(monkeypatch):
    # at n = 5 over F2 the walk takes 69 184 work units at p = 3 and
    # 147 392 at p = 4, so a budget of 100 000 stops p = 4 alone
    monkeypatch.setattr(linalg, "WALK_BUDGET", 100_000)
    (report,) = run_suite(RunConfig(n=5, field=GF(2), checks=("lemma",)))
    powers = report.details["powers"]
    assert [powers[str(p)] for p in (1, 2, 3)] == ["zero"] * 3
    assert powers["4"]["status"] == "skipped"
    assert powers["4"]["reason"].startswith("cap exceeded: streamed walk reached ")
    assert report.status == "skipped"
    assert report.details["reason"] == "walk budget exceeded at powers 4"


def test_lemma_skips_the_powers_above_an_exceeded_budget_unwalked(monkeypatch):
    # one walk decides every power and stops where its work crosses the
    # budget: at n = 5 over F2, layer 3 reaches 69 184 work units, over 50 000
    monkeypatch.setattr(linalg, "WALK_BUDGET", 50_000)
    reason = "cap exceeded: streamed walk reached 69184 work units, over the budget 50000"
    with pytest.raises(CapExceeded) as exc:
        loday.lemma_witness(5, 4, GF(2))
    assert f"cap exceeded: {exc.value}" == reason
    walks = []  # (p, the results yielded) of each walk that loday starts
    real = loday.tensor_sum_prefixes

    def observed(terms, p):
        yielded = []
        walks.append((p, yielded))
        for result in real(terms, p):
            yielded.append(result)
            yield result

    monkeypatch.setattr(loday, "tensor_sum_prefixes", observed)
    (report,) = run_suite(RunConfig(n=5, field=GF(2), checks=("lemma",)))
    # started once, to p = 4; it yields p = 1, 2 and stops at layer 3
    assert [(p, len(yielded)) for p, yielded in walks] == [(4, 2)]
    powers = report.details["powers"]
    assert [powers["1"], powers["2"]] == ["zero", "zero"]
    assert powers["3"] == powers["4"] == {"status": "skipped", "reason": reason}
    assert report.details["reason"] == "walk budget exceeded at powers 3, 4"


def test_run_suite_walks_each_power_family_once(monkeypatch):
    # every family is decided at all of its powers by one walk to its top
    # power, not one walk per power; the proof trace's summands, one walk
    # each, are not counted
    walks = []
    real = linalg.tensor_sum_prefixes

    def counted(terms, p):
        if sys._getframe(1).f_code.co_name != "tensor_product_sum_witness":
            walks.append(p)
        return real(terms, p)

    monkeypatch.setattr(linalg, "tensor_sum_prefixes", counted)
    monkeypatch.setattr(loday, "tensor_sum_prefixes", counted)
    families = {
        "lemma": 1,  # the alternating family on the strip
        "transport": 9,  # the elements 1, g1..g3, h1..h3, T and Z
        "iso": 8,  # T and the Z control: alternating and factored on each sign
        "explore": 1,  # the alternating family on the crown, to p = n
    }
    for check, count in families.items():
        walks.clear()
        (report,) = run_suite(RunConfig(n=3, field=GF(2), checks=(check,)))
        assert report.status in ("pass", "info"), check
        assert walks == [3 if check == "explore" else 2] * count, check


def test_graph_size_cap_bounds_only_the_isomorphism_searches():
    # graphs runs no search; the level cap bounds its word actions
    reports = run_suite(RunConfig(n=2, checks=("graphs", "noniso"), max_graph_size=5))
    assert [r.status for r in reports] == ["pass", "skipped"]


def test_one_walk_budget_bounds_every_streamed_check(monkeypatch):
    # transport's sums cancel in the merge, so they do no work; every
    # other streamed claim walks, and over the budget its check is skipped
    monkeypatch.setattr(linalg, "WALK_BUDGET", 0)
    checks = ("lemma", "transport", "iso", "explore")
    reports = {r.check: r for r in run_suite(RunConfig(n=2, field=GF(2), checks=checks))}
    assert reports["transport"].status == "pass"
    assert reports["lemma"].details["reason"] == "walk budget exceeded at powers 1"
    for check in ("iso", "explore"):
        assert reports[check].status == "skipped"
        assert reports[check].details["reason"].startswith("cap exceeded: streamed walk reached ")


@pytest.mark.parametrize("n, power", [(2, 1), (3, 2), (4, 2)])
def test_lemma_reports_the_power_its_trace_replays(n, power):
    # the zero test covers every p <= n - 1, the trace only p = min(n - 1, 2)
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
    # One alternating word gains entries (0, 2) and (1, 1), so at p = 1 the
    # family is exactly those two: row-major order puts (0, 2) first and
    # column-major order (1, 1).  The pinned families have their first
    # entry on the diagonal and cannot tell the two orders apart.
    action = loday._action_matrix
    word = min(build_Z(2, field).terms, key=Word.sort_key)

    def perturbed(n, w, s, target, field):
        m = action(n, w, s, target, field)
        if target != "C" or w != word:
            return m
        return m + Matrix.from_entries(field, m.nrows, m.ncols, [(0, 2, 1), (1, 1, 1)])

    monkeypatch.setattr(loday, "_action_matrix", perturbed)
    (report,) = run_suite(RunConfig(n=2, field=field, checks=("explore",)))
    assert report.details["components"]["1"] == {"first_nonzero": [0, 2, "1"], "nnz": 2}
    assert report.details["components"] == materialized_explore(2, field)


def test_explore_materializes_nothing(monkeypatch):
    # cofunctor_eval is never called, and every Kronecker sum built is one
    # witness column of the p = n family, never an operator of width dim^p
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
    assert widths and max(widths) == 1
    (capped,) = run_suite(RunConfig(n=2, field=GF(2), checks=("explore",), max_tensor_dim=100))
    assert capped.status == "info" and "not computed" in capped.details["note"]


def test_iso_control_attempts_no_naturality(monkeypatch):
    # only the twist element's two families reach naturality; the report
    # of the control is its status and streamed witnesses, as before
    calls = []

    def counting(eta, cap):
        calls.append(eta)
        return naturality_witness(eta, cap)

    monkeypatch.setattr(loday, "naturality_witness", counting)
    (report,) = run_suite(RunConfig(n=2, field=QQ, checks=("iso",)))
    assert report.status == "pass" and len(calls) == 2
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
    # 2^20 degree-1 vectors at n = 4: not attempted, reported, exit 0
    rc = main(["verify", "--n", "4", "--field", "fp:2", "--checks", "noniso"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "SKIPPED noniso" in out
    assert "2^20 projective vectors exceed cap 32768" in out


def test_cli_verify_level_four_iso_passes(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc = main(["verify", "--n", "4", "--field", "fp:2", "--checks", "iso", "--json", str(path)])
    assert rc == 0
    assert "PASS    iso" in capsys.readouterr().out
    (iso,) = json.loads(path.read_text())["reports"]
    assert iso["status"] == "pass" and iso["details"]["iso"]["status"] == "PASS"
    assert iso["details"]["iso"]["natural"] == {"certified": {"status": "pass"}, "squares_p_le_2": {"status": "pass"}}
    assert iso["details"]["negative_control"]["status"] == "FAIL"


def test_cli_verify_level_four_iso_skips_naturality_alone(tmp_path, capsys):
    # 72^2 exceeds the lowered tensor cap: the p <= 2 squares are not
    # attempted, the certificate and the streamed sub-claims hold, the
    # negative control fails, and iso is skipped, not passed
    path = tmp_path / "report.json"
    rc = main(["verify", "--n", "4", "--field", "fp:2", "--checks", "iso,transport", "--max-tensor-dim", "5000",
               "--json", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS    transport" in out and "SKIPPED iso" in out
    assert "naturality squares at p <= 2 not attempted" in out
    transport, iso = json.loads(path.read_text())["reports"]
    assert transport["details"]["max_power"] == 3
    assert all(transport["details"][name] for name in ("1", "g1", "h4", "T", "Z"))
    assert iso["status"] == "skipped"
    claims = iso["details"]["iso"]
    assert claims["status"] == "SKIPPED"
    assert claims["natural"]["certified"] == {"status": "pass"}
    assert claims["natural"]["squares_p_le_2"]["status"] == "skipped"
    assert claims["mutually_inverse"] and claims["factored_identity"] and claims["alternating_family_zero"]
    assert iso["details"]["negative_control"]["status"] == "FAIL"


def test_cli_rejects_bad_usage(capsys):
    assert main(["verify", "--field", "float32"]) == 2
    assert main(["nosuchcommand"]) == 2
    assert main(["verify", "--checks", "nosuch"]) == 2


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
