import hashlib
import json

import pytest

from crown.cli import main
from crown.fields import GF, QQ, parse_field
from crown.harness import (
    CHECK_ORDER,
    CheckReport,
    RunConfig,
    exit_code_for,
    export_objects,
    report_json,
    run_suite,
)


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


def test_lemma_keeps_powers_below_the_cap():
    # at n = 5 the power-4 dimension 94^4 exceeds the stream cap
    (report,) = run_suite(RunConfig(n=5, field=GF(2), checks=("lemma",)))
    powers = report.details["powers"]
    assert [powers[str(p)] for p in (1, 2, 3)] == ["zero"] * 3
    assert powers["4"]["status"] == "skipped"
    assert "cap exceeded" in powers["4"]["reason"]
    assert report.status == "skipped"
    assert "4" in report.details["reason"]


@pytest.mark.parametrize(
    "n, field, components",
    [
        (2, QQ, {"1": "zero", "2": {"first_nonzero": [79, 79, "1"], "nnz": 512}}),
        (2, GF(2), {"1": "zero", "2": {"first_nonzero": [79, 79, "1"], "nnz": 512}}),
        (3, GF(2), {"1": "zero", "2": "zero", "3": {"first_nonzero": [6222, 6222, "1"], "nnz": 24576}}),
    ],
    ids=["2-rational", "2-fp2", "3-fp2"],
)
def test_explore_pins_the_alternating_family(n, field, components):
    # the alternating family vanishes below the level and not at p = n
    (report,) = run_suite(RunConfig(n=n, field=field, checks=("explore",)))
    assert report.status == "info"
    assert report.details["components"] == components


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


def test_cli_verify_level_four_iso_skips_naturality_alone(tmp_path, capsys):
    # 72^3 exceeds the tensor cap: naturality is not attempted, the streamed
    # sub-claims hold, the negative control fails, and iso is skipped, not passed
    path = tmp_path / "report.json"
    rc = main(["verify", "--n", "4", "--field", "fp:2", "--checks", "iso,transport", "--json", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS    transport" in out and "SKIPPED iso" in out
    assert "naturality not attempted" in out
    transport, iso = json.loads(path.read_text())["reports"]
    assert transport["details"]["max_power"] == 3
    assert all(transport["details"][name] for name in ("1", "g1", "h4", "T", "Z"))
    assert iso["status"] == "skipped"
    claims = iso["details"]["iso"]
    assert claims["status"] == "SKIPPED"
    assert claims["natural"]["status"] == "skipped"
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


def test_cli_export(tmp_path, capsys):
    out = tmp_path / "g.json"
    rc = main(["export", "--what", "graphs", "--n", "2", "--out", str(out)])
    assert rc == 0
    assert out.exists()
