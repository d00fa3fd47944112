"""The output gate: which results count as correct.

The gate checks the facts the paper fixes, not the layout of a report,
so extra keys or finer sub-results do not break it.  A unit fails when a
fact is missing or wrong, when its status is `skipped`, or when any
sub-result anywhere in its details is reported as skipped or not
computed.
"""

from __future__ import annotations

# nnz of the alternating family one power above the theorem (n = 3, over Q),
# as computed by the explore check at the seed commit
EXPLORE_NNZ = {(3, "rational"): 24576}

_SKIP_MARKERS = ("skipped", "not computed")


def skip_markers(value, path="details"):
    """Paths of every sub-result reported as skipped or not computed."""
    found = []
    if isinstance(value, dict):
        for key, sub in value.items():
            if str(key).lower() in _SKIP_MARKERS:
                found.append(f"{path}.{key}")
            found.extend(skip_markers(sub, f"{path}.{key}"))
    elif isinstance(value, (list, tuple)):
        for i, sub in enumerate(value):
            found.extend(skip_markers(sub, f"{path}[{i}]"))
    elif isinstance(value, str) and any(m in value.lower() for m in _SKIP_MARKERS):
        found.append(path)
    return found


def _is_zero(result):
    if isinstance(result, dict):
        return str(result.get("status", "")).lower() in ("pass", "zero")
    return result == "zero"


def _status(value):
    return str(value.get("status", "")).lower() if isinstance(value, dict) else ""


def check_problems(report):
    """Problems with one check report (a `CheckReport.to_json_dict()`)."""
    name = report["check"]
    n = report["params"]["n"]
    field = report["params"]["field"]
    details = report["details"]
    expected = "info" if name == "explore" else "pass"
    problems = []
    if report["status"] != expected:
        problems.append(f"status {report['status']!r}, expected {expected!r}")
    problems.extend(f"{path} reports a skip" for path in skip_markers(details))
    if name == "lemma":
        powers = details.get("powers", {})
        for p in range(1, n):
            if not _is_zero(powers.get(str(p))):
                problems.append(f"alternating sum not certified zero at power {p}")
    elif name == "iso":
        if _status(details.get("iso")) != "pass":
            problems.append("crown isomorphism not certified")
        if _status(details.get("negative_control")) != "fail":
            problems.append("negative control did not fail")
    elif name == "noniso":
        recon = details.get("reconstruction", {})
        for tag in ("plus", "minus"):
            if (recon.get(tag) or {}).get("round_trip") is not True:
                problems.append(f"reconstruction of the {tag} crown did not round-trip")
        if recon.get("rebuilt_pair_isomorphic") is not False:
            problems.append("rebuilt crown pair not shown non-isomorphic")
    elif name == "explore":
        comps = details.get("components", {})
        for p in range(1, n):
            if not _is_zero(comps.get(str(p))):
                problems.append(f"alternating family nonzero below the level, at power {p}")
        top = comps.get(str(n))
        nnz = top.get("nnz") if isinstance(top, dict) else None
        expected_nnz = EXPLORE_NNZ.get((n, field))
        if not nnz:
            problems.append(f"alternating family not shown nonzero at power {n}")
        elif expected_nnz is not None and nnz != expected_nnz:
            problems.append(f"power-{n} family has nnz {nnz}, expected {expected_nnz}")
    return problems


def expect_true(label, value):
    """Problems with a unit whose whole result is one boolean fact."""
    return [] if value is True else [f"{label} is {value!r}, expected True"]
