"""Named verification scenarios and machine-readable reports.

`run_suite` wires the construction modules into a fixed list of checks
(monoid, graphs, lemma, transport, iso, noniso, functor, explore).  Each
check returns its structured details, the list of sub-claims that failed
and the reason a sub-claim was not attempted (or None), and `run_suite`
alone turns that into the CheckReport's status: `fail` when anything
failed (with `details["failures"]`), otherwise `skipped` when anything
was not attempted (with `details["reason"]`), otherwise `pass`, or `info`
for `explore`, which asserts nothing.  So no check reports `pass` over a
sub-claim it skipped.  Reports are deterministic for a fixed
configuration up to the timing field; the process exit code of the CLI
is 0 exactly when no report failed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from . import graph_algebra as ga
from . import graphs as gr
from . import linalg as la
from . import loday as ld
from . import monoid as mo
from .errors import CapExceeded, NotAMorphism
from .fields import GF, QQ

CHECK_ORDER = ("monoid", "graphs", "lemma", "transport", "iso", "noniso", "functor", "explore")

DEFAULT_MAX_TENSOR_DIM = ld.DEFAULT_TENSOR_CAP
DEFAULT_MAX_PROJ_POINTS = ga.DEFAULT_POINT_CAP
DEFAULT_MAX_GRAPH_SIZE = gr.DEFAULT_GRAPH_CAP


@dataclass
class CheckReport:
    check: str
    params: dict
    status: str  # pass | fail | info | skipped
    details: dict
    elapsed_ms: int

    def to_json_dict(self):
        return {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "details": self.details,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass
class RunConfig:
    n: int = 2
    field: object = QQ
    checks: tuple = CHECK_ORDER
    max_tensor_dim: int = DEFAULT_MAX_TENSOR_DIM
    max_proj_points: int = DEFAULT_MAX_PROJ_POINTS
    max_graph_size: int = DEFAULT_MAX_GRAPH_SIZE

    def validate(self):
        if self.n < 1:
            raise ValueError("level must be >= 1")
        if min(self.max_tensor_dim, self.max_proj_points, self.max_graph_size) <= 0:
            raise ValueError("caps must be positive")
        unknown = [c for c in self.checks if c not in CHECK_ORDER]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")

    def to_json_dict(self):
        return {
            "n": self.n,
            "field": self.field.name,
            "checks": sorted(set(self.checks), key=CHECK_ORDER.index),
            "max_tensor_dim": self.max_tensor_dim,
            "max_proj_points": self.max_proj_points,
            "max_graph_size": self.max_graph_size,
        }


_NEEDS_CROWNS = {"graphs", "lemma", "transport", "iso", "noniso", "functor", "explore"}


def run_suite(config: RunConfig):
    """Execute the requested checks in canonical order."""
    config.validate()
    requested = [c for c in CHECK_ORDER if c in set(config.checks)]
    reports = []
    for name in requested:
        start = time.perf_counter()
        details, failures, skip_reason = {}, [], None
        if name in _NEEDS_CROWNS and config.n < 2:
            skip_reason = "crown checks need level n >= 2"
        else:
            try:
                details, failures, skip_reason = _CHECKS[name](config)
            except CapExceeded as exc:
                skip_reason = f"cap exceeded: {exc}"
        if failures:
            details["failures"] = failures
            status = "fail"
        elif skip_reason:
            details["reason"] = skip_reason
            status = "skipped"
        else:
            status = "info" if name == "explore" else "pass"
        elapsed = int((time.perf_counter() - start) * 1000)
        reports.append(CheckReport(name, {"n": config.n, "field": config.field.name}, status, details, elapsed))
    return reports


def exit_code_for(reports) -> int:
    return 1 if any(r.status == "fail" for r in reports) else 0


def report_json(config: RunConfig, reports) -> str:
    payload = {
        "version": 1,
        "config": config.to_json_dict(),
        "reports": [r.to_json_dict() for r in reports],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- individual checks ---------------------------------------------------
#
# Each returns (details, failures, skip_reason); `run_suite` picks the status.

def _check_monoid(config: RunConfig):
    n, f = config.n, config.field
    details: dict = {}
    failures = []

    count_n = min(n, mo.DEFAULT_LEVEL_CAP)
    words = mo.wn_enumerate(count_n)
    details["word_count"] = {"n": count_n, "count": len(words), "expected": 2 * 3**count_n}
    if len(words) != 2 * 3**count_n:
        failures.append("word count")

    small = min(n, 3)
    closure_words = mo.wn_enumerate(small)
    closure_set = set(closure_words)
    closed = commutative = True
    for k, a in enumerate(closure_words):  # unordered pairs: a*b and b*a once each
        for b in closure_words[k:]:
            ab, ba = a * b, b * a
            closed = closed and ab in closure_set and ba in closure_set
            commutative = commutative and ab == ba
    details["closure"] = {"n": small, "closed": closed, "commutative": commutative}
    if not (closed and commutative):
        failures.append("closure/commutativity")

    identity_ok = mo.check_T_squared(n, f)
    details["square_identity"] = identity_ok
    if not identity_ok:
        failures.append("T^2 + Z != 1")

    t = mo.build_T(n, f)
    z = mo.build_Z(n, f)
    homsets = all(mo.homset_member(t, s, -s) and mo.homset_member(z, s, s) for s in (1, -1))
    details["homsets"] = homsets
    details["term_counts"] = {"T": len(t.terms), "Z": len(z.terms)}
    if not homsets:
        failures.append("hom-set membership")
    if len(t.terms) != 2**n - 1 or len(z.terms) != 2**n:
        failures.append("term counts")

    return details, failures, None


def _check_graphs(config: RunConfig):
    n = config.n
    details: dict = {}
    failures = []
    b = gr.build_B(n)
    details["strip"] = {"vertices": len(b.vertices), "edges": b.edge_count}
    if len(b.vertices) != 5 * n + 2 or b.edge_count != 8 * n:
        failures.append("strip size")

    details["action_mode"] = "exhaustive"
    try:
        for w in mo.wn_enumerate(n):
            gr.act_on_B(n, w)
        details["actions_valid"] = True
    except NotAMorphism as exc:  # pragma: no cover - schema violation
        details["actions_valid"] = False
        details["action_witness"] = str(exc)
        failures.append("word action broke the edge schema")

    incls = [gr.build_F(n, i)[1] for i in range(1, n + 1)]
    cover = gr.is_cover(incls)
    details["windows_cover"] = cover
    if not cover:
        failures.append("window cover")

    off_window = True
    for i in range(1, n + 1):
        g_word = mo.gen_g(n, i)
        act = gr.act_on_B(n, g_word)
        for i_prime in range(1, n + 1):
            if i_prime == i:
                continue
            fg, _ = gr.build_F(n, i_prime)
            if any(act.mapping[v] != v for v in fg.vertices):
                off_window = False
    details["off_window_identity"] = off_window
    if not off_window:
        failures.append("idempotent generator moves a foreign window")

    crowns = {}
    for s in (1, -1):
        c, proj = gr.build_C(n, s)
        crowns[s] = {
            "vertices": len(c.vertices),
            "edges": c.edge_count,
            "triangle_free": gr.is_triangle_free(c),
            "min_valency": gr.min_valency(c),
            "admissible": gr.is_admissible(c),
            "projection_is_cover": gr.is_cover([proj]),
        }
    details["crowns"] = {"plus": crowns[1], "minus": crowns[-1]}
    for s in (1, -1):
        info = crowns[s]
        if not (
            info["vertices"] == 5 * n
            and info["edges"] == 8 * n
            and info["triangle_free"]
            and info["min_valency"] >= 2
            and info["admissible"]
            and info["projection_is_cover"]
        ):
            failures.append(f"crown properties (sign {s})")

    scans = {s: gr.valency2_cycle_count(gr.build_C(n, s)[0]) for s in (1, -1)}
    details["cycle_scan"] = {
        "plus": {"components": scans[1].count, "lengths": scans[1].lengths(), "all_cycles": scans[1].all_cycles},
        "minus": {"components": scans[-1].count, "lengths": scans[-1].lengths(), "all_cycles": scans[-1].all_cycles},
    }
    if not (scans[1].count == 2 and scans[-1].count == 1 and scans[1].all_cycles and scans[-1].all_cycles):
        failures.append("valency-2 cycle structure")

    return details, failures, None


def _check_lemma(config: RunConfig):
    n, f = config.n, config.field
    details: dict = {}
    failures = []
    powers = {}
    skip_reason = None
    try:
        # one walk decides every power; past the budget it stops, the lower powers kept
        for p, witness in enumerate(ld.lemma_witnesses(n, n - 1, f), start=1):
            powers[str(p)] = "zero" if witness is None else {
                "col": list(witness[0]),
                "row": list(witness[1]),
                "value": str(witness[2]),
            }
            if witness is not None:
                failures.append(f"nonzero at power {p}")
    except CapExceeded as exc:
        skipped = range(len(powers) + 1, n)
        for p in skipped:
            powers[str(p)] = {"status": "skipped", "reason": f"cap exceeded: {exc}"}
        skip_reason = f"walk budget exceeded at powers {', '.join(map(str, skipped))}"
    details["powers"] = powers
    trace = ld.lemma_proof_trace(n, min(n - 1, 2), f)
    details["trace"] = {
        "power": trace.p,
        "stacked_rank": trace.e1_rank,
        "stacked_cols": trace.e1_cols,
        "left_inverse_verified": trace.left_inverse_verified,
        "tensor_rank": trace.ep_rank,
        "intertwining_ok": trace.intertwining_ok,
        "off_window_identity_ok": trace.off_window_identity_ok,
        "summand_annihilation_ok": trace.summand_annihilation_ok,
    }
    if not trace.passed:
        failures.append("proof trace")
    return details, failures, skip_reason


def _check_transport(config: RunConfig):
    n, f = config.n, config.field
    elements = [("1", mo.MonoidAlgElem.one(f, n), 1, 1)]
    for i in range(1, n + 1):
        elements.append((f"g{i}", mo.MonoidAlgElem.from_word(f, mo.gen_g(n, i)), 1, 1))
        h = mo.gen_h(n, i)
        elements.append((f"h{i}", mo.MonoidAlgElem.from_word(f, h), 1, mo.act_on_U(h, 1)))
    elements.append(("T", mo.build_T(n, f), -1, 1))
    elements.append(("Z", mo.build_Z(n, f), 1, 1))
    details: dict = {"max_power": n - 1}
    failures = []
    for name, x, s, t in elements:
        ok = ld.transport_square_check(n, n - 1, x, s, t)
        details[name] = ok
        if not ok:
            failures.append(name)
    return details, failures, None


def _check_iso(config: RunConfig):
    n, f = config.n, config.field
    report = ld.iso_check(n, f, max_tensor_dim=config.max_tensor_dim)
    control = ld.iso_check(n, f, element="Z", max_tensor_dim=config.max_tensor_dim)

    def mode(ok):
        if ok is None:
            return {"status": "skipped", "reason": report.skip_reason}
        return {"status": "pass" if ok else "fail"}

    details = {
        "iso": {
            "status": report.status,
            "natural": {"certified": mode(report.certified_ok), "squares_p_le_2": mode(report.squares_ok)},
            "mutually_inverse": report.inverse_ok,
            "alternating_family_zero": report.z_component_zero,
            "factored_identity": report.factored_identity_ok,
            "witness": report.witness,
        },
        "negative_control": {"status": control.status, "witness": control.witness},
    }
    failures = [
        k for k, ok in (("iso", report.status != "FAIL"), ("negative_control_fails", control.status == "FAIL"))
        if not ok
    ]
    skip_reason = None
    if report.status == "SKIPPED":
        skip_reason = (
            f"naturality squares at p <= 2 not attempted ({report.skip_reason}); the naturality certificate, "
            "mutually_inverse, factored_identity and alternating_family_zero hold and the negative control fails"
        )
    return details, failures, skip_reason


def _check_noniso(config: RunConfig):
    n = config.n
    details: dict = {}
    failures = []
    c_plus = gr.build_C(n, 1)[0]
    c_minus = gr.build_C(n, -1)[0]
    iso = gr.graphs_isomorphic(c_plus, c_minus, max_vertices=config.max_graph_size)
    details["graphs_isomorphic"] = iso
    if iso:
        failures.append("crowns reported isomorphic")
    scans = {s: gr.valency2_cycle_count(gr.build_C(n, s)[0]) for s in (1, -1)}
    details["cycle_components"] = {"plus": scans[1].count, "minus": scans[-1].count}
    if (scans[1].count, scans[-1].count) != (2, 1):
        failures.append("cycle component counts")

    f2 = GF(2)
    if not config.field.is_prime_field:
        details["reconstruction_field_note"] = "projective enumeration needs a finite field; using fp:2"
        recon_field = f2
    else:
        recon_field = config.field
    crowns = {1: c_plus, -1: c_minus}
    skip_reason = None
    try:
        rebuilt = {
            s: ga.reconstruct_graph(ga.q_ungraded(c, recon_field), max_points=config.max_proj_points)
            for s, c in crowns.items()
        }
    except CapExceeded as exc:
        cap_note = f"cap exceeded: {exc}"
        details["reconstruction"] = {"status": "skipped", "reason": cap_note}
        skip_reason = f"reconstruction not attempted: {cap_note}"
    else:
        recon = {}
        for s, tag in ((1, "plus"), (-1, "minus")):
            round_trip = gr.graphs_isomorphic(crowns[s], rebuilt[s], max_vertices=config.max_graph_size)
            recon[tag] = {"round_trip": round_trip, "vertices": len(rebuilt[s].vertices)}
            if not round_trip:
                failures.append(f"reconstruction round trip ({tag})")
        rebuilt_iso = gr.graphs_isomorphic(rebuilt[1], rebuilt[-1], max_vertices=config.max_graph_size)
        recon["rebuilt_pair_isomorphic"] = rebuilt_iso
        if rebuilt_iso:
            failures.append("reconstructed crowns isomorphic")
        details["reconstruction"] = recon
    return details, failures, skip_reason


def _check_functor(config: RunConfig):
    n, f = config.n, config.field
    details: dict = {}
    failures = []
    window = ga.q_ungraded(gr.build_F(n, 1)[0], f)
    ok_window = ld.functor_check(window, 2, max_tensor_dim=config.max_tensor_dim)
    details["window_r2"] = ok_window
    if not ok_window:
        failures.append("window functor laws")
    r_crown = min(n - 1, 2)
    for s, tag in ((1, "plus"), (-1, "minus")):
        alg = ga.q_ungraded(gr.build_C(n, s)[0], f)
        ok = ld.functor_check(alg, r_crown, max_tensor_dim=config.max_tensor_dim)
        details[f"crown_{tag}_r{r_crown}"] = ok
        if not ok:
            failures.append(f"crown functor laws ({tag})")
    incls = [gr.build_F(n, i)[1] for i in range(1, n + 1)]
    inj_windows = ga.cover_injectivity(incls, f)
    details["window_cover_injective"] = inj_windows
    if not inj_windows:
        failures.append("window cover injectivity")
    for s, tag in ((1, "plus"), (-1, "minus")):
        inj = ga.cover_injectivity([gr.build_C(n, s)[1]], f)
        details[f"projection_injective_{tag}"] = inj
        if not inj:
            failures.append(f"projection injectivity ({tag})")
    return details, failures, None


def _check_explore(config: RunConfig):
    """One power above the theorem: reported, never asserted.

    Every power p <= n of the alternating family is decided by one
    streamed walk over the transposed p = 1 word matrices, so no operator
    of dimension dim^p is built: the nonzero count is the family's, and
    the walk's witness of the transpose is the family's lowest nonzero row
    and, in it, the lowest column, flattened in the lexicographic tensor
    basis.
    """
    n, f = config.n, config.field
    crown_dim = ga.q_ungraded(gr.build_C(n, 1)[0], f).dim
    if crown_dim**n > config.max_tensor_dim:
        return {"note": f"alternating family at power {n} exceeds the tensor cap; not computed"}, [], None
    words = [(c, m.transpose()) for c, m in ld._word_terms(n, mo.build_Z(n, f), 1, 1, "C")]

    def flat(digits):
        index = 0
        for i in digits:
            index = index * crown_dim + i
        return index

    per_power = {}
    for p, (witness, nnz) in enumerate(la.tensor_sum_prefixes(ld._power_terms(words, n), n), start=1):
        if nnz:
            rows, cols, v = witness
            per_power[str(p)] = {"first_nonzero": [flat(rows), flat(cols), str(v)], "nnz": nnz}
        else:
            per_power[str(p)] = "zero"
    return {
        "element": "alternating",
        "note": "behaviour at the first power not covered by the theorems",
        "components": per_power,
    }, [], None


_CHECKS = {
    "monoid": _check_monoid,
    "graphs": _check_graphs,
    "lemma": _check_lemma,
    "transport": _check_transport,
    "iso": _check_iso,
    "noniso": _check_noniso,
    "functor": _check_functor,
    "explore": _check_explore,
}


# -- exports ---------------------------------------------------------------

def export_objects(config: RunConfig, what: str, path: str) -> str:
    """Write the requested construction to a JSON file, deterministically."""
    config.validate()
    n, f = config.n, config.field
    if what == "graphs":
        payload = {
            "n": n,
            "strip": gr.build_B(n).to_json(),
            "crown_plus": gr.build_C(n, 1)[0].to_json(),
            "crown_minus": gr.build_C(n, -1)[0].to_json(),
        }
    elif what == "algebras":
        payload = {
            "n": n,
            "strip": ga.q_ungraded(gr.build_B(n), f).to_json(),
            "crown_plus": ga.q_ungraded(gr.build_C(n, 1)[0], f).to_json(),
            "crown_minus": ga.q_ungraded(gr.build_C(n, -1)[0], f).to_json(),
        }
    elif what == "matrices":
        def triples(m):
            return [[r, c, f.scalar_to_json(v)] for r, c, v in m.to_triples()]

        mats = {
            "projection_plus": triples(ga.q_hom(gr.build_C(n, 1)[1], f)),
            "projection_minus": triples(ga.q_hom(gr.build_C(n, -1)[1], f)),
        }
        for i in range(1, n + 1):
            mats[f"strip_action_g{i}"] = triples(ga.q_hom(gr.act_on_B(n, mo.gen_g(n, i)), f))
            mats[f"strip_action_h{i}"] = triples(ga.q_hom(gr.act_on_B(n, mo.gen_h(n, i)), f))
        payload = {"n": n, "field": f.name, "matrices": mats}
    elif what == "nat_trans":
        if n < 2:
            raise ValueError("nat_trans export needs level n >= 2")
        t = mo.build_T(n, f)
        eta = ld.cofunctor_eval(n, n - 1, t, -1, 1, target="C", max_tensor_dim=config.max_tensor_dim)
        payload = {"n": n, "field": f.name, "twist_family": eta.to_json()}
    else:
        raise ValueError(f"unknown export kind {what!r}")
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return path
