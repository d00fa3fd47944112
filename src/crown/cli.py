"""Command-line driver: `crown verify`, `crown export`, `crown info`."""

from __future__ import annotations

import argparse
import sys

from . import graphs as gr
from . import harness
from .errors import CrownError
from .fields import parse_field


def _build_parser():
    parser = argparse.ArgumentParser(prog="crown", description="Exact verification of the crown-algebra constructions")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification checks")
    verify.add_argument("--n", type=int, default=2, help="construction level (default 2)")
    verify.add_argument("--field", default="rational", help="rational or fp:<p> (default rational)")
    verify.add_argument("--checks", default="all", help="comma-separated subset of: " + ",".join(harness.CHECK_ORDER))
    verify.add_argument("--json", dest="json_path", default=None, help="write the JSON report here")
    verify.add_argument(
        "--max-tensor-dim",
        type=int,
        default=harness.DEFAULT_MAX_TENSOR_DIM,
        help="cap (default %(default)s) on the tensor dimension dim^p of the materialized word-power "
        "families and Loday matrices (functor, and the iso naturality squares, checked only at p <= 2); "
        "above it functor reports skipped and iso marks the squares skipped and reports skipped; "
        "explore materializes nothing, but above crown dim^n it still reports its family "
        "as not computed; iso's naturality certificate and the streamed walks (lemma, transport, "
        "explore, iso's other sub-claims) are not bounded by it: one walk decides a family at "
        "every power, within one fixed work budget",
    )
    verify.add_argument(
        "--max-proj-points",
        type=int,
        default=harness.DEFAULT_MAX_PROJ_POINTS,
        help="cap on the p^dim1 degree-1 vectors that noniso's reconstruction enumerates; "
        "above it noniso reports skipped (default %(default)s)",
    )
    verify.add_argument(
        "--max-graph-size",
        type=int,
        default=harness.DEFAULT_MAX_GRAPH_SIZE,
        help="cap on the vertices of the graphs that noniso's isomorphism searches compare; "
        "above it noniso reports skipped (default %(default)s)",
    )

    export = sub.add_parser("export", help="write a construction to JSON")
    export.add_argument("--what", required=True, choices=("graphs", "algebras", "matrices", "nat_trans"))
    export.add_argument("--n", type=int, default=2)
    export.add_argument("--field", default="rational")
    export.add_argument("--out", required=True)
    export.add_argument(
        "--max-tensor-dim",
        type=int,
        default=harness.DEFAULT_MAX_TENSOR_DIM,
        help="cap on the tensor dimension dim^p of the materialized nat_trans family "
        "(default %(default)s)",
    )

    info = sub.add_parser("info", help="print construction sizes")
    info.add_argument("--n", type=int, default=2)
    return parser


def _config_from(args) -> harness.RunConfig:
    checks = harness.CHECK_ORDER if args.checks == "all" else tuple(
        c.strip() for c in args.checks.split(",") if c.strip()
    )
    return harness.RunConfig(
        n=args.n,
        field=parse_field(args.field),
        checks=checks,
        max_tensor_dim=args.max_tensor_dim,
        max_proj_points=args.max_proj_points,
        max_graph_size=args.max_graph_size,
    )


def _cmd_verify(args) -> int:
    config = _config_from(args)
    config.validate()
    reports = harness.run_suite(config)
    for r in reports:
        print(f"{r.status.upper():7s} {r.check}  ({r.elapsed_ms} ms)")
        if r.status == "fail":
            print(f"        details: {r.details.get('failures', r.details)}")
        elif r.status == "skipped":
            print(f"        reason: {r.details.get('reason')}")
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(harness.report_json(config, reports))
    return harness.exit_code_for(reports)


def _cmd_export(args) -> int:
    config = harness.RunConfig(
        n=args.n,
        field=parse_field(args.field),
        max_tensor_dim=args.max_tensor_dim,
    )
    path = harness.export_objects(config, args.what, args.out)
    print(f"wrote {args.what} for n={args.n} to {path}")
    return 0


def _cmd_info(args) -> int:
    n = args.n
    print(f"level n = {n}")
    b = gr.build_B(n)  # rejects n < 1
    print(f"|W_{n}| = {2 * 3**n} sign words (2*3^{n})")  # the monoid check verifies the count
    print(f"strip B_{n}: {len(b.vertices)} vertices, {b.edge_count} edges; dim Q = {2*len(b.vertices)+b.edge_count}")
    if n >= 2:
        for s, name in ((1, "simple crown C+"), (-1, "Moebius crown C-")):
            c = gr.build_C(n, s)[0]
            print(f"{name}: {len(c.vertices)} vertices, {c.edge_count} edges; dim Q = {2*len(c.vertices)+c.edge_count}")
    else:
        print("crowns need n >= 2")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "info":
            return _cmd_info(args)
    except (ValueError, CrownError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
