"""The benchmark workloads: their inputs and the units each pass runs.

A workload is set up once per child interpreter (`setup(seed)`, counted
in set-up time) and then run as one pass (`run(inputs)`, timed).  A pass
returns one `(unit name, problems)` pair per unit; a unit with problems
counts as failed.  Calls go through the attributes of the `crown`
package, so that the traced run sees them.
"""

from __future__ import annotations

import random

import crown

from gate import check_problems, expect_true

SUITES = {
    "tensor-q": (3, "rational", ("monoid", "graphs", "lemma", "transport", "iso", "functor", "explore")),
    "stream-f2": (4, "fp:2", ("graphs", "lemma", "transport", "functor")),
}

WHY = {
    "tensor-q": "crown verify --n 3 over Q: materialized tensor kernels and Fraction arithmetic, kron_power and sums in explore",
    "stream-f2": "crown verify --n 4 over F2: the streamed tensor-sum witness at p = 3 in prime-field arithmetic, small memory",
    "small-graphs": "seeded small graphs: reconstruction scans over F2/F3/F5 and many small loday and compose calls",
}

# (vertices, edges, prime, how many) per small-graphs case
RECONSTRUCT_CASES = ((10, 15, 2, 4), (6, 7, 3, 2), (5, 5, 5, 1))
FUNCTOR_CASE = (5, 5, 5, 8)
FUNCTOR_LEVEL = 3


def random_graph(rng, vertices, edges, admissible):
    """A graph on 0..vertices-1 with exactly `edges` edges drawn by `rng`.

    With `admissible` set, draws are rejected until the graph is
    admissible, which reconstruction needs.
    """
    pairs = [(a, b) for a in range(vertices) for b in range(a + 1, vertices)]
    while True:
        g = crown.graph_new(range(vertices), rng.sample(pairs, edges))
        if not admissible or crown.is_admissible(g):
            return g


def setup(workload, seed):
    if workload in SUITES:
        n, field, checks = SUITES[workload]
        return crown.RunConfig(n=n, field=crown.parse_field(field), checks=checks)
    if workload == "small-graphs":
        rng = random.Random(seed)
        recon = [
            (random_graph(rng, v, e, admissible=True), crown.GF(p))
            for v, e, p, count in RECONSTRUCT_CASES
            for _ in range(count)
        ]
        v, e, p, count = FUNCTOR_CASE
        functor = [(random_graph(rng, v, e, admissible=False), crown.GF(p)) for _ in range(count)]
        noniso = crown.RunConfig(n=2, field=crown.GF(2), checks=("noniso",))
        return noniso, recon, functor
    raise ValueError(f"unknown workload {workload!r}")


def run_suite_units(config):
    return [(r.check, check_problems(r.to_json_dict())) for r in crown.run_suite(config)]


def run(workload, inputs):
    if workload in SUITES:
        return run_suite_units(inputs)
    noniso, recon, functor = inputs
    units = run_suite_units(noniso)
    for i, (g, field) in enumerate(recon):
        rebuilt = crown.reconstruct_graph(crown.q_ungraded(g, field))
        units.append((f"reconstruct-{field.name}-{i}", expect_true("round trip", crown.graphs_isomorphic(g, rebuilt))))
    for i, (g, field) in enumerate(functor):
        ok = crown.functor_check(crown.q_ungraded(g, field), FUNCTOR_LEVEL)
        units.append((f"functor-{field.name}-{i}", expect_true("functor_check", ok)))
    return units


WORKLOADS = tuple(WHY)
