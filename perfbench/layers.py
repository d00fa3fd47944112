"""Which functions the traced run wraps, and the work counts it derives.

Each count is computed by the benchmark from the operands of a call,
not read from the program, so it is the same for every implementation
of a function and repeats exactly between runs.  A count describes the
work the call is asked to do; a call that stops early (a witness found)
still adds its full count.
"""

from __future__ import annotations

import math


def loday_cols(a, s, *args, **kwargs):
    """Columns of the factor-multiplication matrix: dim(A)^p."""
    return {"cols": a.dim ** s.p}


def kron_nnz_out(m, p):
    """Nonzeros of the p-th Kronecker power: nnz(m)^p (a field has no zero divisors)."""
    return {"nnz_out": m.nnz() ** p}


def compose_mults(a, b):
    """Scalar products of the sparse composite: one per (b[k, c], a[r, k]) pair."""
    a_col_nnz = [len(a.col(k)) for k in range(a.ncols)]
    return {"mults": sum(a_col_nnz[k] for c in range(b.ncols) for k in b.col(c))}


def add_nnz_in(self, other):
    return {"nnz_in": self.nnz() + other.nnz()}


def witness_row_tuples(terms, p):
    """Row tuples the streamed sum enumerates: sum over terms of the product of factor nnz."""
    return {"row_tuples": sum(math.prod(m.nnz() for m in mats) for _, mats in terms)}


def annihilator_codim(a):
    """Dimension of degree 1 after regrading: basis vectors with a nonzero product.

    Exact for graph algebras, whose vertex indicators multiply to distinct
    basis vectors and whose other basis vectors annihilate everything.
    """
    return sum(1 for i in range(a.dim) if any(a.product_basis(i, j) for j in range(a.dim)))


def reconstruct_points(a, *args, **kwargs):
    """Projective points of degree 1 over F_p, and the unordered pairs (with repeats) among them."""
    p = a.field.p
    points = (p ** annihilator_codim(a) - 1) // (p - 1)
    return {"points": points, "pairs": points * (points + 1) // 2}


# span name "<module>.<qualname>" -> count function or None
TARGETS = {
    "loday.lemma_witness": None,
    "loday.lemma_proof_trace": None,
    "loday.cofunctor_eval": None,
    "loday.naturality_witness": None,
    "loday.iso_check": None,
    "loday.transport_square_check": None,
    "loday.functor_check": None,
    "loday.loday_matrix": loday_cols,
    "linalg.kron_power": kron_nnz_out,
    "linalg.mat_compose": compose_mults,
    "linalg.Matrix.__add__": add_nnz_in,
    "linalg.Matrix.scale": None,
    "linalg.tensor_product_sum_witness": witness_row_tuples,
    "linalg.mat_rank": None,
    "linalg.left_inverse": None,
    "linalg.kernel_basis_with_free": None,
    "linalg.vstack": None,
    "graph_algebra.q_hom": None,
    "graph_algebra.q_ungraded": None,
    "graph_algebra.reconstruct_graph": reconstruct_points,
    "graph_algebra.annihilator_grading": None,
    "graph_algebra.cover_injectivity": None,
    "graphs.act_on_B": None,
    "graphs.act_on_C": None,
    "graphs.build_C": None,
    "graphs.graphs_isomorphic": None,
    "graphs.valency2_cycle_count": None,
    "monoid.wn_enumerate": None,
    "monoid.build_T": None,
    "monoid.build_Z": None,
    "monoid.check_T_squared": None,
}

CHECKS = ("monoid", "graphs", "lemma", "transport", "iso", "noniso", "functor", "explore")

COUNTS = (
    "loday.loday_matrix.cols",
    "linalg.kron_power.nnz_out",
    "linalg.mat_compose.mults",
    "linalg.Matrix.__add__.nnz_in",
    "linalg.tensor_product_sum_witness.row_tuples",
    "graph_algebra.reconstruct_graph.points",
    "graph_algebra.reconstruct_graph.pairs",
)


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for target in TARGETS:
        names += [(f"{target}.calls", "count"), (f"{target}.s", "s"), (f"{target}.self_s", "s")]
    names += [(f"harness.check.{c}.s", "s") for c in CHECKS]
    names += [(c, "count") for c in COUNTS]
    names += [(f"trace.{m}", "s") for m in ("verify_s", "overhead_s", "self_sum_s", "bookkeeping_s")]
    return names
