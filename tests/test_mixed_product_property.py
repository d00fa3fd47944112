"""Property test of the mixed-product rule for row maps, on which per-word transport rests."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from crown.fields import GF, QQ  # noqa: E402
from crown.graph_algebra import rows_compose, rows_matrix  # noqa: E402
from crown.linalg import kron_power, mat_compose  # noqa: E402


@st.composite
def row_map_products(draw):
    """A field, a power p <= 3, and row maps A (m x k) and B (k x l) with their column counts.

    m, k, l <= 3; a row is zero or one (column, weight) with weight in
    -2..3, so weights that vanish in the field occur too.
    """
    field = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    m, k, l = (draw(st.integers(1, 3)) for _ in range(3))

    def row_map(nrows, ncols):
        entry = st.none() | st.tuples(st.integers(0, ncols - 1), st.integers(-2, 3))
        return tuple(draw(st.lists(entry, min_size=nrows, max_size=nrows)))

    return field, draw(st.integers(1, 3)), (row_map(m, k), k), (row_map(k, l), l)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(row_map_products())
def test_mixed_product_rule_for_row_maps(case):
    # the row-map product converts to the Matrix product, and its p-th
    # Kronecker power is the product of the factors' p-th powers
    field, p, (a, k), (b, l) = case
    ma, mb = rows_matrix(field, a, k), rows_matrix(field, b, l)
    product = rows_matrix(field, rows_compose(a, b), l)
    assert product == mat_compose(ma, mb)
    assert kron_power(product, p) == mat_compose(kron_power(ma, p), kron_power(mb, p))
