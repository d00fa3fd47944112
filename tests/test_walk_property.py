"""Property test of the streamed tensor-sum walk against the column-walk oracle."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from crown.fields import GF, QQ  # noqa: E402
from crown.linalg import Matrix, tensor_sum_prefixes  # noqa: E402
from conftest import row_major_reference  # noqa: E402


@st.composite
def tensor_sums(draw):
    """(terms, p): a power family or a sum of mixed, possibly rectangular,
    factors, over a shared pool per factor so that equal factor lists recur."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    p = draw(st.integers(1, 3))

    def matrix(nrows, ncols):
        cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), st.integers(-2, 2))
        entries = draw(st.lists(cells, max_size=nrows * ncols))
        return Matrix.from_entries(field, nrows, ncols, [(r, c, field.from_int(v)) for r, c, v in entries])

    coefs = st.integers(-2, 2).map(field.from_int)
    if draw(st.booleans()):
        d = draw(st.integers(1, 3))
        pool = [matrix(d, d) for _ in range(draw(st.integers(1, 4)))]
        return [(draw(coefs), [m] * p) for m in pool], p
    shapes = [(draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in range(p)]
    pools = [[matrix(*shape) for _ in range(draw(st.integers(1, 2)))] for shape in shapes]
    count = draw(st.integers(1, 4))
    return [(draw(coefs), [draw(st.sampled_from(pool)) for pool in pools]) for _ in range(count)], p


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(tensor_sums())
def test_walk_matches_the_column_walk_oracle(case):
    terms, p = case
    assert list(tensor_sum_prefixes(terms, p)) == row_major_reference(terms, p)
