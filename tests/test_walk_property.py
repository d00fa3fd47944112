"""Property test of the streamed power-family walk against the column-walk oracle."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from crown.fields import GF, QQ  # noqa: E402
from crown.linalg import tensor_sum_prefixes  # noqa: E402
from conftest import family_reference  # noqa: E402


@st.composite
def power_families(draw):
    """(field, family, p): a power family of integer row maps, square or
    rectangular, with None rows and weights that may vanish in the field,
    drawn from a pool so that equal row maps recur, and with row maps equal
    to a pool map only over the field, so that they must merge."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    p = draw(st.integers(1, 3))
    nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.none() | st.tuples(st.integers(0, ncols - 1), st.integers(-2, 3))
    pool = draw(st.lists(st.tuples(*[entry] * nrows), min_size=1, max_size=4))
    shift = getattr(field, "p", 0)  # the characteristic
    if shift and draw(st.booleans()):
        # equal over the field only: each weight moved by the characteristic
        pool.append(tuple(None if e is None else (e[0], e[1] + shift) for e in draw(st.sampled_from(pool))))
    coefs = st.integers(-2, 2).map(field.from_int)
    family = draw(st.lists(st.tuples(coefs, st.sampled_from(pool)), min_size=1, max_size=5))
    return field, family, p


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(power_families())
def test_walk_matches_the_column_walk_oracle(case):
    field, family, p = case
    assert list(tensor_sum_prefixes(field, family, p)) == family_reference(field, family, p)
