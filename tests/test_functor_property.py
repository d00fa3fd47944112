"""Property test of the functor-law certificate against the materialized oracle."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from crown.fields import GF, QQ  # noqa: E402
from crown.graph_algebra import Algebra  # noqa: E402
from crown.loday import functor_check  # noqa: E402
from conftest import generator_functor_check  # noqa: E402


@st.composite
def commutative_algebras(draw):
    """A small commutative algebra, associative or not.

    Half the draws are filtered: a product e_i e_j lands only on basis
    vectors above both i and j, so products of products often vanish and
    the algebra is often associative.  The other half draw every product
    freely.
    """
    field = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    d = draw(st.integers(1, 5))
    filtered = draw(st.booleans())
    table = {}
    for i in range(d):
        for j in range(i, d):
            targets = list(range(j + 1, d)) if filtered else list(range(d))
            vec = {}
            for k in draw(st.lists(st.sampled_from(targets), max_size=2, unique=True)) if targets else []:
                v = field.from_int(draw(st.integers(-2, 2)))
                if v != field.zero:
                    vec[k] = v
            if vec:
                table[(i, j)] = vec
    return Algebra(field, list(range(d)), table)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(commutative_algebras())
def test_certificate_matches_the_materialized_oracle(alg):
    for r in (1, 2, 3):
        assert functor_check(alg, r) == generator_functor_check(alg, r), r
