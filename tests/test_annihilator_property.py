"""`annihilator_grading` on rows read off the structure table, against the stacked product matrix."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from crown.fields import GF, QQ  # noqa: E402
from crown.graph_algebra import Algebra, annihilator_grading, q_ungraded  # noqa: E402
from crown.graphs import build_C, graph_new  # noqa: E402
from conftest import reference_annihilator_grading  # noqa: E402

FIELDS = [QQ, GF(2), GF(3)]


@st.composite
def algebras(draw):
    """Commutative algebras of dimension <= 6 with free structure constants.

    Products land anywhere, so some draws admit no regrading; a product may
    hold an explicit zero constant, which both paths must ignore alike.
    """
    field = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(0, 6))
    table = {}
    for i in range(d):
        for j in range(i, d):
            support = draw(st.lists(st.integers(0, d - 1), max_size=2, unique=True))
            vec = {k: field.coerce(draw(st.integers(-2, 2))) for k in support}
            if vec and draw(st.booleans()):
                table[(i, j)] = vec
    return Algebra(field, list(range(d)), table)


@st.composite
def nilpotent_algebras(draw):
    """Products of d1 basis vectors landing on d2 others, which multiply to nothing: always regradable."""
    field = draw(st.sampled_from(FIELDS))
    d1, d2 = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    table = {}
    for i in range(d1):
        for j in range(i, d1):
            support = draw(st.lists(st.integers(d1, d1 + d2 - 1), max_size=2, unique=True))
            vec = {k: field.coerce(draw(st.integers(1, 4))) for k in support}
            vec = {k: v for k, v in vec.items() if v != field.zero}
            if vec:
                table[(i, j)] = vec
    return Algebra(field, list(range(d1 + d2)), table)


def outcome(regrade, alg):
    try:
        graded = regrade(alg)
    except ValueError as exc:
        return "ValueError", str(exc)
    return graded.basis, graded.dim1, graded._table


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(algebras(), nilpotent_algebras()))
def test_regrading_matches_the_stacked_matrix(alg):
    assert outcome(annihilator_grading, alg) == outcome(reference_annihilator_grading, alg)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_regrading_matches_the_stacked_matrix_on_graphs_and_edge_cases(field):
    graphs = [graph_new(["a", "b", "c"], [("a", "b"), ("b", "c")]), build_C(2, 1)[0], build_C(2, -1)[0]]
    cases = [q_ungraded(g, field) for g in graphs]
    cases.append(Algebra(field, ("x", "y", "z"), {}))  # the zero algebra: everything is annihilator
    cases.append(Algebra(field, ("e",), {(0, 0): {0: field.one}}))  # e e = e: not in the annihilator
    results = [outcome(annihilator_grading, a) for a in cases]
    assert results == [outcome(reference_annihilator_grading, a) for a in cases]
    assert results[3] == ((("nil", "x"), ("nil", "y"), ("nil", "z")), 0, {})
    assert results[4] == (
        "ValueError",
        "products do not land in the annihilator; the algebra admits no degree-1,2 regrading",
    )
