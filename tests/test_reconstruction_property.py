"""Property tests of the degree-1 basis certificate and of the projective enumeration against their references."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from crown.fields import GF  # noqa: E402
from crown.graph_algebra import (  # noqa: E402
    Algebra,
    _certified_representatives,
    _minimal_representatives,
    _points_graph,
    annihilator_grading,
    q_ungraded,
    reconstruct_graph,
)
from crown.graphs import graph_new  # noqa: E402
from conftest import reference_minimal_representatives  # noqa: E402

# the largest vertex count per prime that keeps p^dim1 small for the enumeration
MAX_DIM1 = {2: 7, 3: 5, 5: 4}


@st.composite
def graphs(draw):
    p = draw(st.sampled_from(sorted(MAX_DIM1)))
    nv = draw(st.integers(1, MAX_DIM1[p]))
    pairs = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graph_new(range(nv), edges), GF(p)


@st.composite
def degree_one_two_algebras(draw):
    """Products of degree-1 basis vectors on a few degree-2 ones, drawn freely.

    Each premise of the certificate fails in some draws: a product on two
    degree-2 vectors, two pairs on one, a vanishing square.
    """
    p = draw(st.sampled_from(sorted(MAX_DIM1)))
    d1 = draw(st.integers(1, min(4, MAX_DIM1[p])))
    d2 = draw(st.integers(1, 4))
    table = {}
    for i in range(d1):
        for j in range(i, d1):
            vec = {}
            for k in draw(st.lists(st.integers(0, d2 - 1), max_size=2, unique=True)):
                v = draw(st.integers(1, p - 1))
                vec[d1 + k] = v
            if vec:
                table[(i, j)] = vec
    return Algebra(GF(p), list(range(d1 + d2)), table)


def graph_key(g):
    return g.vertices, g.relation


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(graphs())
def test_certificate_matches_the_enumeration_on_graphs(case):
    g, field = case
    ag = annihilator_grading(q_ungraded(g, field))
    enumerated = _minimal_representatives(ag, field.p**ag.dim1)
    assert _certified_representatives(ag) == enumerated
    assert graph_key(reconstruct_graph(q_ungraded(g, field))) == graph_key(_points_graph(ag, enumerated))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(degree_one_two_algebras())
def test_certificate_is_exact_or_declines(alg):
    ag = annihilator_grading(alg)
    enumerated = _minimal_representatives(ag, alg.field.p**ag.dim1)
    certified = _certified_representatives(ag)
    assert certified is None or certified == enumerated
    assert graph_key(reconstruct_graph(alg)) == graph_key(_points_graph(ag, enumerated))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.one_of(degree_one_two_algebras(), graphs().map(lambda case: q_ungraded(*case))))
def test_enumeration_matches_the_reference_as_a_list(alg):
    # order-sensitive: the F_2 path walks its points in Gray-code order and
    # must still list them in the reference's lead-major lex order
    ag = annihilator_grading(alg)
    cap = alg.field.p**ag.dim1
    assert _minimal_representatives(ag, cap) == reference_minimal_representatives(ag, cap)
