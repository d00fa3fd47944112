"""Property test of the planned word row maps against the validated morphisms, on random words up to n = 12."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from crown import loday  # noqa: E402
from crown.graph_algebra import q_rows  # noqa: E402
from crown.graphs import act_on_B, act_on_C  # noqa: E402
from crown.monoid import Word, next_signs, position_signs  # noqa: E402


@st.composite
def words(draw):
    """A valid word at a level 2..12, drawn coordinate by coordinate from the signs its prefix allows."""
    n = draw(st.integers(2, 12))
    coords = [draw(st.sampled_from(position_signs(1)))]
    for j in range(2, 2 * n + 2):
        coords.append(draw(st.sampled_from(next_signs(coords[-1], j))))
    return n, Word(tuple(coords))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(words())
def test_planned_rows_match_the_morphism_path(case):
    n, w = case
    assert loday._action_rows(n, w, None, "B") == q_rows(act_on_B(n, w))
    for s in (1, -1):
        assert loday._action_rows(n, w, s, "C") == q_rows(act_on_C(n, w, s))
