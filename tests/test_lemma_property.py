"""Property test of the annihilation certificate against the walk."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from crown import loday  # noqa: E402
from crown.fields import GF, QQ  # noqa: E402
from crown.monoid import MonoidAlgElem, Word, build_Z  # noqa: E402
from conftest import with_row  # noqa: E402


@st.composite
def perturbations(draw):
    """A level n <= 4, a field, and a change: new coefficients of Z, or one window-matrix row replaced.

    Coefficients are Z's times a nonzero scale, which keeps every pair
    opposite, with up to two words then set to values in -2..2 (0 drops
    the word).  The row, of window i's matrix of the words with or without
    g_i, gets a new column and weight.
    """
    n = draw(st.integers(2, 4))
    field = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1, -1, 2]).filter(lambda c: field.from_int(c) != field.zero))
        words = sorted(build_Z(n, field).terms, key=Word.sort_key)
        changed = draw(st.dictionaries(st.sampled_from(words), st.integers(-2, 2), max_size=2))
        return n, field, ("coefficients", scale, changed)
    key = (draw(st.integers(1, n)), (1, draw(st.integers(0, 1)), 1))
    return n, field, ("window", key, draw(st.integers(0, 99)), draw(st.integers(0, 99)), draw(st.integers(1, 2)))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(perturbations())
def test_a_passing_trace_implies_a_zero_walk(case):
    n, field, change = case
    with pytest.MonkeyPatch.context() as patch:
        if change[0] == "coefficients":
            _, scale, changed = change
            terms = {w: field.mul(field.from_int(scale), c) for w, c in build_Z(n, field).terms.items()}
            terms.update((w, field.from_int(v)) for w, v in changed.items())
            z = MonoidAlgElem(field, n, {w: c for w, c in terms.items() if c != field.zero})
            patch.setattr(loday, "build_Z", lambda n, field: z)
        else:
            _, key, row, col, value = change
            window_action = loday._window_rows

            def changed(n, i, coords):
                rows = window_action(n, i, coords)  # a window map's rows and columns are one basis
                return with_row(rows, row % len(rows), (col % len(rows), value)) if (i, coords) == key else rows

            patch.setattr(loday, "_window_rows", changed)
        trace = loday.lemma_proof_trace(n, n - 1, field)
        hypothesis.event(f"trace passed: {trace.passed}")
        if trace.passed:
            assert all(loday.lemma_check(n, p, field) for p in range(1, n))
        elif change[0] == "coefficients" and not change[2]:
            pytest.fail("the trace failed on a scaled Z")
