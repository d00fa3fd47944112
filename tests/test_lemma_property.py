"""Property test of the annihilation certificates against the walk."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from crown import loday  # noqa: E402
from crown.fields import GF, QQ  # noqa: E402
from crown.monoid import MonoidAlgElem, Word, build_Z, gen_g  # noqa: E402
import conftest  # noqa: E402
from conftest import with_row  # noqa: E402


@st.composite
def perturbations(draw):
    """A level n <= 4, a field, and a change: new coefficients of Z, or one generator-row replaced.

    Coefficients are Z's times a nonzero scale, which keeps every pair
    opposite, with up to two words then set to values in -2..2 (0 drops
    the word).  The row, of g_i's strip row map, gets a new column and weight.
    """
    n = draw(st.integers(2, 4))
    field = draw(st.sampled_from([QQ, GF(2), GF(3)]))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1, -1, 2]).filter(lambda c: field.from_int(c) != field.zero))
        words = sorted(build_Z(n, field).terms, key=Word.sort_key)
        changed = draw(st.dictionaries(st.sampled_from(words), st.integers(-2, 2), max_size=2))
        return n, field, ("coefficients", scale, changed)
    i = draw(st.integers(1, n))
    return n, field, ("generator", i, draw(st.integers(0, 99)), draw(st.integers(0, 99)), draw(st.integers(1, 2)))


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(perturbations())
def test_a_passing_certificate_or_trace_implies_a_zero_walk(case):
    n, field, change = case
    with pytest.MonkeyPatch.context() as patch:
        if change[0] == "coefficients":
            _, scale, changed = change
            terms = {w: field.mul(field.from_int(scale), c) for w, c in build_Z(n, field).terms.items()}
            terms.update((w, field.from_int(v)) for w, v in changed.items())
            z = MonoidAlgElem(field, n, {w: c for w, c in terms.items() if c != field.zero})
            patch.setattr(loday, "build_Z", lambda n, field: z)  # the walk's Z
            patch.setattr(conftest, "build_Z", lambda n, field: z)  # the trace's Z
        else:
            _, i, row, col, value = change
            z, action = build_Z(n, field), loday._action_rows

            def changed(n, w, s, target):
                rows = action(n, w, s, target)  # a strip map's rows and columns are one basis
                return with_row(rows, row % len(rows), (col % len(rows), value)) if w == gen_g(n, i) else rows

            patch.setattr(loday, "_action_rows", changed)
        certified = loday.alternating_certificate(z, lambda w: loday._action_rows(n, w, None, "B")) is None
        trace = conftest.lemma_proof_trace(n, n - 1, field)
        hypothesis.event(f"certificate passed: {certified}, trace passed: {trace.passed}")
        if certified or trace.passed:
            assert all(loday.lemma_check(n, p, field) for p in range(1, n))
        if change[0] == "coefficients" and not change[2]:
            assert trace.passed, "the trace failed on a scaled Z"
            assert certified == (field.from_int(change[1]) == field.one)
