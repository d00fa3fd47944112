"""The factored monoid-algebra square against the expanded product, with negative controls."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from crown import harness, monoid  # noqa: E402
from crown.fields import GF, QQ  # noqa: E402
from crown.harness import RunConfig, run_suite  # noqa: E402
from crown.monoid import (  # noqa: E402
    MonoidAlgElem,
    alternating_factors,
    build_T,
    build_Z,
    check_T_squared,
    factored_square,
    gen_h,
    twist_factors,
    wn_enumerate,
)
from conftest import expanded_factors, expanded_square  # noqa: E402

FIELDS = [QQ, GF(2), GF(3), GF(5)]


@st.composite
def factored_elements(draw):
    """(n, field, factors): up to three terms c P_k [u] with random coefficients, prefixes and words, n <= 6."""
    n = draw(st.integers(1, 6))
    field = draw(st.sampled_from(FIELDS))
    words = wn_enumerate(n)
    factors = draw(
        st.lists(st.tuples(st.integers(-3, 3), st.integers(0, n), st.sampled_from(words)), max_size=3)
    )
    return n, field, factors


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(factored_elements())
def test_factored_square_matches_the_expanded_product(case):
    n, field, factors = case
    assert factored_square(n, field, factors) == expanded_square(expanded_factors(n, field, factors))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("n", range(1, 7))
def test_factored_squares_of_T_and_Z_match_the_expanded_oracle(field, n):
    t, z = build_T(n, field), build_Z(n, field)
    assert expanded_factors(n, field, twist_factors(n)) == t
    assert expanded_factors(n, field, alternating_factors(n)) == z
    t_square = factored_square(n, field, twist_factors(n))
    assert t_square == expanded_square(t)
    assert factored_square(n, field, alternating_factors(n)) == expanded_square(z) == z
    assert t_square + z == MonoidAlgElem.one(field, n)
    assert check_T_squared(n, field)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_twist_with_one_coefficient_changed_fails_the_identity(field, n):
    # T.T = sum_i c_i^2 P_(i-1) [g_i]: the cross terms vanish, since g_i fixes
    # h_i h_j (both are 0 at position 2i), so (1 - [g_i]) [h_i h_j] = 0.  A
    # coefficient whose square is not 1 therefore fails T.T + Z = 1: zero in
    # every field, 2 wherever 4 != 1.  A sign flip keeps the identity.
    z, one = build_Z(n, field), MonoidAlgElem.one(field, n)
    changes = [(field.zero, False), (field.neg(field.one), True)]
    if field.from_int(4) != field.one:
        changes.append((field.from_int(2), False))
    for i in range(n):
        for coeff, holds in changes:
            factors = [(coeff if j == i else c, k, u) for j, (c, k, u) in enumerate(twist_factors(n))]
            square = factored_square(n, field, factors)
            assert square == expanded_square(expanded_factors(n, field, factors))
            assert (square + z == one) is holds, (i, coeff)


def test_factored_square_needs_idempotent_generators(monkeypatch):
    # P_a P_b = P_max(a,b) rests on g_i g_i = g_i: a g_i that is no idempotent
    # (h_i, whose -1 entries square to +1) is refused, not squared wrongly
    monkeypatch.setattr(monoid, "gen_g", gen_h)
    with pytest.raises(ValueError, match="^generator g_1 is not idempotent$"):
        factored_square(2, QQ, twist_factors(2))


def test_factored_square_calls_no_expanded_product(monkeypatch):
    # the prefix products P_k [Q_k] are the only algebra products, none of them
    # x.x: not in factored_square, nor in the monoid and iso checks built on it
    calls = []
    mul = MonoidAlgElem.__mul__

    def counting(a, b):
        calls.append((len(a.terms), len(b.terms)))
        return mul(a, b)

    monkeypatch.setattr(MonoidAlgElem, "__mul__", counting)
    n = 6
    factored_square(n, QQ, twist_factors(n))
    assert calls and all(right <= 2 * n - 1 for _, right in calls)
    calls.clear()
    n = 4
    reports = run_suite(RunConfig(n=n, field=GF(2), checks=("monoid", "iso")))
    assert [r.status for r in reports] == ["pass", "pass"]
    assert calls and all(right <= 2 * n - 1 for _, right in calls)


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=lambda f: f.name)
def test_monoid_check_fails_a_non_commutative_product(monkeypatch, field):
    # the closure loop compares coordinate tuples under `coords_mul`, the
    # rule `word_mul` uses too; a rule that is not commutative fails it
    product = monoid.coords_mul
    monkeypatch.setattr(harness.mo, "coords_mul", lambda a, b: product(a, b) if a <= b else product(a, a))
    (report,) = run_suite(RunConfig(n=3, field=field, checks=("monoid",)))
    assert report.details["closure"] == {"n": 3, "closed": True, "commutative": False}
    assert report.status == "fail" and "closure/commutativity" in report.details["failures"]
