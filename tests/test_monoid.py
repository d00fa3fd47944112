import collections
import itertools
import random

import pytest

from crown.errors import CapExceeded, RejectedWord
from crown.fields import GF, QQ
from crown.monoid import (
    MonoidAlgElem,
    Word,
    act_on_U,
    build_T,
    build_Z,
    check_T_squared,
    gen_g,
    gen_h,
    homset_member,
    stretch_counts,
    wn_enumerate,
    word_count,
    word_mul,
)


def brute_force_words(n):
    """Oracle: filter all (2n+1)-tuples over {1,-1,0} by the definition."""
    out = []
    for coords in itertools.product((1, -1, 0), repeat=2 * n + 1):
        if any(coords[j] == 0 for j in range(0, 2 * n + 1, 2)):
            continue
        if any(coords[j] * coords[j + 1] == -1 for j in range(2 * n)):
            continue
        out.append(coords)
    return out


# -- words -------------------------------------------------------------------

def test_word_validate_accepts_generator_pattern():
    w = Word((1, 0, 1))
    assert w.n == 1 and str(w) == "+0+"


def test_word_validate_rejects_with_first_violation_index():
    with pytest.raises(RejectedWord) as exc:
        Word((1, -1, 1))
    assert exc.value.index == 1
    with pytest.raises(RejectedWord) as exc:
        Word((1, 0, 0))
    assert exc.value.index == 3


def test_word_validate_length_precondition():
    with pytest.raises(ValueError):
        Word((1,))
    with pytest.raises(ValueError):
        Word((1, 0, 1, 0))


def test_word_string_round_trip():
    for text in ("+0+", "---0+", "+0-0+"):
        assert str(Word.from_string(text)) == text


@pytest.mark.parametrize("n", [1, 2])
def test_enumeration_matches_brute_force(n):
    expected = {Word(c) for c in brute_force_words(n)}
    got = set(wn_enumerate(n))
    assert got == expected
    assert len(got) == 2 * 3**n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumeration_count(n):
    assert len(wn_enumerate(n)) == 2 * 3**n


def test_forward_pass_counts_the_words():
    # against the brute-force filter, the enumeration to its cap, and 2 * 3^n beyond
    for n in (1, 2, 3):
        assert word_count(n) == len(brute_force_words(n))
    for n in range(1, 9):
        assert word_count(n) == len(wn_enumerate(n))
    assert [word_count(n) for n in range(9, 21)] == [2 * 3**n for n in range(9, 21)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stretch_counts_match_the_brute_force_filter(n):
    # every valid stretch of positions j..k is the restriction of a word
    words = brute_force_words(n)
    for j in range(1, 2 * n + 2):
        for k in range(j, 2 * n + 2):
            stretches = {w[j - 1:k] for w in words}
            assert stretch_counts(j, k) == dict(collections.Counter((t[0], t[-1]) for t in stretches))


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        wn_enumerate(9)


def test_enumeration_order_is_deterministic():
    # coordinate order is + < - < 0
    assert [str(w) for w in wn_enumerate(1)] == ["+++", "+0+", "+0-", "---", "-0+", "-0-"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closure_and_commutativity_exhaustive(n):
    words = wn_enumerate(n)
    pool = set(words)
    for a in words:
        for b in words:
            ab = word_mul(a, b)
            assert ab in pool
            assert ab == word_mul(b, a)


def test_word_mul_level_mismatch():
    with pytest.raises(ValueError):
        word_mul(Word.identity(1), Word.identity(2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_word_mul_equals_the_validated_word(n):
    # word_mul does not re-validate its product; every product must pass validation
    words = wn_enumerate(n)
    for a in words:
        for b in words:
            validated = Word(tuple(x * y for x, y in zip(a.coords, b.coords)))
            ab = word_mul(a, b)
            assert ab == validated and hash(ab) == hash(validated)


# -- generators -----------------------------------------------------------------

def test_generator_displays():
    assert str(gen_g(2, 1)) == "+0+++"
    assert str(gen_h(2, 2)) == "---0+"
    assert str(gen_h(1, 1)) == "-0+"


def test_generator_range():
    with pytest.raises(ValueError):
        gen_g(2, 3)
    with pytest.raises(ValueError):
        gen_h(2, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_relations(n):
    for i in range(1, n + 1):
        g, h = gen_g(n, i), gen_h(n, i)
        assert word_mul(g, g) == g
        assert word_mul(h, h) == g
        assert word_mul(g, h) == h


# -- monoid algebra ----------------------------------------------------------------

def test_alg_product_idempotent_difference():
    # (1 - [g1]) * (1 + [g1]) = 1 - [g1]  because g1 is idempotent
    one = MonoidAlgElem.one(QQ, 1)
    g = MonoidAlgElem.from_word(QQ, gen_g(1, 1))
    assert (one - g) * (one + g) == one - g


def test_alg_zero_absorbs():
    zero = MonoidAlgElem.zero(QQ, 1)
    t = build_T(1, QQ)
    assert zero * t == zero
    assert t.scale(0) == zero


def test_alg_h_squared_is_g():
    h = MonoidAlgElem.from_word(QQ, gen_h(1, 1))
    assert h * h == MonoidAlgElem.from_word(QQ, gen_g(1, 1))


def test_alg_mismatch_errors():
    with pytest.raises(ValueError):
        MonoidAlgElem.one(QQ, 1) + MonoidAlgElem.one(QQ, 2)
    with pytest.raises(ValueError):
        MonoidAlgElem.one(QQ, 1) * MonoidAlgElem.one(GF(2), 1)


def test_build_T_single_term_at_level_one():
    assert build_T(1, QQ) == MonoidAlgElem.from_word(QQ, gen_h(1, 1))


def test_build_Z_level_one():
    one = MonoidAlgElem.one(QQ, 1)
    g = MonoidAlgElem.from_word(QQ, gen_g(1, 1))
    assert build_Z(1, QQ) == one - g


def test_build_Z_level_two_expansion():
    z = build_Z(2, QQ)
    one = Word.identity(2)
    g1, g2 = gen_g(2, 1), gen_g(2, 2)
    expected = {
        one: QQ.one,
        g1: QQ.from_int(-1),
        g2: QQ.from_int(-1),
        word_mul(g1, g2): QQ.one,
    }
    assert z.terms == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_term_counts_and_unit_coefficients(n):
    t = build_T(n, QQ)
    z = build_Z(n, QQ)
    assert len(t.terms) == 2**n - 1
    assert len(z.terms) == 2**n
    assert all(v in (QQ.one, QQ.from_int(-1)) for v in t.terms.values())
    assert all(v in (QQ.one, QQ.from_int(-1)) for v in z.terms.values())


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_square_identity(field, n):
    assert check_T_squared(n, field)


# -- the sign action -------------------------------------------------------------

def test_act_on_U_rule():
    assert act_on_U(gen_h(1, 1), 1) == -1
    assert act_on_U(Word.identity(3), -1) == -1
    with pytest.raises(ValueError):
        act_on_U(Word.identity(1), 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_homset_membership_of_the_distinguished_elements(n):
    t = build_T(n, QQ)
    z = build_Z(n, QQ)
    for s in (1, -1):
        assert homset_member(t, s, -s)
        assert not homset_member(t, s, s)
        assert homset_member(z, s, s)


def test_homset_composition_closure():
    # elements supported on (s -> t) and (t -> u) multiply into (s -> u)
    rng = random.Random(11)
    n = 2
    words = wn_enumerate(n)

    def random_homset_element(s, t):
        pool = [w for w in words if act_on_U(w, s) == t]
        picks = rng.sample(pool, 3)
        return MonoidAlgElem.from_terms(
            QQ, n, [(rng.randint(1, 4), w) for w in picks]
        )

    for s in (1, -1):
        for t in (1, -1):
            for u in (1, -1):
                x = random_homset_element(s, t)
                y = random_homset_element(t, u)
                assert homset_member(y * x, s, u)


def test_homset_vacuous_on_zero():
    assert homset_member(MonoidAlgElem.zero(QQ, 2), 1, -1)


def test_alg_mul_commutative_on_random_elements():
    rng = random.Random(13)
    words = wn_enumerate(2)
    for _ in range(10):
        a = MonoidAlgElem.from_terms(
            QQ, 2, [(rng.randint(-3, 3), rng.choice(words)) for _ in range(4)]
        )
        b = MonoidAlgElem.from_terms(
            QQ, 2, [(rng.randint(-3, 3), rng.choice(words)) for _ in range(4)]
        )
        assert a * b == b * a


# -- serialization ------------------------------------------------------------------

def test_elem_json_round_trip():
    t = build_T(2, QQ)
    data = t.to_json()
    assert data[0]["word"] and "coeff" in data[0]
    assert MonoidAlgElem.from_json(QQ, 2, data) == t


def test_elem_json_round_trip_prime_field():
    t = build_T(3, GF(5))
    assert MonoidAlgElem.from_json(GF(5), 3, t.to_json()) == t
