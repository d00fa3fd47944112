import itertools
import random
from fractions import Fraction

import pytest

from crown.errors import CapExceeded, HomSetViolation
from crown.fields import GF, QQ
from crown.graph_algebra import Algebra, annihilator_grading, is_multiplicative, q_ungraded
from crown.graphs import build_C, graph_new
from crown import linalg, loday
from crown.linalg import Matrix, _merged_terms, mat_compose, tensor_product_sum_witness
from crown.loday import (
    NatTransData,
    Surjection,
    cofunctor_eval,
    functor_check,
    iso_check,
    lemma_check,
    lemma_proof_trace,
    lemma_witness,
    loday_matrix,
    naturality_witness,
    surj_compose,
    surjections,
    transport_square_check,
)
from crown.monoid import (
    MonoidAlgElem,
    Word,
    act_on_U,
    build_T,
    build_Z,
    gen_g,
    gen_h,
)
from conftest import (
    identity_family,
    is_associative,
    is_identity_family,
    is_identity_surjection,
    is_zero_family,
    naturality_check,
    random_graph,
    reference_functor_check,
    reference_is_multiplicative,
    reference_iso_claims,
    reference_loday_matrix,
    reference_transport_square_check,
)


PATH3 = graph_new(["a", "b", "c"], [("a", "b"), ("b", "c")])


def brute_force_surjections(p, q):
    return [
        images
        for images in itertools.product(range(1, q + 1), repeat=p)
        if set(images) == set(range(1, q + 1))
    ]


# -- the surjection category ---------------------------------------------------

def test_surjection_counts_against_brute_force():
    assert len(surjections(2, 1)) == 1
    got = [s.images for s in surjections(3, 2)]
    assert got == brute_force_surjections(3, 2)
    assert len(got) == 6
    assert surjections(2, 3) == []


def test_surjection_validation():
    with pytest.raises(ValueError):
        Surjection(2, 2, (1, 1))
    with pytest.raises(ValueError):
        Surjection(1, 2, (1,))
    with pytest.raises(CapExceeded):
        surjections(7, 2)


def test_surjection_composition():
    s = Surjection(3, 2, (1, 1, 2))
    collapse = Surjection(2, 1, (1, 1))
    assert surj_compose(collapse, s).images == (1, 1, 1)
    assert surj_compose(Surjection.identity(2), s) == s
    assert surj_compose(s, Surjection.identity(3)) == s


def test_surjection_identity_predicate():
    assert is_identity_surjection(Surjection.identity(3))
    assert not is_identity_surjection(Surjection(2, 2, (2, 1)))  # a swap is not the identity


def test_surjection_composition_associative_sampled():
    rng = random.Random(61)
    for _ in range(20):
        s = rng.choice(surjections(4, 3))
        t = rng.choice(surjections(3, 2))
        u = rng.choice(surjections(2, 1))
        assert surj_compose(u, surj_compose(t, s)) == surj_compose(surj_compose(u, t), s)


# -- tensor-power matrices -------------------------------------------------------

def test_loday_identity_surjection_gives_identity():
    alg = q_ungraded(PATH3, QQ)
    for p in (1, 2):
        assert loday_matrix(alg, Surjection.identity(p)) == Matrix.identity(QQ, alg.dim**p)


def test_loday_collapse_is_the_multiplication_matrix():
    alg = q_ungraded(PATH3, QQ)
    m = loday_matrix(alg, Surjection(2, 1, (1, 1)))
    d = alg.dim
    # oracle: the column of (j,k) is the structure-constant vector e_j e_k
    for j in range(d):
        for k in range(d):
            assert m.col(j * d + k) == alg.product_basis(j, k)


def test_loday_triple_collapse_vanishes():
    alg = q_ungraded(PATH3, GF(5))
    assert loday_matrix(alg, Surjection(3, 1, (1, 1, 1))).is_zero()


def test_loday_cap():
    alg = q_ungraded(PATH3, QQ)
    with pytest.raises(CapExceeded):
        loday_matrix(alg, Surjection(3, 1, (1, 1, 1)), max_tensor_dim=10)


def all_surjections_up_to(r):
    return [s for p in range(1, r + 1) for q in range(1, p + 1) for s in surjections(p, q)]


def hand_algebra(field):
    """A commutative algebra that is not associative: (e0 e0) e1 != e0 (e0 e1).

    Its products have several terms and coefficients other than one, so
    the tensor products see general entries.
    """
    c = field.coerce
    table = {
        (0, 0): {0: c(2), 1: c(-1)},
        (0, 1): {1: c(3), 2: c(Fraction(1, 2))},
        (0, 2): {0: c(1), 2: c(-2)},
        (1, 1): {2: c(4)},
        (1, 2): {0: c(-1), 1: c(1), 2: c(1)},
    }
    return Algebra(field, ["a", "b", "c"], table)


def perturbed_crown_algebra(field):
    """The n = 2 simple crown algebra with e0 e0 given an extra e0 term.

    Every other product stays that of the graph algebra, so
    (e0 e0) e_j = e0 e_j is nonzero for a neighbour j of vertex 0 while
    e0 (e0 e_j) = 0: the algebra is not associative.
    """
    alg = q_ungraded(build_C(2, 1)[0], field)
    table = {
        (i, j): dict(alg.product_basis(i, j))
        for i in range(alg.dim)
        for j in range(i, alg.dim)
        if alg.product_basis(i, j)
    }
    table[(0, 0)][0] = field.one
    return Algebra(field, alg.basis, table)


def loday_differential_cases():
    rng = random.Random(71)
    cases = []
    for field in (QQ, GF(2), GF(3), GF(5)):
        for k in range(2):
            g = random_graph(rng, max_vertices=4, min_vertices=3, p_edge=0.6)
            cases.append(pytest.param(q_ungraded(g, field), id=f"random-{field.name}-{k}"))
    for sign in (1, -1):
        cases.append(pytest.param(q_ungraded(build_C(2, sign)[0], GF(3)), id=f"crown2{sign:+d}-GF(3)"))
    for field in (QQ, GF(5)):
        cases.append(pytest.param(hand_algebra(field), id=f"hand-{field.name}"))
    cases.append(pytest.param(annihilator_grading(q_ungraded(PATH3, GF(3))), id="regraded-path3"))
    return cases


@pytest.mark.parametrize("alg", loday_differential_cases())
def test_loday_matrix_matches_the_per_column_oracle(alg):
    shared = loday._LodayCache(alg, loday.DEFAULT_TENSOR_CAP)  # one product per fibre-size pattern
    for s in all_surjections_up_to(3):
        assert loday_matrix(alg, s) == reference_loday_matrix(alg, s), s
        assert shared.mat(s) == reference_loday_matrix(alg, s), s


def test_functor_laws_trivial_at_r1():
    assert functor_check(q_ungraded(PATH3, QQ), 1)


def test_functor_laws_random_graph_f5():
    rng = random.Random(67)
    g = random_graph(rng, max_vertices=4, min_vertices=4)
    assert functor_check(q_ungraded(g, GF(5)), 3)


def test_functor_laws_crown_rationals():
    assert functor_check(q_ungraded(build_C(2, 1)[0], QQ), 2)


def test_functor_check_rejects_a_non_associative_algebra():
    for field in (QQ, GF(5)):
        alg = hand_algebra(field)
        e = field.one
        assert alg.mult(alg.mult({0: e}, {0: e}), {1: e}) != alg.mult({0: e}, alg.mult({0: e}, {1: e}))
        assert functor_check(alg, 2)  # commutativity alone passes every law below r = 3
        assert not functor_check(alg, 3)


def test_functor_check_rejects_a_perturbed_crown_algebra():
    alg = perturbed_crown_algebra(GF(2))
    assert not is_associative(alg)
    assert functor_check(alg, 2)
    assert not functor_check(alg, 3)


def test_generating_surjections_reach_every_surjection():
    for p in range(1, 5):
        reached = {Surjection.identity(p)}
        frontier = list(reached)
        while frontier:
            frontier = [
                c
                for s in frontier
                for g in loday._generating_surjections(s.q)
                if (c := surj_compose(g, s)) not in reached
            ]
            reached.update(frontier)
        assert reached == {s for s in all_surjections_up_to(4) if s.p == p}, p


@pytest.mark.parametrize(
    "alg",
    loday_differential_cases() + [pytest.param(perturbed_crown_algebra(GF(2)), id="perturbed-crown-GF(2)")],
)
def test_functor_check_matches_the_all_pairs_oracle(alg):
    for r in (1, 2, 3):
        assert functor_check(alg, r) == reference_functor_check(alg, r), r


@pytest.mark.parametrize("images", [(2, 3, 1), (1, 1, 1)], ids=["3-cycle", "merge-3-to-1"])
def test_functor_check_catches_one_changed_entry_of_a_non_generator(monkeypatch, images):
    alg = q_ungraded(PATH3, GF(5))
    target = Surjection(3, max(images), images)
    assert target not in loday._generating_surjections(3)
    assert functor_check(alg, 3) and reference_functor_check(alg, 3)
    mat = loday._LodayCache.mat

    def perturbed(self, s):
        m = mat(self, s)
        if s != target:
            return m
        cols = list(m._cols)
        cols[0] = dict(cols[0])
        cols[0][0] = alg.field.add(cols[0].get(0, alg.field.zero), alg.field.one)
        return Matrix(m.field, m.nrows, m.ncols, cols)

    monkeypatch.setattr(loday._LodayCache, "mat", perturbed)
    assert loday_matrix(alg, target) != reference_loday_matrix(alg, target)
    assert not functor_check(alg, 3)
    assert not reference_functor_check(alg, 3)


# -- word families -----------------------------------------------------------------

def test_cofunctor_identity_element():
    one = MonoidAlgElem.one(QQ, 2)
    eta = cofunctor_eval(2, 2, one, 1, 1, target="C")
    assert is_identity_family(eta)
    eta_b = cofunctor_eval(2, 2, one, 1, 1, target="B")
    assert is_identity_family(eta_b)


def test_cofunctor_homset_guard():
    z = build_Z(2, QQ)
    with pytest.raises(HomSetViolation):
        cofunctor_eval(2, 1, z, 1, -1, target="C")


def test_cofunctor_alternating_element_vanishes_below_level():
    for field in (QQ, GF(2)):
        z = build_Z(2, field)
        for s in (1, -1):
            eta = cofunctor_eval(2, 1, z, s, s, target="C")
            assert is_zero_family(eta)


def test_cofunctor_contravariant_multiplicativity():
    n, f = 2, QQ
    t = build_T(n, f)
    # X: - -> +, Y: + -> -, so YX: - -> - and c(YX) = c(X) . c(Y)
    c_x = cofunctor_eval(n, 1, t, -1, 1, target="C")
    c_y = cofunctor_eval(n, 1, t, 1, -1, target="C")
    c_yx = cofunctor_eval(n, 1, t * t, -1, -1, target="C")
    assert c_yx.components[1] == mat_compose(c_x.components[1], c_y.components[1])
    # and on the strip, signs play no role
    b_x = cofunctor_eval(n, 1, t, 0, 0, target="B")
    b_yx = cofunctor_eval(n, 1, t * t, 0, 0, target="B")
    assert b_yx.components[1] == mat_compose(b_x.components[1], b_x.components[1])


def test_cofunctor_zero_element_gives_zero_maps():
    # the zero element has no words, but its family still has every shape
    for target, dim in (("C", 36), ("B", 40)):
        eta = cofunctor_eval(2, 2, MonoidAlgElem.zero(QQ, 2), 1, -1, target=target)
        for p in (1, 2):
            assert eta.components[p] == Matrix.zero(QQ, dim**p, dim**p)


def test_cofunctor_tensor_cap():
    t = build_T(2, QQ)
    with pytest.raises(CapExceeded):
        cofunctor_eval(2, 2, t, -1, 1, target="C", max_tensor_dim=100)


def test_lemma_stream_cap(monkeypatch):
    # the walk's work budget bounds lemma: n = 3 takes 464 units at p = 1
    # and 2320 at p = 2, so a budget of 1000 stops p = 2 and names its total
    monkeypatch.setattr(linalg, "WALK_BUDGET", 1000)
    assert lemma_check(3, 1, QQ)
    with pytest.raises(CapExceeded, match="reached 2320 work units, over the budget 1000"):
        lemma_check(3, 2, QQ)


def test_single_word_families_are_natural():
    f, n = QQ, 2
    for word, s in ((gen_g(n, 1), 1), (gen_h(n, 2), -1)):
        x = MonoidAlgElem.from_word(f, word)
        from crown.monoid import act_on_U

        eta = cofunctor_eval(n, 2, x, s, act_on_U(word, s), target="C")
        assert naturality_check(eta)


def test_cofunctor_linearity():
    n, f = 2, QQ
    g1 = MonoidAlgElem.from_word(f, gen_g(n, 1))
    g2 = MonoidAlgElem.from_word(f, gen_g(n, 2))
    lhs = cofunctor_eval(n, 1, g1 + g2.scale(3), 1, 1, target="B")
    a = cofunctor_eval(n, 1, g1, 1, 1, target="B")
    b = cofunctor_eval(n, 1, g2, 1, 1, target="B")
    assert lhs.components[1] == a.components[1] + b.components[1].scale(3)


# -- the annihilation statement ------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_lemma_level_two(field):
    assert lemma_check(2, 1, field)


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("p", [1, 2])
def test_lemma_level_three(field, p):
    assert lemma_check(3, p, field)


def test_lemma_outside_the_claim_is_nonzero():
    # at p = n the alternating sum does not vanish; no claim is made there.
    # The witnesses are pinned: the lowest nonzero column, then its lowest row.
    assert lemma_witness(2, 2, QQ) == ((2, 7), (2, 7), QQ.one)
    assert lemma_witness(3, 3, QQ) == ((2, 7, 12), (2, 7, 12), QQ.one)


def test_lemma_trace_level_two():
    trace = lemma_proof_trace(2, 1, QQ)
    assert trace.e1_rank == 40 and trace.e1_cols == 40
    assert trace.left_inverse_verified
    assert trace.intertwining_ok
    assert trace.off_window_identity_ok
    assert trace.missing_index_always_exists
    assert trace.summand_annihilation_ok
    assert trace.passed
    assert [t for t, _ in trace.tuples] == [(1,), (2,)]
    assert all(missing is not None for _, missing in trace.tuples)


def test_lemma_trace_level_three():
    trace = lemma_proof_trace(3, 2, QQ)
    assert trace.e1_rank == 58 and trace.e1_cols == 58
    assert trace.ep_rank == 58**2
    assert trace.passed


def test_lemma_trace_fails_when_windows_do_not_intertwine(monkeypatch):
    # negative control: every word acting as the identity on every window
    window_action = loday._window_action_matrix
    monkeypatch.setattr(
        loday,
        "_window_action_matrix",
        lambda n, i, w, field: Matrix.identity(field, window_action(n, i, w, field).nrows),
    )
    trace = lemma_proof_trace(2, 1, QQ)
    assert trace.intertwining_ok is False
    assert trace.passed is False


def test_lemma_trace_fails_when_one_summand_matrix_is_perturbed(monkeypatch):
    # negative control for the summand expansion over Z's words: g_1's
    # window-1 matrix plus one entry breaks the cancellation on tuple (1, 1)
    window_action = loday._window_action_matrix
    g1 = gen_g(3, 1)

    def perturbed(n, i, w, field):
        m = window_action(n, i, w, field)
        if (i, w) == (1, g1):
            m = m + Matrix.from_entries(field, m.nrows, m.ncols, [(0, 0, field.one)])
        return m

    monkeypatch.setattr(loday, "_window_action_matrix", perturbed)
    assert lemma_proof_trace(3, 2, QQ).summand_annihilation_ok is False


@pytest.mark.parametrize("side", ["window", "strip"])
def test_lemma_trace_fails_when_one_z_word_does_not_intertwine(monkeypatch, side):
    # negative control for (ii) over Z's words: one entry more on the window-3
    # matrix or the strip matrix of g_1 g_2 alone, a word that is no generator
    word = gen_g(3, 1) * gen_g(3, 2)
    window_action, action = loday._window_action_matrix, loday._action_matrix

    def bumped(m, field):
        return m + Matrix.from_entries(field, m.nrows, m.ncols, [(0, 0, field.one)])

    if side == "window":
        monkeypatch.setattr(
            loday,
            "_window_action_matrix",
            lambda n, i, w, field: bumped(window_action(n, i, w, field), field) if (i, w) == (3, word)
            else window_action(n, i, w, field),
        )
    else:
        monkeypatch.setattr(
            loday,
            "_action_matrix",
            lambda n, w, s, target, field: bumped(action(n, w, s, target, field), field) if w == word
            else action(n, w, s, target, field),
        )
    trace = lemma_proof_trace(3, 2, QQ)
    assert trace.intertwining_ok is False
    assert trace.off_window_identity_ok
    assert trace.passed is False


def test_lemma_trace_requires_power_below_level():
    with pytest.raises(ValueError):
        lemma_proof_trace(2, 2, QQ)


# -- naturality -------------------------------------------------------------------------

def test_identity_family_is_natural():
    alg = q_ungraded(build_C(2, 1)[0], QQ)
    assert naturality_check(identity_family(alg, 2))


def test_twist_family_is_natural():
    t = build_T(2, QQ)
    eta = cofunctor_eval(2, 2, t, -1, 1, target="C")
    assert naturality_check(eta)


def test_corrupted_family_fails_naturality():
    t = build_T(2, QQ)
    eta = cofunctor_eval(2, 2, t, -1, 1, target="C")
    # perturb a slot the collapse square actually constrains: a column whose
    # row in the source multiplication matrix is nonzero
    collapse = loday_matrix(eta.source, Surjection(2, 1, (1, 1)))
    constrained = collapse.to_triples()[0][0]
    bad = dict(eta.components)
    bump = Matrix.from_entries(QQ, bad[1].nrows, bad[1].ncols, [(0, constrained, 1)])
    bad[1] = bad[1] + bump
    broken = NatTransData(eta.r, eta.source, eta.target, bad)
    witness = naturality_witness(broken)
    assert witness is not None
    assert "surjection" in witness


# -- transport squares ---------------------------------------------------------------

def test_transport_identity_element():
    one = MonoidAlgElem.one(QQ, 2)
    assert transport_square_check(2, 1, one, 1, 1)


def test_transport_standard_set_level_two():
    f, n = QQ, 2
    cases = [
        (MonoidAlgElem.one(f, n), 1, 1),
        (MonoidAlgElem.from_word(f, gen_g(n, 1)), 1, 1),
        (MonoidAlgElem.from_word(f, gen_g(n, 2)), 1, 1),
        (MonoidAlgElem.from_word(f, gen_h(n, 1)), 1, -1),
        (MonoidAlgElem.from_word(f, gen_h(n, 2)), -1, 1),
        (build_T(n, f), -1, 1),
        (build_T(n, f), 1, -1),
        (build_Z(n, f), 1, 1),
        (build_Z(n, f), -1, -1),
    ]
    for x, s, t in cases:
        assert transport_square_check(n, 1, x, s, t)


def transport_elements(n, f):
    """The transport check's elements: (name, element, s, t)."""
    elements = [("1", MonoidAlgElem.one(f, n), 1, 1)]
    for i in range(1, n + 1):
        elements.append((f"g{i}", MonoidAlgElem.from_word(f, gen_g(n, i)), 1, 1))
        h = gen_h(n, i)
        elements.append((f"h{i}", MonoidAlgElem.from_word(f, h), 1, act_on_U(h, 1)))
    elements.append(("T", build_T(n, f), -1, 1))
    elements.append(("Z", build_Z(n, f), 1, 1))
    return elements


def perturb_crown_word(monkeypatch, word):
    """Change entry (0, 0) of the crown matrices of one word by one.

    One word, not all: an element whose coefficients sum to zero (the
    alternating one) would cancel a perturbation shared by every word.
    """
    action = loday._action_matrix

    def perturbed(n, w, s, target, field):
        m = action(n, w, s, target, field)
        if target != "C" or w != word:
            return m
        return m + Matrix.from_entries(field, m.nrows, m.ncols, [(0, 0, 1)])

    monkeypatch.setattr(loday, "_action_matrix", perturbed)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_transport_at_every_power_cancels_in_the_merge(field):
    n = 4
    for name, x, s, t in transport_elements(n, field):
        assert transport_square_check(n, n - 1, x, s, t), name
        products = loday._transport_products(n, x, s, t)
        for p in range(1, n):
            # each word's square holds at p = 1, so no term survives the merge
            assert _merged_terms(field, loday._power_terms(products, p)) == [], (name, p)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_transport_fails_with_a_perturbed_word_matrix(monkeypatch, field):
    # negative control: the full cancellation above is not vacuous
    n = 3
    for name, x, s, t in transport_elements(n, field):
        with monkeypatch.context() as patch:
            perturb_crown_word(patch, min(x.terms, key=Word.sort_key))
            products = loday._transport_products(n, x, s, t)
            for p in (1, 2):
                assert tensor_product_sum_witness(loday._power_terms(products, p), p) is not None, (name, p)
            assert not transport_square_check(n, 1, x, s, t), name
            assert not reference_transport_square_check(n, 1, x, s, t), name


def test_transport_fails_with_a_perturbed_projection(monkeypatch):
    q_hom = loday.q_hom

    def perturbed(morphism, field):
        m = q_hom(morphism, field)
        if m.nrows == m.ncols:  # a word matrix; only the strip-by-crown projections change
            return m
        return m + Matrix.from_entries(field, m.nrows, m.ncols, [(0, 0, 1)])

    monkeypatch.setattr(loday, "q_hom", perturbed)
    for field in (QQ, GF(2)):
        x = build_T(3, field)
        products = loday._transport_products(3, x, -1, 1)
        for p in (1, 2):
            assert tensor_product_sum_witness(loday._power_terms(products, p), p) is not None
        assert not transport_square_check(3, 2, x, -1, 1)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_transport_checks_every_power(monkeypatch, field):
    # +E on one strip word and -E on another leave the p = 1 sum unchanged
    # but not the squares of the words, so only p = 2 fails
    n = 3
    g1, g2 = gen_g(n, 1), gen_g(n, 2)
    x = MonoidAlgElem.from_word(field, g1) + MonoidAlgElem.from_word(field, g2)
    action = loday._action_matrix

    def perturbed(n, w, s, target, field):
        m = action(n, w, s, target, field)
        if target != "B" or w not in (g1, g2):
            return m
        bump = Matrix.from_entries(field, m.nrows, m.ncols, [(0, 0, 1 if w == g1 else -1)])
        return m + bump

    monkeypatch.setattr(loday, "_action_matrix", perturbed)
    assert transport_square_check(n, 1, x, 1, 1)
    assert reference_transport_square_check(n, 1, x, 1, 1)
    assert not transport_square_check(n, 2, x, 1, 1)
    assert not reference_transport_square_check(n, 2, x, 1, 1)


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("n", [2, 3])
def test_transport_matches_the_materialized_squares(field, n):
    for name, x, s, t in transport_elements(n, field):
        assert transport_square_check(n, n - 1, x, s, t), name
        assert reference_transport_square_check(n, n - 1, x, s, t), name


# -- the crown isomorphism --------------------------------------------------------------

def test_iso_level_two_rationals():
    report = iso_check(2, QQ)
    assert report.status == "PASS"
    assert report.certified_ok and report.squares_ok and report.inverse_ok
    assert report.z_component_zero and report.factored_identity_ok


def test_iso_level_three_f2():
    report = iso_check(3, GF(2))
    assert report.status == "PASS"


def test_iso_negative_control_fails():
    control = iso_check(2, QQ, element="Z")
    assert control.status == "FAIL"
    assert not control.inverse_ok


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_iso_skips_naturality_after_a_failed_sub_claim(monkeypatch, field):
    # the control fails in the streamed sub-claims, so neither the
    # certificate nor the squares run
    def raising(*args, **kwargs):
        raise AssertionError("naturality attempted after a failed sub-claim")

    monkeypatch.setattr(loday, "naturality_witness", raising)
    monkeypatch.setattr(loday, "is_multiplicative", raising)
    control = iso_check(3, field, element="Z")
    assert control.status == "FAIL"
    assert control.certified_ok is None and control.squares_ok is None
    assert control.skip_reason == "a streamed sub-claim failed"
    assert not control.inverse_ok and not control.factored_identity_ok and control.z_component_zero
    assert set(control.witness) == {"inverse", "factored"}
    with pytest.raises(AssertionError):
        iso_check(2, field)  # the twist element's sub-claims hold, so it does run


def test_iso_requires_level_two():
    with pytest.raises(ValueError):
        iso_check(1, QQ)


ISO_TARGETS = {"T": {1: -1, -1: 1}, "Z": {1: 1, -1: -1}}


def streamed_claims(report):
    return {
        "inverse": report.inverse_ok,
        "factored": report.factored_identity_ok,
        "z_zero": report.z_component_zero,
    }


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("n", [2, 3])
def test_iso_sub_claims_match_the_materialized_composites(field, n):
    # the naturality squares are capped away, so the status is never PASS
    for element, build in (("T", build_T), ("Z", build_Z)):
        report = iso_check(n, field, element, max_tensor_dim=1)
        assert report.squares_ok is None
        assert report.status == ("SKIPPED" if element == "T" else "FAIL")
        expected = reference_iso_claims(n, field, build(n, field), ISO_TARGETS[element])
        assert streamed_claims(report) == expected, element
        assert expected == (
            {"inverse": True, "factored": True, "z_zero": True}
            if element == "T"
            else {"inverse": False, "factored": False, "z_zero": True}
        )


def test_iso_sub_claims_fail_with_a_perturbed_word_matrix(monkeypatch):
    # a twist word breaks the inverse; an alternating word breaks the
    # factored identity and the vanishing family but not the inverse
    for field in (QQ, GF(2)):
        x = build_T(2, field)
        for build, expected in (
            (build_T, {"inverse": False, "factored": False, "z_zero": True}),
            (build_Z, {"inverse": True, "factored": False, "z_zero": False}),
        ):
            with monkeypatch.context() as patch:
                perturb_crown_word(patch, min(build(2, field).terms, key=Word.sort_key))
                report = iso_check(2, field, max_tensor_dim=1)
                assert streamed_claims(report) == reference_iso_claims(2, field, x, ISO_TARGETS["T"]) == expected
            assert report.status == "FAIL"


def three_walk_sub_claims(n, field, element):
    """(claims, witness) of iso's streamed sub-claims from three zero tests per sign and power."""
    x = {"T": build_T, "Z": build_Z}[element](n, field)
    targets = ISO_TARGETS[element]
    families = {s: loday._word_terms(n, x, s, targets[s], "C") for s in (1, -1)}
    claims = {"inverse": True, "factored": True, "z_zero": True}
    witness = {}
    for s in (1, -1):
        products = [
            (field.mul(c, c2), mat_compose(m, m2)) for c, m in families[s] for c2, m2 in families[targets[s]]
        ]
        products.append((field.neg(field.one), Matrix.identity(field, products[0][1].nrows)))
        z_words = loday._word_terms(n, build_Z(n, field), s, s, "C")
        for p in range(1, n):
            inverse = [(c, [m] * p) for c, m in products]
            alternating = [(c, [m] * p) for c, m in z_words]
            if tensor_product_sum_witness(alternating, p) is not None:
                claims["z_zero"] = False
            if tensor_product_sum_witness(inverse, p) is not None:
                claims["inverse"] = False
                witness.setdefault("inverse", f"composite on sign {s} differs at power {p}")
            if tensor_product_sum_witness(inverse + alternating, p) is not None:
                claims["factored"] = False
                witness.setdefault("factored", f"composite on sign {s} power {p} breaks the factored identity")
    if not claims["z_zero"]:
        witness["z_component"] = "alternating-element family is not zero"
    return claims, witness


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_iso_walks_the_inverse_only_where_the_other_two_families_do_not_decide_it(monkeypatch, field):
    # factored = inverse + alternating, so the inverse family is walked only
    # when both others are nonzero at some power: a perturbed alternating
    # word makes them so, and the verdicts must be the three-walk ones
    n = 3
    z_word = min(build_Z(n, field).terms, key=Word.sort_key)
    t_word = min(build_T(n, field).terms, key=Word.sort_key)
    for element, words, walk_count, expected in (
        ("T", [], 4, (True, True, True)),
        ("Z", [], 4, (False, False, True)),
        ("T", [z_word], 6, (True, False, False)),
        ("T", [z_word, t_word], 6, (False, False, False)),
    ):
        with monkeypatch.context() as patch:
            for word in words:
                perturb_crown_word(patch, word)
            walks = []
            real = loday.tensor_sum_prefixes
            patch.setattr(loday, "tensor_sum_prefixes", lambda terms, p: walks.append(p) or real(terms, p))
            report = iso_check(n, field, element, max_tensor_dim=1)
            claims, witness = three_walk_sub_claims(n, field, element)
        assert walks == [n - 1] * walk_count, (element, words)
        assert streamed_claims(report) == claims == dict(zip(("inverse", "factored", "z_zero"), expected))
        assert report.witness == witness, (element, words)


def test_iso_level_four_f2_with_naturality_capped():
    # the squares stop at p = 2 (72^2 is under the default tensor cap), and
    # the certificate covers every power
    report = iso_check(4, GF(2))
    assert report.certified_ok and report.squares_ok and report.skip_reason == ""
    assert report.inverse_ok and report.factored_identity_ok and report.z_component_zero
    assert report.status == "PASS"
    control = iso_check(4, GF(2), element="Z")
    assert control.status == "FAIL"
    assert not control.inverse_ok and not control.factored_identity_ok


def word_matrix_certificate(n, field, x, targets):
    """Whether every crown word matrix of x, on both signs, is an algebra map.

    Each verdict must equal the all-pairs comparison's: the pairs that
    `is_multiplicative` skips are zero on both sides.
    """
    crowns = {s: q_ungraded(build_C(n, s)[0], field) for s in (1, -1)}
    verdicts = []
    for s in (1, -1):
        source, target = crowns[targets[s]], crowns[s]
        for _, m in loday._word_terms(n, x, s, targets[s], "C"):
            verdicts.append(is_multiplicative(source, target, m))
            assert verdicts[-1] == reference_is_multiplicative(source, target, m)
    return all(verdicts)


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("n", [2, 3])
def test_naturality_certificate_matches_the_squares_at_every_power(field, n):
    # differential test: the certificate's verdict is the verdict of every
    # materialized naturality square at p <= n - 1
    for element, build in (("T", build_T), ("Z", build_Z)):
        x, targets = build(n, field), ISO_TARGETS[element]
        squares = all(
            naturality_witness(cofunctor_eval(n, n - 1, x, s, targets[s])) is None for s in (1, -1)
        )
        assert word_matrix_certificate(n, field, x, targets) == squares, element
        assert squares, element
    assert iso_check(n, field).certified_ok is True


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_a_perturbed_twist_word_fails_the_certificate_and_the_squares(monkeypatch, field):
    # called directly: inside iso_check the streamed inverse fails first
    n, x, targets = 3, build_T(3, field), ISO_TARGETS["T"]
    perturb_crown_word(monkeypatch, min(x.terms, key=Word.sort_key))
    assert not word_matrix_certificate(n, field, x, targets)
    assert any(naturality_witness(cofunctor_eval(n, 2, x, s, targets[s])) is not None for s in (1, -1))
    report = iso_check(n, field)
    assert report.status == "FAIL" and report.certified_ok is None


def test_iso_materializes_nothing_above_power_two(monkeypatch):
    # the certificate covers p = 3; the squares stop at p = 2
    powers = []

    def recording(n, r, *args, **kwargs):
        powers.append(r)
        return cofunctor_eval(n, r, *args, **kwargs)

    monkeypatch.setattr(loday, "cofunctor_eval", recording)
    report = iso_check(4, GF(2))
    assert report.status == "PASS" and powers == [2, 2]


def test_nat_trans_json_shape():
    t = build_T(2, QQ)
    eta = cofunctor_eval(2, 1, t, -1, 1, target="C")
    data = eta.to_json()
    assert data["r"] == 1
    assert data["dims"] == [36, 36]
    assert len(data["components"]) == 1
    assert all(len(entry) == 3 for entry in data["components"][0])
