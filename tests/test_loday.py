import itertools
import random
from fractions import Fraction

import pytest

from crown.errors import CapExceeded, HomSetViolation
from crown.fields import GF, QQ
from crown.graph_algebra import Algebra, annihilator_grading, is_multiplicative, q_ungraded, rows_matrix
from crown.graphs import build_C, graph_new, is_admissible
from crown import linalg, loday, monoid
from crown.harness import RunConfig, run_suite
from crown.linalg import Matrix, kron_sum, mat_compose
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
import conftest
from conftest import (
    bumped_row,
    expanded_square,
    transport_elements,
    generating_surjections,
    generator_functor_check,
    identity_family,
    is_associative,
    is_identity_family,
    is_identity_surjection,
    is_zero_family,
    naturality_check,
    naturality_witness,
    random_graph,
    reference_act_as_products,
    reference_functor_check,
    reference_is_multiplicative,
    reference_iso_claims,
    reference_loday_matrix,
    reference_transport_square_check,
    family_witness,
    tensor_product_sum_witness,
    word_matrices,
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


def test_functor_check_finds_a_failure_whose_left_side_is_structurally_zero():
    # e0 e1 = 0, so (e0 e1) e2 = 0 makes (0, 1, 2) no candidate, while
    # e0 (e1 e2) = e0 e3 = e5; the reversed triple (2, 1, 0) states the same
    # equation with its left side (e2 e1) e0 = e5 nonzero.  The candidates
    # with i <= j, (1, 2, 0) and (0, 2, 1), both hold.
    for field in (QQ, GF(2)):
        e = field.one
        table = {(1, 2): {3: e}, (0, 3): {5: e}, (0, 2): {4: e}, (1, 4): {5: e}}
        alg = Algebra(field, range(6), table)
        assert functor_check(alg, 2)
        assert not functor_check(alg, 3)
        assert not reference_functor_check(alg, 3)


def test_generating_surjections_reach_every_surjection():
    for p in range(1, 5):
        reached = {Surjection.identity(p)}
        frontier = list(reached)
        while frontier:
            frontier = [
                c
                for s in frontier
                for g in generating_surjections(s.q)
                if (c := surj_compose(g, s)) not in reached
            ]
            reached.update(frontier)
        assert reached == {s for s in all_surjections_up_to(4) if s.p == p}, p


def functor_differential_cases():
    """Seeded random graphs, admissible and not, over F_2, F_3 and F_5."""
    rng = random.Random(83)
    cases = []
    for field in (GF(2), GF(3), GF(5)):
        for admissible in (True, False):
            g = random_graph(rng, max_vertices=4, min_vertices=3, p_edge=0.5)
            while is_admissible(g) != admissible:
                g = random_graph(rng, max_vertices=4, min_vertices=3, p_edge=0.5)
            tag = "admissible" if admissible else "other"
            cases.append(pytest.param(q_ungraded(g, field), id=f"random-{tag}-{field.name}"))
    return cases


def functor_oracle_cases():
    """The differential cases with the highest level each is compared at: 4 on `hand_algebra`, else 3."""
    cases = (
        loday_differential_cases()
        + functor_differential_cases()
        + [pytest.param(perturbed_crown_algebra(GF(2)), id="perturbed-crown-GF(2)")]
    )
    return [pytest.param(*case.values, 4 if case.id.startswith("hand-") else 3, id=case.id) for case in cases]


@pytest.mark.parametrize("alg, top", functor_oracle_cases())
def test_functor_check_matches_the_all_pairs_oracle(alg, top):
    for r in range(1, top + 1):
        expected = reference_functor_check(alg, r)
        assert functor_check(alg, r) == expected, r
        assert generator_functor_check(alg, r) == expected, r


def test_functor_check_builds_no_loday_matrix(monkeypatch):
    def raising(*args, **kwargs):
        raise AssertionError("functor materialized a matrix")

    for name in ("kron_sum", "_LodayCache"):
        monkeypatch.setattr(loday, name, raising)
    for name in ("kron_sum", "mat_compose"):
        monkeypatch.setattr(linalg, name, raising)
    assert functor_check(hand_algebra(QQ), 2) and not functor_check(hand_algebra(QQ), 4)
    assert functor_check(q_ungraded(build_C(4, 1)[0], GF(2)), 6)
    (report,) = run_suite(RunConfig(n=4, field=GF(2), checks=("functor",)))
    assert report.status == "pass" and report.details["crown_minus_r3"] is True


def test_functor_check_composes_once_per_generator_and_fibre_size_pattern(monkeypatch):
    # the materialized oracle: r = 2 composes pattern (1, 1) x {swap, merge};
    # r = 3 adds (1, 2) and (2, 1) x 2 generators of 2 and (1, 1, 1) x the 4
    # generators of 3
    calls = []
    real = conftest.mat_compose

    def counted(a, b):
        calls.append((a.nrows, b.ncols))
        return real(a, b)

    monkeypatch.setattr(conftest, "mat_compose", counted)
    alg = q_ungraded(PATH3, GF(5))
    for r, count in ((2, 2), (3, 10)):
        calls.clear()
        assert generator_functor_check(alg, r)
        assert len(calls) == count, r


def test_functor_check_catches_one_changed_column_of_a_shared_product(monkeypatch):
    # every surjection 3 -> 2 with fibre sizes (1, 2) reads this product
    alg = q_ungraded(PATH3, GF(5))
    f = alg.field
    product = loday._LodayCache._product

    def perturbed(self, sizes):
        m = product(self, sizes)
        if sizes != (1, 2):
            return m
        cols = list(m._cols)
        cols[0] = dict(cols[0])
        cols[0][0] = f.add(cols[0].get(0, f.zero), f.one)
        return Matrix(m.field, m.nrows, m.ncols, cols)

    monkeypatch.setattr(loday._LodayCache, "_product", perturbed)
    assert generator_functor_check(alg, 2) and reference_functor_check(alg, 2)
    assert not generator_functor_check(alg, 3)
    assert not reference_functor_check(alg, 3)


@pytest.mark.parametrize("images", [(2, 3, 1), (1, 1, 1)], ids=["3-cycle", "merge-3-to-1"])
def test_functor_check_catches_one_changed_entry_of_a_non_generator(monkeypatch, images):
    alg = q_ungraded(PATH3, GF(5))
    target = Surjection(3, max(images), images)
    assert target not in generating_surjections(3)
    assert generator_functor_check(alg, 3) and reference_functor_check(alg, 3)
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
    assert not generator_functor_check(alg, 3)
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
    # the walk's work budget bounds lemma: n = 3 takes 32 units at p = 1
    # and 160 at p = 2, so a budget of 100 stops p = 2 and names its total
    monkeypatch.setattr(linalg, "WALK_BUDGET", 100)
    assert lemma_check(3, 1, QQ)
    with pytest.raises(CapExceeded, match="reached 160 work units, over the budget 100"):
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


def test_lemma_trace_level_three():
    trace = lemma_proof_trace(3, 2, QQ)
    assert trace.e1_rank == 58 and trace.e1_cols == 58
    assert trace.ep_rank == 58**2
    assert trace.passed


def test_lemma_trace_fails_when_windows_do_not_intertwine(monkeypatch):
    # negative control: every word acting as the identity on every window
    window_action = loday._window_rows
    monkeypatch.setattr(
        loday,
        "_window_rows",
        lambda n, i, coords: tuple((r, 1) for r in range(len(window_action(n, i, coords)))),
    )
    trace = lemma_proof_trace(2, 1, QQ)
    assert trace.intertwining_ok is False
    assert trace.passed is False


def test_lemma_trace_fails_when_one_summand_matrix_is_perturbed(monkeypatch):
    # negative control for the pairing step over Z's words: a window matrix
    # is shared by every word with the same window coordinates, so the words
    # w and w g_i pair up with opposite signs; g_1's coefficient changed by
    # one breaks the pair (1, g_1) and leaves the window matrices, the
    # intertwining and the off-window step alone
    z = build_Z(3, QQ)
    g1 = gen_g(3, 1)
    perturbed = MonoidAlgElem(QQ, 3, {**z.terms, g1: QQ.add(z.terms[g1], QQ.one)})
    monkeypatch.setattr(loday, "build_Z", lambda n, field: perturbed)
    trace = lemma_proof_trace(3, 2, QQ)
    assert trace.summand_annihilation_ok is False
    assert trace.intertwining_ok and trace.off_window_identity_ok


@pytest.mark.parametrize("word", ["g1", "g1g2"])
def test_lemma_trace_fails_when_one_z_coefficient_is_flipped(monkeypatch, word):
    # negative control for step (iii): one of Z's coefficients negated, on a
    # generator or on a product of two, breaks the opposite signs of its
    # pairs; steps (i) and (ii) hold, and the walk confirms the family is nonzero
    n = 3
    z = build_Z(n, QQ)
    w = gen_g(n, 1) if word == "g1" else gen_g(n, 1) * gen_g(n, 2)
    flipped = MonoidAlgElem(QQ, n, {**z.terms, w: QQ.neg(z.terms[w])})
    monkeypatch.setattr(loday, "build_Z", lambda n, field: flipped)
    trace = lemma_proof_trace(n, n - 1, QQ)
    assert trace.summand_annihilation_ok is False and trace.passed is False
    assert trace.intertwining_ok and trace.off_window_identity_ok and trace.left_inverse_verified
    assert not lemma_check(n, 1, QQ)


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("moved", ["first", "last", "every"])
def test_lemma_trace_fails_when_gen_g_moves_a_foreign_window(monkeypatch, field, moved):
    # negative control for step (iii): g_1, g_n or every g_i patched to zero
    # also the middle coordinate of another window, so w and w g_i differ
    # off window i.  With g_n moved, the pairs of every other g_i still
    # hold; with every g_i moved to g_i g_(i+1) at n = 2, Z = 1 - g_1 g_2
    # pairs by each patched g_i, with opposite coefficients, and only the
    # window coordinates tell.  Z, built from the patched generators, is
    # then nonzero at p = n - 1
    real = monoid.gen_g
    for n in (2, 3):
        foreign = {"first": {1: 2}, "last": {n: 1}, "every": {i: i % n + 1 for i in range(1, n + 1)}}[moved]

        def moving(n, i):
            return real(n, i) * real(n, foreign[i]) if i in foreign else real(n, i)

        with monkeypatch.context() as patch:
            patch.setattr(monoid, "gen_g", moving)
            patch.setattr(loday, "gen_g", moving)
            trace = lemma_proof_trace(n, n - 1, field)
            assert trace.summand_annihilation_ok is False and trace.passed is False, n
            assert trace.intertwining_ok, n
            assert not lemma_check(n, n - 1, field), n


def test_lemma_trace_builds_two_window_matrices_per_window(monkeypatch):
    # a window matrix reads the window's three coordinates only, and Z's
    # words take two values there (with or without g_i)
    built = []
    window_action = loday._window_rows

    def recording(n, i, coords):
        built.append((i, coords))
        return window_action(n, i, coords)

    monkeypatch.setattr(loday, "_window_rows", recording)
    assert lemma_proof_trace(4, 2, GF(2)).passed
    assert sorted(built) == [(i, (1, c, 1)) for i in range(1, 5) for c in (0, 1)]


@pytest.mark.parametrize("side", ["window", "strip"])
def test_lemma_trace_fails_when_one_z_word_does_not_intertwine(monkeypatch, side):
    # negative control for (ii) over Z's words: row 0's weight one more on
    # the strip matrix of g_1 g_2 alone, a word that is no generator, or on
    # the window-3 matrix of the words with g_3, which the off-window step never reads
    word = gen_g(3, 1) * gen_g(3, 2)
    window_action, action = loday._window_rows, loday._action_rows
    if side == "window":
        monkeypatch.setattr(
            loday,
            "_window_rows",
            lambda n, i, coords: bumped_row(window_action(n, i, coords))
            if (i, coords) == (3, gen_g(3, 3).coords[4:7])
            else window_action(n, i, coords),
        )
    else:
        monkeypatch.setattr(
            loday,
            "_action_rows",
            lambda n, w, s, target: bumped_row(action(n, w, s, target)) if w == word else action(n, w, s, target),
        )
    trace = lemma_proof_trace(3, 2, QQ)
    assert trace.intertwining_ok is False
    assert trace.off_window_identity_ok
    assert trace.passed is False


def test_lemma_trace_requires_power_below_level():
    with pytest.raises(ValueError):
        lemma_proof_trace(2, 2, QQ)


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_lemma_trace_passes_where_the_walk_is_zero(field, n):
    # differential test, with the walk as the oracle: the trace proves every
    # power p <= n - 1, and the walk finds the strip family zero at each
    assert lemma_proof_trace(n, n - 1, field).passed
    assert all(lemma_check(n, p, field) for p in range(1, n))


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


def perturb_crown_word(monkeypatch, word, signs=(1, -1)):
    """Change row 0's weight in the crown row maps of one word, on the given signs, by one.

    That adds the unit matrix at row 0's column, E00 for the identity
    word; over F_2 row 0 becomes zero.  One word, not all: an element
    whose coefficients sum to zero (the alternating one) would cancel a
    perturbation shared by every word.
    """
    action = loday._action_rows

    def perturbed(n, w, s, target):
        rows = action(n, w, s, target)
        return bumped_row(rows) if target == "C" and w == word and s in signs else rows

    monkeypatch.setattr(loday, "_action_rows", perturbed)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_transport_at_every_power_cancels_in_the_merge(field):
    n = 4
    for name, x, s, t in transport_elements(n, field):
        assert transport_square_check(n, n - 1, x, s, t), name
        # each word's square holds at p = 1, so no term survives the merge, at any power
        assert linalg._merged_terms(field, loday._transport_products(n, x, s, t)) == [], name


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_transport_fails_with_a_perturbed_word_matrix(monkeypatch, field):
    # negative control: the full cancellation above is not vacuous
    n = 3
    for name, x, s, t in transport_elements(n, field):
        with monkeypatch.context() as patch:
            perturb_crown_word(patch, min(x.terms, key=Word.sort_key))
            products = loday._transport_products(n, x, s, t)
            for p in (1, 2):
                assert family_witness(field, products, p) is not None, (name, p)
            assert not transport_square_check(n, 1, x, s, t), name
            assert not reference_transport_square_check(n, 1, x, s, t), name


def test_transport_fails_with_a_perturbed_projection(monkeypatch):
    # row 0's weight one more on both projections, so every word's square
    # fails and the walk finds the sum nonzero
    projection = loday._projection_rows
    monkeypatch.setattr(loday, "_projection_rows", lambda n, s: bumped_row(projection(n, s)))
    for field in (QQ, GF(2)):
        x = build_T(3, field)
        products = loday._transport_products(3, x, -1, 1)
        for p in (1, 2):
            assert family_witness(field, products, p) is not None
        assert loday._transport_verdict(3, 2, x, -1, 1) == (False, True)
        assert not transport_square_check(3, 2, x, -1, 1)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_transport_checks_every_power(monkeypatch, field):
    # +E on one strip word and -E on another, row 0's weight one more and
    # one less (both words send row 0 to column 0), leave the p = 1 sum
    # unchanged but not the squares of the words: the per-word proof fails,
    # and the walk passes p = 1 and fails p = 2
    n = 3
    g1, g2 = gen_g(n, 1), gen_g(n, 2)
    x = MonoidAlgElem.from_word(field, g1) + MonoidAlgElem.from_word(field, g2)
    action = loday._action_rows

    def perturbed(n, w, s, target):
        rows = action(n, w, s, target)
        if target != "B" or w not in (g1, g2):
            return rows
        return bumped_row(rows, 0, 1 if w == g1 else -1)

    monkeypatch.setattr(loday, "_action_rows", perturbed)
    assert action(n, g1, 1, "B")[0] == action(n, g2, 1, "B")[0] == (0, 1)
    assert loday._transport_verdict(n, 1, x, 1, 1) == (True, True)
    assert loday._transport_verdict(n, 2, x, 1, 1) == (False, True)
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
    assert report.certified_ok and report.inverse_ok
    assert report.z_component_zero and report.factored_identity_ok


def test_iso_level_three_f2():
    report = iso_check(3, GF(2))
    assert report.status == "PASS"


def test_iso_negative_control_fails():
    control = iso_check(2, QQ).control
    assert control.status == "FAIL"
    assert not control.inverse_ok


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_iso_skips_naturality_after_a_failed_sub_claim(monkeypatch, field):
    # the control fails in the streamed sub-claims, so the certificate never
    # runs on its word matrices: it sees only the twist element's, 7 words
    # per sign at n = 3, and no naturality square is materialized
    seen = []
    certify = loday.is_multiplicative

    def certifying(source, target, m):
        seen.append(m)
        return certify(source, target, m)

    def raising(*args, **kwargs):
        raise AssertionError("naturality attempted after a failed sub-claim")

    monkeypatch.setattr(loday, "_LodayCache", raising)
    with monkeypatch.context() as patch:
        patch.setattr(loday, "is_multiplicative", certifying)
        report = iso_check(3, field)
    twist = {s: word_matrices(3, build_T(3, field), s, -s, "C") for s in (1, -1)}
    assert seen == [m for s in (1, -1) for _, m in twist[s]]
    assert report.status == "PASS"

    monkeypatch.setattr(loday, "is_multiplicative", raising)
    control = report.control
    assert control.status == "FAIL"
    assert control.certified_ok is None
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
    twist = iso_check(n, field)
    for element, build in (("T", build_T), ("Z", build_Z)):
        report = twist if element == "T" else twist.control
        assert report.status == ("PASS" if element == "T" else "FAIL")
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
                report = iso_check(2, field)
                assert streamed_claims(report) == reference_iso_claims(2, field, x, ISO_TARGETS["T"]) == expected
            assert report.status == "FAIL"


def three_walk_sub_claims(n, field, element):
    """(claims, witness) of iso's streamed sub-claims from three zero tests per sign and power."""
    x = {"T": build_T, "Z": build_Z}[element](n, field)
    targets = ISO_TARGETS[element]
    families = {s: word_matrices(n, x, s, targets[s], "C") for s in (1, -1)}
    claims = {"inverse": True, "factored": True, "z_zero": True}
    witness = {}
    for s in (1, -1):
        products = [
            (field.mul(c, c2), mat_compose(m, m2)) for c, m in families[s] for c2, m2 in families[targets[s]]
        ]
        products.append((field.neg(field.one), Matrix.identity(field, products[0][1].nrows)))
        z_words = word_matrices(n, build_Z(n, field), s, s, "C")
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
    # walks per call: per element and sign the factored family, plus the
    # inverse where undecided, plus the shared alternating family where a
    # word of Z fails its square, so that the lemma's certificate does not
    # carry over; a perturbed word fails the p = 1 square of its element on
    # both signs, so neither of that element's families is walked (z_word
    # is the identity, a word of the control but not of T.T = 1 - Z).  T's
    # families are read off T.T = 1 - Z, unwalked, only while the identity
    # word's crown row map is the identity, so with z_word perturbed they
    # are walked
    for words, walk_count, expected in (
        ([], 2, {"T": (True, True, True), "Z": (False, False, True)}),
        ([z_word], 6, {"T": (True, False, False), "Z": (False, False, False)}),
        ([z_word, t_word], 2, {"T": (False, False, False), "Z": (False, False, False)}),
    ):
        with monkeypatch.context() as patch:
            for word in words:
                perturb_crown_word(patch, word)
            walks = []
            real = loday.tensor_sum_prefixes
            patch.setattr(loday, "tensor_sum_prefixes", lambda field, family, p: walks.append(p) or real(field, family, p))
            twist = iso_check(n, field)
            oracle = {element: three_walk_sub_claims(n, field, element) for element in ("T", "Z")}
        assert walks == [n - 1] * walk_count, words
        for element, report in (("T", twist), ("Z", twist.control)):
            claims, witness = oracle[element]
            assert streamed_claims(report) == claims == dict(zip(("inverse", "factored", "z_zero"), expected[element]))
            assert report.witness == witness, (element, words)


def test_iso_level_four_f2_with_naturality_capped():
    # the certificate covers every power, and no square is materialized
    report = iso_check(4, GF(2))
    assert report.certified_ok
    assert report.inverse_ok and report.factored_identity_ok and report.z_component_zero
    assert report.status == "PASS"
    control = report.control
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
        for _, m in word_matrices(n, x, s, targets[s], "C"):
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


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_iso_fails_when_one_word_matrix_is_not_an_algebra_map(monkeypatch, field):
    # the certificate is iso's only evidence of naturality: one word matrix
    # that fails it, the first on sign -1 (after T's 7 on sign 1), fails iso
    # with the other sub-claims still holding
    verdicts = iter([True] * 7 + [False])
    certify = loday.is_multiplicative
    monkeypatch.setattr(loday, "is_multiplicative", lambda *args: next(verdicts, True) and certify(*args))
    report = iso_check(3, field)
    assert report.status == "FAIL" and report.certified_ok is False
    assert report.inverse_ok and report.factored_identity_ok and report.z_component_zero
    assert report.witness == {"certificate_-1": "word matrix 0 on sign -1 is not an algebra map"}
    assert report.control.status == "FAIL"


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_iso_materializes_nothing(monkeypatch, field):
    # the certificate covers every power and the premise is one p = 1
    # square per word, so iso builds no family: no Kronecker sum, and no
    # call of `cofunctor_eval`, the one materializer left
    def raising(*args, **kwargs):
        raise AssertionError("iso materialized a family")

    monkeypatch.setattr(loday, "kron_sum", raising)
    monkeypatch.setattr(loday, "cofunctor_eval", raising)
    for n in (2, 3, 4):
        report = iso_check(n, field)
        assert report.status == "PASS" and report.control.status == "FAIL", n


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_iso_under_a_cap_below_the_crown_dimension_does_no_work(monkeypatch, field):
    # the crown algebras have dimension 36 at n = 2: a cap of 35 stops iso
    # before it builds a word matrix or starts a walk; a cap of 36, below
    # 36^2, leaves it passing
    def raising(*args, **kwargs):
        raise AssertionError("work started over the cap")

    with monkeypatch.context() as patch:
        patch.setattr(loday, "tensor_sum_prefixes", raising)
        patch.setattr(loday, "_action_rows", raising)
        with pytest.raises(CapExceeded, match="tensor dimension 36\\^1 exceeds cap 35"):
            iso_check(2, field, max_tensor_dim=35)
    report = iso_check(2, field, max_tensor_dim=36)
    assert report.status == "PASS" and report.control.status == "FAIL"


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_iso_fails_when_a_twist_word_acts_as_another(monkeypatch, field):
    # one twist word's crown map replaced by another word's on the same
    # hom-set, a valid morphism: its p = 1 square fails on both signs, and
    # iso must fail the inverse there, never derive it from the monoid
    n = 3
    w0, w1 = sorted(build_T(n, field).terms, key=Word.sort_key)[:2]
    action = loday._action_rows
    monkeypatch.setattr(loday, "_action_rows", lambda n, w, s, target: action(n, w1 if target == "C" and w == w0 else w, s, target))
    families = loday._CrownFamilies(n, field, loday.DEFAULT_TENSOR_CAP)
    assert not families.square(w0, 1) and not families.square(w0, -1)
    assert families.square(w1, 1) and families.square(w1, -1)
    report = iso_check(n, field)
    assert report.status == "FAIL" and report.inverse_ok is False and report.factored_identity_ok is False
    assert report.witness["inverse"] == "composite on sign 1 differs at power 1"
    assert report.control.status == "FAIL"


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("n", [2, 3])
def test_iso_builds_each_strip_matrix_once_per_word(monkeypatch, field, n):
    # B_w does not depend on the sign, so both signs' squares of a word
    # share one strip row map: one build per distinct word of T, T.T, Z and
    # Z.Z, that is the 2^n - 1 words of T and the 2^n of Z; the lemma's
    # trace, which certifies the alternating family, reads Z's strip row
    # maps from the squares and builds none
    action, built = loday._action_rows, []

    def counting(n, w, s, target):
        if target == "B":
            built.append(w)
        return action(n, w, s, target)

    monkeypatch.setattr(loday, "_action_rows", counting)
    report = iso_check(n, field)
    assert report.status == "PASS" and report.control.status == "FAIL"
    t, z = build_T(n, field), build_Z(n, field)
    words = set(t.terms) | set((t * t).terms) | set(z.terms) | set((z * z).terms)
    assert len(built) == len(set(built)) == len(words) == 2 ** (n + 1) - 1
    assert set(built) == words


def pairwise_products(families, x, s, t):
    """Whether M_w M_w' == M_(w w') for every pair of words of x, w on s and w' on t, as `Matrix` products."""
    dim = families.crowns[s].dim

    def matrix(w, sign):
        return rows_matrix(families.field, families.rows(w, sign), dim)

    return all(mat_compose(matrix(w, s), matrix(w2, t)) == matrix(w * w2, s) for w in x.terms for w2 in x.terms)


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("n", [2, 3])
def test_word_squares_match_the_pairwise_crown_products(monkeypatch, field, n):
    # differential test, with iso's old pairwise premise as the oracle: the
    # per-word p = 1 squares hold exactly where every pair of words acts as
    # its product, on crown vertex maps and on word matrices; with one word
    # acting as another, all three fail
    for swapped in (False, True):
        for element, build in (("T", build_T), ("Z", build_Z)):
            x = build(n, field)
            with monkeypatch.context() as patch:
                if swapped:
                    w0, w1 = sorted(x.terms, key=Word.sort_key)[:2]
                    crown_map, action = conftest.act_on_C, loday._action_rows
                    swap = lambda w, target: w1 if target == "C" and w == w0 else w
                    patch.setattr(loday, "_action_rows", lambda n, w, s, target: action(n, swap(w, target), s, target))
                    patch.setattr(conftest, "act_on_C", lambda n, w, s: crown_map(n, swap(w, "C"), s))
                families = loday._CrownFamilies(n, field, loday.DEFAULT_TENSOR_CAP)
                for s, t in ISO_TARGETS[element].items():
                    premise = families.premise(x, x * x, s, t)
                    reference = reference_act_as_products(n, x, s, t)
                    assert premise == reference == pairwise_products(families, x, s, t) == (not swapped), (element, s)
    # matrix-level corruptions, which the vertex maps cannot see: a perturbed
    # crown matrix of a word of T.T that is no word of T, and of a word of T
    # on sign -1 alone, fail the squares and the pairwise products on both
    # signs (each sign composes T's words on the other)
    x = build_T(n, field)
    for word, signs in ((min((x * x).terms, key=Word.sort_key), (1, -1)), (min(x.terms, key=Word.sort_key), (-1,))):
        with monkeypatch.context() as patch:
            perturb_crown_word(patch, word, signs)
            families = loday._CrownFamilies(n, field, loday.DEFAULT_TENSOR_CAP)
            for s in (1, -1):
                assert not families.premise(x, x * x, s, -s) and not pairwise_products(families, x, s, -s), (word, s)
                assert reference_act_as_products(n, x, s, -s)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_iso_control_fails_its_premise_with_a_perturbed_identity_word(monkeypatch, field):
    # E00 added to the identity word's crown matrix: E00 E00 = E00, so the
    # control's p = 1 sums still multiply as Z.Z = Z, but the identity's
    # square F_s (I + E00) = F_s fails, F_s being injective.  The control
    # then fails its premise on both signs and walks none of its families,
    # with the three-walk verdicts and witnesses
    n = 3
    perturb_crown_word(monkeypatch, Word.identity(n))
    families = loday._CrownFamilies(n, field, loday.DEFAULT_TENSOR_CAP)
    z = families.z
    assert not families.square(Word.identity(n), 1) and not families.square(Word.identity(n), -1)
    assert not any(families.premise(z, z * z, s, s) for s in (1, -1))

    def raising(*args, **kwargs):
        raise AssertionError("the control walked a family")

    with monkeypatch.context() as patch:
        patch.setattr(loday, "tensor_sum_prefixes", raising)
        control = families.report(z, expanded_square(z))
    claims, witness = three_walk_sub_claims(n, field, "Z")
    assert streamed_claims(control) == claims == {"inverse": False, "factored": False, "z_zero": False}
    assert control.witness == witness


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_iso_walks_stop_at_the_first_nonzero_power(monkeypatch, field):
    # powers read per walk at n = 4: the alternating family is certified and
    # not walked; T's families are read off T.T = 1 - Z, and walked only
    # with that identity check patched to fail, when T's factored family on
    # each sign is zero at every power p <= 3; the control's factored
    # family is nonzero at p = 1, so its walks end there and decide the
    # inverse with no walk of their own
    consumed = []
    walk = loday.tensor_sum_prefixes

    def counting(field, family, p):
        consumed.append(0)
        for item in walk(field, family, p):
            consumed[-1] += 1
            yield item

    monkeypatch.setattr(loday, "tensor_sum_prefixes", counting)
    report = iso_check(4, field)
    assert report.status == "PASS" and report.control.status == "FAIL"
    assert consumed == [1, 1]
    consumed.clear()
    monkeypatch.setattr(loday, "_one_minus_z", lambda square, z: False)
    walked = iso_check(4, field)
    assert walked == report
    assert consumed == [3, 3, 1, 1]


def test_iso_reads_each_walk_to_its_own_first_nonzero_power(monkeypatch):
    # each walk's list ends at its first nonzero power: with the alternating
    # family first nonzero at p = 2 and the factored one at p = 3, the
    # inverse (factored - alternating) is first nonzero at p = 2, and the
    # factored failure at p = 3, past the end of the inverse's list, must
    # still be reported; T's families are walked, not read off T.T = 1 - Z,
    # with that identity check patched to fail
    n = 4
    families = loday._CrownFamilies(n, QQ, loday.DEFAULT_TENSOR_CAP)
    families.alt_zero = {s: [True, False] for s in (1, -1)}
    monkeypatch.setattr(loday, "_zero_powers", lambda field, family, r: [True, True, False])
    monkeypatch.setattr(loday, "_one_minus_z", lambda square, z: False)
    t = build_T(n, QQ)
    report = families.report(t, expanded_square(t))
    assert report.witness == {
        "inverse": "composite on sign 1 differs at power 2",
        "factored": "composite on sign 1 power 3 breaks the factored identity",
        "z_component": "alternating-element family is not zero",
    }


def test_iso_reads_the_inverse_family_off_the_alternating_one(monkeypatch):
    # read off T.T = 1 - Z, T's inverse family is -(Z's), so it fails where
    # the alternating one does, and its factored family is zero; the walks
    # agree, with the alternating family first nonzero at p = 2
    n = 4
    t = build_T(n, QQ)
    families = loday._CrownFamilies(n, QQ, loday.DEFAULT_TENSOR_CAP)
    families.alt_zero = {s: [True, False] for s in (1, -1)}
    read = families.report(t, expanded_square(t))
    monkeypatch.setattr(loday, "_one_minus_z", lambda square, z: False)
    assert families.report(t, expanded_square(t)) == read
    assert read.witness == {
        "inverse": "composite on sign 1 differs at power 2",
        "z_component": "alternating-element family is not zero",
    }


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_iso_falls_back_to_the_walks_where_the_identity_check_fails(monkeypatch, field, n):
    # T's families are read off T.T = 1 - Z only where that identity holds
    # and the identity word's crown row map is the identity.  With the
    # identity check patched to fail T is walked on both signs, and with the
    # identity word perturbed on sign -1, on that sign; either way the
    # report is the one with every family walked, and the control fails at
    # p = 1 on sign 1
    def run(cancels, perturbed):
        walks, walk = [], loday.tensor_sum_prefixes
        with monkeypatch.context() as patch:
            patch.setattr(loday, "tensor_sum_prefixes", lambda field, family, p: walks.append(p) or walk(field, family, p))
            if not cancels:
                patch.setattr(loday, "_one_minus_z", lambda square, z: False)
            if perturbed:
                perturb_crown_word(patch, Word.identity(n), signs=(-1,))
            oracle = three_walk_sub_claims(n, field, "T")
            return iso_check(n, field), len(walks), oracle

    for perturbed, counts in ((False, (2, 4)), (True, (4, 5))):
        read, read_walks, oracle = run(True, perturbed)
        walked, all_walks, _ = run(False, perturbed)
        assert read == walked and (read_walks, all_walks) == counts, perturbed
        assert (streamed_claims(read), read.witness) == oracle
        assert read.status == ("FAIL" if perturbed else "PASS")
        assert read.control.status == "FAIL"
        assert read.control.witness["inverse"] == "composite on sign 1 differs at power 1"
        assert read.control.witness["factored"] == "composite on sign 1 power 1 breaks the factored identity"
    # perturbed, T's sign -1 is walked: its inverse holds and its factored
    # family fails, where reading -(Z's family) off the identity would have
    # swapped the two verdicts
    assert streamed_claims(read) == {"inverse": True, "factored": False, "z_zero": False}


def test_iso_premise_needs_an_injective_projection(monkeypatch):
    # the squares give C_w C_w' = C_(w w') only because F_s C = F_s C'
    # forces C = C': a projection below full column rank fails the premise
    # on both signs, and iso with it
    monkeypatch.setattr(loday, "mat_rank", lambda m: m.ncols - 1)
    families = loday._CrownFamilies(2, QQ, loday.DEFAULT_TENSOR_CAP)
    x = build_T(2, QQ)
    assert not any(families.premise(x, x * x, s, -s) for s in (1, -1))
    report = iso_check(2, QQ)
    assert report.status == "FAIL" and not report.inverse_ok and not report.factored_identity_ok


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_iso_composes_linearly_in_the_words_and_walks_no_alternating_family(monkeypatch, field):
    # the composites come from the monoid product under one p = 1 square
    # per (word, sign), two products each: T's 7 words and T.T's 7 on each
    # sign, and the identity on each sign, the one word of Z.Z = Z that
    # T.T = 1 - Z lacks; 30 squares, where the pairwise composites took
    # 7^2 + 8^2 per sign.  The lemma's trace adds its intertwining, two
    # row-map products per window for each of Z's 8 words.  Z's crown
    # family is certified from the trace and the squares, and walked on no sign
    n = 3
    composes, walks = [], []
    compose, walk = loday.rows_compose, loday.tensor_sum_prefixes

    def counting(a, b):
        composes.append(len(a))
        return compose(a, b)

    monkeypatch.setattr(loday, "rows_compose", counting)
    monkeypatch.setattr(loday, "tensor_sum_prefixes", lambda field, family, p: walks.append(family) or walk(field, family, p))
    report = iso_check(n, field)
    assert report.status == "PASS" and report.control.status == "FAIL"
    assert len(composes) == 60 + 2 * n * 2**n
    z = build_Z(n, field)
    alternating = [list(loday._word_rows(n, z, s, s, "C")) for s in (1, -1)]
    assert walks and not any(family in alternating for family in walks)


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_certified_alternating_family_matches_its_walk(monkeypatch, field, n):
    # differential test, with the walk as the oracle: the certificate sets
    # alt_zero on both signs without a walk, to what the walk, run here on
    # Z's crown word matrices, reads
    with monkeypatch.context() as patch:
        patch.setattr(loday, "tensor_sum_prefixes", lambda *args: pytest.fail("walked while certifying"))
        families = loday._CrownFamilies(n, field, loday.DEFAULT_TENSOR_CAP)
    for s in (1, -1):
        walked = loday._zero_powers(field, families.terms(families.z, s), n - 1)
        assert families.alt_zero[s] == walked == [True] * (n - 1), s


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("premise", ["trace", "projection", "square"])
def test_the_alternating_family_is_walked_where_its_certificate_premise_fails(monkeypatch, field, premise):
    # the certificate needs the lemma's trace, F_s injective and every Z
    # word's square on s: with the trace failing (one window matrix with an
    # entry more) or neither projection injective, the family is walked on
    # both signs; with the identity word's crown matrix perturbed on sign -1
    # alone, on that sign alone, where the walk then finds it nonzero
    n = 2
    if premise == "trace":
        window_action = loday._window_rows

        def bumped(n, i, coords):
            rows = window_action(n, i, coords)
            return bumped_row(rows) if i == 1 else rows

        monkeypatch.setattr(loday, "_window_rows", bumped)
    elif premise == "projection":
        rank = loday.mat_rank
        crown_dim = q_ungraded(build_C(n, 1)[0], field).dim
        monkeypatch.setattr(loday, "mat_rank", lambda m: m.ncols - 1 if m.ncols == crown_dim else rank(m))
    else:
        perturb_crown_word(monkeypatch, Word.identity(n), signs=(-1,))
    walks, walk = [], loday.tensor_sum_prefixes
    monkeypatch.setattr(loday, "tensor_sum_prefixes", lambda field, family, p: walks.append(family) or walk(field, family, p))
    families = loday._CrownFamilies(n, field, loday.DEFAULT_TENSOR_CAP)
    walked = [s for s in (1, -1) if families.terms(families.z, s) in walks]
    assert walked == ([-1] if premise == "square" else [1, -1])
    assert len(walks) == len(walked)
    assert families.alt_zero == {1: [True], -1: [premise != "square"]}


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("n", [3, 4])
def test_iso_starts_no_walk_of_the_alternating_family(monkeypatch, field, n):
    # every walk iso starts has terms other than Z's alone, on either sign:
    # the control's factored family per sign, and T's per sign where T is
    # walked, with the identity check T.T = 1 - Z patched to fail
    z = build_Z(n, field)
    alternating = [list(loday._word_rows(n, z, s, s, "C")) for s in (1, -1)]
    walks, walk = [], loday.tensor_sum_prefixes
    monkeypatch.setattr(loday, "tensor_sum_prefixes", lambda field, family, p: walks.append(family) or walk(field, family, p))
    for cancels, count in ((True, 2), (False, 4)):
        walks.clear()
        with monkeypatch.context() as patch:
            if not cancels:
                patch.setattr(loday, "_one_minus_z", lambda square, z: False)
            report = iso_check(n, field)
        assert report.status == "PASS" and report.control.status == "FAIL"
        assert len(walks) == count and not any(family in alternating for family in walks)


def test_nat_trans_json_shape():
    t = build_T(2, QQ)
    eta = cofunctor_eval(2, 1, t, -1, 1, target="C")
    data = eta.to_json()
    assert data["r"] == 1
    assert data["dims"] == [36, 36]
    assert len(data["components"]) == 1
    assert all(len(entry) == 3 for entry in data["components"][0])
