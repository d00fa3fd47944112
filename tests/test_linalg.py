import itertools
import math
import random
from fractions import Fraction

import pytest

from crown import linalg
from crown.errors import CapExceeded
from crown.fields import GF, QQ, parse_field
from crown.linalg import (
    Matrix,
    kernel_basis_with_free,
    kron,
    kron_power,
    kron_sum,
    left_inverse,
    mat_compose,
    mat_rank,
    tensor_sum_prefixes,
    vstack,
)
from conftest import (
    family_reference,
    family_terms,
    family_witness,
    matrix_from_rows,
    reference_kernel_basis_with_free,
    reference_left_inverse,
    reference_rank,
)


def rand_matrix(rng, field, nrows, ncols, density=0.5, span=5):
    entries = []
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                entries.append((r, c, field.from_int(rng.randint(-span, span))))
    return Matrix.from_entries(field, nrows, ncols, entries)


# -- fields ---------------------------------------------------------------

def test_prime_field_requires_prime():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_frobenius_fixed_points(p):
    # x^p == x for every x, checked exhaustively
    f = GF(p)
    for x in range(p):
        power = x
        for _ in range(p - 1):
            power = f.mul(power, x)
        assert power == x


def test_parse_field_round_trip():
    assert parse_field("rational") == QQ
    assert parse_field("fp:5") == GF(5)
    with pytest.raises(ValueError):
        parse_field("float")


@pytest.mark.parametrize("tag", ["fp:x", "fp:", "fp:2.0", "fp:-3", "float"])
def test_parse_field_names_a_malformed_tag(tag):
    with pytest.raises(ValueError, match=rf"^unknown field tag '{tag}' \(expected 'rational' or 'fp:<p>'\)$"):
        parse_field(tag)


def test_parse_field_rejects_a_composite_modulus():
    with pytest.raises(ValueError, match="^not a prime: 4$"):
        parse_field("fp:4")


def test_rational_scalar_json():
    x = QQ.coerce("3/2") - QQ.coerce(1)
    assert QQ.scalar_to_json(x) == "1/2"
    assert QQ.scalar_from_json("1/2") == x


def test_rational_scalars_are_ints_when_integral():
    assert (QQ.zero, QQ.one) == (0, 1) and type(QQ.zero) is int and type(QQ.one) is int
    two = QQ.coerce(Fraction(4, 2))
    assert two == 2 and type(two) is int
    assert type(QQ.inv(QQ.from_int(-1))) is int and QQ.inv(QQ.from_int(-1)) == -1
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.scalar_from_json("6/3")) is int and QQ.scalar_from_json("-3/4") == Fraction(-3, 4)

    # int and integral Fraction scalars build equal matrices through both kernels
    def as_fractions(m):
        return Matrix(QQ, m.nrows, m.ncols, [{r: Fraction(v) for r, v in col.items()} for col in m._cols])

    rng = random.Random(9)
    for _ in range(20):
        a = rand_matrix(rng, QQ, 3, 4)
        b = rand_matrix(rng, QQ, 4, 2)
        fa, fb = as_fractions(a), as_fractions(b)
        assert mat_compose(a, b) == mat_compose(fa, fb)
        a3 = a.scale(3)
        terms = [(QQ.from_int(-2), [a, b]), (QQ.one, [a3, b])]
        fterms = [(Fraction(-2), [fa, fb]), (Fraction(1), [as_fractions(a3), fb])]
        assert kron_sum(terms) == kron_sum(fterms)


# -- compose ---------------------------------------------------------------

def test_compose_identity():
    i3 = Matrix.identity(QQ, 3)
    assert mat_compose(i3, i3) == i3


def test_compose_zero():
    m = matrix_from_rows(QQ, [[1, 2], [3, 4], [5, 6]])
    z = Matrix.zero(QQ, 2, 4)
    assert mat_compose(m, z) == Matrix.zero(QQ, 3, 4)


def test_compose_f2_hand_example():
    # [[1,1],[0,1]]^2 = [[1,0],[0,1]] mod 2, multiplied out by hand
    f2 = GF(2)
    m = matrix_from_rows(f2, [[1, 1], [0, 1]])
    assert mat_compose(m, m) == Matrix.identity(f2, 2)


def test_compose_dimension_and_field_mismatch():
    a = Matrix.identity(QQ, 2)
    b = Matrix.identity(QQ, 3)
    with pytest.raises(ValueError):
        mat_compose(a, b)
    with pytest.raises(ValueError):
        mat_compose(a, Matrix.identity(GF(2), 2))


def test_compose_associative_random():
    rng = random.Random(1)
    for field in (QQ, GF(5)):
        for _ in range(20):
            a = rand_matrix(rng, field, 3, 4)
            b = rand_matrix(rng, field, 4, 2)
            c = rand_matrix(rng, field, 2, 5)
            assert mat_compose(mat_compose(a, b), c) == mat_compose(a, mat_compose(b, c))


def brute_compose(a, b):
    """Entry-by-entry oracle: entry (r, c) = sum_k a[r, k] * b[k, c]."""
    f = a.field
    entries = []
    for r in range(a.nrows):
        for c in range(b.ncols):
            total = f.zero
            for k in range(a.ncols):
                total = f.add(total, f.mul(a.entry(r, k), b.entry(k, c)))
            entries.append((r, c, total))
    return Matrix.from_entries(f, a.nrows, b.ncols, entries)


def snapshot(m):
    return [dict(col) for col in m._cols]


def compose_operands(rng, field):
    """A left operand whose columns 0 and 1 are equal, and a right operand
    whose columns are empty, one entry of value one, one entry of another
    value, or several entries (some cancelling through columns 0 and 1).
    """
    nrows, inner, ncols = rng.randint(1, 4), rng.randint(2, 4), rng.randint(1, 6)
    base = rand_matrix(rng, field, nrows, inner, density=0.6, span=3)
    cols = [base.col(k) for k in range(inner)]
    cols[1] = base.col(0)
    a = Matrix(field, nrows, inner, cols)
    others = [v for v in (field.from_int(x) for x in (2, -1, 3, -2)) if v not in (field.zero, field.one)]
    entries, kinds = [], set()
    for c in range(ncols):
        kind = rng.choice(("empty", "one", "scaled", "several", "cancel"))
        if kind == "scaled" and not others:
            kind = "one"  # F_2 has no other nonzero value
        kinds.add(kind)
        if kind == "one":
            entries.append((rng.randrange(inner), c, field.one))
        elif kind == "scaled":
            entries.append((rng.randrange(inner), c, rng.choice(others)))
        elif kind == "several":
            for k in rng.sample(range(inner), rng.randint(2, inner)):
                entries.append((k, c, field.from_int(rng.choice((1, 2, -1)))))
        elif kind == "cancel":
            v = field.from_int(rng.choice((1, 2, -1)))
            entries += [(0, c, v), (1, c, field.neg(v))]
            if inner > 2 and rng.random() < 0.5:
                entries.append((2, c, field.one))
    return a, Matrix.from_entries(field, inner, ncols, entries), kinds


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_compose_matches_entrywise_oracle(field):
    rng = random.Random(23)
    seen = set()
    for _ in range(150):
        a, b, kinds = compose_operands(rng, field)
        seen |= kinds
        a_before, b_before = snapshot(a), snapshot(b)
        out = mat_compose(a, b)
        assert out == brute_compose(a, b)
        assert all(v != field.zero for col in out._cols for v in col.values())
        # the result may share columns with `a`; using it must not write into either operand
        mat_compose(out, Matrix.identity(field, out.ncols))
        kron_sum([(field.one, [out]), (field.neg(field.one), [out])])
        assert snapshot(a) == a_before and snapshot(b) == b_before
    expected = {"empty", "one", "several", "cancel"} | ({"scaled"} if field != GF(2) else set())
    assert seen == expected


def test_compose_monomial_columns_by_hand():
    a = matrix_from_rows(QQ, [[1, 2, 2], [0, 3, 3]])
    b = Matrix.from_entries(
        QQ, 3, 4, [(0, 1, 1), (1, 2, Fraction(1, 3)), (1, 3, 1), (2, 3, -1)]
    )
    # column 0 is empty, column 1 takes a's column 0, column 2 a third of
    # a's column 1, and column 3 cancels a's equal columns 1 and 2
    assert mat_compose(a, b).to_triples() == [(0, 1, 1), (0, 2, Fraction(2, 3)), (1, 2, 1)]
    assert mat_compose(a, b).col(3) == {}


# -- rank -------------------------------------------------------------------

def test_rank_basic():
    assert mat_rank(Matrix.identity(QQ, 4)) == 4
    assert mat_rank(Matrix.zero(QQ, 3, 5)) == 0
    assert mat_rank(matrix_from_rows(QQ, [[1, 1], [1, 1]])) == 1


def test_rank_row_permutation_invariant():
    rng = random.Random(2)
    for field in (QQ, GF(5)):
        for _ in range(10):
            m = rand_matrix(rng, field, 5, 4)
            perm = list(range(5))
            rng.shuffle(perm)
            permuted = Matrix.from_entries(
                field, 5, 4, [(perm[r], c, v) for r, c, v in m.to_triples()]
            )
            assert mat_rank(m) == mat_rank(permuted)


# -- kron --------------------------------------------------------------------

def test_kron_identity():
    assert kron(Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)) == Matrix.identity(QQ, 6)


def test_kron_single_entries():
    a = Matrix.from_entries(QQ, 3, 3, [(0, 1, 1)])  # e_{1,2} in 1-based terms
    b = Matrix.from_entries(QQ, 4, 4, [(2, 3, 1)])  # e_{3,4}
    k = kron(a, b)
    assert k.to_triples() == [(0 * 4 + 2, 1 * 4 + 3, QQ.one)]


def test_kron_scalars():
    assert kron(matrix_from_rows(QQ, [[2]]), matrix_from_rows(QQ, [[3]])) == matrix_from_rows(QQ, [[6]])


def test_kron_mixed_product_random():
    rng = random.Random(3)
    for field in (QQ, GF(5)):
        for _ in range(12):
            a = rand_matrix(rng, field, 2, 3, density=0.6)
            c = rand_matrix(rng, field, 3, 2, density=0.6)
            b = rand_matrix(rng, field, 3, 2, density=0.6)
            d = rand_matrix(rng, field, 2, 3, density=0.6)
            lhs = mat_compose(kron(a, b), kron(c, d))
            rhs = kron(mat_compose(a, c), mat_compose(b, d))
            assert lhs == rhs


def test_kron_power_zero_is_scalar_identity():
    m = Matrix.identity(QQ, 5)
    assert kron_power(m, 0) == Matrix.identity(QQ, 1)


def brute_kron_sum(terms):
    """Entry-by-entry oracle: entry = sum_k c_k * prod_i M_ki[r_i, c_i]."""
    field = terms[0][1][0].field
    shapes = [(m.nrows, m.ncols) for m in terms[0][1]]
    entries = []
    for rows in itertools.product(*(range(r) for r, _ in shapes)):
        for cols in itertools.product(*(range(c) for _, c in shapes)):
            total = field.zero
            for coef, mats in terms:
                val = coef
                for m, r, c in zip(mats, rows, cols):
                    val = field.mul(val, m.entry(r, c))
                total = field.add(total, val)
            flat_r = flat_c = 0
            for (nr, nc), r, c in zip(shapes, rows, cols):
                flat_r, flat_c = flat_r * nr + r, flat_c * nc + c
            entries.append((flat_r, flat_c, total))
    nrows = math.prod(r for r, _ in shapes)
    ncols = math.prod(c for _, c in shapes)
    return Matrix.from_entries(field, nrows, ncols, entries)


def rand_rect_row_monomial(rng, field, nrows, ncols):
    """At most one nonzero per row, some columns left empty."""
    entries = [
        (r, rng.randrange(max(1, ncols - 1)), field.from_int(rng.choice([1, 2, -1])))
        for r in range(nrows)
        if rng.random() < 0.8
    ]
    return Matrix.from_entries(field, nrows, ncols, entries)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_kron_sum_matches_entrywise_oracle(field):
    rng = random.Random(21)
    zero = nonzero = 0
    for _ in range(120):
        p = rng.randint(1, 3)
        shapes = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(p)]
        pool = [
            [
                rand_rect_row_monomial(rng, field, r, c) if rng.random() < 0.5
                else rand_matrix(rng, field, r, c, density=0.6, span=2)
                for r, c in shapes
            ]
            for _ in range(rng.randint(1, 3))
        ]
        terms = [
            (field.from_int(rng.randint(-2, 2)), [rng.choice(pool)[i] for i in range(p)])
            for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.4:
            # the negated terms, sometimes all but one, so the halves cancel
            negated = [(field.neg(c), mats) for c, mats in terms]
            if rng.random() < 0.5:
                negated.pop(rng.randrange(len(negated)))
            terms += negated
            rng.shuffle(terms)
        total = kron_sum(terms)
        assert total == brute_kron_sum(terms)
        assert all(v != field.zero for _, _, v in total.to_triples())
        if total.is_zero():
            zero += 1
        else:
            nonzero += 1
    assert zero >= 15 and nonzero >= 15  # both outcomes are exercised


def test_kron_sum_orders_factors_and_scales_by_the_coefficient():
    # row-monomial, rectangular, unequal factors; a coefficient of 3 and a
    # zero coefficient; column 1 of b is empty
    a = matrix_from_rows(QQ, [[0, 1], [0, 0], [2, 0]])
    b = matrix_from_rows(QQ, [[5, 0], [0, 0]])
    c = matrix_from_rows(QQ, [[1, 1], [1, 1], [1, 1]])
    total = kron_sum([(QQ.from_int(3), [a, b]), (QQ.zero, [c, b])])
    assert total.to_triples() == [(0, 2, QQ.from_int(15)), (4, 0, QQ.from_int(30))]
    assert kron_sum([(QQ.zero, [a, b])]) == Matrix.zero(QQ, 6, 4)
    assert kron_sum([(QQ.one, [a, b]), (QQ.from_int(-1), [a, b])]) == Matrix.zero(QQ, 6, 4)


def test_kron_sum_shares_one_empty_column():
    # columns no term reaches, and a column whose entries cancel, are one
    # shared empty dict; the others are distinct
    a = matrix_from_rows(QQ, [[1, 0, 2], [0, 0, 3]])
    b = matrix_from_rows(QQ, [[1, 1], [0, 0]])
    e = Matrix.from_entries(QQ, 2, 3, [(0, 0, 1)])
    terms = [(QQ.one, [a, b]), (QQ.from_int(-1), [e, b])]  # a's column 0 cancels
    total = kron_sum(terms)
    assert total == brute_kron_sum(terms)
    empty = [col for col in total._cols if not col]
    assert len(empty) == 4 and len({id(col) for col in empty}) == 1  # columns 0..3
    full = [col for col in total._cols if col]
    assert len(full) == 2 and full[0] is not full[1]


def test_kron_sum_rejects_mismatched_terms():
    a = Matrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        kron_sum([])
    with pytest.raises(ValueError):
        kron_sum([(QQ.one, [])])
    with pytest.raises(ValueError):
        kron_sum([(QQ.one, [a, a]), (QQ.one, [a])])  # arity
    with pytest.raises(ValueError):
        kron_sum([(QQ.one, [a, a]), (QQ.one, [a, Matrix.identity(QQ, 3)])])  # shape
    with pytest.raises(ValueError):
        kron_sum([(QQ.one, [a, Matrix.zero(QQ, 2, 3)]), (QQ.one, [a, Matrix.zero(QQ, 3, 2)])])
    with pytest.raises(ValueError):
        kron_sum([(QQ.one, [a, a]), (QQ.one, [a, Matrix.identity(GF(2), 2)])])  # field
    with pytest.raises(ValueError):
        kron(a, Matrix.identity(GF(2), 2))


# -- kernel / left inverse ----------------------------------------------------

def test_kernel_basis_hand_example():
    f2 = GF(2)
    m = matrix_from_rows(f2, [[1, 1]])
    basis = kernel_basis_with_free(m)[0]
    assert basis == [{1: 1, 0: 1}]


def test_kernel_orthogonality_random():
    rng = random.Random(4)
    for field in (QQ, GF(3)):
        for _ in range(10):
            m = rand_matrix(rng, field, 4, 6)
            for vec in kernel_basis_with_free(m)[0]:
                as_col = Matrix.from_entries(field, 6, 1, [(k, 0, v) for k, v in vec.items()])
                assert mat_compose(m, as_col).is_zero()


def test_left_inverse():
    m = matrix_from_rows(QQ, [[1, 0], [1, 1], [0, 2]])
    lift = left_inverse(m)
    assert mat_compose(lift, m) == Matrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        left_inverse(matrix_from_rows(QQ, [[1, 1], [1, 1]]))


def elimination_cases(seed, field):
    """Seeded sparse matrices with the shapes elimination must get right.

    Empty shapes, an all-zero matrix, random sparse matrices, each with a
    duplicated row and with a column that is the sum of two others.
    """
    rng = random.Random(seed)
    cases = [Matrix.zero(field, 0, 0), Matrix.zero(field, 0, 3), Matrix.zero(field, 3, 0), Matrix.zero(field, 4, 5)]
    for _ in range(12):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = rand_matrix(rng, field, nrows, ncols, density=rng.choice((0.2, 0.4, 0.7)))
        triples = m.to_triples()
        duplicate_row = [(nrows, c, v) for r, c, v in triples if r == 0]
        sum_column = [(r, ncols, v) for r, c, v in triples if c < 2]
        cases.append(m)
        cases.append(Matrix.from_entries(field, nrows + 1, ncols, triples + duplicate_row))
        if ncols >= 2:
            cases.append(Matrix.from_entries(field, nrows, ncols + 1, triples + sum_column))
    return cases


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)])
def test_elimination_matches_the_column_scan(field):
    # differential test: ranks and kernel bases are read off the RREF, which
    # is unique, so they equal the column scan's; a left inverse need not
    # be unique, but exists exactly when the column scan finds one
    for m in elimination_cases(83, field):
        assert mat_rank(m) == reference_rank(m)
        assert kernel_basis_with_free(m) == reference_kernel_basis_with_free(m)
        try:
            reference_left_inverse(m)
        except ValueError:
            with pytest.raises(ValueError):
                left_inverse(m)
        else:
            assert mat_compose(left_inverse(m), m) == Matrix.identity(field, m.ncols)


def test_vstack_shape():
    a = Matrix.identity(QQ, 2)
    b = Matrix.zero(QQ, 3, 2)
    s = vstack([a, b])
    assert (s.nrows, s.ncols) == (5, 2)
    assert mat_rank(s) == 2


# -- streamed tensor sums ------------------------------------------------------

def units(dim):
    """The identity as a row map."""
    return tuple((c, 1) for c in range(dim))


def last_nnz(field, family, p):
    """The nonzero count of the family's p-th power: the last one its walk yields."""
    return list(tensor_sum_prefixes(field, family, p))[-1][1]


def test_tensor_power_sum_cancels():
    assert family_witness(QQ, [(QQ.one, units(3)), (QQ.from_int(-1), units(3))], 2) is None


def test_walk_raises_past_its_work_budget(monkeypatch):
    # I (x) I: the three rows of I are one row kind, so each layer is one
    # stored entry times one kind, 2 units in all
    family = [(QQ.one, units(3))]
    monkeypatch.setattr(linalg, "WALK_BUDGET", 2)
    assert last_nnz(QQ, family, 2) == 9
    monkeypatch.setattr(linalg, "WALK_BUDGET", 1)
    with pytest.raises(CapExceeded, match="reached 2 work units, over the budget 1"):
        family_witness(QQ, family, 2)


def test_sum_cancelled_by_the_merge_does_no_work(monkeypatch):
    # the second row map is the first over F3, its weights 3 more, so the
    # two terms merge and cancel
    rng = random.Random(11)
    a = rand_row_map(rng, 4, 4)
    shifted = tuple(None if e is None else (e[0], e[1] + 3) for e in a)
    family = [(GF(3).one, a), (GF(3).from_int(-1), shifted)]
    monkeypatch.setattr(linalg, "WALK_BUDGET", 0)
    assert family_witness(GF(3), family, 3) is None
    assert list(tensor_sum_prefixes(GF(3), family, 3)) == [(None, 0)] * 3


def test_tensor_power_sum_witness_order():
    witness = family_witness(QQ, [(QQ.one, units(2))], 2)
    assert witness == ((0, 0), (0, 0), QQ.one)


def rand_row_map(rng, nrows, ncols):
    """A random integer row map: per row None or (column, weight), weight 2 vanishing over F2."""
    return tuple(
        (rng.randrange(ncols), rng.choice([1, 1, 2, -1, 3])) if rng.random() < 0.8 else None
        for _ in range(nrows)
    )


def materialized_sum_witness(terms, p):
    """Reference: build the whole sum with kron and +, then take its first
    entry in row-major order, as `to_triples` lists them.

    Row and column indices are decoded in mixed radix, factor i's digit
    ranging over its own rows or columns.
    """
    field = terms[0][1][0].field
    shapes = [(m.nrows, m.ncols) for m in terms[0][1]]
    total = Matrix.zero(field, math.prod(r for r, _ in shapes), math.prod(c for _, c in shapes))
    for coef, mats in terms:
        product = Matrix.identity(field, 1)
        for m in mats:
            product = kron(product, m)
        total = total + product.scale(coef)

    def unflat(flat, radices):
        digits = []
        for radix in reversed(radices):
            flat, digit = divmod(flat, radix)
            digits.append(digit)
        return tuple(reversed(digits))

    triples = total.to_triples()
    if not triples:
        return None
    r, c, v = triples[0]
    return (unflat(c, [c for _, c in shapes]), unflat(r, [r for r, _ in shapes]), v)


def rand_power_case(rng, field):
    """(family, p, rectangular) of a random power family  sum_k c_k * M_k^(x)p
    of row maps, square or rectangular, with sometimes a row map that equals
    another only over the field appended, and sometimes the negated terms,
    all or all but one, so that the family cancels in the merge in whole or
    in part."""
    p = rng.randint(1, 3)
    nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
    pool = [rand_row_map(rng, nrows, ncols) for _ in range(rng.randint(1, 3))]
    shift = getattr(field, "p", 0)  # the characteristic
    if shift and rng.random() < 0.4:
        # equal over the field only: each weight moved by the characteristic
        pool.append(tuple(None if e is None else (e[0], e[1] + shift) for e in rng.choice(pool)))
    family = [(field.from_int(rng.randint(-2, 2)), rng.choice(pool)) for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.4:
        negated = [(field.neg(c), rows) for c, rows in family]
        if rng.random() < 0.5:
            negated.pop(rng.randrange(len(negated)))
        family += negated
        rng.shuffle(family)
    return family, p, nrows != ncols


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_tensor_product_sum_witness_matches_materialized(field):
    rng = random.Random(11)
    nonzero = zero = rectangular = 0
    for _ in range(200):
        family, p, rect = rand_power_case(rng, field)
        rectangular += rect
        witness = family_witness(field, family, p)
        assert witness == materialized_sum_witness(family_terms(field, family, p), p)
        if witness is None:
            zero += 1
        else:
            nonzero += 1
    assert zero >= 20 and nonzero >= 20 and rectangular >= 20  # every kind is exercised


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_tensor_product_sum_merges_equal_factor_lists(field):
    # A term split into two halves, the second written with a row map equal
    # to the first over the field only (a weight moved by the characteristic,
    # or over Q a distinct but equal tuple, and a zero row written as a
    # weight that vanishes), merges back into the unsplit term: the witness
    # is the unsplit family's and the unmerged materialized family's.
    rng = random.Random(23)
    shift = getattr(field, "p", 0)  # the characteristic
    for _ in range(40):
        a, x = (rand_row_map(rng, 3, 2) for _ in range(2))
        c1, c2, half = (field.from_int(rng.randint(-2, 2)) for _ in range(3))
        equal = tuple((0, shift) if e is None and shift else None if e is None else (e[0], e[1] + shift) for e in a)
        assert equal is not a and (shift == 0 or equal != a)
        unsplit = [(c1, a), (c2, x)]
        split = [(half, a), (c2, x), (field.sub(c1, half), equal)]
        witness = family_witness(field, split, 2)
        assert witness == family_witness(field, unsplit, 2)
        assert witness == materialized_sum_witness(family_terms(field, split, 2), 2)


def test_tensor_product_sum_rejects_mismatched_terms():
    with pytest.raises(ValueError):
        family_witness(QQ, [(QQ.one, units(2)), (QQ.one, units(3))], 2)  # the row maps differ in rows
    a = Matrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        kron_sum([(QQ.one, [a]), (QQ.one, [a, a])])


def test_tensor_product_sum_lowest_row_across_column_prefixes():
    # Row 0 reaches column 0 through a and b and column 1 through c, so
    # after the first factor the row prefix (0,) holds two column classes.
    # Column 0 cancels in row 0 at every power and survives in row 1;
    # column 1 survives in row 0, which is therefore the lowest witness
    # row, and its lowest column is (1, 1) although (0, 0) comes first.
    a, b, c = ((0, 1), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (0, 1))
    family = [(QQ.one, a), (QQ.from_int(-1), b), (QQ.one, c)]
    for p, expected in ((1, ((1,), (0,), QQ.one)), (2, ((1, 1), (0, 0), QQ.one))):
        witness = family_witness(QQ, family, p)
        assert witness == expected
        assert witness == materialized_sum_witness(family_terms(QQ, family, p), p)


def test_tensor_product_sum_keeps_smallest_prefix_of_a_shared_state():
    # Rows 0 and 2 have weights 1 and -1 at column 1: two row kinds.  After
    # two factors, row prefixes (0, 0) and (2, 2) reach one state.  The
    # stored prefix must be the smaller (0, 0), whose expansion (0, 0, 0)
    # is the witness row at the third power.
    family = [(QQ.from_int(2), ((1, 1), None, (1, -1)))]
    witness = family_witness(QQ, family, 3)
    assert witness == ((1, 1, 1), (0, 0, 0), QQ.from_int(2))
    assert witness == materialized_sum_witness(family_terms(QQ, family, 3), 3)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_tensor_product_sum_nnz_matches_kron_sum(field):
    rng = random.Random(31)
    nonzero = zero = rectangular = 0
    for _ in range(200):
        family, p, rect = rand_power_case(rng, field)
        rectangular += rect
        nnz = last_nnz(field, family, p)
        assert nnz == kron_sum(family_terms(field, family, p)).nnz()
        if nnz:
            nonzero += 1
        else:
            zero += 1
    assert zero >= 20 and nonzero >= 20 and rectangular >= 20  # every kind is exercised


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_tensor_product_sum_nnz_counts_every_pair_reaching_a_state(field):
    # J (x) J, J sending both rows to column 0: both rows are one kind, so
    # the two row prefixes of the first factor reach one state, and the
    # count is 2 * 2 and not the 1 of one visit per state.
    j = ((0, 1), (0, 1))
    assert last_nnz(field, [(field.one, j)], 2) == 4
    # J (x) J + I (x) I: row tuple (0, 0) sends both terms to column tuple
    # (0, 0), every other row tuple sends them to two column tuples.  Over
    # F2 the shared entry cancels, 1 + 1 = 0.
    family = [(field.one, j), (field.one, units(2))]
    assert last_nnz(field, family, 2) == kron_sum(family_terms(field, family, 2)).nnz() == (7 if field is QQ else 6)
    assert last_nnz(field, [(field.one, j), (field.neg(field.one), j)], 2) == 0


def truncated(terms, q):
    """The terms of the sum over the first q factors."""
    return [(c, mats[:q]) for c, mats in terms]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_tensor_sum_prefixes_match_materialized_at_every_length(field):
    # one walk to p against the materialized family at each power q <= p
    rng = random.Random(41)
    seen = {"zero": 0, "nonzero": 0, "cancelled": 0}
    for _ in range(240):
        family, p, _ = rand_power_case(rng, field)
        results = list(tensor_sum_prefixes(field, family, p))
        assert len(results) == p
        terms = family_terms(field, family, p)
        for q, (witness, nnz) in enumerate(results, start=1):
            short = truncated(terms, q)
            assert witness == materialized_sum_witness(short, q)
            assert nnz == kron_sum(short).nnz()
            seen["zero" if witness is None else "nonzero"] += 1
        if not linalg._merged_terms(field, family):
            assert results == [(None, 0)] * p
            seen["cancelled"] += 1
    assert min(seen.values()) >= 20, seen  # every kind is exercised


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_walk_matches_the_column_walk_oracle_at_every_length(field):
    # the nonzero count at each power is the oracle's, and the witness is
    # the oracle's on the transposed factors, its tuples swapped
    rng = random.Random(53)
    nonzero = 0
    for _ in range(240):
        family, p, _ = rand_power_case(rng, field)
        results = list(tensor_sum_prefixes(field, family, p))
        assert results == family_reference(field, family, p)
        nonzero += sum(witness is not None for witness, _ in results)
    assert nonzero >= 100


# A power family of 3 x 3 row maps over F3 and the work units its walk has
# reached after each power: the entries of each layer's states times the
# row kinds, summed
BUDGET_CASE_WORK = {1: 12, 2: 30, 3: 57}


def budget_case():
    rng = random.Random(7)
    pool = [rand_row_map(rng, 3, 3) for _ in range(4)]
    return [(GF(3).from_int(c), rows) for c, rows in zip((1, -1, 2, 1), pool)]


def test_walk_past_its_budget_yields_the_lengths_below_first(monkeypatch):
    family = budget_case()
    for q, work in BUDGET_CASE_WORK.items():
        # a walk to q alone passes at the work it reaches and raises one unit below
        monkeypatch.setattr(linalg, "WALK_BUDGET", work)
        family_witness(GF(3), family, q)
        monkeypatch.setattr(linalg, "WALK_BUDGET", work - 1)
        with pytest.raises(CapExceeded, match=f"reached {work} work units, over the budget {work - 1}"):
            family_witness(GF(3), family, q)
    # one walk to 3 under a budget that layer 3 crosses yields powers 1, 2, then raises
    monkeypatch.setattr(linalg, "WALK_BUDGET", BUDGET_CASE_WORK[3] - 1)
    walk = tensor_sum_prefixes(GF(3), family, 3)
    for q in (1, 2):
        witness, nnz = next(walk)
        terms = family_terms(GF(3), family, q)
        assert witness == materialized_sum_witness(terms, q)
        assert nnz == kron_sum(terms).nnz()
    with pytest.raises(CapExceeded, match=f"reached {BUDGET_CASE_WORK[3]} work units"):
        next(walk)
