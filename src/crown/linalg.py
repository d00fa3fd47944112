"""Sparse exact matrices and the tensor-power (Kronecker) kernels.

Matrices are stored column-major, one dict per column mapping row index to
a nonzero scalar; absent entries are zero.  All arithmetic is exact in the
matrix's field.  Values are immutable after construction and safe to share.

The tensor basis convention is fixed once, here, and used by every module
that produces or consumes tensor-power matrices: the basis of a p-fold
tensor power of a d-dimensional space is indexed by tuples (i1, ..., ip)
in lexicographic order with the FIRST factor most significant, so the flat
index is i1*d^(p-1) + ... + ip.  Kronecker products follow the same
convention: kron(a, b)[(i1,i2),(j1,j2)] = a[i1,j1] * b[i2,j2].

Both tensor-sum kernels take `terms`, a list of (coefficient, [p
factors]) in which factor i of every term has one shape, rectangular
allowed (`_term_shapes`).  `kron_sum` materializes the sum in one pass;
`kron`, `kron_power`, every word-power family and every Loday map are
calls of it.  `tensor_sum_prefixes` is the one exact zero test, for
every tensor identity the package checks: one walk over a sum of p-fold
products yields, for each q <= p in turn, the witness and the exact
number of nonzero entries of the sum truncated to its first q factors,
so a family of tensor powers is decided at every power by one walk.  It
merges terms with equal factor lists, then walks column tuples one
tensor factor at a time over deduplicated prefix states, storing one
layer of distinct states, each with its smallest prefix and the count of
prefix pairs reaching it.  It never materializes a sum, and
`WALK_BUDGET` bounds its work.  `tensor_product_sum_witness` reads its
last witness.
"""

from __future__ import annotations

import math

from .errors import CapExceeded

WALK_BUDGET = 10_000_000  # work units of one `tensor_sum_prefixes` walk, about 0.7 us each


class Matrix:
    """An exact sparse matrix over a fixed field.

    Construct via the classmethods; `_cols` is internal and must not be
    mutated after construction.
    """

    __slots__ = ("field", "nrows", "ncols", "_cols")

    def __init__(self, field, nrows, ncols, cols):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self._cols = cols

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field, nrows, ncols):
        return cls(field, nrows, ncols, [dict() for _ in range(ncols)])

    @classmethod
    def identity(cls, field, n):
        one = field.one
        return cls(field, n, n, [{i: one} for i in range(n)])

    @classmethod
    def from_entries(cls, field, nrows, ncols, entries):
        """Build from an iterable of (row, col, value); values accumulate."""
        cols = [dict() for _ in range(ncols)]
        zero = field.zero
        for r, c, v in entries:
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry ({r},{c}) out of range for {nrows}x{ncols}")
            v = field.coerce(v)
            cur = cols[c].get(r)
            w = v if cur is None else field.add(cur, v)
            if w == zero:
                cols[c].pop(r, None)
            else:
                cols[c][r] = w
        return cls(field, nrows, ncols, cols)

    # -- accessors ----------------------------------------------------

    def entry(self, r, c):
        return self._cols[c].get(r, self.field.zero)

    def col(self, c):
        """A copy of column c as a dict row -> value."""
        return dict(self._cols[c])

    def nnz(self):
        return sum(len(col) for col in self._cols)

    def is_zero(self):
        return all(not col for col in self._cols)

    def transpose(self):
        return Matrix(self.field, self.ncols, self.nrows, self._row_dicts())

    def to_triples(self):
        """Sorted list of (row, col, value) over nonzero entries."""
        out = []
        for c, col in enumerate(self._cols):
            for r in sorted(col):
                out.append((r, c, col[r]))
        out.sort(key=lambda t: (t[0], t[1]))
        return out

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._cols == other._cols
        )

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r}, nnz={self.nnz()})"

    # -- arithmetic: sums and multiples are one-factor Kronecker sums --

    def __add__(self, other):
        return kron_sum([(self.field.one, [self]), (self.field.one, [other])])

    def __sub__(self, other):
        return kron_sum([(self.field.one, [self]), (self.field.neg(self.field.one), [other])])

    def scale(self, scalar):
        return kron_sum([(self.field.coerce(scalar), [self])])

    def _row_dicts(self):
        rows = [dict() for _ in range(self.nrows)]
        for c, col in enumerate(self._cols):
            for r, v in col.items():
                rows[r][c] = v
        return rows


def mat_compose(a: Matrix, b: Matrix) -> Matrix:
    """Matrix of the composite linear map: `a` applied after `b`.

    A column of `b` with at most one entry needs no sums: an empty column
    stays empty (the result shares it), a single entry (k, 1) gives a's
    column k itself, and (k, v) gives that column times v, with no zero
    test because a field has no zero divisors.  Sharing column dicts
    between matrices relies on columns never being mutated after
    construction.  Other columns accumulate their products and drop the
    entries that cancel.
    """
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.ncols} != {b.nrows}")
    f = a.field
    zero = f.zero
    one = f.one
    mul = f.mul
    acols = a._cols
    cols = []
    for col in b._cols:
        if not col:
            cols.append(col)
        elif len(col) == 1:
            [(k, v)] = col.items()
            cols.append(acols[k] if v == one else {r: mul(w, v) for r, w in acols[k].items()})
        else:
            acc: dict = {}
            for k, v in col.items():
                for r, w in acols[k].items():
                    x = mul(w, v)
                    cur = acc.get(r)
                    y = x if cur is None else f.add(cur, x)
                    if y == zero:
                        acc.pop(r, None)
                    else:
                        acc[r] = y
            cols.append(acc)
    return Matrix(f, a.nrows, b.ncols, cols)


def _term_shapes(terms):
    """The field and per-factor (nrows, ncols) of a term list; ValueError if inconsistent."""
    if not terms or not terms[0][1]:
        raise ValueError("a Kronecker sum needs at least one term and one factor")
    field = terms[0][1][0].field
    shapes = [(m.nrows, m.ncols) for m in terms[0][1]]
    for _, mats in terms:
        if len(mats) != len(shapes):
            raise ValueError("term arity mismatch")
        if any(m.field != field or (m.nrows, m.ncols) != shape for m, shape in zip(mats, shapes)):
            raise ValueError("factors must share one field, and factor i one shape")
    return field, shapes


def kron_sum(terms) -> Matrix:
    """The matrix of  sum_k  c_k * (M_k1 (x) ... (x) M_kp), built in one pass.

    `terms` follows the module's term contract (else ValueError).  Each
    term is expanded one factor at a time from its coefficient: every
    factor but the last extends the nonempty column prefixes, each holding
    its row prefix -> value entries, and the last factor's products are
    added straight into the one output, dropping entries that cancel.  No
    per-term product is materialized and the output is never copied.
    """
    field, shapes = _term_shapes(terms)
    mul = field.mul
    add = field.add
    zero = field.zero
    out = [dict() for _ in range(math.prod(c for _, c in shapes))]
    for coef, mats in terms:
        layer = [(0, {0: coef})]  # (flat column prefix, {flat row prefix: value})
        for m in mats[:-1]:
            cols = [(j, col) for j, col in enumerate(m._cols) if col]
            layer = [
                (c * m.ncols + j, {r * m.nrows + i: mul(v, w) for r, v in rows.items() for i, w in col.items()})
                for c, rows in layer
                for j, col in cols
            ]
        last = mats[-1]
        cols = [(j, col) for j, col in enumerate(last._cols) if col]
        for c, rows in layer:
            for j, col in cols:
                acc = out[c * last.ncols + j]
                for r, v in rows.items():
                    base = r * last.nrows
                    for i, w in col.items():
                        k = base + i
                        x = mul(v, w)
                        cur = acc.get(k)
                        y = x if cur is None else add(cur, x)
                        if y == zero:
                            acc.pop(k, None)
                        else:
                            acc[k] = y
    return Matrix(field, math.prod(r for r, _ in shapes), len(out), out)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in the fixed lexicographic tensor convention."""
    return kron_sum([(a.field.one, [a, b])])


def kron_power(m: Matrix, p: int) -> Matrix:
    """p-fold Kronecker power; p = 0 gives the 1x1 identity."""
    if p < 0:
        raise ValueError("negative tensor power")
    # the leading 1x1 identity is the empty product, so p = 0 needs no case
    return kron_sum([(m.field.one, [Matrix.identity(m.field, 1)] + [m] * p)])


def vstack(mats) -> Matrix:
    """Stack matrices with equal column count vertically, in order."""
    mats = list(mats)
    if not mats:
        raise ValueError("empty stack")
    f = mats[0].field
    ncols = mats[0].ncols
    for m in mats:
        if m.field != f or m.ncols != ncols:
            raise ValueError("mismatched stack")
    cols = [dict() for _ in range(ncols)]
    offset = 0
    for m in mats:
        for c in range(ncols):
            col = cols[c]
            for r, v in m._cols[c].items():
                col[offset + r] = v
        offset += m.nrows
    return Matrix(f, offset, ncols, cols)


# -- elimination ------------------------------------------------------

def _add_scaled(field, acc, fac, vec):
    """acc += fac * vec for sparse vectors, in place, dropping entries that cancel."""
    zero = field.zero
    for c, v in vec.items():
        w = field.add(acc.get(c, zero), field.mul(fac, v))
        if w == zero:
            acc.pop(c, None)
        else:
            acc[c] = w


def _echelon(field, rows, ncols):
    """The forward pass of sparse elimination, keyed by pivot column.

    `rows` is an iterable of dicts col -> value, each reduced in place
    against the pivots found so far, leading column first.  A row becomes
    the pivot, scaled to lead with one, of its first leading column below
    `ncols` that no pivot holds; columns >= ncols ride along (an augmented
    block).  Returns the pivot rows by pivot column; their number is the rank.
    """
    one = field.one
    pivots: dict = {}
    for row in rows:
        while row:
            lead = min(row)
            if lead >= ncols:
                break
            piv = pivots.get(lead)
            if piv is None:
                if row[lead] != one:
                    inv = field.inv(row[lead])
                    for c, v in row.items():
                        row[c] = field.mul(inv, v)
                pivots[lead] = row
                break
            _add_scaled(field, row, field.neg(row[lead]), piv)
    return pivots


def _rref(field, pivots):
    """Back-substitute `_echelon`'s pivot rows, in place, into the RREF's rows.

    Returns the pivot columns in ascending order.  The RREF is unique, so
    kernel bases depend on neither the row order nor the elimination order.
    """
    order = sorted(pivots)
    for lead in reversed(order):  # every row with a larger pivot is reduced already
        row = pivots[lead]
        for pc in [c for c in row if c != lead and c in pivots]:
            _add_scaled(field, row, field.neg(row[pc]), pivots[pc])
    return order


def _kernel_basis(field, pivots, ncols):
    """(basis, free columns) of the right kernel, read off `_echelon`'s pivots."""
    order = _rref(field, pivots)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = {free: field.one}
        for pc in order:
            v = pivots[pc].get(free)
            if v is not None:
                vec[pc] = field.neg(v)
        basis.append(vec)
    return basis, free_cols


def mat_rank(a: Matrix) -> int:
    """Exact rank: the number of pivots of `_echelon`'s forward pass."""
    return len(_echelon(a.field, a._row_dicts(), a.ncols))


def kernel_basis_with_free(a: Matrix):
    """Right-kernel basis plus the free columns that index it.

    Returns (basis, free_cols): one vector per free column of the RREF in
    ascending free-column order; the vector for free column f has a 1 at f
    and its other support lies on pivot columns.
    """
    return _kernel_basis(a.field, _echelon(a.field, a._row_dicts(), a.ncols), a.ncols)


def left_inverse(a: Matrix) -> Matrix:
    """A left inverse L with L @ a == identity, for full-column-rank a.

    Raises ValueError when the columns are dependent.  The product is
    re-verified before returning.
    """
    f = a.field
    n = a.ncols
    rows = a._row_dicts()
    for r in range(a.nrows):
        rows[r][n + r] = f.one  # augment with the identity
    pivots = _echelon(f, rows, n)  # pivot search restricted to original columns
    if len(pivots) != n:
        raise ValueError("matrix does not have full column rank")
    _rref(f, pivots)
    entries = [(i, c - n, v) for i in range(n) for c, v in pivots[i].items() if c >= n]
    lift = Matrix.from_entries(f, n, a.nrows, entries)
    if mat_compose(lift, a) != Matrix.identity(f, n):
        raise AssertionError("left inverse verification failed")
    return lift


# -- tensor sums ---------------------------------------------------------

def tensor_product_sum_witness(terms, p: int):
    """Exact zero test for  sum_k  c_k * (M_k1 (x) ... (x) M_kp).

    `terms` follows the module's term contract.  Returns None when the
    sum is exactly zero, otherwise the lowest-index witness (col_tuple,
    row_tuple, value): the lowest nonzero column tuple and, inside it, the
    lowest nonzero row tuple, digit i indexing factor i's columns or rows.
    It is the last witness `tensor_sum_prefixes` yields.
    """
    *_, (witness, _) = tensor_sum_prefixes(terms, p)
    return witness


def tensor_sum_prefixes(terms, p: int):
    """One walk that decides a sum of p-fold products at every length q <= p.

    Yields, for q = 1..p in turn, (witness, nnz) of the sum truncated to its
    first q factors, sum_k c_k * (M_k1 (x) ... (x) M_kq): the witness as
    `tensor_product_sum_witness` returns it and the exact number of nonzero
    entries; no operator is materialized.  Terms whose factor lists are
    equal matrix by matrix (by entries, not identity) are merged first and
    zero coefficients dropped, which leaves every truncated operator
    unchanged; a sum that cancels in the merge yields (None, 0) with no work.

    The entry at rows (r1..rq) and columns (j1..jq) is the sum over k of
    the vector (c_k * M_k1[r1,j1] * ... * M_kq[rq,jq])_k, so column tuples
    are walked one factor at a time with that vector over the terms as the
    state of a (row prefix, column prefix) pair.  Pairs with equal vectors
    have the same future, so each layer stores every distinct vector once,
    with the lexicographically smallest column prefix reaching it (taken
    explicitly: parents sharing one prefix, from different row prefixes,
    are visited in turn) and the exact count of pairs reaching it.
    Expanding layer q - 1 by factor q sums each child vector as it is
    built, which decides length q: each nonzero sum adds its parent's
    count to nnz, and a parent's lowest column with a nonzero sum,
    appended to its smallest prefix, is a witness candidate.  So each
    layer is expanded once, for every length.

    Only one layer of distinct vectors is stored, the last never, and
    `WALK_BUDGET` bounds the time: before a layer is expanded, its stored
    entries times the factor's columns are added to the work, and past the
    budget the walk raises `CapExceeded`, after yielding the lengths below.
    """
    if terms:
        field, shapes = _term_shapes(terms)
        if len(shapes) != p:
            raise ValueError("term arity mismatch")
        terms = _merged_terms(field, terms)
    if not terms:
        yield from [(None, 0)] * p
        return
    zero = field.zero
    mul = field.mul
    add = field.add
    factor_cols = [[m._cols for m in mats] for _, mats in terms]
    layer = {tuple((k, coef) for k, (coef, _) in enumerate(terms)): [(), 1]}
    work = 0
    for i, (_, ncols) in enumerate(shapes):
        work += sum(map(len, layer)) * ncols
        if work > WALK_BUDGET:
            raise CapExceeded(f"streamed walk reached {work} work units, over the budget {WALK_BUDGET}")
        store = i < p - 1
        stored: dict = {}
        lowest = None  # the smallest nonzero column tuple of length i + 1
        nnz = 0
        for vec, (prefix, count) in layer.items():
            for j in range(ncols):
                cand = prefix + (j,)
                children: dict = {}  # row -> the coefficient vector after appending column j
                for k, val in vec:
                    for row, v in factor_cols[k][i][j].items():
                        children.setdefault(row, []).append((k, mul(val, v)))
                hits = 0  # rows with a nonzero sum
                for child in children.values():
                    total = zero
                    for _, val in child:
                        total = add(total, val)
                    hits += total != zero
                    if store:
                        key = tuple(child)
                        state = stored.get(key)
                        if state is None:
                            stored[key] = [cand, count]
                        else:
                            state[1] += count
                            if cand < state[0]:
                                state[0] = cand
                if hits:
                    nnz += hits * count
                    if lowest is None or cand < lowest:
                        lowest = cand
        yield (None if lowest is None else _column_witness(terms, lowest)), nnz
        layer = stored


def _merged_terms(field, terms):
    """The terms with equal factor lists merged and zero coefficients dropped."""
    seen: dict = {}  # (shape, column sizes) -> the first matrix of each content

    def first_equal(m):
        bucket = seen.setdefault((m.nrows, m.ncols, tuple(map(len, m._cols))), [])
        first = next((x for x in bucket if x is m or x._cols == m._cols), None)
        if first is None:
            bucket.append(first := m)
        return id(first)

    merged: dict = {}
    for coef, mats in terms:
        key = tuple(map(first_equal, mats))
        merged[key] = [field.add(merged[key][0], coef) if key in merged else coef, mats]
    return [(coef, mats) for coef, mats in merged.values() if coef != field.zero]


def _column_witness(terms, col_tuple):
    """(col_tuple, lowest nonzero row tuple, value) of one column of the sum
    truncated to its first len(col_tuple) factors."""
    column = kron_sum([
        (coef, [Matrix(m.field, m.nrows, 1, [m._cols[j]]) for m, j in zip(mats, col_tuple)])
        for coef, mats in terms
    ])._cols[0]
    flat = min(column)
    value = column[flat]
    row_tuple = []
    for m in reversed(terms[0][1][:len(col_tuple)]):  # mixed radix, last factor least significant
        flat, r = divmod(flat, m.nrows)
        row_tuple.append(r)
    return (col_tuple, tuple(reversed(row_tuple)), value)
