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
calls of it.  `tensor_product_sum_witness` is the one exact zero test,
for every tensor identity the package checks: it merges terms with equal
factor lists, then walks column tuples one tensor factor at a time over
deduplicated prefix states, storing one layer of distinct states.
"""

from __future__ import annotations

import math


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

def _rref(field, rows, ncols):
    """In-place reduced row echelon form with first-nonzero pivoting.

    `rows` is a list of dicts col -> value.  Returns the pivot column list;
    determinism comes from always taking the topmost row with a nonzero
    entry in the current column.
    """
    zero = field.zero
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if col in rows[i]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        if inv != field.one:
            rows[rank] = {c: field.mul(inv, v) for c, v in rows[rank].items()}
        pivot_row = rows[rank]
        for i in range(len(rows)):
            if i == rank:
                continue
            fac = rows[i].get(col)
            if fac is None:
                continue
            target = rows[i]
            for c, v in pivot_row.items():
                w = field.sub(target.get(c, zero), field.mul(fac, v))
                if w == zero:
                    target.pop(c, None)
                else:
                    target[c] = w
        pivots.append(col)
        rank += 1
    return pivots


def mat_rank(a: Matrix) -> int:
    """Exact rank by Gaussian elimination (first-nonzero pivot rule)."""
    rows = a._row_dicts()
    return len(_rref(a.field, rows, a.ncols))


def kernel_basis_with_free(a: Matrix):
    """Right-kernel basis plus the free columns that index it.

    Returns (basis, free_cols): one vector per free column of the RREF in
    ascending free-column order; the vector for free column f has a 1 at f
    and its other support lies on pivot columns.
    """
    f = a.field
    rows = a._row_dicts()
    pivots = _rref(f, rows, a.ncols)
    pivot_set = set(pivots)
    basis = []
    free_cols = []
    for free in range(a.ncols):
        if free in pivot_set:
            continue
        vec = {free: f.one}
        for i, pc in enumerate(pivots):
            v = rows[i].get(free)
            if v is not None:
                vec[pc] = f.neg(v)
        basis.append(vec)
        free_cols.append(free)
    return basis, free_cols


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
    pivots = _rref(f, rows, n)  # pivot search restricted to original columns
    if pivots != list(range(n)):
        raise ValueError("matrix does not have full column rank")
    entries = []
    for i in range(n):
        for c, v in rows[i].items():
            if c >= n:
                entries.append((i, c - n, v))
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

    Terms whose factor lists are equal matrix by matrix (by entries, not
    identity) are merged first and zero coefficients dropped; that leaves
    the operator, and so the witness, unchanged.

    The operator is never materialized.  Its entry at rows (r1..rp) and
    columns (j1..jp) is the sum over k of the vector
    (c_k * M_k1[r1,j1] * ... * M_kp[rp,jp])_k, so column tuples are walked
    one tensor factor at a time with that coefficient vector over the
    terms as the state of a (row prefix, column prefix) pair.  Pairs with
    equal vectors have the same future, so each layer stores every
    distinct vector once, keyed to the lexicographically smallest column
    prefix reaching it; the minimum is taken explicitly, because parents
    sharing one prefix (from different row prefixes) are visited in turn.
    The last layer is checked as it is generated and never stored, so
    memory is bounded by one stored layer of distinct vectors.
    """
    if not terms:
        return None
    field, shapes = _term_shapes(terms)
    if len(shapes) != p:
        raise ValueError("term arity mismatch")
    terms = _merged_terms(field, terms)
    if not terms:
        return None
    zero = field.zero
    mul = field.mul
    add = field.add
    factor_cols = [[m._cols for m in mats] for _, mats in terms]
    ncols = [c for _, c in shapes]

    def row_children(vec, i, j):
        """Coefficient vectors after appending column j of factor i, one per row."""
        children: dict = {}
        for k, val in vec:
            for row, v in factor_cols[k][i][j].items():
                children.setdefault(row, []).append((k, mul(val, v)))
        return children.values()

    def first_nonzero_column(vec):
        """Lowest j whose last-factor column makes some row's vector sum nonzero."""
        for j in range(ncols[-1]):
            for child in row_children(vec, p - 1, j):
                total = zero
                for _, val in child:
                    total = add(total, val)
                if total != zero:
                    return j
        return None

    layer = {tuple((k, coef) for k, (coef, _) in enumerate(terms)): ()}
    for i in range(p - 1):
        stored: dict = {}
        for vec, prefix in layer.items():
            for j in range(ncols[i]):
                cand = prefix + (j,)
                for child in row_children(vec, i, j):
                    key = tuple(child)
                    if key not in stored or cand < stored[key]:
                        stored[key] = cand
        layer = stored
    witnesses = []
    for vec, prefix in layer.items():
        j = first_nonzero_column(vec)
        if j is not None:
            witnesses.append(prefix + (j,))
    return _column_witness(terms, min(witnesses)) if witnesses else None


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
    """(col_tuple, lowest nonzero row tuple, value) of one column of the sum."""
    column = kron_sum([
        (coef, [Matrix(m.field, m.nrows, 1, [m._cols[j]]) for m, j in zip(mats, col_tuple)])
        for coef, mats in terms
    ])._cols[0]
    flat = min(column)
    value = column[flat]
    row_tuple = []
    for m in reversed(terms[0][1]):  # mixed radix, last factor least significant
        flat, r = divmod(flat, m.nrows)
        row_tuple.append(r)
    return (col_tuple, tuple(reversed(row_tuple)), value)
