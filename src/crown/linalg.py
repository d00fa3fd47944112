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

`kron_sum` takes `terms`, a list of (coefficient, [p factors]) in which
factor i of every term has one shape, rectangular allowed
(`_term_shapes`), and materializes the sum in one pass; `kron`,
`kron_power`, every exported word-power family and every Loday map are
calls of it.  `tensor_sum_prefixes` is the one exact zero test, for every
tensor identity the package checks, and it decides power families: a list
of (coefficient, integer row map) pairs, the maps of graph morphisms with
at most one nonzero per row.  One walk yields, for each q <= p in turn,
the row-major first nonzero entry and the exact number of nonzero entries
of  sum_k c_k * M_k^(x)q,  so a family is decided at every power by one
walk.  It merges terms whose row maps are equal over the field
(`_reduced`, the one reduction of integer weights into a field), then
walks row tuples one tensor factor at a time over deduplicated prefix
states, never materializing a sum, and `WALK_BUDGET` bounds its work.

Elimination (`_echelon`, `_kernel_basis`) serves the annihilator grading
and the reconstruction's minimality tests, where kernels are needed.  The
rank of a row map is read off its columns (`graph_algebra.rows_rank`).
"""

from __future__ import annotations

import math
from functools import reduce

from .errors import CapExceeded

WALK_BUDGET = 10_000_000  # state entries x row kinds, summed over a walk's layers; under 1 us each


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
    """Matrix of the composite linear map: `a` applied after `b`; entries that cancel are dropped.

    A column of `b` with the one entry (k, 1) gives a's column k itself,
    shared, as columns are never mutated after construction.
    """
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.ncols != b.nrows:
        raise ValueError(f"dimension mismatch: {a.ncols} != {b.nrows}")
    cols = []
    for col in b._cols:
        acc: dict = {}
        for k, v in col.items():
            if len(col) == 1 and v == a.field.one:
                acc = a._cols[k]
            else:
                _add_scaled(a.field, acc, v, a._cols[k])
        cols.append(acc)
    return Matrix(a.field, a.nrows, b.ncols, cols)


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
    per-term product is materialized and the output is never copied.  The
    empty columns of the result share one dict.  Each
    column still gets a dict up front: creating them only as terms reach
    them mixes the kept dicts with short-lived row dicts in memory, and
    that raised the peak RSS of the small-graphs benchmark by up to 0.9 MB.
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
    empty: dict = {}
    return Matrix(field, math.prod(r for r, _ in shapes), len(out), [col or empty for col in out])


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in the fixed lexicographic tensor convention."""
    return kron_sum([(a.field.one, [a, b])])


def kron_power(m: Matrix, p: int) -> Matrix:
    """p-fold Kronecker power; p = 0 gives the 1x1 identity."""
    if p < 0:
        raise ValueError("negative tensor power")
    # the leading 1x1 identity is the empty product, so p = 0 needs no case
    return kron_sum([(m.field.one, [Matrix.identity(m.field, 1)] + [m] * p)])


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


def _echelon(field, rows):
    """The forward pass of sparse elimination, keyed by pivot column.

    `rows` is an iterable of dicts col -> value, each reduced in place
    against the pivots found so far, leading column first.  A row becomes
    the pivot, scaled to lead with one, of its first leading column that no
    pivot holds.  Returns the pivot rows by pivot column; their number is the rank.
    """
    one = field.one
    pivots: dict = {}
    for row in rows:
        while row:
            lead = min(row)
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
    return len(_echelon(a.field, a._row_dicts()))


# -- tensor sums ---------------------------------------------------------

def _reduced(rows: tuple, field) -> tuple:
    """The row map with its weights reduced into the field, None where a weight vanishes there."""
    weights = [None if e is None else field.from_int(e[1]) for e in rows]
    return tuple([None if w is None or w == field.zero else (e[0], w) for e, w in zip(rows, weights)])


def tensor_sum_prefixes(field, family, p: int):
    """One walk that decides a power family at every power q <= p.

    `family` is a list of (coefficient, row map) pairs, the row maps as
    `graph_algebra` defines them, all with one number of rows (else
    ValueError); columns need not match rows.  Yields, for q = 1..p in
    turn, (witness, nnz) of  sum_k c_k * M_k^(x)q: the witness, None when
    that sum is exactly zero and otherwise its row-major first entry
    (col_tuple, row_tuple, value) -- the lowest nonzero row tuple and, in
    it, the lowest nonzero column tuple, digit i indexing factor i's
    columns or rows -- and the exact number of nonzero entries; no
    operator is materialized.  Terms whose row maps are equal over the
    field (`_reduced`) are merged first and zero coefficients dropped,
    which leaves every power unchanged; a family that cancels in the merge
    yields (None, 0) with no work.

    Row tuples are walked one factor at a time.  The state of a row prefix
    is its column classes: for each column prefix it reaches, the vector
    (k, c_k * M_k[r1,j1] * ... * M_k[rq,jq]) over the terms k reaching it.
    A row of a row map has at most one entry, so a term reaches at most one
    column prefix: the classes partition the terms reaching the row prefix,
    and no two are equal.  Equal states have the same future, so a layer
    stores each once, with the first row prefix reaching it and their
    count, and the rows that split every class alike (`_row_kinds`, one
    list for every factor) are expanded once per state, weighted by their
    number.  States are expanded in the order stored and kinds by first
    row, so prefixes come in lexicographic order: the first to reach a
    state is its smallest, and the first nonzero row tuple the lowest,
    whose row the witness evaluates (`_row_witness`).  Before a layer is
    expanded, its state entries times the row kinds are added to the work;
    past `WALK_BUDGET` the walk raises `CapExceeded`, after yielding the
    powers below.
    """
    terms = _merged_terms(field, family)
    if not terms:
        yield from [(None, 0)] * p
        return
    zero, mul, add = field.zero, field.mul, field.add
    kinds = _row_kinds([rows for _, rows in terms])
    layer = {frozenset([tuple((k, coef) for k, (coef, _) in enumerate(terms))]): [(), 1]}
    work = 0
    for i in range(p):
        work += sum(len(vec) for state in layer for vec in state) * len(kinds)
        if work > WALK_BUDGET:
            raise CapExceeded(f"streamed walk reached {work} work units, over the budget {WALK_BUDGET}")
        stored: dict = {}
        lowest, nnz = None, 0  # the first nonzero row tuple of length i + 1, and the nonzeros
        for state, (prefix, count) in layer.items():
            for signature, first, size in kinds:
                hits = 0  # column tuples with a nonzero sum, in one row of the kind
                child_state = []  # the child vectors, one per column prefix
                for vec in state:
                    children: dict = {}  # relabelled column -> the vector after appending it
                    for k, val in vec:
                        if (e := signature[k]) is not None:
                            children.setdefault(e[0], []).append((k, mul(val, e[1])))
                    for child in map(tuple, children.values()):
                        hits += reduce(add, [v for _, v in child]) != zero
                        if i < p - 1:  # the last layer is never stored
                            child_state.append(child)
                if hits:
                    nnz += hits * count * size
                    lowest = lowest or prefix + (first,)
                if child_state:
                    stored.setdefault(frozenset(child_state), [prefix + (first,), 0])[1] += count * size
        yield (None if lowest is None else _row_witness(field, terms, lowest)), nnz
        layer = stored


def _merged_terms(field, family):
    """The family's (coefficient, reduced row map) terms, merged by row map, zero coefficients dropped."""
    merged: dict = {}
    for coef, rows in family:
        key = _reduced(rows, field)
        merged[key] = field.add(merged[key], coef) if key in merged else coef
    if len({len(rows) for rows in merged}) > 1:
        raise ValueError("the row maps of a family must have one number of rows")
    return [(coef, rows) for rows, coef in merged.items() if coef != field.zero]


def _row_kinds(maps):
    """(signature, first row, number of rows) of each row kind of the terms'
    row maps, in order of first row.  A row's signature is its entry term by
    term, None or (column, value), columns relabelled in order of first
    occurrence."""
    kinds: dict = {}
    for r, entries in enumerate(zip(*maps)):
        labels: dict = {}
        signature = tuple(None if e is None else (labels.setdefault(e[0], len(labels)), e[1]) for e in entries)
        kinds.setdefault(signature, [r, 0])[1] += 1
    return [(signature, first, size) for signature, (first, size) in kinds.items()]


def _row_witness(field, terms, row_tuple):
    """(lowest nonzero column tuple, row_tuple, value) of one row of the
    family's power len(row_tuple), each term's entry read off its row map."""
    row: dict = {}  # column tuple -> the row's entry
    for coef, rows in terms:
        entries = [rows[r] for r in row_tuple]
        if None not in entries:
            cols = tuple(e[0] for e in entries)
            row[cols] = field.add(row.get(cols, field.zero), reduce(field.mul, [e[1] for e in entries], coef))
    col_tuple = min(cols for cols, v in row.items() if v != field.zero)
    return (col_tuple, row_tuple, row[col_tuple])
