"""The contravariant graph-to-algebra construction and its reconstruction.

A graph G gives one commutative non-unital algebra, `q_ungraded(G)`, an
`Algebra` (a basis plus structure constants).  Its basis is one vertex
indicator per vertex, then one vector per swap-orbit of the relation (one
per vertex for the diagonal pairs, then one per edge), and the product of
two vertex indicators is the orbit class of their pair when related, zero
otherwise.  All other products vanish, so the dimension is
|vertices| + (|vertices| + #edges).

A graph morphism f: G -> H induces an algebra map Q(H) -> Q(G) by pulling
functions back along f.  Its matrix (rows in Q(G)'s basis) has one nonzero
per row, so `q_rows` builds it as a row map: a tuple with one entry per
row, (column, integer weight), or None for a zero row.  A vertex row has
weight 1 at its image, an orbit row weight 1 at its representative's
image orbit, or 2 where f collapses the edge onto a vertex.  A sign word's
map x_j^v -> x_j^(w_j v) needs no morphism: `sign_rows` reads each row off
the word's signs at the row's columns, from a plan tabulated and checked
once per graph pair.  Row r of A.B is A's weight times B's row at A's
column (`rows_compose`).  Weights are reduced into a field
(`linalg._reduced`) only to compare (`rows_equal`, over F_2 a weight 2 is
a zero row), to take a rank (`rows_rank`), to certify an algebra map
(`rows_multiplicative`), to walk a power family of row maps
(`linalg.tensor_sum_prefixes`), or to convert, as `q_hom` does, into a
`Matrix` for export and for the tests' oracles (`is_multiplicative`).

The reconstruction pipeline recovers an admissible graph from its
algebra: regrade it via the annihilator (an `Algebra` whose first dim1
basis vectors span degree 1) and keep the projective degree-1 points
minimal in the dependence preorder ([a] depends on [b] iff a*b != 0);
for admissible graphs they are the vertex indicator classes, and
dependence among them is the graph relation.  `_certified_representatives`
reads them off the degree-1 basis where three premises hold, as they do
for every graph algebra over every field; elsewhere, and as its
cross-check, `_minimal_representatives` enumerates the p^dim1 points
over a prime field, at most DEFAULT_POINT_CAP, with one linear test per
point: with K_a = {x : a*x = 0}, dep(b) lies inside dep(a) iff K_a lies
inside K_b, so [a] is minimal iff S_a = {b : b*x = 0 for x in K_a} has
dimension 1.  Over F_2 it runs on bit-packed columns, over odd primes on
sparse rows; both list the points in `_enumerate_projective`'s order.
"""

from __future__ import annotations

import functools
import itertools

from .errors import CapExceeded, NotACover, NotAMorphism
from .graphs import Graph, GraphMorphism, graph_new, is_cover, vertex_label_str
from .linalg import Matrix, _add_scaled, _echelon, _kernel_basis, _reduced

# bounds p^dim1, the degree-1 vectors enumerated by the minimality test
DEFAULT_POINT_CAP = 2**15


class Algebra:
    """A finite-dimensional commutative algebra via structure constants.

    `table` maps basis index pairs (i, j) with i <= j to the sparse product
    vector; missing pairs multiply to zero.  No unit is assumed.  `dim1`
    is None unless the algebra was regraded by `annihilator_grading`; then
    its first dim1 basis vectors span degree 1 and the rest degree 2.
    """

    __slots__ = ("field", "basis", "_table", "dim1")

    def __init__(self, field, basis, table, dim1=None):
        self.field = field
        self.basis = tuple(basis)
        self._table = table
        self.dim1 = dim1

    @property
    def dim(self):
        return len(self.basis)

    def product_basis(self, i, j):
        key = (i, j) if i <= j else (j, i)
        return self._table.get(key, {})

    def mult(self, a: dict, b: dict) -> dict:
        f = self.field
        out: dict = {}
        for i, va in a.items():
            for j, vb in b.items():
                prod = self.product_basis(i, j)
                if prod:
                    _add_scaled(f, out, f.mul(va, vb), prod)
        return out

    def to_json(self):
        f = self.field
        triples = [[i, j, k, f.scalar_to_json(vec[k])]
                   for (i, j), vec in sorted(self._table.items()) for k in sorted(vec)]
        return {
            "field": f.name,
            "basis": [_label_str(label) for label in self.basis],
            "structure_constants": triples,
        }


def _label_str(label) -> str:
    if isinstance(label, tuple) and label[0] in ("v", "d", "e"):
        return label[0] + ":" + "|".join(map(vertex_label_str, label[1:]))
    if isinstance(label, tuple) and label[0] == "nil":
        return "nil:" + _label_str(label[1])
    return str(label)


_ORBIT_CACHE: dict = {}


def _orbits(g: Graph):
    """Degree-2 orbit indexing of a graph, defined once for every caller.

    Returns (orbit, representative): `orbit` maps every related ordered
    pair to its orbit's index among the degree-2 basis vectors, and
    `representative` maps only the fixed representative pair of each orbit.
    Diagonal orbits come first in vertex order, then edge orbits in
    endpoint-index order; an edge's representative is (a, b) with a first.
    """
    key = (g.vertices, g.relation)
    cached = _ORBIT_CACHE.get(key)
    if cached is None:
        representative = {(v, v): i for i, v in enumerate(g.vertices)}
        for k, edge in enumerate(g.edges()):
            representative[edge] = len(g.vertices) + k
        orbit = dict(representative)
        orbit.update({(b, a): k for (a, b), k in representative.items()})
        cached = _ORBIT_CACHE[key] = (orbit, representative)
    return cached


_Q_CACHE: dict = {}


def q_ungraded(g: Graph, field) -> Algebra:
    """The algebra of a graph in the fixed basis order.

    Vertex indicators in vertex order, then diagonal orbits in vertex
    order, then edge orbits in endpoint-index order.  The product of two
    vertex indicators is their pair's orbit when related, zero otherwise;
    every other product vanishes.
    """
    # basis order follows the vertex tuple, so the cache key must too
    key = (g.vertices, g.relation, field)
    cached = _Q_CACHE.get(key)
    if cached is None:
        verts = g.vertices
        idx = {v: i for i, v in enumerate(verts)}
        orbit, _ = _orbits(g)
        basis = [("v", v) for v in verts] + [("d", v) for v in verts] + [("e", a, b) for a, b in g.edges()]
        table = {}
        for x, y in g.relation:
            i, j = idx[x], idx[y]
            if i <= j:
                table[(i, j)] = {len(verts) + orbit[(x, y)]: field.one}
        cached = _Q_CACHE[key] = Algebra(field, basis, table)
    return cached


@functools.cache
def _units(dim: int) -> tuple:
    """The weight-1 entries (c, 1), c < dim, shared by every row map of that width."""
    return tuple((c, 1) for c in range(dim))


def _pullback(g: Graph, h: Graph) -> tuple:
    """The source pair of each row of a map from g to h, vertices first and then g's orbit representatives, and `entry`.

    entry(r, u, v) is row r's entry where the map sends its pair to (u, v), None where h does not relate them.
    """
    (h_orbit, h_representative), nh, nv = _orbits(h), len(h.vertices), len(g.vertices)
    units = _units(nh + len(h_representative))
    pairs = [(v, v) for v in g.vertices] + list(_orbits(g)[1])

    def entry(r, u, v):
        col = h_orbit.get((u, v))
        collapsed = u == v and pairs[r][0] != pairs[r][1]  # an edge onto a vertex
        return None if col is None else units[h.index(u)] if r < nv else (nh + col, 2) if collapsed else units[nh + col]
    return pairs, entry


def q_rows(f: GraphMorphism) -> tuple:
    """The row map of the induced algebra map Q(target) -> Q(source), as the module docstring defines it."""
    pairs, entry = _pullback(f.source, f.target)
    return tuple([entry(r, f.mapping[x], f.mapping[y]) for r, (x, y) in enumerate(pairs)])


_PLAN_CACHE: dict = {}


def sign_rows(g: Graph, h: Graph, coords) -> tuple:
    """`q_rows` of x_j^v -> x_j^(c_j v) from g to h, c_j = coords[j - 1] as in a word, read off the plan of (g, h).

    The plan, built once and keyed by content like `_orbits`, holds per row
    its pair's coordinate indices and its entry for each sign pair whose
    images h relates; a missing entry raises NotAMorphism with the pair.
    """
    key = (g.vertices, g.relation, h.vertices, h.relation)
    cached = _PLAN_CACHE.get(key)
    if cached is None:
        (pairs, entry), plan = _pullback(g, h), []
        for r, ((j, a), (k, b)) in enumerate(pairs):
            signs = itertools.product((1, -1, 0), repeat=2) if j != k else [(c, c) for c in (1, -1, 0)]
            table = {(cj, ck): entry(r, (j, cj * a), (k, ck * b)) for cj, ck in signs}
            plan.append((j - 1, k - 1, {c: e for c, e in table.items() if e is not None}))
        cached = _PLAN_CACHE[key] = pairs, plan
    pairs, plan = cached
    try:
        return tuple([table[coords[j], coords[k]] for j, k, table in plan])
    except KeyError:
        raise NotAMorphism(next(p for p, (j, k, t) in zip(pairs, plan) if (coords[j], coords[k]) not in t)) from None


def rows_compose(a: tuple, b: tuple) -> tuple:
    """The row map of the product a.b: row r is b's row at a's column, times a's weight."""
    return tuple([None if e is None or (x := b[e[0]]) is None else x if e[1] == 1 else (x[0], e[1] * x[1]) for e in a])


def rows_equal(a: tuple, b: tuple, field) -> bool:
    """Whether two row maps are one matrix over the field."""
    return a == b or _reduced(a, field) == _reduced(b, field)


def rows_matrix(field, rows: tuple, ncols: int | None = None) -> Matrix:
    """The row map as a `Matrix` over the field, with ncols columns, by default as many as rows."""
    cols = [{} for _ in range(len(rows) if ncols is None else ncols)]
    for r, e in enumerate(_reduced(rows, field)):
        if e is not None:
            cols[e[0]][r] = e[1]
    return Matrix(field, len(rows), len(cols), cols)


def rows_rank(rows: tuple, field) -> int:
    """The rank of a row map over the field: the columns its nonzero entries hit, whose supports are disjoint."""
    return len({e[0] for e in _reduced(rows, field) if e is not None})


def rows_multiplicative(g: Graph, h: Graph, rows: tuple, field) -> bool:
    """Whether a row map from Q(h) to Q(g), rows as in `_pullback(g, h)`, is an algebra map over the field.

    Only vertex indicators multiply to nonzero in Q(g), so with weights reduced into the field it is iff
    every vertex row is zero or on a vertex column, and each orbit row, pair (x, y), matches the product
    of rows x and y in Q(h), `_pullback`'s entry at their images times both weights: h must relate the
    images of two nonzero rows; a nonzero product must equal the orbit row, and where the product is
    zero the orbit row must be zero or on a vertex column.  `is_multiplicative` is the oracle.
    """
    (pairs, entry), nv, nh = _pullback(g, h), len(g.vertices), len(h.vertices)
    if len(rows) != len(pairs):
        raise ValueError("row map shape does not match the graphs")
    reduced, mul, index, images = _reduced(rows, field), field.mul, g._index, h.vertices
    if any(e is not None and e[0] >= nh for e in reduced[:nv]):
        return False
    for r, (a, b) in enumerate(pairs[nv:], nv):
        product = None  # rows a and b multiplied in Q(h), None where zero
        x, y, row = reduced[index[a]], reduced[index[b]], reduced[r]
        if x is not None and y is not None:
            if (e := entry(r, images[x[0]], images[y[0]])) is None:
                return False
            w = mul(mul(field.from_int(e[1]), x[1]), y[1])
            product = None if w == field.zero else (e[0], w)
        if row != product and (product is not None or row[0] >= nh):
            return False
    return True


def q_hom(f: GraphMorphism, field) -> Matrix:
    """The matrix of the induced algebra map Q(target) -> Q(source): `q_rows` over the field."""
    return rows_matrix(field, q_rows(f), q_ungraded(f.target, field).dim)


def is_multiplicative(source: Algebra, target: Algebra, m: Matrix) -> bool:
    """Whether m(e_i e_j) == m(e_i) m(e_j) for every pair of source basis vectors.

    `m` has one column per source basis vector, in the target basis.  Only
    candidate pairs are compared: those with a nonzero source product, and
    those with some u in supp m(e_i) and v in supp m(e_j) such that
    e_u e_v != 0 in the target.  Every other pair is zero on both sides.
    """
    if (m.nrows, m.ncols) != (target.dim, source.dim):
        raise ValueError("matrix shape does not match the algebras")
    f = source.field
    cols = m._cols
    cols_of_row: dict = {}  # target row u -> the source columns i with u in supp m(e_i)
    for i, col in enumerate(cols):
        for u in col:
            cols_of_row.setdefault(u, []).append(i)
    candidates = set(source._table)
    for u, v in target._table:
        for i in cols_of_row.get(u, ()):
            candidates.update((i, j) if i <= j else (j, i) for j in cols_of_row.get(v, ()))
    for i, j in candidates:
        left: dict = {}
        for k, w in source.product_basis(i, j).items():
            _add_scaled(f, left, w, cols[k])
        if left != target.mult(cols[i], cols[j]):
            return False
    return True


def cover_injectivity(fs, field) -> bool:
    """Whether the stacked induced maps of a cover have full rank: the `rows_rank` of their stacked row maps."""
    fs = list(fs)
    if not is_cover(fs):
        raise NotACover("the family does not cover its target")
    stacked = tuple(itertools.chain.from_iterable(q_rows(f) for f in fs))
    return rows_rank(stacked, field) == q_ungraded(fs[0].target, field).dim


# -- annihilator grading -------------------------------------------------

def annihilator_grading(a: Algebra) -> Algebra:
    """Regrade an algebra by its annihilator.

    Degree 2 is the subspace of elements killing everything, with the
    kernel's echelon basis; degree 1 is the complement spanned by the
    elimination pivots.  Returns an Algebra whose first `dim1` basis
    vectors are the pivot basis vectors and the rest the kernel vectors,
    labelled ("nil", label of their free coordinate).  Requires all
    products to land in the annihilator, otherwise the induced product is
    not a degree-1,2 grading and ValueError is raised.
    """
    f = a.field
    d = a.dim
    # the stacked d^2 x d matrix of x -> (e_i x)_i, row (i, k) holding the e_k-coefficients, read off the table
    rows: dict = {}
    for (i, j), vec in a._table.items():
        for k, v in vec.items():
            if v != f.zero:
                rows.setdefault((i, k), {})[j] = v
                rows.setdefault((j, k), {})[i] = v
    kernel, free_cols = _kernel_basis(f, _echelon(f, rows.values()), d)
    pivot_cols = tuple(c for c in range(d) if c not in set(free_cols))
    d1 = len(pivot_cols)
    labels = [a.basis[p] for p in pivot_cols] + [("nil", a.basis[fc]) for fc in free_cols]
    table = {}
    for ii, p in enumerate(pivot_cols):
        for jj in range(ii, d1):
            w = a.product_basis(p, pivot_cols[jj])
            # w less its kernel part: each kernel vector is 1 at its free column, otherwise on pivot columns
            rest = dict(w)
            for fc, vec in zip(free_cols, kernel):
                if fc in w:
                    _add_scaled(f, rest, f.neg(w[fc]), vec)
            if rest:
                raise ValueError("products do not land in the annihilator; the algebra admits no degree-1,2 regrading")
            vec = {d1 + k: w[fc] for k, fc in enumerate(free_cols) if fc in w}
            if vec:
                table[(ii, jj)] = vec
    return Algebra(f, labels, table, dim1=d1)


# -- projective enumeration and reconstruction ----------------------------

def _enumerate_projective(field, dim):
    """Normalized representatives (first nonzero coordinate = 1): lead position first, then the tail in lex order."""
    p = field.p
    for lead in range(dim):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=dim - lead - 1):
            yield prefix + tail


def _sparse(pt):
    """A coordinate tuple as a sparse vector (dict index -> scalar)."""
    return {i: c for i, c in enumerate(pt) if c}


def _minimal_representatives(ag: Algebra, max_points: int):
    """Normalized representatives of the minimal points, by enumeration, in `_enumerate_projective`'s order.

    That is lead position first, then the tail in lex order.  [a] is
    minimal iff dim S_a = 1 (see the module docstring).  Each point costs
    one forward elimination of x -> a*x: at full rank K_a = 0 and dim S_a
    = d1.  Otherwise its RREF kernel basis, which K_a alone determines,
    keys dim S_a, so a second elimination runs once per distinct K_a.
    """
    f = ag.field
    d1 = ag.dim1
    if d1 is None:
        raise ValueError("the algebra is not regraded; see annihilator_grading")
    if not f.is_prime_field:
        raise ValueError("projective enumeration requires a prime field")
    if f.p ** d1 > max_points:
        raise CapExceeded(f"{f.p}^{d1} projective vectors exceed cap {max_points}")
    if f.p == 2:
        return _minimal_representatives_f2(ag)
    mul, add, zero = f.mul, f.add, f.zero
    # nonzero structure constants e_i * e_j = sum_k v e_k, grouped by j
    by_col = [
        [(i, k, v) for i in range(d1) for k, v in ag.product_basis(i, j).items()]
        for j in range(d1)
    ]

    def product_rows(vecs):
        """The rows of the stacked maps b -> x*b over x in vecs; its kernel is {b : b*vecs = 0}.

        The products are field scalars already, so they are added straight
        into the rows; entries of one row can cancel and are dropped.
        """
        rows: dict = {}
        for block, x in enumerate(vecs):
            for j, c in x.items():
                for i, k, v in by_col[j]:
                    row = rows.setdefault((block, k), {})
                    w = mul(c, v)
                    cur = row.get(i)
                    y = w if cur is None else add(cur, w)
                    if y == zero:
                        row.pop(i, None)
                    else:
                        row[i] = y
        return rows.values()

    dim_s: dict = {}  # RREF kernel basis of K_a -> dim S_a
    chosen = []
    for pt in _enumerate_projective(f, d1):
        pivots = _echelon(f, product_rows([_sparse(pt)]))
        if len(pivots) == d1:
            dim = d1
        else:
            kernel = _kernel_basis(f, pivots, d1)[0]
            key = tuple(tuple(vec.items()) for vec in kernel)
            dim = dim_s.get(key)
            if dim is None:
                dim = dim_s[key] = d1 - len(_echelon(f, product_rows(kernel)))
        if dim == 1:
            chosen.append(pt)
    return chosen


def _f2_kernel(cols) -> list:
    """A kernel basis, as masks over the column indices, of the F_2 matrix with these int columns."""
    pivots, kernel = {}, []  # pivots: lowest set bit -> (reduced column, mask of the columns combined into it)
    for i, c in enumerate(cols):
        combo = 1 << i
        while c and (hit := pivots.get(c & -c)):
            c, combo = c ^ hit[0], combo ^ hit[1]
        if c:
            pivots[c & -c] = c, combo
        else:
            kernel.append(combo)  # its top bit is i
    return kernel


def _minimal_representatives_f2(ag: Algebra) -> list:
    """`_minimal_representatives` over F_2, walking the points in Gray-code order: one XOR of e_j's columns a step."""
    d1 = ag.dim1
    # column i of x -> e_j*x as an int, bit k set where e_j e_i has e_k
    table = [[sum(1 << k for k, v in ag.product_basis(i, j).items() if v) for i in range(d1)] for j in range(d1)]
    cols, point, dim_s, chosen = [0] * d1, 0, {(): d1}, []
    for j in ((step & -step).bit_length() - 1 for step in range(1, 2**d1)):
        point ^= 1 << j
        cols = [c ^ e for c, e in zip(cols, table[j])]
        key = ()  # the RREF of K_a: the top bits of its basis ascend, so reduce each vector by those below
        for x in _f2_kernel(cols):
            key += (functools.reduce(lambda y, r: min(y, y ^ r), reversed(key), x),)
        if key not in dim_s:  # the stacked maps b -> x*b over x in K_a, block t shifted by t*dim bits
            stacked = [0] * d1
            for t, k in ((t, k) for t, x in enumerate(key) for k in range(d1) if x >> k & 1):
                stacked = [c ^ e << t * ag.dim for c, e in zip(stacked, table[k])]
            dim_s[key] = len(_f2_kernel(stacked))
        if dim_s[key] == 1:
            chosen.append(tuple(point >> i & 1 for i in range(d1)))
    return sorted(chosen, key=lambda pt: (pt.index(1), pt))


def _certified_representatives(ag: Algebra):
    """The minimal points read off the degree-1 basis e_i, or None where a premise fails.

    With N[i] = {j : e_i e_j != 0}, the premises are: each e_i e_j is 0 or
    a nonzero multiple of one degree-2 basis vector, no two unordered pairs
    share that vector, and e_i e_i != 0.  Then a*x = 0 iff a_i x_i = 0 and
    a_i x_j + a_j x_i = 0 for each i in supp a and j in N[i], so K_a is the
    set of coordinate vectors vanishing on N[supp a], the union of N[i] over
    i in supp a.  A point with two or more coordinates is not minimal: each
    i in its support has dep(e_i) inside dep(a), as N[i] lies in N[supp a].
    And S_(e_i) is spanned by the e_j with N[j] inside N[i], so [e_i] is
    minimal iff no j != i has that.  Such a j lies in N[j], hence in N[i].
    Field-generic, in `_minimal_representatives`' lex order.
    """
    neighbours = [set() for _ in range(ag.dim1)]
    targets = set()
    for (i, j), vec in ag._table.items():
        if len(vec) != 1 or not targets.isdisjoint(vec):
            return None
        targets.update(vec)
        neighbours[i].add(j)
        neighbours[j].add(i)
    if any(i not in nb for i, nb in enumerate(neighbours)):
        return None
    return [
        tuple(int(k == i) for k in range(ag.dim1))
        for i, nb in enumerate(neighbours)
        if not any(j != i and neighbours[j] <= nb for j in nb)
    ]


def minimal_points(ag: Algebra, max_points: int = DEFAULT_POINT_CAP) -> frozenset:
    """The minimal projective classes in the dependence preorder.

    `ag` is a regraded algebra (see `annihilator_grading`); each class is
    its normalized coordinate tuple over the dim1 degree-1 basis vectors,
    first nonzero coordinate 1.  Enumeration needs a finite prime field
    and p^dim1 within the cap.
    """
    return frozenset(_minimal_representatives(ag, max_points))


def reconstruct_graph(a: Algebra, max_points: int = DEFAULT_POINT_CAP) -> Graph:
    """Recover a graph from an ungraded algebra; for an admissible graph's, one isomorphic to it.

    Regrades by the annihilator and takes the minimal points from
    `_certified_representatives`, or where its premises fail from the
    enumeration, which needs a prime field and p^dim1 within the cap.
    """
    ag = annihilator_grading(a)
    chosen = _certified_representatives(ag)
    return _points_graph(ag, _minimal_representatives(ag, max_points) if chosen is None else chosen)


def _points_graph(ag: Algebra, chosen) -> Graph:
    """The graph on the chosen points, linked where they multiply to nonzero: e_i e_j != 0 for basis points."""
    edges = [(x, y) for x, y in itertools.combinations(chosen, 2) if ag.mult(_sparse(x), _sparse(y))]
    return graph_new(sorted(chosen), edges)
