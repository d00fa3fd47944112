"""The contravariant graph-to-algebra construction and its reconstruction.

For a graph G the associated commutative non-unital algebra is graded in
degrees 1 and 2: degree 1 has one basis vector per vertex (the indicator
functions), degree 2 has one basis vector per swap-orbit of the relation
(one per vertex for the diagonal pairs plus one per edge), and the product
of two vertex indicators is the orbit class of their pair when related,
zero otherwise.  All other products vanish, so the dimension is
|vertices| + (|vertices| + #edges).

A graph morphism f: G -> H induces an algebra map Q(H) -> Q(G) by pulling
functions back along f; on the orbit basis the column of an orbit is the
sum over ordered preimages of a fixed representative pair.

The reconstruction pipeline recovers an admissible graph from its
(ungraded) algebra: regrade via the annihilator, enumerate projective
classes of degree-1 elements over a prime field, and keep the points
minimal in the dependence preorder ([a] depends on [b] iff a*b != 0).
Minimality is decided per point by one linear test, the same for every
prime field: with K_a = {x : a*x = 0}, dep(b) lies inside dep(a) iff
K_a lies inside K_b, so those b form the subspace
S_a = {b : b*x = 0 for x in K_a}, and [a] is minimal iff dim S_a = 1.
The cost is linear in the number of points; DEFAULT_POINT_CAP bounds the
p^dim1 degree-1 vectors enumerated.  For admissible graphs the minimal
points are exactly the vertex indicator classes and dependence
restricted to them is the graph relation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapExceeded, NotACover
from .graphs import Graph, GraphMorphism, graph_new, is_cover
from .linalg import Matrix, kernel_basis_with_free, mat_rank, vstack

# bounds p^dim1, the degree-1 vectors enumerated by the minimality test
DEFAULT_POINT_CAP = 2**15


class GradedAlgebra:
    """A commutative algebra concentrated in degrees 1 and 2.

    Only degree1 x degree1 products can be nonzero; they land in degree 2.
    `products` maps index pairs (i, j) with i <= j to sparse degree-2
    vectors (dict index -> scalar).
    """

    __slots__ = ("field", "degree1", "degree2", "_prod")

    def __init__(self, field, degree1, degree2, products):
        self.field = field
        self.degree1 = tuple(degree1)
        self.degree2 = tuple(degree2)
        self._prod = products

    @property
    def dim1(self):
        return len(self.degree1)

    @property
    def dim2(self):
        return len(self.degree2)

    @property
    def dim(self):
        return self.dim1 + self.dim2

    def product11(self, i, j):
        """Product of degree-1 basis vectors i and j as a degree-2 vector."""
        key = (i, j) if i <= j else (j, i)
        return self._prod.get(key, {})

    def to_ungraded(self):
        """Forget the grading; degree-2 indices shift up by dim1."""
        d1 = self.dim1
        table = {}
        for (i, j), vec in self._prod.items():
            table[(i, j)] = {k + d1: v for k, v in vec.items()}
        return Algebra(self.field, self.degree1 + self.degree2, table)


class Algebra:
    """A finite-dimensional commutative algebra via structure constants.

    `table` maps basis index pairs (i, j) with i <= j to the sparse product
    vector; missing pairs multiply to zero.  No unit is assumed.
    """

    __slots__ = ("field", "basis", "_table")

    def __init__(self, field, basis, table):
        self.field = field
        self.basis = tuple(basis)
        self._table = table

    @property
    def dim(self):
        return len(self.basis)

    def product_basis(self, i, j):
        key = (i, j) if i <= j else (j, i)
        return self._table.get(key, {})

    def mult(self, a: dict, b: dict) -> dict:
        f = self.field
        zero = f.zero
        out: dict = {}
        for i, va in a.items():
            for j, vb in b.items():
                prod = self.product_basis(i, j)
                if not prod:
                    continue
                c = f.mul(va, vb)
                for k, w in prod.items():
                    x = f.add(out.get(k, zero), f.mul(c, w))
                    if x == zero:
                        out.pop(k, None)
                    else:
                        out[k] = x
        return out

    def is_associative(self) -> bool:
        """Exhaustive check of (e_i e_j) e_k == e_i (e_j e_k)."""
        d = self.dim
        unit = self.field.one
        for i in range(d):
            ei = {i: unit}
            for j in range(i, d):
                ij = self.product_basis(i, j)
                ej = {j: unit}
                for k in range(d):
                    left = self.mult(ij, {k: unit})
                    right = self.mult(ei, self.mult(ej, {k: unit}))
                    if left != right:
                        return False
        return True

    def label_str(self, i):
        return _label_str(self.basis[i])

    def to_json(self):
        f = self.field
        triples = []
        for (i, j), vec in sorted(self._table.items()):
            for k in sorted(vec):
                triples.append([i, j, k, f.scalar_to_json(vec[k])])
        return {
            "field": f.name,
            "basis": [self.label_str(i) for i in range(self.dim)],
            "structure_constants": triples,
        }


def _label_str(label) -> str:
    from .graphs import vertex_label_str

    if isinstance(label, tuple):
        tag = label[0]
        if tag == "v":
            return "v:" + vertex_label_str(label[1])
        if tag == "d":
            return "d:" + vertex_label_str(label[1])
        if tag == "e":
            return "e:" + vertex_label_str(label[1]) + "|" + vertex_label_str(label[2])
        if tag == "nil":
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


def q_graded(g: Graph, field) -> GradedAlgebra:
    """The graded algebra of a graph in the fixed basis order.

    Degree 1: vertex indicators in vertex order.  Degree 2: diagonal
    orbits in vertex order, then edge orbits in endpoint-index order.
    """
    # basis order follows the vertex tuple, so the cache key must too
    key = (g.vertices, g.relation, field)
    cached = _Q_CACHE.get(key)
    if cached is not None:
        return cached
    one = field.one
    verts = g.vertices
    idx = {v: i for i, v in enumerate(verts)}
    orbit, _ = _orbits(g)
    degree1 = [("v", v) for v in verts]
    degree2 = [("d", v) for v in verts] + [("e", a, b) for a, b in g.edges()]
    products = {}
    for x, y in g.relation:
        i, j = idx[x], idx[y]
        if i <= j:
            products[(i, j)] = {orbit[(x, y)]: one}
    alg = GradedAlgebra(field, degree1, degree2, products)
    _Q_CACHE[key] = alg
    return alg


_QU_CACHE: dict = {}


def q_ungraded(g: Graph, field) -> Algebra:
    key = (g.vertices, g.relation, field)
    cached = _QU_CACHE.get(key)
    if cached is None:
        cached = _QU_CACHE[key] = q_graded(g, field).to_ungraded()
    return cached


class AlgebraHom:
    """A linear multiplicative map between algebras, stored as a matrix.

    `matrix` has one column per source basis vector, expressed in the
    target basis.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Algebra, target: Algebra, matrix: Matrix, validate=True):
        if matrix.ncols != source.dim or matrix.nrows != target.dim:
            raise ValueError("matrix shape does not match the algebras")
        self.source = source
        self.target = target
        self.matrix = matrix
        if validate and not self.is_multiplicative():
            raise ValueError("map is not multiplicative on basis pairs")

    def apply(self, vec: dict) -> dict:
        f = self.source.field
        zero = f.zero
        out: dict = {}
        for j, v in vec.items():
            for r, w in self.matrix._cols[j].items():
                x = f.add(out.get(r, zero), f.mul(w, v))
                if x == zero:
                    out.pop(r, None)
                else:
                    out[r] = x
        return out

    def is_multiplicative(self) -> bool:
        src = self.source
        tgt = self.target
        unit = src.field.one
        cols = self.matrix._cols
        for i in range(src.dim):
            hi = cols[i]
            for j in range(i, src.dim):
                left = self.apply(src.product_basis(i, j))
                right = tgt.mult(hi, cols[j])
                if left != right:
                    return False
        return True


def q_hom(f: GraphMorphism, field, validate: bool = True) -> AlgebraHom:
    """The induced algebra map Q(target) -> Q(source) of a graph morphism."""
    g, h = f.source, f.target
    qg = q_ungraded(g, field)
    qh = q_ungraded(h, field)
    one = field.one
    ng, nh = len(g.vertices), len(h.vertices)
    g_orbit, _ = _orbits(g)
    _, h_representative = _orbits(h)
    entries = [(g.index(x), h.index(f.mapping[x]), one) for x in g.vertices]
    for a, b in g.relation:
        # only preimages of the representative count: a pair landing on its
        # mirror is skipped, and both orientations of a collapsed edge land
        # on the diagonal, so that orbit pulls back with weight 2
        col = h_representative.get((f.mapping[a], f.mapping[b]))
        if col is not None:
            entries.append((ng + g_orbit[(a, b)], nh + col, one))
    mat = Matrix.from_entries(field, qg.dim, qh.dim, entries)
    return AlgebraHom(qh, qg, mat, validate=validate)


def cover_injectivity(fs, field) -> bool:
    """Whether the stacked induced maps of a cover have full rank."""
    fs = list(fs)
    if not is_cover(fs):
        raise NotACover("the family does not cover its target")
    target_alg = q_ungraded(fs[0].target, field)
    stacked = vstack([q_hom(f, field, validate=False).matrix for f in fs])
    return mat_rank(stacked) == target_alg.dim


def mult_multiset(a: Algebra, factors) -> dict:
    """Product of basis elements listed by index; order is irrelevant."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    out = {factors[0]: a.field.one}
    for i in factors[1:]:
        out = a.mult(out, {i: a.field.one})
        if not out:
            return {}
    return out


# -- annihilator grading -------------------------------------------------

def annihilator_grading_data(a: Algebra):
    """Regrade an algebra by its annihilator.

    Degree 2 is the subspace of elements killing everything, degree 1 a
    complement read off from elimination pivots.  Returns the graded
    algebra, the pivot coordinate tuple (degree-1 representatives) and the
    kernel basis vectors (degree-2 representatives, echelon form).
    Requires all products to land in the annihilator, otherwise the
    induced product is not a degree-1,2 grading and ValueError is raised.
    """
    f = a.field
    d = a.dim
    entries = []
    for j in range(d):
        for i in range(d):
            vec = a.product_basis(j, i)
            for k, v in vec.items():
                entries.append((i * d + k, j, v))
    stacked = Matrix.from_entries(f, d * d, d, entries)
    kernel, free_cols = kernel_basis_with_free(stacked)
    pivot_cols = tuple(c for c in range(d) if c not in set(free_cols))
    kernel_by_free = {fc: vec for fc, vec in zip(free_cols, kernel)}

    def reduce(vec: dict):
        """Split vec into (pivot-coordinate part, kernel coefficients)."""
        kcoeffs = {}
        rest = dict(vec)
        for fc in free_cols:
            c = rest.get(fc)
            if c is None:
                continue
            kcoeffs[fc] = c
            for col, v in kernel_by_free[fc].items():
                w = f.sub(rest.get(col, f.zero), f.mul(c, v))
                if w == f.zero:
                    rest.pop(col, None)
                else:
                    rest[col] = w
        return rest, kcoeffs

    deg1_labels = [a.basis[p] for p in pivot_cols]
    deg2_labels = [("nil", a.basis[fc]) for fc in free_cols]
    free_pos = {fc: i for i, fc in enumerate(free_cols)}
    products = {}
    for ii, p in enumerate(pivot_cols):
        for jj in range(ii, len(pivot_cols)):
            q = pivot_cols[jj]
            w = a.product_basis(p, q)
            if not w:
                continue
            rest, kcoeffs = reduce(w)
            if rest:
                raise ValueError(
                    "products do not land in the annihilator; "
                    "the algebra admits no degree-1,2 regrading"
                )
            vec = {free_pos[fc]: v for fc, v in kcoeffs.items()}
            if vec:
                products[(ii, jj)] = vec
    graded = GradedAlgebra(f, deg1_labels, deg2_labels, products)
    return graded, pivot_cols, tuple(kernel)


def annihilator_grading(a: Algebra) -> GradedAlgebra:
    graded, _, _ = annihilator_grading_data(a)
    return graded


# -- projective enumeration and reconstruction ----------------------------

@dataclass(frozen=True)
class ProjPoint:
    """A projective class of a degree-1 vector, by normalized representative."""

    coords: tuple

    def __repr__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"


def _enumerate_projective(field, dim):
    """Normalized representatives (first nonzero coordinate = 1), lex order."""
    p = field.p
    points = []
    for lead in range(dim):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(p), repeat=dim - lead - 1):
            points.append(prefix + tail)
    return points


def _sparse(pt):
    """A coordinate tuple as a sparse vector (dict index -> scalar)."""
    return {i: c for i, c in enumerate(pt) if c}


def _minimal_representatives(ag: GradedAlgebra, max_points: int):
    """Normalized representatives of the minimal points, in lex order.

    dep(b) is inside dep(a) iff K_a = {x : a*x = 0} lies inside K_b, so the
    points whose dependence set lies inside a's form the subspace
    S_a = {b : b*x = 0 for x in a basis of K_a}, which contains a.  [a] is
    minimal (no other point's dependence set is contained in or equal to
    its own) iff dim S_a = 1.  Two small eliminations per point, so the
    work is linear in the number of points.
    """
    f = ag.field
    d1 = ag.dim1
    if not f.is_prime_field:
        raise ValueError("projective enumeration requires a prime field")
    if f.p ** d1 > max_points:
        raise CapExceeded(f"{f.p}^{d1} projective vectors exceed cap {max_points}")
    # nonzero structure constants e_i * e_j = sum_k v e_k, grouped by j
    by_col = [
        [(i, k, v) for i in range(d1) for k, v in ag.product11(i, j).items()]
        for j in range(d1)
    ]

    def product_rows(vecs):
        """The stacked maps b -> x*b over x in vecs; its kernel is {b : b*vecs = 0}."""
        row_of: dict = {}
        entries = []
        for block, x in enumerate(vecs):
            for j, c in x.items():
                for i, k, v in by_col[j]:
                    r = row_of.setdefault((block, k), len(row_of))
                    entries.append((r, i, f.mul(c, v)))
        return Matrix.from_entries(f, len(row_of), d1, entries)

    chosen = []
    for pt in _enumerate_projective(f, d1):
        kernel = kernel_basis_with_free(product_rows([_sparse(pt)]))[0]
        if d1 - mat_rank(product_rows(kernel)) == 1:
            chosen.append(pt)
    return chosen


def minimal_points(ag: GradedAlgebra, max_points: int = DEFAULT_POINT_CAP):
    """The minimal projective classes in the dependence preorder.

    Enumeration needs a finite prime field and p^dim1 within the cap.
    """
    return frozenset(ProjPoint(pt) for pt in _minimal_representatives(ag, max_points))


def reconstruct_graph(a: Algebra, field=None, max_points: int = DEFAULT_POINT_CAP) -> Graph:
    """Recover a graph from an ungraded algebra.

    Regrades by the annihilator, finds the minimal projective points and
    links two of them when their representatives multiply to something
    nonzero.  For the algebra of an admissible graph this returns a graph
    isomorphic to the original.
    """
    if field is not None and field != a.field:
        raise ValueError("field mismatch")
    ag = annihilator_grading(a)
    chosen = _minimal_representatives(ag, max_points)
    ring = ag.to_ungraded()
    edges = [
        (x, y)
        for x, y in itertools.combinations(chosen, 2)
        if ring.mult(_sparse(x), _sparse(y))
    ]
    return graph_new(sorted(chosen), edges)
