import itertools
import random

from crown.errors import CapExceeded, IllDefinedQuotient, NotAMorphism
from crown.graph_algebra import Algebra, _orbits, q_ungraded, rows_matrix
from crown.graphs import Graph, GraphMorphism, act_on_B, act_on_C, build_C, graph_new, morphism_new
from crown import linalg, loday
from crown.linalg import Matrix, _add_scaled, kernel_basis_with_free, kron_power, kron_sum, mat_compose
from crown.loday import (
    DEFAULT_TENSOR_CAP,
    NatTransData,
    Surjection,
    _gather,
    _LodayCache,
    cofunctor_eval,
    surj_compose,
    surjections,
)
from crown.monoid import MonoidAlgElem, act_on_U, build_T, build_Z, gen_g, gen_h, wn_enumerate


def random_graph(rng: random.Random, max_vertices=6, min_vertices=2, p_edge=0.4):
    """A random small graph with integer vertex labels."""
    nv = rng.randint(min_vertices, max_vertices)
    vertices = list(range(nv))
    edges = [
        (a, b)
        for a in range(nv)
        for b in range(a + 1, nv)
        if rng.random() < p_edge
    ]
    return graph_new(vertices, edges)


def relabeled_copy(g: Graph, seed: int) -> Graph:
    """A copy of g under a seeded random vertex permutation."""
    rng = random.Random(seed)
    perm = list(g.vertices)
    rng.shuffle(perm)
    names = {v: ("r", i) for i, v in zip(range(len(perm)), perm)}
    return graph_new(
        [names[v] for v in perm],
        [(names[a], names[b]) for a, b in g.edges()],
    )


def reference_q_hom(f: GraphMorphism, field) -> Matrix:
    """The matrix of the induced algebra map Q(target) -> Q(source), built entry by entry.

    One entry per vertex, and one per ordered related pair of the source
    whose image is its orbit's representative; entries accumulate, so both
    orientations of a collapsed edge give weight 2 on the diagonal.  The
    oracle for `graph_algebra.q_rows` and its conversion `q_hom`.
    """
    g, h = f.source, f.target
    one = field.one
    ng, nh = len(g.vertices), len(h.vertices)
    g_orbit, _ = _orbits(g)
    _, h_representative = _orbits(h)
    entries = [(g.index(x), h.index(f.mapping[x]), one) for x in g.vertices]
    for a, b in g.relation:
        col = h_representative.get((f.mapping[a], f.mapping[b]))
        if col is not None:
            entries.append((ng + g_orbit[(a, b)], nh + col, one))
    return Matrix.from_entries(field, q_ungraded(g, field).dim, q_ungraded(h, field).dim, entries)


def with_row(rows: tuple, r: int, entry) -> tuple:
    """The row map with row r replaced by `entry`, a (column, weight) pair or None."""
    return rows[:r] + (entry,) + rows[r + 1:]


def bumped_row(rows: tuple, r: int = 0, by: int = 1) -> tuple:
    """Row r's weight changed by `by`: the matrix plus `by` times the unit matrix at (r, the row's column)."""
    column, weight = rows[r]
    return with_row(rows, r, (column, weight + by))


def matrix_from_rows(field, rows) -> Matrix:
    """Build a matrix from a dense list of row lists."""
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows")
    entries = [(r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row)]
    return Matrix.from_entries(field, len(rows), ncols, entries)


def reference_action_witness(n: int, b: Graph):
    """The first pair of b that some level-n word's map x_j^v -> x_j^{w_j v} breaks, or None.

    Builds and validates all 2*3^n maps: the oracle for
    `graphs.certify_word_actions`.
    """
    for w in wn_enumerate(n):
        try:
            morphism_new({(j, v): (j, w.coords[j - 1] * v) for (j, v) in b.vertices}, b, b)
        except NotAMorphism as exc:
            return exc.witness
    return None


def reference_act_on_C(n, w, s) -> GraphMorphism:
    """The crown map as the unique vertex map commuting with both projections.

    Pushes the validated strip map through the two projections and raises
    IllDefinedQuotient on a conflict: the oracle for `graphs.act_on_C`.
    """
    c_s, f_s = build_C(n, s)
    c_t, f_t = build_C(n, act_on_U(w, s))
    w_b = act_on_B(n, w)
    mapping: dict = {}
    for x in w_b.source.vertices:
        src, dst = f_s.mapping[x], f_t.mapping[w_b.mapping[x]]
        if mapping.setdefault(src, dst) != dst:
            raise IllDefinedQuotient(f"quotient map conflict at {src!r}: {mapping[src]!r} vs {dst!r}")
    return morphism_new(mapping, c_s, c_t)


def reference_is_admissible(g: Graph) -> bool:
    """Every ordered pair of distinct vertices x, y has a z related to y but not to x: the oracle for `is_admissible`."""
    rel = g.relation
    return all(
        any((x, z) not in rel and (y, z) in rel for z in g.vertices)
        for x in g.vertices
        for y in g.vertices
        if x != y
    )


def identity_morphism(g: Graph) -> GraphMorphism:
    return GraphMorphism(g, g, {v: v for v in g.vertices})


def compose_morphisms(outer: GraphMorphism, inner: GraphMorphism) -> GraphMorphism:
    """outer after inner."""
    if inner.target != outer.source:
        raise ValueError("morphisms not composable")
    mapping = {v: outer.mapping[inner.mapping[v]] for v in inner.source.vertices}
    return GraphMorphism(inner.source, outer.target, mapping)


def is_associative(alg) -> bool:
    """Exhaustive check of (e_i e_j) e_k == e_i (e_j e_k)."""
    unit = alg.field.one
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            ij = alg.product_basis(i, j)
            for k in range(alg.dim):
                left = alg.mult(ij, {k: unit})
                right = alg.mult({i: unit}, alg.mult({j: unit}, {k: unit}))
                if left != right:
                    return False
    return True


def identity_family(alg, r: int) -> NatTransData:
    """The identity family on the tensor powers 1..r of an algebra."""
    comps = {p: Matrix.identity(alg.field, alg.dim**p) for p in range(1, r + 1)}
    return NatTransData(r, alg, alg, comps)


def is_identity_family(eta: NatTransData) -> bool:
    return all(
        eta.components[p] == Matrix.identity(eta.source.field, eta.source.dim**p)
        for p in range(1, eta.r + 1)
    )


def is_zero_family(eta: NatTransData) -> bool:
    return all(m.is_zero() for m in eta.components.values())


def is_identity_surjection(s) -> bool:
    return s.images == tuple(range(1, s.p + 1))


def naturality_witness(eta: NatTransData):
    """First failing square, or None when every square commutes.

    For a surjection s: p -> q the square compares eta_q after the source
    map with the target map after eta_p.  `loday.iso_check` certifies
    naturality word by word instead; this materialized form is the oracle
    for it.
    """
    src = _LodayCache(eta.source, DEFAULT_TENSOR_CAP)
    tgt = _LodayCache(eta.target, DEFAULT_TENSOR_CAP)
    for p in range(1, eta.r + 1):
        for q in range(1, p + 1):
            for s in surjections(p, q):
                lhs = mat_compose(eta.components[q], src.mat(s))
                rhs = mat_compose(tgt.mat(s), eta.components[p])
                if lhs != rhs:
                    diff = lhs - rhs
                    r, c, v = diff.to_triples()[0]
                    return {"surjection": repr(s), "row": r, "col": c, "value": str(v)}
    return None


def naturality_check(eta: NatTransData) -> bool:
    return naturality_witness(eta) is None


def reference_transport_square_check(n, r, x, s, t) -> bool:
    """The transport squares with both families and projection powers materialized.

    The oracle for the streamed `loday.transport_square_check`.
    """
    field = x.field
    b_side = cofunctor_eval(n, r, x, s, t, target="B")
    c_side = cofunctor_eval(n, r, x, s, t, target="C")
    f_s = reference_q_hom(build_C(n, s)[1], field)
    f_t = reference_q_hom(build_C(n, t)[1], field)
    return all(
        mat_compose(b_side.components[p], kron_power(f_t, p))
        == mat_compose(kron_power(f_s, p), c_side.components[p])
        for p in range(1, r + 1)
    )


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


def reference_iso_claims(n, field, x, targets) -> dict:
    """The inverse, factored-identity and alternating-zero claims, materialized.

    `targets` maps each sign s to the sign t that x crosses to.  The
    families, their dim^p composites, the identity and the alternating
    family are all built; the oracle for the streamed sub-claims of
    `loday.iso_check`.
    """
    r = n - 1
    arrows = {s: cofunctor_eval(n, r, x, s, targets[s], target="C") for s in (1, -1)}
    z = build_Z(n, field)
    z_arrows = {s: cofunctor_eval(n, r, z, s, s, target="C") for s in (1, -1)}
    inverse = factored = True
    for s in (1, -1):
        for p in range(1, r + 1):
            composite = mat_compose(arrows[s].components[p], arrows[targets[s]].components[p])
            ident = Matrix.identity(field, arrows[s].target.dim ** p)
            inverse = inverse and composite == ident
            factored = factored and composite == ident - z_arrows[s].components[p]
    return {
        "inverse": inverse,
        "factored": factored,
        "z_zero": all(is_zero_family(z_arrows[s]) for s in (1, -1)),
    }


def reference_act_as_products(n, x, s, t) -> bool:
    """act_on_C(w', t) o act_on_C(w, s) == act_on_C(w w', s) for all words w, w' of x, as vertex maps.

    The oracle for iso's per-word p = 1 squares, which imply it.  x must
    be supported on the s -> t hom-set.
    """
    inner = {w: act_on_C(n, w, s).mapping for w in x.terms}
    outer = {w: act_on_C(n, w, t).mapping for w in x.terms}
    return all(
        {v: outer[w2][u] for v, u in inner[w].items()} == act_on_C(n, w * w2, s).mapping
        for w in x.terms
        for w2 in x.terms
    )


def tensor_product_sum_witness(terms, p: int):
    """Exact zero test for  sum_k  c_k * (M_k1 (x) ... (x) M_kp), `Matrix` factors: the column walk's last witness.

    `terms` follows the linalg module's term contract.  None when the sum
    is exactly zero, otherwise its row-major first entry (col_tuple,
    row_tuple, value).
    """
    return row_major_reference(terms, p)[-1][0]


def family_witness(field, family, p: int):
    """The last witness `linalg.tensor_sum_prefixes` yields on a power family: None iff its p-th power is zero."""
    *_, (witness, _) = linalg.tensor_sum_prefixes(field, family, p)
    return witness


def family_terms(field, family, p: int) -> list:
    """The `kron_sum` terms of a power family's p-th power: each row map as a `Matrix`, as wide as the widest map reaches."""
    ncols = 1 + max((e[0] for _, rows in family for e in rows if e is not None), default=0)
    return [(c, [rows_matrix(field, rows, ncols)] * p) for c, rows in family]


def word_matrices(n, x, s, t, target) -> list:
    """The (coefficient, word matrix) pairs of x in word order: `loday._word_rows` converted by `rows_matrix`."""
    return [(c, rows_matrix(x.field, rows)) for c, rows in loday._word_rows(n, x, s, t, target)]


def family_reference(field, family, p: int) -> list:
    """The oracle's (witness, nnz) at each power of a power family, fed the `rows_matrix` conversions."""
    return row_major_reference(family_terms(field, family, p), p)


def transposed(m: Matrix) -> Matrix:
    return Matrix(m.field, m.ncols, m.nrows, m._row_dicts())


def reference_tensor_sum_prefixes(terms, p: int):
    """The column-tuple walk, the oracle for `linalg.tensor_sum_prefixes`.

    Yields, for q = 1..p, (witness, nnz) of the sum truncated to q factors,
    the witness column-major: (lowest nonzero column tuple, lowest nonzero
    row tuple in it, value).  So the row-major witness of a sum is this
    walk's witness of the transposed factors with its tuples swapped.
    Column tuples are walked one factor at a time with, as the state of a
    (row prefix, column prefix) pair, the vector of the terms' products;
    each layer keeps every distinct vector once, with its smallest column
    prefix and the number of pairs reaching it.  No merge, as the sums it
    forms are the operator's own, and no work budget.
    """
    if not terms:
        yield from [(None, 0)] * p
        return
    field = terms[0][1][0].field
    shapes = [(m.nrows, m.ncols) for m in terms[0][1]]
    zero, mul, add = field.zero, field.mul, field.add
    factor_cols = [[m._cols for m in mats] for _, mats in terms]
    layer = {tuple((k, coef) for k, (coef, _) in enumerate(terms)): [(), 1]}
    for i, (_, ncols) in enumerate(shapes):
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
                hits = 0
                for child in children.values():
                    total = zero
                    for _, val in child:
                        total = add(total, val)
                    hits += total != zero
                    if store:
                        state = stored.setdefault(tuple(child), [cand, 0])
                        state[1] += count
                        state[0] = min(state[0], cand)
                if hits:
                    nnz += hits * count
                    if lowest is None or cand < lowest:
                        lowest = cand
        yield (None if lowest is None else _reference_column_witness(terms, lowest)), nnz
        layer = stored


def _reference_column_witness(terms, col_tuple):
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


def row_major_reference(terms, p: int) -> list:
    """The oracle's (witness, nnz) at each length, its witness row-major:
    the column walk over the transposed factors, its tuples swapped back."""
    flipped = [(c, [transposed(m) for m in mats]) for c, mats in terms]
    return [
        (None if w is None else (w[1], w[0], w[2]), nnz)
        for w, nnz in reference_tensor_sum_prefixes(flipped, p)
    ]


def mult_multiset(a, factors) -> dict:
    """Product of basis elements listed by index, multiplied left to right."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    out = {factors[0]: a.field.one}
    for i in factors[1:]:
        out = a.mult(out, {i: a.field.one})
        if not out:
            return {}
    return out


def reference_loday_matrix(a, s) -> Matrix:
    """The factor-multiplication matrix of s built one column at a time.

    The column of a basis tuple (k_1..k_p) is the tensor product over
    j = 1..q of the products of the basis factors lying over j.  This is
    the oracle for the factored kernel `loday.loday_matrix`.
    """
    d = a.dim
    f = a.field
    pre = [s.preimages(j) for j in range(1, s.q + 1)]
    cols = []
    for ks in itertools.product(range(d), repeat=s.p):
        vecs = []
        dead = False
        for block in pre:
            v = mult_multiset(a, [ks[i - 1] for i in block])
            if not v:
                dead = True
                break
            vecs.append(v)
        col: dict = {}
        if not dead:
            for combo in itertools.product(*(v.items() for v in vecs)):
                rflat = 0
                val = f.one
                for r, w in combo:
                    rflat = rflat * d + r
                    val = f.mul(val, w)
                col[rflat] = val
        cols.append(col)
    return Matrix(f, d**s.q, d**s.p, cols)


def generating_surjections(q: int) -> list:
    """The adjacent swaps q -> q and the adjacent merges q -> q - 1.

    Every surjection is a permutation (a product of adjacent swaps)
    followed by an order-preserving surjection (a product of adjacent
    merges), so these generate the surjection category.
    """
    gens = []
    for j in range(1, q):
        swap = list(range(1, q + 1))
        swap[j - 1], swap[j] = j + 1, j
        gens.append(Surjection(q, q, tuple(swap)))
        gens.append(Surjection(q, q - 1, tuple(i if i <= j else i - 1 for i in range(1, q + 1))))
    return gens


def generator_functor_check(a, r: int) -> bool:
    """The functor laws on materialized Loday matrices, composed against generators only.

    The materialized oracle for `loday.functor_check`, which decides the
    laws from the structure table.  Adjacent swaps and merges generate all
    surjections, so given L(id) = I it suffices that L(g s) = L(g) L(s) for
    each generator g and every s: by induction on t = g_1...g_k,
    L(t) = L(g_1)...L(g_k) and L(t s) = L(t) L(s).  L(s) is the product P
    of its fibre-size pattern with its columns reindexed, and a column of
    L(g) P depends only on that column of P, so L(g) L(s) is L(g) P
    reindexed the same way: one composite per generator and pattern, held
    one at a time, serves every s of the pattern.
    """
    cache = _LodayCache(a, DEFAULT_TENSOR_CAP)
    for p in range(1, r + 1):
        if cache.mat(Surjection.identity(p)) != Matrix.identity(a.field, a.dim ** p):
            return False
    for p in range(2, r + 1):
        for q in range(2, p + 1):  # no generator starts at q = 1
            groups: dict = {}  # by fibre sizes
            for s in surjections(p, q):
                groups.setdefault(tuple(map(s.images.count, range(1, q + 1))), []).append(s)
            for sizes, group in groups.items():
                for g in generating_surjections(q):
                    composite = mat_compose(cache.mat(g), cache._product(sizes))._cols
                    for s in group:
                        if cache.mat(surj_compose(g, s))._cols != _gather(composite, cache._layout(s)[1]):
                            return False
    return True


def reference_functor_check(a, r: int) -> bool:
    """The functor laws with every composable pair (t, s) composed in full.

    The oracle for `loday.functor_check` and `generator_functor_check`.
    It reads the same `_LodayCache` as the latter, so a patched cache
    reaches both.
    """
    cache = _LodayCache(a, DEFAULT_TENSOR_CAP)
    for p in range(1, r + 1):
        if cache.mat(Surjection.identity(p)) != Matrix.identity(a.field, a.dim**p):
            return False
    for p in range(1, r + 1):
        for q in range(1, p + 1):
            for u in range(1, q + 1):
                for s in surjections(p, q):
                    ms = cache.mat(s)
                    for t in surjections(q, u):
                        if cache.mat(surj_compose(t, s)) != mat_compose(cache.mat(t), ms):
                            return False
    return True


# -- the elimination, minimality test and certificate before pivot indexing --

def reference_rref(field, rows, ncols):
    """In-place reduced row echelon form by column scan, first-nonzero pivoting.

    `rows` is a list of dicts col -> value.  Returns the pivot column list.
    The oracle for `linalg._echelon` and `linalg._rref`: for each column in
    turn it takes the topmost remaining row with an entry there and clears
    that column from every other row.
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


def reference_rank(a: Matrix) -> int:
    return len(reference_rref(a.field, a._row_dicts(), a.ncols))


def reference_kernel_basis_with_free(a: Matrix):
    """(basis, free columns) of the right kernel, read off `reference_rref`."""
    f = a.field
    rows = a._row_dicts()
    pivots = reference_rref(f, rows, a.ncols)
    basis = []
    free_cols = []
    for free in range(a.ncols):
        if free in pivots:
            continue
        vec = {free: f.one}
        for i, pc in enumerate(pivots):
            v = rows[i].get(free)
            if v is not None:
                vec[pc] = f.neg(v)
        basis.append(vec)
        free_cols.append(free)
    return basis, free_cols


def reference_left_inverse(a: Matrix) -> Matrix:
    """A left inverse from `reference_rref` of [a | I]; ValueError on dependent columns."""
    f = a.field
    n = a.ncols
    rows = a._row_dicts()
    for r in range(a.nrows):
        rows[r][n + r] = f.one
    if reference_rref(f, rows, n) != list(range(n)):
        raise ValueError("matrix does not have full column rank")
    entries = [(i, c - n, v) for i in range(n) for c, v in rows[i].items() if c >= n]
    return Matrix.from_entries(f, n, a.nrows, entries)


def reference_minimal_representatives(ag, max_points: int):
    """The minimal points by two column-scan eliminations per point.

    The oracle for `graph_algebra._minimal_representatives`: for every
    normalized point a, in lead-position-major lex order, it builds the
    map x -> a*x as a `Matrix`, takes its kernel K_a, and keeps a when the
    stacked maps b -> x*b over a basis of K_a have rank dim1 - 1.
    """
    f = ag.field
    d1 = ag.dim1
    if f.p ** d1 > max_points:
        raise CapExceeded(f"{f.p}^{d1} projective vectors exceed cap {max_points}")
    mul, add, zero = f.mul, f.add, f.zero
    by_col = [
        [(i, k, v) for i in range(d1) for k, v in ag.product_basis(i, j).items()]
        for j in range(d1)
    ]

    def product_rows(vecs):
        row_of: dict = {}
        cols = [dict() for _ in range(d1)]
        for block, x in enumerate(vecs):
            for j, c in x.items():
                for i, k, v in by_col[j]:
                    r = row_of.setdefault((block, k), len(row_of))
                    col = cols[i]
                    w = mul(c, v)
                    cur = col.get(r)
                    y = w if cur is None else add(cur, w)
                    if y == zero:
                        col.pop(r, None)
                    else:
                        col[r] = y
        return Matrix(f, len(row_of), d1, cols)

    chosen = []
    for lead in range(d1):
        for tail in itertools.product(range(f.p), repeat=d1 - lead - 1):
            pt = (0,) * lead + (1,) + tail
            point = {i: c for i, c in enumerate(pt) if c}
            kernel = reference_kernel_basis_with_free(product_rows([point]))[0]
            if d1 - reference_rank(product_rows(kernel)) == 1:
                chosen.append(pt)
    return chosen


def reference_is_multiplicative(source, target, m: Matrix) -> bool:
    """m(e_i e_j) == m(e_i) m(e_j) compared for every pair i <= j, one composite for all.

    The oracle for `graph_algebra.is_multiplicative`, which compares only
    the pairs whose products can be nonzero on either side.
    """
    pairs = [(i, j) for i in range(source.dim) for j in range(i, source.dim)]
    products = Matrix(source.field, source.dim, len(pairs), [source.product_basis(i, j) for i, j in pairs])
    left = mat_compose(m, products)
    return all(left.col(c) == target.mult(m.col(i), m.col(j)) for c, (i, j) in enumerate(pairs))


def expanded_factors(n, field, factors) -> MonoidAlgElem:
    """sum c P_k [u] over the (c, k, u) factors, P_k = (1 - [g_1])...(1 - [g_k]), by expanded products."""
    one = MonoidAlgElem.one(field, n)
    prefixes = [one]
    for i in range(1, n + 1):
        prefixes.append(prefixes[-1] * (one - MonoidAlgElem.from_word(field, gen_g(n, i))))
    acc = MonoidAlgElem.zero(field, n)
    for c, k, u in factors:
        acc = acc + prefixes[k] * MonoidAlgElem.from_word(field, u, c)
    return acc


def expanded_square(x: MonoidAlgElem) -> MonoidAlgElem:
    """x.x by the expanded convolution, every pair of words: the oracle of `monoid.factored_square`."""
    return x * x


def reference_annihilator_grading(a) -> Algebra:
    """`graph_algebra.annihilator_grading` on the stacked d^2 x d product matrix, built entry by entry.

    Row i*d + k, column j holds the e_k-coefficient of e_j e_i; the kernel
    of that matrix is the annihilator.  The oracle of the table-read rows.
    """
    f = a.field
    d = a.dim
    entries = []
    for j in range(d):
        for i in range(d):
            for k, v in a.product_basis(j, i).items():
                entries.append((i * d + k, j, v))
    kernel, free_cols = kernel_basis_with_free(Matrix.from_entries(f, d * d, d, entries))
    pivot_cols = tuple(c for c in range(d) if c not in set(free_cols))
    kernel_by_free = dict(zip(free_cols, kernel))
    d1 = len(pivot_cols)
    labels = [a.basis[p] for p in pivot_cols] + [("nil", a.basis[fc]) for fc in free_cols]
    free_pos = {fc: d1 + i for i, fc in enumerate(free_cols)}
    table = {}
    for ii, p in enumerate(pivot_cols):
        for jj in range(ii, d1):
            w = a.product_basis(p, pivot_cols[jj])
            if not w:
                continue
            kcoeffs, rest = {}, dict(w)
            for fc in free_cols:
                c = rest.get(fc)
                if c is not None:
                    kcoeffs[fc] = c
                    _add_scaled(f, rest, f.neg(c), kernel_by_free[fc])
            if rest:
                raise ValueError("products do not land in the annihilator; the algebra admits no degree-1,2 regrading")
            vec = {free_pos[fc]: v for fc, v in kcoeffs.items()}
            if vec:
                table[(ii, jj)] = vec
    return Algebra(f, labels, table, dim1=d1)
