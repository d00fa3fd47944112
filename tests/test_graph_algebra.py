import itertools
import random

import pytest

from crown import graph_algebra
from crown.errors import CapExceeded, NotACover
from crown.fields import GF, QQ
from crown.graph_algebra import (
    _certified_representatives,
    _minimal_representatives,
    _points_graph,
    annihilator_grading,
    Algebra,
    cover_injectivity,
    is_multiplicative,
    minimal_points,
    q_hom,
    q_ungraded,
    reconstruct_graph,
)
from crown.graphs import (
    act_on_B,
    act_on_C,
    build_B,
    build_C,
    build_F,
    graph_new,
    graphs_isomorphic,
    is_admissible,
    morphism_new,
)
from crown.linalg import Matrix, mat_compose, mat_rank
from crown.monoid import act_on_U, build_T, build_Z, wn_enumerate
from conftest import (
    compose_morphisms,
    identity_morphism,
    is_associative,
    mult_multiset,
    random_graph,
    reference_is_multiplicative,
    reference_minimal_representatives,
)


PATH3 = graph_new(["a", "b", "c"], [("a", "b"), ("b", "c")])
SQUARE = graph_new([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)])


# -- the algebra of a graph ---------------------------------------------------

def test_dimensions_of_the_standard_instances():
    assert q_ungraded(build_B(2), QQ).dim == 40
    assert q_ungraded(build_C(2, 1)[0], QQ).dim == 36
    assert q_ungraded(build_C(2, -1)[0], QQ).dim == 36


def test_dimension_formula_random():
    rng = random.Random(31)
    for _ in range(8):
        g = random_graph(rng)
        alg = q_ungraded(g, QQ)
        assert alg.dim == 2 * len(g.vertices) + g.edge_count
        assert alg.dim1 is None
        # regrading puts exactly the vertex indicators in degree 1
        assert annihilator_grading(alg).dim1 == len(g.vertices)


def test_product_rules_on_a_path():
    alg = q_ungraded(PATH3, QQ)
    ia, ib, ic = 0, 1, 2
    assert alg.product_basis(ia, ib) != {}
    assert alg.product_basis(ia, ic) == {}  # not adjacent
    assert alg.product_basis(ia, ia) == {3: QQ.one}  # diagonal orbit of "a", after the 3 vertices
    # the edge orbit basis vector carries coefficient one
    assert list(alg.product_basis(ia, ib).values()) == [QQ.one]


def test_ungraded_products_vanish_in_high_degree():
    alg = q_ungraded(PATH3, QQ)
    assert alg.product_basis(0, 1) != {}
    deg2_index = next(iter(alg.product_basis(0, 1)))
    assert alg.product_basis(deg2_index, 0) == {}
    assert alg.product_basis(deg2_index, deg2_index) == {}


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_random_graph_algebras_commutative_associative(field):
    rng = random.Random(37)
    for _ in range(3):
        g = random_graph(rng, max_vertices=8)
        alg = q_ungraded(g, field)
        assert is_associative(alg)
        unit = field.one
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert alg.mult({i: unit}, {j: unit}) == alg.mult({j: unit}, {i: unit})


# -- induced maps --------------------------------------------------------------

def test_q_hom_identity_is_identity_matrix():
    g = build_C(2, 1)[0]
    assert q_hom(identity_morphism(g), QQ) == Matrix.identity(QQ, q_ungraded(g, QQ).dim)


def test_q_hom_contravariant_on_composites():
    n = 2
    rng = random.Random(41)
    words = wn_enumerate(n)
    b = build_B(n)
    for _ in range(10):
        w = rng.choice(words)
        inner = build_F(n, rng.randint(1, n))[1]   # F_i -> B
        outer = act_on_B(n, w)                     # B -> B
        composite = compose_morphisms(outer, inner)
        lhs = q_hom(composite, QQ)
        rhs = mat_compose(q_hom(inner, QQ), q_hom(outer, QQ))
        assert lhs == rhs
    # crown word actions, composed pairwise as iso once did: for every pair
    # of the twist element's words and every pair of the alternating
    # element's, on each sign s crossing to t, M_w M_w' = M_(w w').  iso's
    # composites from the monoid product rest on this
    for n in (2, 3):
        for field in (QQ, GF(2)):
            for x in (build_T(n, field), build_Z(n, field)):
                for s in (1, -1):
                    t = act_on_U(next(iter(x.terms)), s)
                    inner = {w: q_hom(act_on_C(n, w, s), field) for w in x.terms}   # Q(C^t) -> Q(C^s)
                    outer = {w: q_hom(act_on_C(n, w, t), field) for w in x.terms}   # Q(C^s) -> Q(C^t)
                    for w in x.terms:
                        for w2 in x.terms:
                            direct = q_hom(act_on_C(n, w * w2, s), field)
                            assert mat_compose(inner[w], outer[w2]) == direct, (n, field, s, w, w2)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_strip_word_matrices_multiply_as_their_words(field):
    # B_w B_w' = B_(w w') for every pair of level-n words, n <= 3: the strip
    # action is column-wise, so the words' maps commute and compose to the
    # product's, and q_hom is contravariant.  iso's per-word squares give
    # its composites only through this
    for n in (1, 2, 3):
        strip = {w: q_hom(act_on_B(n, w), field) for w in wn_enumerate(n)}
        for w, m in strip.items():
            for w2, m2 in strip.items():
                assert mat_compose(m, m2) == strip[w * w2], (n, w, w2)


def test_q_hom_collapsed_and_mirrored_edges():
    # a-b maps onto the mirror (v, u) of H's edge representative (u, v);
    # b-c collapses onto u, so its orbit pulls back into d:u with weight 2
    g = graph_new(["a", "b", "c"], [("a", "b"), ("b", "c")])
    h = graph_new(["u", "v"], [("u", "v")])
    f = morphism_new({"a": "v", "b": "u", "c": "u"}, g, h)
    hom = q_hom(f, QQ)
    assert is_multiplicative(q_ungraded(h, QQ), q_ungraded(g, QQ), hom)
    # G basis: a b c | d:a d:b d:c e:a|b e:b|c;  H basis: u v | d:u d:v e:u|v
    expected = Matrix.from_entries(QQ, 8, 5, [
        (0, 1, 1), (1, 0, 1), (2, 0, 1),
        (3, 3, 1), (4, 2, 1), (5, 2, 1),
        (7, 2, 2),  # collapsed edge b-c
        (6, 4, 1),  # mirrored edge a-b, counted once through (b, a)
    ])
    assert hom == expected


def _is_multiplicative_hom(f, field, m):
    """is_multiplicative for a matrix between the algebras of f's target and source."""
    return is_multiplicative(q_ungraded(f.target, field), q_ungraded(f.source, field), m)


def test_q_hom_multiplicative_on_quotients():
    for s in (1, -1):
        proj = build_C(2, s)[1]
        assert _is_multiplicative_hom(proj, QQ, q_hom(proj, QQ))


@pytest.mark.parametrize("n", [2, 3])
def test_word_actions_on_crowns_are_multiplicative(n):
    for s in (1, -1):
        for w in wn_enumerate(n):
            f = act_on_C(n, w, s)
            assert _is_multiplicative_hom(f, QQ, q_hom(f, QQ))


def test_perturbed_projection_is_not_multiplicative():
    # negative control: doubling entry (0, 0) breaks e_0 * e_0 = d:0 at the image
    proj = build_C(2, 1)[1]
    m = q_hom(proj, QQ)
    entries = [(r, c, 2 if (r, c) == (0, 0) else v) for r, c, v in m.to_triples()]
    perturbed = Matrix.from_entries(QQ, m.nrows, m.ncols, entries)
    assert perturbed.entry(0, 0) == 2
    assert not _is_multiplicative_hom(proj, QQ, perturbed)


TRIANGLE = graph_new(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_label_map_into_a_larger_graph_is_not_multiplicative(field):
    # negative control: the basis-label map Q(PATH3) -> Q(TRIANGLE) keeps
    # every nonzero product, but e_a * e_c = 0 maps to e_a * e_c = e:a|c
    src, tgt = q_ungraded(PATH3, field), q_ungraded(TRIANGLE, field)
    row = {label: r for r, label in enumerate(tgt.basis)}
    m = Matrix.from_entries(field, tgt.dim, src.dim, [(row[lbl], c, 1) for c, lbl in enumerate(src.basis)])
    assert not is_multiplicative(src, tgt, m)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_rescaled_diagonal_orbit_is_not_multiplicative(field):
    # negative control: doubling d:a breaks only the square e_a * e_a
    alg = q_ungraded(PATH3, field)
    d_a = alg.basis.index(("d", "a"))
    m = Matrix.identity(field, alg.dim)
    assert is_multiplicative(alg, alg, m) and reference_is_multiplicative(alg, alg, m)
    entries = [(r, c, 2 if c == d_a else v) for r, c, v in m.to_triples()]
    rescaled = Matrix.from_entries(field, alg.dim, alg.dim, entries)
    assert not is_multiplicative(alg, alg, rescaled)
    assert not reference_is_multiplicative(alg, alg, rescaled)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_a_map_killing_a_vertex_indicator_is_not_multiplicative(field):
    # negative control: m(e_a e_b) = e:a|b, but m(e_a) m(e_b) = 0, so only
    # the source product makes (a, b) a pair to compare
    alg = q_ungraded(PATH3, field)
    a = alg.basis.index(("v", "a"))
    m = Matrix(field, alg.dim, alg.dim, [{} if c == a else {c: field.one} for c in range(alg.dim)])
    assert not is_multiplicative(alg, alg, m)
    assert not reference_is_multiplicative(alg, alg, m)


def test_is_multiplicative_rejects_a_mismatched_shape():
    proj = build_C(2, 1)[1]
    with pytest.raises(ValueError):
        is_multiplicative(q_ungraded(proj.source, QQ), q_ungraded(proj.target, QQ), q_hom(proj, QQ))


def test_projection_hom_has_full_column_rank():
    hom = q_hom(build_C(2, 1)[1], QQ)
    assert (hom.nrows, hom.ncols) == (40, 36)
    assert mat_rank(hom) == 36


def test_cover_injectivity_identity():
    assert cover_injectivity([identity_morphism(build_B(2))], QQ)


@pytest.mark.parametrize("n", [2, 3])
def test_cover_injectivity_windows_and_projections(n):
    incls = [build_F(n, i)[1] for i in range(1, n + 1)]
    assert cover_injectivity(incls, QQ)
    for s in (1, -1):
        assert cover_injectivity([build_C(n, s)[1]], QQ)


def test_cover_injectivity_rejects_non_covers():
    with pytest.raises(NotACover):
        cover_injectivity([build_F(2, 1)[1]], QQ)


def test_cover_injectivity_on_random_edge_splits():
    # split a random graph's edges into two spanning subgraphs: a cover
    rng = random.Random(43)
    from crown.graphs import is_cover as cover_pred
    from crown.graphs import morphism_new

    for field in (QQ, GF(5)):
        for _ in range(5):
            g = random_graph(rng, max_vertices=6, min_vertices=3)
            edges = g.edges()
            buckets = ([], [])
            for e in edges:
                buckets[rng.randint(0, 1)].append(e)
            parts = [graph_new(g.vertices, b) for b in buckets]
            fs = [morphism_new({v: v for v in g.vertices}, part, g) for part in parts]
            assert cover_pred(fs)
            assert cover_injectivity(fs, field)


# -- products of basis multisets --------------------------------------------------

def test_mult_multiset_cases():
    alg = q_ungraded(PATH3, QQ)
    assert mult_multiset(alg, [2]) == {2: QQ.one}
    edge = mult_multiset(alg, [0, 1])
    assert len(edge) == 1
    assert mult_multiset(alg, [0, 1, 2]) == {}
    with pytest.raises(ValueError):
        mult_multiset(alg, [])


# -- annihilator regrading ----------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_regrading_recovers_the_graph_grading(field):
    for g in (PATH3, SQUARE, build_C(2, 1)[0]):
        reference = q_ungraded(g, field)
        graded = annihilator_grading(reference)
        d1 = len(g.vertices)
        # the pivots are the vertex indicators and the free coordinates,
        # which index the kernel basis, are exactly the degree-2 ones
        assert graded.dim1 == d1
        assert graded.basis[:d1] == reference.basis[:d1]
        assert graded.basis[d1:] == tuple(("nil", lbl) for lbl in reference.basis[d1:])
        assert graded._table == reference._table


def test_regrading_dims_one_edge():
    g = graph_new(["a", "b"], [("a", "b")])
    graded = annihilator_grading(q_ungraded(g, QQ))
    assert graded.dim1 == 2
    assert graded.dim == 5


def test_regrading_zero_algebra():
    zero_alg = Algebra(QQ, ("x", "y", "z"), {})
    graded = annihilator_grading(zero_alg)
    assert graded.dim1 == 0
    assert graded.dim == 3


def test_regrading_rejects_unregradable_products():
    # a unital 1-dim algebra: e*e = e never lands in the annihilator
    alg = Algebra(QQ, ("e",), {(0, 0): {0: QQ.one}})
    with pytest.raises(ValueError):
        annihilator_grading(alg)


# -- projective dependence ------------------------------------------------------------

def brute_minimal_points(g, p):
    """Oracle straight from the definitions, independent of the library path.

    Enumerates normalized degree-1 vectors over F_p, decides dependence by
    summing a(x)b(y) over swap orbits of the relation, and keeps the points
    minimal for inclusion of dependence sets.
    """
    verts = list(g.vertices)
    d = len(verts)
    points = []
    for lead in range(d):
        for tail in itertools.product(range(p), repeat=d - lead - 1):
            points.append((0,) * lead + (1,) + tail)

    def dependent(a, b):
        orbits = {}
        for i, x in enumerate(verts):
            for j, y in enumerate(verts):
                if (x, y) in g.relation and a[i] and b[j]:
                    key = frozenset(((x, y), (y, x)))
                    orbits[key] = (orbits.get(key, 0) + a[i] * b[j]) % p
        return any(orbits.values())

    dep = {pt: {q for q in points if dependent(pt, q)} for pt in points}
    return {
        pt
        for pt in points
        if all(not dep[q] <= dep[pt] for q in points if q != pt)
    }


def random_non_admissible(seed, max_vertices):
    rng = random.Random(seed)
    while True:
        g = random_graph(rng, max_vertices=max_vertices, min_vertices=3)
        if not is_admissible(g):
            return g


PENTAGON = graph_new(range(5), [(i, (i + 1) % 5) for i in range(5)])


# the oracle is quadratic in the points, so graphs stay at <= 4 vertices over F_5
@pytest.mark.parametrize(
    "graph,p",
    [(PATH3, 2), (SQUARE, 2), (SQUARE, 3), (PENTAGON, 3), (PATH3, 5), (SQUARE, 5)]
    + [
        (random_non_admissible(seed, max_vertices), p)
        for seed, max_vertices, p in ((61, 7, 2), (62, 7, 2), (63, 5, 3), (74, 5, 3), (65, 4, 5), (66, 4, 5))
    ],
)
def test_minimal_points_match_brute_force(graph, p):
    field = GF(p)
    expected = brute_minimal_points(graph, p)
    assert minimal_points(annihilator_grading(q_ungraded(graph, field))) == expected


@pytest.mark.parametrize("p", [2, 3, 5])
def test_minimal_points_when_products_cancel(p):
    # not a graph algebra: e0 e0 = m, e0 e1 = m + n, e1 e1 = n, so the m
    # coordinate of a*e0 cancels for a = (1, p - 1), and the linear test
    # meets entries of one row that sum to zero
    field = GF(p)
    one = field.one
    table = {(0, 0): {2: one}, (0, 1): {2: one, 3: one}, (1, 1): {3: one}}
    ag = annihilator_grading(Algebra(field, ["a", "b", "m", "n"], table))
    assert ag.dim1 == 2
    points = [(0, 1)] + [(1, t) for t in range(p)]

    def sparse(pt):
        return {i: c for i, c in enumerate(pt) if c}

    dep = {a: {b for b in points if ag.mult(sparse(a), sparse(b))} for a in points}
    expected = {a for a in points if all(not dep[b] <= dep[a] for b in points if b != a)}
    assert 2 not in ag.mult(sparse((1, p - 1)), {0: one})  # the m coordinate cancels
    assert minimal_points(ag) == expected
    assert _minimal_representatives(ag, 100) == reference_minimal_representatives(ag, 100)


def test_minimal_points_of_crowns_are_vertex_classes():
    for s in (1, -1):
        crown = build_C(2, s)[0]
        ag = annihilator_grading(q_ungraded(crown, GF(2)))
        pts = minimal_points(ag)
        expected = set()
        for i in range(ag.dim1):
            v = [0] * ag.dim1
            v[i] = 1
            expected.add(tuple(v))
        assert pts == frozenset(expected)
        assert len(pts) == 10


def test_minimal_points_single_generator():
    # one vertex: its square is the diagonal orbit, so the only point is minimal
    g = graph_new(["a"], [])
    pts = minimal_points(annihilator_grading(q_ungraded(g, GF(2))))
    assert pts == frozenset({(1,)})


def test_minimal_points_requires_prime_field():
    with pytest.raises(ValueError):
        minimal_points(annihilator_grading(q_ungraded(PATH3, QQ)))


def test_minimal_points_requires_a_regraded_algebra():
    with pytest.raises(ValueError):
        minimal_points(q_ungraded(PATH3, GF(2)))


def test_minimal_points_cap():
    with pytest.raises(CapExceeded):
        minimal_points(annihilator_grading(q_ungraded(SQUARE, GF(2))), max_points=8)


def test_f2_enumeration_cap_and_errors(monkeypatch):
    # the F_2 path keeps the shared checks, made before any column is built:
    # one point under 2^dim1 is refused with the cap's message, 2^dim1 runs
    ag = annihilator_grading(q_ungraded(SQUARE, GF(2)))
    assert ag.dim1 == 4
    assert _minimal_representatives(ag, 16) == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    monkeypatch.setattr(graph_algebra, "_minimal_representatives_f2", None)  # any work would fail
    with pytest.raises(CapExceeded, match=r"^2\^4 projective vectors exceed cap 15$"):
        _minimal_representatives(ag, 15)
    with pytest.raises(ValueError, match="^the algebra is not regraded; see annihilator_grading$"):
        _minimal_representatives(q_ungraded(SQUARE, GF(2)), 2**15)
    with pytest.raises(ValueError, match="^projective enumeration requires a prime field$"):
        _minimal_representatives(annihilator_grading(q_ungraded(SQUARE, QQ)), 2**15)


# -- reconstruction --------------------------------------------------------------------

def test_reconstruct_single_vertex():
    g = graph_new(["a"], [])
    rebuilt = reconstruct_graph(q_ungraded(g, GF(2)))
    assert graphs_isomorphic(g, rebuilt)


def test_reconstruct_square():
    assert is_admissible(SQUARE)
    rebuilt = reconstruct_graph(q_ungraded(SQUARE, GF(2)))
    assert graphs_isomorphic(SQUARE, rebuilt)


def test_reconstruct_crowns_and_separate_them():
    rebuilt = {}
    for s in (1, -1):
        crown = build_C(2, s)[0]
        rebuilt[s] = reconstruct_graph(q_ungraded(crown, GF(2)))
        assert graphs_isomorphic(crown, rebuilt[s])
    assert not graphs_isomorphic(rebuilt[1], rebuilt[-1])


def test_reconstruct_random_admissible_graphs():
    rng = random.Random(53)
    found = 0
    while found < 3:
        g = random_graph(rng, max_vertices=7, min_vertices=4, p_edge=0.45)
        if not is_admissible(g):
            continue
        found += 1
        rebuilt = reconstruct_graph(q_ungraded(g, GF(2)))
        assert graphs_isomorphic(g, rebuilt)


# -- serialization -----------------------------------------------------------------------

def test_algebra_json_shape():
    data = q_ungraded(PATH3, GF(2)).to_json()
    assert data["field"] == "fp:2"
    assert len(data["basis"]) == 8
    assert all(len(t) == 4 for t in data["structure_constants"])


# -- differential: the minimality test against two column-scan eliminations per point --

def _random_graphs(seed, count, max_vertices, admissible):
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        g = random_graph(rng, max_vertices=max_vertices, min_vertices=3, p_edge=0.45)
        if is_admissible(g) == admissible:
            graphs.append(g)
    return graphs


MINIMALITY_CASES = (
    [
        (f"random-{'admissible' if admissible else 'other'}-fp{p}-{k}", g, p)
        for p, max_vertices in ((2, 8), (3, 6), (5, 4))
        for admissible in (True, False)
        for k, g in enumerate(_random_graphs(90 + p, 2, max_vertices, admissible))
    ]
    + [("single-vertex-fp2", graph_new(["a"], []), 2), ("single-vertex-fp3", graph_new(["a"], []), 3)]
    + [(f"crown{s:+d}-fp{p}", build_C(2, s)[0], p) for s in (1, -1) for p in (2, 3)]
)


@pytest.mark.parametrize("name,graph,p", MINIMALITY_CASES, ids=[c[0] for c in MINIMALITY_CASES])
def test_minimal_representatives_match_the_two_elimination_path(name, graph, p):
    ag = annihilator_grading(q_ungraded(graph, GF(p)))
    cap = p**ag.dim1
    assert _minimal_representatives(ag, cap) == reference_minimal_representatives(ag, cap)


@pytest.mark.parametrize("s", [1, -1])
def test_f2_enumeration_of_the_level_two_crowns(s):
    # noniso's cross-check: 1023 points of F_2^10 per crown, compared as lists
    ag = annihilator_grading(q_ungraded(build_C(2, s)[0], GF(2)))
    assert ag.dim1 == 10
    enumerated = _minimal_representatives(ag, 2**10)
    assert enumerated == reference_minimal_representatives(ag, 2**10) == _certified_representatives(ag)
    assert enumerated == [tuple(int(k == i) for k in range(10)) for i in range(10)]


# -- differential: the degree-1 basis certificate against the enumeration --

def graph_key(g):
    return g.vertices, g.relation


CERTIFICATE_CASES = (
    MINIMALITY_CASES
    + [(f"path3-fp{p}", PATH3, p) for p in (2, 3, 5)]
    + [(f"crown{s:+d}-n3-fp2", build_C(3, s)[0], 2) for s in (1, -1)]
)


@pytest.mark.parametrize("name,graph,p", CERTIFICATE_CASES, ids=[c[0] for c in CERTIFICATE_CASES])
def test_certificate_matches_the_enumeration(name, graph, p):
    # the seeded random graphs, admissible or not, the crowns at n = 2 and 3
    # and PATH3: the certificate holds on every graph algebra, picks the
    # enumeration's points in its order, and rebuilds the same graph
    ag = annihilator_grading(q_ungraded(graph, GF(p)))
    cap = p**ag.dim1
    enumerated = _minimal_representatives(ag, cap)
    assert _certified_representatives(ag) == enumerated
    rebuilt = reconstruct_graph(q_ungraded(graph, GF(p)), max_points=1)  # the cap would stop any enumeration
    assert graph_key(rebuilt) == graph_key(_points_graph(ag, enumerated))


def test_certificate_drops_the_middle_of_a_path():
    # N[a] = {a, b} lies inside N[b] = {a, b, c}: b is not minimal, and the
    # rebuilt graph has the two ends alone, unlinked
    ag = annihilator_grading(q_ungraded(PATH3, GF(2)))
    assert _certified_representatives(ag) == [(1, 0, 0), (0, 0, 1)]
    assert reconstruct_graph(q_ungraded(PATH3, GF(2))).edge_count == 0


def test_certificate_reconstructs_over_the_rationals():
    # field-generic: no prime field and no enumeration are needed
    for s in (1, -1):
        crown = build_C(4, s)[0]
        assert graphs_isomorphic(crown, reconstruct_graph(q_ungraded(crown, QQ), max_points=1))


def _degree_one_two(field, dim1, products):
    """An algebra on dim1 degree-1 and 4 degree-2 basis vectors with the given products e_i e_j."""
    return Algebra(field, [f"e{i}" for i in range(dim1)] + ["m", "n", "o", "q"],
                   {pair: {dim1 + k: field.from_int(v) for k, v in vec.items()} for pair, vec in products.items()})


# negative controls for each premise, each a regradable non-graph algebra
PREMISE_CONTROLS = {
    # the algebra of test_minimal_points_when_products_cancel: e0 e1 = m + n
    # is on two degree-2 vectors, and shares each with a square
    "cancelling products": (2, {(0, 0): {0: 1}, (0, 1): {0: 1, 1: 1}, (1, 1): {1: 1}}),
    # e0 e1 = m + n again, but on vectors no other product hits: the first premise fails alone
    "a product on two vectors": (2, {(0, 0): {2: 1}, (0, 1): {0: 1, 1: 1}, (1, 1): {3: 1}}),
    # e0 e1 and e1 e2 both hit o
    "two pairs share a target": (3, {(0, 0): {0: 1}, (1, 1): {1: 1}, (2, 2): {3: 1}, (0, 1): {2: 1}, (1, 2): {2: 1}}),
    # e1 e1 = 0
    "a square vanishes": (2, {(0, 0): {0: 1}, (0, 1): {1: 1}}),
}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("control", sorted(PREMISE_CONTROLS))
def test_certificate_declines_where_a_premise_fails(control, p):
    dim1, products = PREMISE_CONTROLS[control]
    alg = _degree_one_two(GF(p), dim1, products)
    ag = annihilator_grading(alg)
    assert ag.dim1 == dim1
    assert _certified_representatives(ag) is None
    assert graph_key(reconstruct_graph(alg)) == graph_key(_points_graph(ag, _minimal_representatives(ag, p**dim1)))
    with pytest.raises(CapExceeded):
        reconstruct_graph(alg, max_points=p**dim1 - 1)  # the fallback keeps its cap
