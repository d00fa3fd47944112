import random

import pytest

from crown.errors import CapExceeded, NotAMorphism
from crown.graphs import (
    act_on_B,
    act_on_C,
    build_B,
    build_C,
    build_F,
    certify_word_actions,
    graph_new,
    graphs_isomorphic,
    is_admissible,
    is_cover,
    is_triangle_free,
    min_valency,
    morphism_new,
    valency2_cycle_count,
)
from crown.monoid import Word, act_on_U, gen_g, gen_h, wn_enumerate, word_mul
from conftest import (
    compose_morphisms,
    identity_morphism,
    random_graph,
    reference_act_on_C,
    reference_action_witness,
    reference_is_admissible,
    relabeled_copy,
)


# -- construction -------------------------------------------------------------

def test_graph_new_single_vertex():
    g = graph_new(["a"], [])
    assert g.relation == frozenset({("a", "a")})


def test_graph_new_one_edge():
    g = graph_new(["a", "b"], [("a", "b")])
    assert len(g.relation) == 4
    assert g.edge_count == 1


def test_graph_new_rejects_bad_edges():
    with pytest.raises(ValueError):
        graph_new(["a", "b"], [("a", "a")])
    with pytest.raises(ValueError):
        graph_new(["a", "b"], [("a", "c")])


# -- morphisms ----------------------------------------------------------------

def test_identity_is_a_morphism():
    g = build_B(1)
    m = identity_morphism(g)
    assert is_cover([m])


def test_edge_collapse_is_a_morphism():
    g = graph_new(["a", "b"], [("a", "b")])
    h = graph_new(["c"], [])
    m = morphism_new({"a": "c", "b": "c"}, g, h)
    assert (m.mapping["a"], m.mapping["b"]) == ("c", "c")


def test_non_adjacent_image_rejected_with_witness():
    g = graph_new(["a", "b"], [("a", "b")])
    h = graph_new(["x", "y"], [])
    with pytest.raises(NotAMorphism) as exc:
        morphism_new({"a": "x", "b": "y"}, g, h)
    assert set(exc.value.witness) == {"a", "b"}


def test_morphism_totality_checked():
    g = graph_new(["a", "b"], [("a", "b")])
    with pytest.raises(ValueError):
        morphism_new({"a": "a"}, g, g)


# -- strip builder -------------------------------------------------------------

@pytest.mark.parametrize("n,verts,edges", [(1, 7, 8), (2, 12, 16), (3, 17, 24), (5, 27, 40)])
def test_strip_sizes(n, verts, edges):
    b = build_B(n)
    assert len(b.vertices) == verts == 5 * n + 2
    assert b.edge_count == edges == 8 * n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_strip_edges_stay_in_windows(n):
    b = build_B(n)
    for (j1, _), (j2, _) in b.edges():
        lo, hi = min(j1, j2), max(j1, j2)
        assert hi - lo == 1
        i = lo // 2 + (1 if lo % 2 == 1 else 0)
        assert {lo, hi} <= {2 * i - 1, 2 * i, 2 * i + 1}


def test_window_subgraph_sizes():
    for n in (2, 3):
        for i in range(1, n + 1):
            f, incl = build_F(n, i)
            assert len(f.vertices) == 7
            assert f.edge_count == 8
            assert incl.target == build_B(n)


def test_windows_cover_strip():
    for n in (1, 2, 3, 4):
        assert is_cover([build_F(n, i)[1] for i in range(1, n + 1)])


def test_single_window_does_not_cover():
    assert not is_cover([build_F(2, 1)[1]])


def test_cover_rejects_mismatched_targets():
    with pytest.raises(ValueError):
        is_cover([build_F(2, 1)[1], build_F(3, 1)[1]])
    with pytest.raises(ValueError):
        is_cover([])


def test_window_index_range():
    with pytest.raises(ValueError):
        build_F(2, 3)


# -- crowns ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("s", [1, -1])
def test_crown_sizes(n, s):
    c, proj = build_C(n, s)
    assert len(c.vertices) == 5 * n
    assert c.edge_count == 8 * n
    assert is_cover([proj])


def test_crown_needs_level_two():
    with pytest.raises(ValueError):
        build_C(1, 1)
    with pytest.raises(ValueError):
        build_C(2, 0)


def test_moebius_gluing_transfers_neighbors():
    # x_{2n+1}^- is glued onto x_1^+ when s = -1; its old neighbors carry over
    n = 2
    b = build_B(n)
    c, proj = build_C(n, -1)
    old = (2 * n + 1, -1)
    glued = proj.mapping[old]
    assert glued == (1, 1)
    for nb in b.neighbors(old):
        assert proj.mapping[nb] in c.neighbors(glued)


# -- word actions -----------------------------------------------------------------

def test_act_on_B_identity_word():
    n = 2
    act = act_on_B(n, Word.identity(n))
    assert act.mapping == {v: v for v in build_B(n).vertices}


def test_act_on_B_g1_rule_level_one():
    act = act_on_B(1, gen_g(1, 1))
    moved = {v: im for v, im in act.mapping.items() if v != im}
    assert moved == {(2, 1): (2, 0), (2, -1): (2, 0)}


def test_act_on_B_h1_rule_level_one():
    act = act_on_B(1, gen_h(1, 1))
    m = act.mapping
    assert m[(1, 1)] == (1, -1) and m[(1, -1)] == (1, 1)
    assert m[(2, 1)] == m[(2, -1)] == m[(2, 0)] == (2, 0)
    assert m[(3, 1)] == (3, 1) and m[(3, -1)] == (3, -1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_word_acts_as_endomorphism(n):
    for w in wn_enumerate(n):
        act_on_B(n, w)  # NotAMorphism would signal a broken edge schema


def test_act_on_B_is_monoid_homomorphism_exhaustive_n2():
    n = 2
    words = wn_enumerate(n)
    acts = {w: act_on_B(n, w) for w in words}
    for a in words:
        for b in words:
            composite = compose_morphisms(acts[a], acts[b])
            assert composite.mapping == acts[word_mul(a, b)].mapping


def test_act_on_B_is_monoid_homomorphism_sampled_n3():
    n = 3
    rng = random.Random(23)
    words = wn_enumerate(n)
    for _ in range(40):
        a, b = rng.choice(words), rng.choice(words)
        lhs = compose_morphisms(act_on_B(n, a), act_on_B(n, b)).mapping
        assert lhs == act_on_B(n, word_mul(a, b)).mapping


def test_act_on_B_level_mismatch():
    with pytest.raises(ValueError):
        act_on_B(2, Word.identity(1))


def test_act_on_C_identity():
    c, _ = build_C(2, 1)
    act = act_on_C(2, Word.identity(2), 1)
    assert act.source == c and act.target == c
    assert all(act.mapping[v] == v for v in c.vertices)


def test_act_on_C_crosses_to_the_other_crown():
    act = act_on_C(2, gen_h(2, 1), 1)
    assert act.source == build_C(2, 1)[0]
    assert act.target == build_C(2, -1)[0]


@pytest.mark.parametrize("s", [1, -1])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_act_on_C_commutes_with_projections_exhaustive(n, s):
    _, f_s = build_C(n, s)
    for w in wn_enumerate(n):
        t = act_on_U(w, s)
        _, f_t = build_C(n, t)
        act_c = act_on_C(n, w, s)
        act_b = act_on_B(n, w)
        for x in build_B(n).vertices:
            assert act_c.mapping[f_s.mapping[x]] == f_t.mapping[act_b.mapping[x]]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("s", [1, -1])
def test_act_on_C_matches_the_quotient_construction(n, s):
    for w in wn_enumerate(n):
        assert act_on_C(n, w, s) == reference_act_on_C(n, w, s), w


def test_act_on_C_functorial_on_sampled_pairs():
    n = 2
    rng = random.Random(5)
    words = wn_enumerate(n)
    for _ in range(30):
        w1, w2 = rng.choice(words), rng.choice(words)
        for s in (1, -1):
            t = act_on_U(w2, s)
            inner = act_on_C(n, w2, s)      # C^s -> C^t
            outer = act_on_C(n, w1, t)      # C^t -> C^u
            direct = act_on_C(n, word_mul(w1, w2), s)
            assert compose_morphisms(outer, inner).mapping == direct.mapping


# -- the per-edge certificate of the word action ------------------------------

def strip_variant(n, add=(), drop=()):
    b = build_B(n)
    return graph_new(b.vertices, [e for e in b.edges() if e not in drop] + list(add))


@pytest.mark.parametrize("n", range(1, 7))
def test_certificate_agrees_with_the_enumeration_on_the_strip(n):
    b = build_B(n)
    certify_word_actions(b)  # raises NotAMorphism on a broken pair
    assert reference_action_witness(n, b) is None


STRIP_CONTROLS = {
    "skip column": {"add": [((1, 1), (3, 1))]},
    "added edge": {"add": [((2, 1), (4, 1))]},  # the word +++0+++ sends it to x2+ -- x4^0
    "dropped rung": {"drop": [((1, 1), (2, 0))]},
}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("control", STRIP_CONTROLS)
def test_certificate_fails_where_the_enumeration_does(control, n):
    g = strip_variant(n, **STRIP_CONTROLS[control])
    assert reference_action_witness(n, g) is not None
    with pytest.raises(NotAMorphism) as exc:
        certify_word_actions(g)
    # the named pair is one that some word really breaks
    (j, a), (k, b) = exc.value.witness
    assert any(((j, w.coords[j - 1] * a), (k, w.coords[k - 1] * b)) not in g.relation for w in wn_enumerate(n))


def test_certificate_names_the_word_pair_across_the_skipped_column():
    with pytest.raises(NotAMorphism) as exc:
        certify_word_actions(strip_variant(3, **STRIP_CONTROLS["skip column"]))
    assert exc.value.witness == ((1, 1), (3, 1))
    assert "(w_1, w_3)" in str(exc.value)


def test_certificate_checks_that_every_image_is_a_vertex():
    # no edges at all, and column 2 has no x2^0 for w_2 = 0 to reach
    g = graph_new([v for v in build_B(1).vertices if v != (2, 0)], [])
    with pytest.raises(ValueError, match="not a target vertex"):
        reference_action_witness(1, g)
    with pytest.raises(NotAMorphism) as exc:
        certify_word_actions(g)
    assert exc.value.witness == ((2, 1), (2, 1))


# -- predicates -------------------------------------------------------------------

def test_admissibility_examples():
    assert is_admissible(graph_new(["a"], []))
    assert not is_admissible(graph_new(["a", "b"], [("a", "b")]))  # complete on 2
    for s in (1, -1):
        assert is_admissible(build_C(2, s)[0])


def test_is_admissible_matches_the_triple_loop():
    rng = random.Random(2027)
    verdicts = set()
    for _ in range(3000):
        g = random_graph(rng, max_vertices=7, min_vertices=1, p_edge=rng.choice((0.2, 0.5, 0.8)))
        verdict = is_admissible(g)
        assert verdict == reference_is_admissible(g), g.to_json()
        verdicts.add(verdict)
    assert verdicts == {True, False}
    for n in (2, 3, 4):
        for s in (1, -1):
            c = build_C(n, s)[0]
            assert is_admissible(c) and reference_is_admissible(c)


def test_crowns_triangle_free_without_pendants():
    for n in (2, 3):
        for s in (1, -1):
            c = build_C(n, s)[0]
            assert is_triangle_free(c)
            assert min_valency(c) >= 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_valency2_cycle_structure(n):
    plus = valency2_cycle_count(build_C(n, 1)[0])
    minus = valency2_cycle_count(build_C(n, -1)[0])
    assert plus.count == 2 and plus.all_cycles
    assert minus.count == 1 and minus.all_cycles
    assert plus.lengths() == [2 * n, 2 * n]
    assert minus.lengths() == [4 * n]


def test_cycle_scan_flags_non_cycles():
    # a path: both endpoints have valency 1 inside the scanned subgraph
    g = graph_new(["a", "b", "c"], [("a", "b"), ("b", "c")])
    scan = valency2_cycle_count(g)
    assert scan.count == 1
    assert not scan.all_cycles


# -- isomorphism --------------------------------------------------------------------

def test_isomorphic_to_itself_and_relabelings():
    b = build_B(2)
    assert graphs_isomorphic(b, b)
    assert graphs_isomorphic(b, relabeled_copy(b, 7))
    assert graphs_isomorphic(build_C(3, -1)[0], relabeled_copy(build_C(3, -1)[0], 3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_crowns_not_isomorphic(n):
    assert not graphs_isomorphic(build_C(n, 1)[0], build_C(n, -1)[0])


def test_isomorphism_size_cap():
    with pytest.raises(CapExceeded):
        graphs_isomorphic(build_B(2), build_B(2), max_vertices=5)


def test_isomorphism_behaves_like_an_equivalence():
    rng = random.Random(9)
    graphs = [random_graph(rng) for _ in range(6)]
    for g in graphs:
        assert graphs_isomorphic(g, g)
        copy_a = relabeled_copy(g, rng.randint(0, 10**6))
        copy_b = relabeled_copy(g, rng.randint(0, 10**6))
        assert graphs_isomorphic(g, copy_a)
        assert graphs_isomorphic(copy_a, g)
        assert graphs_isomorphic(copy_a, copy_b)


def test_isomorphism_detects_edge_count_difference():
    g = graph_new([0, 1, 2], [(0, 1)])
    h = graph_new([0, 1, 2], [(0, 1), (1, 2)])
    assert not graphs_isomorphic(g, h)
