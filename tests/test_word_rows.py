"""Differential tests of the integer row maps against the entries-built matrices, and of per-word transport."""

import pytest

from crown import loday
from crown.fields import GF, QQ
from crown.graph_algebra import q_hom, q_rows, q_ungraded, rows_compose, rows_equal, rows_matrix
from crown.graphs import act_on_B, act_on_C, build_C, build_F, graph_new, morphism_new
from crown.harness import RunConfig, run_suite
from crown.linalg import mat_compose
from crown.loday import transport_square_check
from crown.monoid import act_on_U, gen_g, wn_enumerate
from conftest import bumped_row, reference_q_hom, reference_transport_square_check, transport_elements

FIELDS = [QQ, GF(2), GF(3)]


def word_morphisms(n):
    """Every word's strip map and its maps from both crowns, by name."""
    for w in wn_enumerate(n):
        yield f"B {w}", act_on_B(n, w)
        for s in (1, -1):
            yield f"C{s} {w}", act_on_C(n, w, s)


def structural_morphisms(n):
    """Both projections, every window inclusion, and every window action a word has, by name."""
    for s in (1, -1):
        yield f"F{s}", build_C(n, s)[1]
    for i in range(1, n + 1):
        fg, incl = build_F(n, i)
        yield f"E{i}", incl
        for coords in sorted({w.coords[2 * i - 2:2 * i + 1] for w in wn_enumerate(n)}):
            mapping = {(j, v): (j, coords[j - 2 * i + 1] * v) for (j, v) in fg.vertices}
            yield f"W{i} {coords}", morphism_new(mapping, fg, fg)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_row_maps_match_the_entries_built_matrices(field, n):
    # every word matrix on the strip and on both crowns, and every
    # projection, window inclusion and window action: one nonzero per row,
    # weight 1, and the same matrix as the entries-built oracle
    for name, f in [*word_morphisms(n), *structural_morphisms(n)]:
        rows = q_rows(f)
        assert len(rows) == q_ungraded(f.source, field).dim, name
        assert all(weight == 1 for _, weight in rows), name
        assert q_hom(f, field) == reference_q_hom(f, field), name


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [2, 3])
def test_row_products_match_the_matrix_products(field, n):
    # both sides of every word's transport square, as row maps and as
    # `Matrix` products of the oracle matrices, and their equality
    crown_dim = q_ungraded(build_C(n, 1)[0], field).dim
    f = {s: build_C(n, s)[1] for s in (1, -1)}
    for w in wn_enumerate(n):
        b = act_on_B(n, w)
        for s in (1, -1):
            c, t = act_on_C(n, w, s), act_on_U(w, s)
            left = rows_compose(q_rows(f[s]), q_rows(c))
            right = rows_compose(q_rows(b), q_rows(f[t]))
            oracle = {side: mat_compose(*(reference_q_hom(m, field) for m in pair))
                      for side, pair in (("left", (f[s], c)), ("right", (b, f[t])))}
            assert rows_matrix(field, left, crown_dim) == oracle["left"]
            assert rows_matrix(field, right, crown_dim) == oracle["right"]
            assert rows_equal(left, right, field), (w, s)


@pytest.mark.parametrize("field", FIELDS)
def test_a_collapsed_edge_pulls_back_with_weight_two(field):
    # negative control for the weight: a-b maps onto the mirror of H's edge,
    # b-c collapses onto u, so row e:b|c has weight 2, which reads 2 over Q
    # and F_3 and is a zero row over F_2
    g = graph_new(["a", "b", "c"], [("a", "b"), ("b", "c")])
    h = graph_new(["u", "v"], [("u", "v")])
    f = morphism_new({"a": "v", "b": "u", "c": "u"}, g, h)
    rows = q_rows(f)
    # G basis: a b c | d:a d:b d:c e:a|b e:b|c;  H basis: u v | d:u d:v e:u|v
    assert rows == ((1, 1), (0, 1), (0, 1), (3, 1), (2, 1), (2, 1), (4, 1), (2, 2))
    m = q_hom(f, field)
    assert m == reference_q_hom(f, field)
    assert m.entry(7, 2) == field.from_int(2)
    assert (m.col(2).get(7) is None) == (field == GF(2))
    assert rows_equal(rows, rows[:7] + (None,), field) == (field == GF(2))


def test_row_maps_compare_after_reduction():
    # equal tuples are equal matrices; weights that differ by p, a weight
    # p and a zero row, are one matrix over F_p only
    rows = ((0, 1), (1, 2))
    assert rows_equal(rows, rows, QQ)
    assert rows_equal(rows, ((0, 3), (1, 2)), GF(2)) and not rows_equal(rows, ((0, 3), (1, 2)), QQ)
    assert rows_equal(rows, ((0, 1), None), GF(2)) and not rows_equal(rows, ((0, 1), None), GF(3))
    assert rows_compose(rows, ((1, 3), None)) == ((1, 3), None)
    assert rows_compose(((1, 2), None), ((0, 1), (0, 3))) == ((0, 6), None)
    assert rows_matrix(GF(5), ((1, 6), None), 2).to_triples() == [(0, 1, 1)]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_per_word_transport_matches_the_materialized_squares(field, n):
    # every element of the transport check is proved word by word, with no
    # walk, and the materialized squares agree (at n = 4 to p = 2, where
    # the oracle's families stay within the tensor cap) as does the walk
    r = min(n - 1, 2)
    for name, x, s, t in transport_elements(n, field):
        assert loday._transport_verdict(n, n - 1, x, s, t) == (True, False), name
        assert reference_transport_square_check(n, r, x, s, t), name
        walk = loday._zero_powers(field, loday._transport_products(n, x, s, t), n - 1)
        assert walk == [True] * (n - 1), name


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_transport_reports_the_walked_elements(monkeypatch, field):
    # a normal run walks nothing; with g_1's crown matrix on sign 1 changed
    # in one row, the elements with that word, g1 and Z, fail their squares
    # and are walked, and the walk finds their families nonzero
    (report,) = run_suite(RunConfig(n=3, field=field, checks=("transport",)))
    assert report.status == "pass" and report.details["walked"] == []
    action, g1 = loday._action_rows, gen_g(3, 1)

    def perturbed(n, w, s, target):
        rows = action(n, w, s, target)
        return bumped_row(rows) if target == "C" and w == g1 and s == 1 else rows

    monkeypatch.setattr(loday, "_action_rows", perturbed)
    (report,) = run_suite(RunConfig(n=3, field=field, checks=("transport",)))
    assert report.status == "fail"
    assert report.details["walked"] == report.details["failures"] == ["g1", "Z"]
    x = next(x for name, x, _, _ in transport_elements(3, field) if name == "Z")
    assert not transport_square_check(3, 2, x, 1, 1) and not reference_transport_square_check(3, 2, x, 1, 1)
