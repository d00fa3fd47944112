"""Ranks and algebra-map certificates read off integer row maps.

`rows_rank` is checked against `mat_rank` of the `rows_matrix`
conversion, and `rows_multiplicative` against `is_multiplicative`, the
structure-constant comparison, on every crown word map at n <= 3 and on
random row maps between small graphs.
"""

import random

import pytest

from crown.fields import GF, QQ
from crown.graph_algebra import _pullback, is_multiplicative, q_rows, q_ungraded, rows_matrix, rows_multiplicative, rows_rank
from crown.graphs import build_C, graph_new, morphism_new
from crown.linalg import mat_rank
from crown.loday import _action_rows
from crown.monoid import act_on_U, wn_enumerate
from conftest import bumped_row, random_graph, with_row

FIELDS = [QQ, GF(2), GF(3)]


def random_rows(rng, nrows, ncols):
    """A row map with None rows, repeated columns and weights in -2..3, weight 2 among them."""
    columns = rng.sample(range(ncols), rng.randint(1, min(ncols, 3)))  # few columns: many rows repeat one
    return tuple(
        None if rng.random() < 0.25 else (rng.choice(columns + [rng.randrange(ncols)]), rng.choice((1, 1, 2, 3, -1, -2)))
        for _ in range(nrows)
    )


@pytest.mark.parametrize("field", FIELDS)
def test_rows_rank_matches_the_elimination(field):
    # differential test on rectangular row maps: a weight 2, the only
    # nonzero of its column, drops the rank over F_2 and nowhere else
    rng = random.Random(1701)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = random_rows(rng, nrows, ncols)
        assert rows_rank(rows, field) == mat_rank(rows_matrix(field, rows, ncols)), rows
    collapsed = ((0, 1), None, (1, 2), (0, 3))
    assert rows_rank(collapsed, field) == (1 if field == GF(2) else 2) == mat_rank(rows_matrix(field, collapsed, 3))


def oracle(g, h, rows, field):
    """`is_multiplicative` on the row map's `Matrix`, from Q(h) to Q(g)."""
    source, target = q_ungraded(h, field), q_ungraded(g, field)
    return is_multiplicative(source, target, rows_matrix(field, rows, source.dim))


def perturbed(rng, rows, ncols):
    """One row of the map replaced: zeroed, its weight changed, or sent to a random column."""
    r = rng.randrange(len(rows))
    if rows[r] is not None and rng.random() < 0.4:
        return bumped_row(rows, r, rng.choice((-1, 1, 2)))
    return with_row(rows, r, None if rng.random() < 0.3 else (rng.randrange(ncols), rng.choice((1, 2, 3))))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [2, 3])
def test_rows_multiplicative_matches_the_oracle_on_every_crown_word(field, n):
    # every word on both signs, as iso certifies it, and three single-row
    # perturbations of each; the words pass and most perturbations fail
    rng = random.Random(n)
    verdicts = []
    for s in (1, -1):
        for w in wn_enumerate(n):
            g, h = build_C(n, s)[0], build_C(n, act_on_U(w, s))[0]
            rows = _action_rows(n, w, s, "C")
            assert rows_multiplicative(g, h, rows, field) and oracle(g, h, rows, field)
            for _ in range(3):
                changed = perturbed(rng, rows, len(rows))
                verdicts.append(rows_multiplicative(g, h, changed, field))
                assert verdicts[-1] == oracle(g, h, changed, field), (w, s, changed)
    assert True in verdicts and False in verdicts


def scaled_rows(rng, g, h, mapping):
    """A row map over the vertex map, scaled: vertex row x weight c_x, orbit rows c_x c_y times the entry, or random.

    Where h does not relate the images the orbit row is zero or random.
    """
    pairs, entry = _pullback(g, h)
    nv, dim = len(g.vertices), q_ungraded(h, QQ).dim
    scale = {x: rng.choice((1, 1, 2, 3, -1)) for x in g.vertices}
    rows = []
    for r, (x, y) in enumerate(pairs):
        e = entry(r, mapping[x], mapping[y])
        if rng.random() < 0.1 or (e is None and r >= nv):
            rows.append(None if rng.random() < 0.5 else (rng.randrange(dim), rng.choice((1, 2))))
        else:
            rows.append((e[0], e[1] * (scale[x] if r < nv else scale[x] * scale[y])))
    return tuple(rows)


@pytest.mark.parametrize("field", FIELDS)
def test_rows_multiplicative_matches_the_oracle_on_random_maps(field):
    # random vertex maps between small graphs, into a complete graph half
    # the time so that many are morphisms, with scaled weights and
    # single-row perturbations
    rng = random.Random(77)
    verdicts = []
    for _ in range(150):
        g = random_graph(rng, max_vertices=5)
        h = random_graph(rng, max_vertices=4, p_edge=1.0 if rng.random() < 0.5 else 0.5)
        mapping = {x: rng.choice(h.vertices) for x in g.vertices}
        rows = scaled_rows(rng, g, h, mapping)
        for candidate in (rows, perturbed(rng, rows, q_ungraded(h, QQ).dim)):
            verdicts.append(rows_multiplicative(g, h, candidate, field))
            assert verdicts[-1] == oracle(g, h, candidate, field), (g.vertices, g.edges(), h.edges(), candidate)
    assert verdicts.count(True) > 20 and verdicts.count(False) > 20


# H is one edge u-v, G the path a-b-c: a -> v and b, c -> u, so b-c collapses onto u
PATH3 = graph_new(["a", "b", "c"], [("a", "b"), ("b", "c")])
EDGE = graph_new(["u", "v"], [("u", "v")])
COLLAPSE = q_rows(morphism_new({"a": "v", "b": "u", "c": "u"}, PATH3, EDGE))
# rows: a b c | d:a d:b d:c e:a|b e:b|c;  columns: u v | d:u d:v e:u|v
COLLAPSED_EDGE, VERTEX_A = 7, 0


@pytest.mark.parametrize("field", FIELDS)
def test_rows_multiplicative_controls(field):
    # a changed weight, a moved column and a vertex row on an orbit column
    # each fail; the collapsed edge's orbit row has weight 2, and dropped
    # to 0 it fails over Q and F_3 and passes over F_2, where 2 = 0
    assert COLLAPSE[COLLAPSED_EDGE] == (2, 2)
    assert rows_multiplicative(PATH3, EDGE, COLLAPSE, field) and oracle(PATH3, EDGE, COLLAPSE, field)
    controls = {
        "weight": bumped_row(COLLAPSE, 6),  # the edge a-b's orbit row, weight 1 -> 2
        "column": with_row(COLLAPSE, 6, (3, 1)),  # e:a|b sent to d:v
        "vertex row on an orbit column": with_row(COLLAPSE, VERTEX_A, (4, 1)),
    }
    for name, rows in controls.items():
        assert not rows_multiplicative(PATH3, EDGE, rows, field), name
        assert not oracle(PATH3, EDGE, rows, field), name
    dropped = with_row(COLLAPSE, COLLAPSED_EDGE, (2, 0))
    assert rows_multiplicative(PATH3, EDGE, dropped, field) == (field == GF(2)) == oracle(PATH3, EDGE, dropped, field)


@pytest.mark.parametrize("field", FIELDS)
def test_an_orbit_row_on_a_vertex_column_passes_where_its_product_is_zero(field):
    # with vertex row a zero, and d:a's row with it, the product of rows a
    # and b is zero, so the orbit row of a-b may lie on a vertex column; on
    # an orbit column it fails
    killed = with_row(with_row(COLLAPSE, VERTEX_A, None), 3, None)
    for column, passes in ((0, True), (1, True), (4, False)):
        rows = with_row(killed, 6, (column, 1))
        assert rows_multiplicative(PATH3, EDGE, rows, field) == passes == oracle(PATH3, EDGE, rows, field), column
    # over F_2 the collapsed edge's product is zero as well: its row may lie on a vertex column
    on_vertex = with_row(COLLAPSE, COLLAPSED_EDGE, (0, 1))
    assert rows_multiplicative(PATH3, EDGE, on_vertex, field) == (field == GF(2)) == oracle(PATH3, EDGE, on_vertex, field)


def test_rows_multiplicative_rejects_a_mismatched_shape():
    with pytest.raises(ValueError, match="shape"):
        rows_multiplicative(PATH3, EDGE, COLLAPSE[:-1], QQ)
