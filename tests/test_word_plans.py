"""Differential tests of the planned word row maps against the validated morphisms, with negative controls."""

import itertools

import pytest

from crown import graphs, loday
from crown.errors import NotAMorphism
from crown.fields import GF, QQ
from crown.graph_algebra import q_rows, rows_equal, sign_rows
from crown.graphs import act_on_B, act_on_C, build_B, build_F, graph_new, morphism_new
from crown.monoid import Word, wn_enumerate
from conftest import _window_rows


def window_morphism(n, i, coords):
    """Window i's map x_j^v -> x_j^(c v) on its columns, c = coords, validated by `morphism_new`."""
    fg, _ = build_F(n, i)
    return morphism_new({(j, v): (j, coords[j - 2 * i + 1] * v) for (j, v) in fg.vertices}, fg, fg)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_planned_word_rows_match_the_morphism_path(n):
    # every word's strip row map, and from n = 2 its maps from both crowns,
    # equal `q_rows` of the validated morphism, with weight 1 in every row
    for w in wn_enumerate(n):
        rows = loday._action_rows(n, w, None, "B")
        assert rows == q_rows(act_on_B(n, w)), w
        assert all(weight == 1 for _, weight in rows), w
        for s in (1, -1) if n >= 2 else ():
            assert loday._action_rows(n, w, s, "C") == q_rows(act_on_C(n, w, s)), (w, s)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_planned_window_rows_match_the_morphism_path(n):
    # all 27 coordinate triples on every window: the planned row map equals
    # the window morphism's where that is a morphism, which is exactly where
    # some word has the triple there; elsewhere both paths refuse, the plan
    # by NotAMorphism
    for i in range(1, n + 1):
        windows = {w.coords[2 * i - 2:2 * i + 1] for w in wn_enumerate(n)}
        for coords in itertools.product((1, -1, 0), repeat=3):
            try:
                expected = q_rows(window_morphism(n, i, coords))
            except (NotAMorphism, ValueError):
                with pytest.raises(NotAMorphism):
                    _window_rows(n, i, coords)
                assert coords not in windows, (i, coords)
            else:
                assert _window_rows(n, i, coords) == expected, (i, coords)
                assert coords in windows, (i, coords)


@pytest.mark.parametrize(
    "add, drop, word, broken",
    [
        ([((2, 1), (4, 1))], [], "+++0+++", ((2, 1), (4, 1))),
        ([], [((1, 1), (2, 0))], "+0+++++", ((1, 1), (2, 1))),
    ],
    ids=["added edge", "dropped rung"],
)
def test_planned_rows_refuse_a_broken_strip(monkeypatch, add, drop, word, broken):
    # the strips of the `graphs` negative controls: x2+ -- x4+ added, or the
    # rung x1+ -- x2^0 dropped.  A word that breaks the relation raises
    # NotAMorphism on the strip and on both crowns, naming the broken pair,
    # as the validated morphism refuses it; the identity word still maps
    build = graphs.build_B

    def variant(n):
        b = build(n)
        return graph_new(b.vertices, [e for e in b.edges() if e not in drop] + add)

    monkeypatch.setattr(graphs, "build_B", variant)
    monkeypatch.setattr(loday, "build_B", variant)
    for cache in ("_B_CACHE", "_F_CACHE", "_C_CACHE"):
        monkeypatch.setattr(graphs, cache, {})
    w, identity = Word.from_string(word), Word.identity(3)
    for s, target in ((None, "B"), (1, "C"), (-1, "C")):
        oracle = (lambda v: act_on_B(3, v)) if target == "B" else (lambda v: act_on_C(3, v, s))
        with pytest.raises(NotAMorphism) as refused:
            loday._action_rows(3, w, s, target)
        assert refused.value.witness == broken, target
        with pytest.raises(NotAMorphism):
            oracle(w)
        assert loday._action_rows(3, identity, s, target) == q_rows(oracle(identity)), target


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
def test_an_edge_inside_a_column_collapses_with_weight_two(field):
    # weight-2 control: the edge x1+ -- x1- lies in one column, so the sign
    # 0 collapses it onto x1^0 and its row has weight 2, a zero row over F_2
    # only; the sign -1 swaps its ends, which is the same orbit, weight 1
    g = graph_new([(1, 1), (1, -1), (1, 0)], [((1, 1), (1, -1))])
    for c in (1, -1, 0):
        assert sign_rows(g, g, (c,)) == q_rows(morphism_new({(1, v): (1, c * v) for v in (1, -1, 0)}, g, g)), c
    # g basis: x1+ x1- x1^0 | d:x1+ d:x1- d:x1^0 e:x1+|x1-
    rows = sign_rows(g, g, (0,))
    assert rows == ((2, 1), (2, 1), (2, 1), (5, 1), (5, 1), (5, 1), (5, 2))
    assert rows_equal(rows, rows[:-1] + (None,), field) == (field == GF(2))
    assert sign_rows(g, g, (-1,))[-1] == (6, 1)


def test_plans_follow_the_graph_content():
    # a plan is keyed by the graphs' content, not by level: a strip built
    # afresh with an added edge gets its own plan, which refuses the word
    # that the cached strip's plan accepts
    w = Word.from_string("+++0+++")
    plain = build_B(3)
    assert sign_rows(plain, plain, w.coords) == q_rows(act_on_B(3, w))
    added = graph_new(plain.vertices, list(plain.edges()) + [((2, 1), (4, 1))])
    with pytest.raises(NotAMorphism):
        sign_rows(added, added, w.coords)
