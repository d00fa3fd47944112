"""Graphs as reflexive symmetric relations, with the strip/crown builders.

A graph here is a finite vertex set with a reflexive symmetric relation;
edges are the off-diagonal symmetric pairs.  Morphisms are vertex maps
sending related pairs to related pairs (collapsing an edge onto a vertex
is allowed because the relation contains the diagonal).

`build_B(n)` constructs the level-n strip: vertices x_j^v sit in columns
j = 1..2n+1 with sign v in {+1,-1} on odd columns and {+1,-1,0} on even
ones, and each even column 2i carries eight edges joining it to columns
2i-1 and 2i+1 (same-sign rungs plus the two rungs through x_{2i}^0).
This edge schema is pinned down behaviorally by the validation suite in
the tests: sign words act column-wise on it, the three-column windows
F_1..F_n cover it, g_i acts trivially off window i, and the resulting
crowns are triangle-free with the expected valency-2 cycle structure.

`build_C(n, s)` glues the last column onto the first, matching signs when
s = +1 and swapping them when s = -1 (the Moebius crown).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapExceeded, NotAMorphism
from .monoid import SIGN_CHAR, Word, act_on_U, position_signs, stretch_counts

DEFAULT_GRAPH_CAP = 64


class Graph:
    """A finite ordered vertex set with a reflexive symmetric relation."""

    __slots__ = ("vertices", "relation", "_index", "_adj")

    def __init__(self, vertices, relation):
        self.vertices = tuple(vertices)
        self.relation = frozenset(relation)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        adj = {v: [] for v in self.vertices}
        for x, y in self.relation:
            if x != y:
                adj[x].append(y)
        self._adj = {v: tuple(sorted(ns, key=self._index.__getitem__)) for v, ns in adj.items()}

    def index(self, v):
        return self._index[v]

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def edges(self):
        """Edges as (a, b) pairs with index(a) < index(b), sorted."""
        idx = self._index
        out = [
            (x, y)
            for (x, y) in self.relation
            if x != y and idx[x] < idx[y]
        ]
        out.sort(key=lambda e: (idx[e[0]], idx[e[1]]))
        return out

    @property
    def edge_count(self):
        return (len(self.relation) - len(self.vertices)) // 2

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return frozenset(self.vertices) == frozenset(other.vertices) and self.relation == other.relation

    def __hash__(self):
        return hash((frozenset(self.vertices), self.relation))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {self.edge_count} edges)"

    def to_json(self):
        return {
            "vertices": [vertex_label_str(v) for v in self.vertices],
            "edges": [[vertex_label_str(a), vertex_label_str(b)] for a, b in self.edges()],
        }


def vertex_label_str(v) -> str:
    """Default label rendering; crown vertices (j, v) become 'xj^+' style."""
    if isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], int) and v[1] in (1, -1, 0):
        return f"x{v[0]}^{SIGN_CHAR[v[1]]}"
    return str(v)


def graph_new(vertices, edge_list) -> Graph:
    """Build a graph from vertices and undirected edges.

    The relation is the diagonal plus the symmetric closure of the edges;
    explicit self-loops are rejected because the diagonal is implicit.
    """
    vertices = tuple(vertices)
    vset = set(vertices)
    if len(vset) != len(vertices):
        raise ValueError("duplicate vertex labels")
    relation = {(v, v) for v in vertices}
    for e in edge_list:
        a, b = e
        if a not in vset or b not in vset:
            raise ValueError(f"edge endpoint not a vertex: {e!r}")
        if a == b:
            raise ValueError(f"explicit self-loop rejected: {e!r}")
        relation.add((a, b))
        relation.add((b, a))
    return Graph(vertices, relation)


class GraphMorphism:
    """A relation-preserving vertex map between graphs."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.mapping = mapping  # dict vertex -> vertex; adopted

    def __eq__(self, other):
        if not isinstance(other, GraphMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    def __repr__(self):
        return f"GraphMorphism({self.source!r} -> {self.target!r})"


def morphism_new(f1, source: Graph, target: Graph) -> GraphMorphism:
    """Checked construction; raises NotAMorphism with a witness pair."""
    mapping = dict(f1)
    for v in source.vertices:
        if v not in mapping:
            raise ValueError(f"vertex map not total: missing {v!r}")
        if mapping[v] not in target._index:
            raise ValueError(f"image {mapping[v]!r} is not a target vertex")
    for x, y in source.relation:
        if (mapping[x], mapping[y]) not in target.relation:
            raise NotAMorphism((x, y))
    return GraphMorphism(source, target, mapping)


def is_cover(fs) -> bool:
    """Whether the images jointly exhaust the target's vertices and relation."""
    fs = list(fs)
    if not fs:
        raise ValueError("empty family")
    target = fs[0].target
    for f in fs:
        if f.target != target:
            raise ValueError("mismatched targets")
    verts = set()
    pairs = set()
    for f in fs:
        verts.update(f.mapping[v] for v in f.source.vertices)
        pairs.update((f.mapping[x], f.mapping[y]) for (x, y) in f.source.relation)
    return verts == set(target.vertices) and pairs == target.relation


# -- strip and crown builders ------------------------------------------

_B_CACHE: dict = {}


def build_B(n: int) -> Graph:
    """The level-n strip graph: 5n+2 vertices, 8n edges."""
    if n < 1:
        raise ValueError("level must be >= 1")
    g = _B_CACHE.get(n)
    if g is not None:
        return g
    vertices = [(j, v) for j in range(1, 2 * n + 2) for v in position_signs(j)]
    edges = []
    for i in range(1, n + 1):
        a, b, c = 2 * i - 1, 2 * i, 2 * i + 1
        for v in (1, -1):
            edges.append(((a, v), (b, v)))
            edges.append(((b, v), (c, v)))
            edges.append(((a, v), (b, 0)))
            edges.append(((b, 0), (c, v)))
    g = graph_new(vertices, edges)
    _B_CACHE[n] = g
    return g


_F_CACHE: dict = {}


def build_F(n: int, i: int):
    """The window subgraph on columns 2i-1, 2i, 2i+1 and its inclusion."""
    if not 1 <= i <= n:
        raise ValueError(f"window index {i} out of range 1..{n}")
    cached = _F_CACHE.get((n, i))
    if cached is not None:
        return cached
    b = build_B(n)
    cols = {2 * i - 1, 2 * i, 2 * i + 1}
    vertices = [v for v in b.vertices if v[0] in cols]
    vset = set(vertices)
    edges = [(x, y) for x, y in b.edges() if x in vset and y in vset]
    f = graph_new(vertices, edges)
    incl = morphism_new({v: v for v in vertices}, f, b)
    _F_CACHE[(n, i)] = (f, incl)
    return f, incl


_C_CACHE: dict = {}


def build_C(n: int, s: int):
    """The crown obtained by gluing column 2n+1 onto column 1 with sign s.

    Returns the quotient graph (5n vertices, 8n edges) and the projection
    morphism from the strip.  Requires n >= 2 so that the gluing does not
    collapse edges.
    """
    if s not in (1, -1):
        raise ValueError(f"not a sign: {s!r}")
    if n < 2:
        raise ValueError("crowns need level >= 2")
    cached = _C_CACHE.get((n, s))
    if cached is not None:
        return cached
    b = build_B(n)

    def q(v):
        j, sign = v
        return (1, s * sign) if j == 2 * n + 1 else v

    vertices = [v for v in b.vertices if v[0] <= 2 * n]
    edges = sorted({tuple(sorted((q(x), q(y)))) for x, y in b.edges()})
    c = graph_new(vertices, edges)
    proj = morphism_new({v: q(v) for v in b.vertices}, b, c)
    _C_CACHE[(n, s)] = (c, proj)
    return c, proj


def _word_map(n: int, w: Word, vertices) -> dict:
    """x_j^v -> x_j^{w_j v} on the given column vertices."""
    if w.n != n:
        raise ValueError(f"level mismatch: word has level {w.n}, expected {n}")
    return {(j, v): (j, w.coords[j - 1] * v) for (j, v) in vertices}


def act_on_B(n: int, w: Word) -> GraphMorphism:
    """The endomorphism of the strip sending x_j^v to x_j^{w_j v}."""
    b = build_B(n)
    return morphism_new(_word_map(n, w, b.vertices), b, b)


def act_on_C(n: int, w: Word, s: int) -> GraphMorphism:
    """The induced map from the s-crown to the t = (w.s)-crown, x_j^v -> x_j^{w_j v} on columns 1..2n, validated.

    It commutes with both projections, since x_{2n+1}^v goes either way to
    x_1^{w_1 s v} = x_1^{t w_{2n+1} v}.
    """
    c_s, _ = build_C(n, s)
    c_t, _ = build_C(n, act_on_U(w, s))
    return morphism_new(_word_map(n, w, c_s.vertices), c_s, c_t)


def certify_word_actions(g: Graph) -> None:
    """Prove, pair by pair, that every word maps g, with vertices (j, v) as in `build_B`, into itself.

    The image of a related pair (x_j^a, x_k^b) depends only on (w_j, w_k),
    and `stretch_counts(j, k)` names the pairs that words take, across any
    columns between; each must keep the pair related (on the diagonal:
    the image is a vertex).  Raises NotAMorphism with the first broken
    pair, vertices before edges, naming the word pair that breaks it.
    """
    for x, y in [(v, v) for v in g.vertices] + g.edges():
        (j, a), (k, b) = sorted((x, y))
        for wj, wk in stretch_counts(j, k):
            if ((j, wj * a), (k, wk * b)) not in g.relation:
                raise NotAMorphism(((j, a), (k, b)), f"words with (w_{j}, w_{k}) = ({wj}, {wk}) break the relation")


# -- predicates and invariants ------------------------------------------

def is_admissible(g: Graph) -> bool:
    """For any two distinct vertices x, y there must be a z related to y
    but not to x (the relation includes the diagonal): no closed
    neighbourhood N[y] lies inside another vertex's N[x]."""
    closed = [frozenset(g.neighbors(v)).union((v,)) for v in g.vertices]
    return not any(ny <= nx for nx, ny in itertools.permutations(closed, 2))


@dataclass(frozen=True)
class CycleComponent:
    vertices: int
    edges: int
    is_cycle: bool


@dataclass(frozen=True)
class CycleScan:
    """Components of the subgraph spanned by edges meeting valency-2 vertices."""

    components: tuple

    @property
    def count(self):
        return len(self.components)

    @property
    def all_cycles(self):
        return all(c.is_cycle for c in self.components)

    def lengths(self):
        return sorted(c.edges for c in self.components)


def valency2_cycle_count(g: Graph) -> CycleScan:
    """Scan the edges incident to valency-2 vertices.

    Each connected component of that edge set is reported with a flag
    telling whether it is a cycle (every component vertex has degree 2
    within the component).
    """
    idx = g._index
    low = {v for v in g.vertices if g.degree(v) == 2}
    edge_set = {e for e in g.edges() if e[0] in low or e[1] in low}
    adj: dict = {}
    for a, b in edge_set:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen = set()
    comps = []
    for start in sorted(adj, key=idx.__getitem__):
        if start in seen:
            continue
        stack = [start]
        comp = {start}
        seen.add(start)
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in comp:
                    comp.add(u)
                    seen.add(u)
                    stack.append(u)
        n_edges = sum(1 for a, b in edge_set if a in comp)
        cyc = all(len(adj[v]) == 2 for v in comp)
        comps.append((min(idx[v] for v in comp), CycleComponent(len(comp), n_edges, cyc)))
    comps.sort(key=lambda t: t[0])
    return CycleScan(tuple(c for _, c in comps))


def is_triangle_free(g: Graph) -> bool:
    for a, b in g.edges():
        if set(g.neighbors(a)) & set(g.neighbors(b)):
            return False
    return True


def min_valency(g: Graph) -> int:
    return min(g.degree(v) for v in g.vertices)


# -- isomorphism --------------------------------------------------------

def _refine_colors(adjs, colors_pair):
    """One round of simultaneous color refinement over both graphs."""
    signatures = []
    for adj, colors in zip(adjs, colors_pair):
        signatures.append(
            [
                (colors[v], tuple(sorted(colors[u] for u in adj[v])))
                for v in range(len(adj))
            ]
        )
    table = {}
    for sig_list in signatures:
        for sig in sig_list:
            if sig not in table:
                table[sig] = None
    for k, sig in enumerate(sorted(table)):
        table[sig] = k
    return [[table[sig] for sig in sig_list] for sig_list in signatures]


def graphs_isomorphic(g: Graph, h: Graph, max_vertices: int = DEFAULT_GRAPH_CAP) -> bool:
    """Exact isomorphism test by backtracking over refined color classes."""
    if len(g.vertices) > max_vertices or len(h.vertices) > max_vertices:
        raise CapExceeded(
            f"graph size exceeds cap {max_vertices}"
        )
    ng, nh = len(g.vertices), len(h.vertices)
    if ng != nh or g.edge_count != h.edge_count:
        return False
    gi, hi = g._index, h._index
    gadj = [frozenset(gi[u] for u in g.neighbors(v)) for v in g.vertices]
    hadj = [frozenset(hi[u] for u in h.neighbors(v)) for v in h.vertices]
    colors = [[len(a) for a in gadj], [len(a) for a in hadj]]
    while True:
        new = _refine_colors([gadj, hadj], colors)
        if new == colors:
            break
        colors = new
    gcol, hcol = colors
    if sorted(gcol) != sorted(hcol):
        return False

    by_color: dict = {}
    for v, c in enumerate(hcol):
        by_color.setdefault(c, []).append(v)

    n = ng
    mapping = [-1] * n
    used = [False] * n

    def pick_next(assigned):
        # prefer vertices with many already-mapped neighbours, then rare colors
        best, best_key = -1, None
        for v in range(n):
            if mapping[v] != -1:
                continue
            anchored = sum(1 for u in gadj[v] if mapping[u] != -1)
            key = (-anchored, len(by_color.get(gcol[v], ())), v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        return best

    def extend(assigned):
        if assigned == n:
            return True
        v = pick_next(assigned)
        for w in by_color.get(gcol[v], ()):
            if used[w]:
                continue
            ok = True
            for u in range(n):
                mu = mapping[u]
                if mu == -1:
                    continue
                if (u in gadj[v]) != (mu in hadj[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(assigned + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    return extend(0)

