import itertools
import random

from crown.graphs import Graph, graph_new
from crown.linalg import Matrix
from crown.loday import NatTransData


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
