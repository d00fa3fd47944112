"""Truncated tensor-power representations of the surjection category.

Objects are the sets {1..p} for p up to a truncation level r, morphisms
are surjective maps.  An algebra A is turned into a representation by
sending {1..p} to the tensor power A^(x)p and a surjection s to the map
that multiplies together the tensor factors lying over each target
element.  `loday_matrix` realizes those maps in the fixed lexicographic
tensor basis, in factored form: the Kronecker product of one
multiplication map per fibre of s (one `kron_sum` call), with its columns
reindexed by the permutation that puts the input tensor positions into
fibre order.  Surjections with the same fibre sizes share that product
(`_LodayCache`).

`functor_check` builds no Loday matrix: the laws hold at every level r
exactly when A is commutative (which `Algebra` is by construction) and,
for r >= 3, associative, and associativity is compared on the basis
triples where either side can be nonzero.

Acting sign words on the strip and crown graphs and applying the graph
algebra construction gives each word an integer row map
(`graph_algebra.sign_rows`), and every monoid-algebra element supported on
a hom-set of the sign action a family of matrices between tensor powers:
at power p, the sum over words of the coefficient times the p-th
Kronecker power of the word's matrix, its power family of
(coefficient, row map) pairs (`_word_rows`).

By the mixed-product rule every identity between such families is a sum
of p-th powers of p = 1 products, so it holds at every power where its
terms cancel at p = 1: each word's transport square F_s C_w = B_w F_t
(`_word_square`), a comparison of row maps, proves `transport_square_check`
and iso's composites (M_w M_w' = M_(w w'), so x's is x.x's family)
without a walk.  Elsewhere one streamed walk over row tuples,
`tensor_sum_prefixes`, decides a power family of row maps at every
p <= r; its witness is the family's row-major first nonzero entry.  The
annihilation statement, on the strip for `lemma` and on each crown for
iso's alternating family, is proved at every p <= n - 1 by one
certificate on the algebra's word row maps (`alternating_certificate`):
each of Z's words g_S acts as I - sum_(i in S) Delta_i, the
Delta_i = I - M_(g_i) with disjoint row supports, and inclusion-exclusion
leaves only the tensor tuples that cover 1..n.  The families of T and of
the control follow from x.x = a[1] + bZ, the family map being linear.
`lemma_check` keeps the walk as the exact zero test at any p.
Naturality is certified per word row map (`rows_multiplicative`) and
ranks are read off row maps (`rows_rank`), so only export turns a row map
into a `Matrix` or materializes a family; `explore` reads the alternating
family's witness and exact nonzero count at every p <= n from one walk.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field

from .errors import CapExceeded, HomSetViolation
from .fields import QQ
from .graph_algebra import Algebra, _units, q_rows, q_ungraded, rows_compose, rows_equal, rows_matrix
from .graph_algebra import rows_multiplicative, rows_rank, sign_rows
from .graphs import build_B, build_C
from .linalg import Matrix, _reduced, kron_sum, tensor_sum_prefixes
from .monoid import MonoidAlgElem, Word, act_on_U, alternating_factors, build_T, build_Z, factored_square, homset_member, twist_factors

DEFAULT_SURJECTION_CAP = 6
DEFAULT_TENSOR_CAP = 200_000


@dataclass(frozen=True)
class Surjection:
    """A surjective map {1..p} -> {1..q}; images are 1-based."""

    p: int
    q: int
    images: tuple

    def __post_init__(self):
        if self.q < 1 or self.p < self.q:
            raise ValueError(f"no surjections {self.p} -> {self.q}")
        if len(self.images) != self.p:
            raise ValueError("image tuple has wrong length")
        if set(self.images) != set(range(1, self.q + 1)):
            raise ValueError("map is not surjective onto 1..q")

    @classmethod
    def identity(cls, p):
        return cls(p, p, tuple(range(1, p + 1)))

    def preimages(self, j):
        return [i for i, im in enumerate(self.images, start=1) if im == j]

    def __repr__(self):
        return f"Surjection({self.p}->{self.q}: {','.join(map(str, self.images))})"


def surjections(p: int, q: int, max_p: int = DEFAULT_SURJECTION_CAP):
    """All surjections {1..p} -> {1..q} in lexicographic image order."""
    if p < 1 or q < 1:
        raise ValueError("object sizes must be >= 1")
    if p > max_p:
        raise CapExceeded(f"object size {p} exceeds cap {max_p}")
    if q > p:
        return []
    out = []
    for images in itertools.product(range(1, q + 1), repeat=p):
        if len(set(images)) == q:
            out.append(Surjection(p, q, images))
    return out


def surj_compose(t: Surjection, s: Surjection) -> Surjection:
    """The composite t after s."""
    if s.q != t.p:
        raise ValueError(f"size mismatch: {s.q} != {t.p}")
    return Surjection(s.p, t.q, tuple(t.images[j - 1] for j in s.images))


class _LodayCache:
    """The Loday matrices of one algebra, each built once from shared parts.

    With b_1..b_q the fibres of s, the matrix of s is
    (mu_|b_1| (x) ... (x) mu_|b_q|) . P_s, where mu_k: A^(x)k -> A is the
    product of k tensor factors and P_s reorders the input tensor positions
    into fibre order (each fibre's positions ascending).  P_s only
    reindexes columns, so every surjection with the same fibre sizes shares
    one `kron_sum` product.  The cache keeps mu_k by k, each product by its
    size tuple and each matrix by surjection; they share column dicts,
    which are never mutated.
    """

    def __init__(self, alg, max_tensor_dim):
        self.alg = alg
        self.cap = max_tensor_dim
        self._mus: dict = {}
        self._products: dict = {}
        self._mats: dict = {}

    def _mu(self, k: int) -> Matrix:
        """mu_k, whose column of (k_1..k_k) is e_k1 * ... * e_kk left to right.

        mu_k extends mu_(k-1) by one factor, so each prefix product is
        computed once, and an empty one stays empty.
        """
        m = self._mus.get(k)
        if m is None:
            a = self.alg
            one = a.field.one
            if k == 1:
                cols = [{i: one} for i in range(a.dim)]
            else:
                cols = [a.mult(v, {j: one}) if v else v for v in self._mu(k - 1)._cols for j in range(a.dim)]
            m = self._mus[k] = Matrix(a.field, a.dim, len(cols), cols)
        return m

    def _product(self, sizes: tuple) -> Matrix:
        m = self._products.get(sizes)
        if m is None:
            m = self._products[sizes] = kron_sum([(self.alg.field.one, [self._mu(k) for k in sizes])])
        return m

    def _layout(self, s: Surjection) -> tuple:
        """The fibre sizes of s and the column index of L(s) in their product, as slices.

        Input position i is digit fibre_order.index(i) of a product column;
        the last one runs fastest in L(s), so each d columns are one strided slice.
        """
        d = self.alg.dim
        if d ** max(s.p, s.q) > self.cap:
            raise CapExceeded(f"tensor dimension {d}^{max(s.p, s.q)} exceeds cap {self.cap}")
        fibres = [s.preimages(j) for j in range(1, s.q + 1)]
        fibre_order = [i for fibre in fibres for i in fibre]
        weights = [d ** (s.p - 1 - fibre_order.index(i)) for i in range(1, s.p + 1)]
        starts = [0]
        for weight in weights[:-1]:
            digits = [k * weight for k in range(d)]
            starts = [c + k for c in starts for k in digits]
        step = weights[-1]
        return tuple(map(len, fibres)), [slice(c, c + d * step, step) for c in starts]

    def mat(self, s: Surjection) -> Matrix:
        m = self._mats.get(s)
        if m is None:
            sizes, index = self._layout(s)
            product = self._product(sizes)
            m = self._mats[s] = Matrix(self.alg.field, product.nrows, product.ncols, _gather(product._cols, index))
        return m


def _gather(cols: list, index: list) -> list:
    """The columns that the slices of `index` pick from `cols`, in order."""
    out = []
    for part in index:
        out += cols[part]
    return out


def loday_matrix(a: Algebra, s: Surjection, max_tensor_dim: int = DEFAULT_TENSOR_CAP) -> Matrix:
    """Matrix of the factor-multiplication map A^(x)p -> A^(x)q under s.

    The Kronecker product of one multiplication map per fibre of s, with
    its columns reindexed into fibre order (see `_LodayCache`); the column
    of (k_1..k_p) is the product's column of the same factors read in
    fibre order.
    """
    return _LodayCache(a, max_tensor_dim).mat(s)


def functor_check(a: Algebra, r: int) -> bool:
    """Whether the Loday matrices respect identities and surjection composition up to level r.

    Decided from the structure table, with no Loday matrix built.
    L(id_p) = mu_1^(x)p = I by construction.  The laws at r = 2 hold
    exactly when A is commutative (L(merge) L(swap) = L(merge)), which
    `Algebra` is by construction: its table is keyed by unordered pairs.
    The laws at r = 3 force associativity, since mu_3 is the left-to-right
    product: L(merge) L(1,1,2) = mu_3 = L(merge) L(1,2,2) is
    (e_i e_j) e_k = e_i (e_j e_k).  Conversely, by generalized
    associativity and commutativity the product of a multiset of factors
    depends neither on order nor on bracketing, so multiplying within the
    fibres of s and then within the fibres of t gives the product over each
    fibre of t s: L(t s) = L(t) L(s) for every composable pair at every r.
    Only candidate triples are compared, those where either side can be
    nonzero; every other triple is zero on both sides.  By commutativity
    the equation at (i, j, k) is the equation at (k, j, i), whose left side
    (e_k e_j) e_i is e_i (e_j e_k), so it is enough to take the triples
    whose left side can be nonzero: e_u e_k != 0 for some u in
    supp(e_i e_j).
    """
    if r < 3:
        return True
    one = a.field.one
    partners: dict = {}  # basis index u -> the k with e_u e_k != 0
    for (i, j), prod in a._table.items():
        if prod:
            partners.setdefault(i, set()).add(j)
            partners.setdefault(j, set()).add(i)
    candidates = {
        (i, j, k)
        for i, js in partners.items()
        for j in js
        for u in a.product_basis(i, j)
        for k in partners.get(u, ())
    }
    return all(
        a.mult(a.product_basis(i, j), {k: one}) == a.mult({i: one}, a.product_basis(j, k))
        for i, j, k in candidates
    )


@dataclass
class NatTransData:
    """A family of matrices between tensor powers of two algebras.

    `components[p]` maps source^(x)p to target^(x)p for p = 1..r.
    """

    r: int
    source: Algebra
    target: Algebra
    components: dict

    def to_json(self):
        f = self.source.field
        comps = []
        for p in range(1, self.r + 1):
            m = self.components[p]
            comps.append([[r, c, f.scalar_to_json(v)] for r, c, v in m.to_triples()])
        return {
            "r": self.r,
            "dims": [self.source.dim, self.target.dim],
            "components": comps,
        }


def _action_rows(n: int, w: Word, s, target: str) -> tuple:
    """Row map of the induced algebra map of one word's action: on the strip for "B", from the s-crown for "C"."""
    g, h = (build_B(n), build_B(n)) if target == "B" else (build_C(n, s)[0], build_C(n, act_on_U(w, s))[0])
    return sign_rows(g, h, w.coords)


@functools.cache
def _projection_rows(n: int, s: int) -> tuple:
    """Row map of the projection matrix F_s, from the s-crown's algebra to the strip's."""
    return q_rows(build_C(n, s)[1])


def _word_rows(n: int, x: MonoidAlgElem, s: int, t: int, target: str):
    """The (coefficient, word row map) pairs of x in word order, each built when it is reached.

    For target "B" the row maps act on the strip algebra (signs are
    ignored); for target "C" x must be supported on the (s -> t) hom-set,
    and the row maps map the t-crown algebra to the s-crown one.
    """
    if x.n != n:
        raise ValueError(f"level mismatch: element has level {x.n}, expected {n}")
    if target not in ("B", "C"):
        raise ValueError(f"unknown target {target!r}")
    if target == "C" and not homset_member(x, s, t):
        raise HomSetViolation(f"element is not supported on the {s}->{t} hom-set")
    return ((x.terms[w], _action_rows(n, w, s, target)) for w in sorted(x.terms, key=Word.sort_key))


def cofunctor_eval(
    n: int,
    r: int,
    x: MonoidAlgElem,
    s: int,
    t: int,
    target: str = "C",
    max_tensor_dim: int = DEFAULT_TENSOR_CAP,
) -> NatTransData:
    """Materialize x's family of tensor-power maps for p = 1..r.

    Targets and signs are as for `_word_rows`.  Each component is one
    `kron_sum` call over the word matrices, which never materializes a
    single word's power.  Only export needs the materialized family; every
    other question about a family is a streamed walk over its word row
    maps.
    """
    field = x.field
    if target == "B":
        alg_src = alg_tgt = q_ungraded(build_B(n), field)
    else:
        alg_src = q_ungraded(build_C(n, t)[0], field)
        alg_tgt = q_ungraded(build_C(n, s)[0], field)
    # the zero element has no words; its family is the powers of the zero map
    words = [(c, rows_matrix(field, rows)) for c, rows in _word_rows(n, x, s, t, target)]
    words = words or [(field.zero, Matrix.zero(field, alg_tgt.dim, alg_src.dim))]
    _check_tensor_cap(r, (alg_src, alg_tgt), max_tensor_dim)
    components = {p: kron_sum([(c, [m] * p) for c, m in words]) for p in range(1, r + 1)}
    return NatTransData(r, alg_src, alg_tgt, components)


def _check_tensor_cap(r: int, algebras, max_tensor_dim: int) -> None:
    """CapExceeded when some algebra's dim^r is over the cap."""
    for a in algebras:
        if a.dim ** r > max_tensor_dim:
            raise CapExceeded(f"tensor dimension {a.dim}^{r} exceeds cap {max_tensor_dim}")


# -- the annihilation statement ----------------------------------------

def lemma_witness(n: int, p: int, field=QQ):
    """Witness that the alternating family is nonzero at tensor power p, or None.

    The family is the strip-side family of the alternating element
    Z = (1 - [g_1])...(1 - [g_n]): the sum over its words, one per subset S
    of the idempotent generators with coefficient (-1)^|S|, of the p-th
    Kronecker power of the word's strip-algebra matrix.  One walk of
    `tensor_sum_prefixes` over the words' strip row maps decides it
    without materializing an operator; past its work budget it raises
    `CapExceeded`.
    """
    if p < 1:
        raise ValueError("tensor power must be >= 1")
    *_, (witness, _) = tensor_sum_prefixes(field, list(_word_rows(n, build_Z(n, field), 1, 1, "B")), p)
    return witness


def lemma_check(n: int, p: int, field=QQ) -> bool:
    """Exact-zero verification of the annihilation statement at power p, by the walk."""
    return lemma_witness(n, p, field) is None


def alternating_certificate(z: MonoidAlgElem, rows):
    """None where word row maps prove Z's family zero at every power p < n, else a witness.

    z is Z = (1 - [g_1])...(1 - [g_n]) and `rows(w)` word w's row map on
    one algebra: the strip, or a crown, on which Z's words act s -> s.  A
    word w gives the subset S(w) = {i : w_2i = 0}, and M_(g_i) is the row
    map of Z's word of subset {i}.  The checks, in order, each with its witness:
    (1) Z's words give each subset S of 1..n exactly once, with
    coefficient (-1)^|S|;
    (2) the Delta_i = I - M_(g_i) have pairwise disjoint row supports;
    (3) each word's row map is I - sum_(i in S) Delta_i, which by (2) is
    the identity with Delta_i's rows replaced by M_(g_i)'s for i in S,
    compared with weights reduced into the field.
    Then Z^(p) = sum_S (-1)^|S| (X_0 + sum_(i in S) X_i)^(x)p, X_0 = I and
    X_i = -Delta_i.  Expanded over the tuples J in ({0} u S)^p, the sum
    over the S that contain J's entries vanishes unless they cover 1..n,
    so Z^(p) = (-1)^n sum_J (x)_k X_(J_k) over the J in {0..n}^p that
    cover 1..n, and no J does for p < n.  No walk and no product runs.
    """
    n, field = z.n, z.field

    def name(s):  # a subset, held as the bit mask sum of 2^(i - 1) over its i
        return "{" + ", ".join(str(i) for i in range(1, n + 1) if s >> (i - 1) & 1) + "}"

    words: dict = {}  # subset S -> Z's word of S
    for w in sorted(z.terms, key=Word.sort_key):
        s = sum(1 << (i - 1) for i in range(1, n + 1) if w.coords[2 * i - 1] == 0)
        if s in words:
            return f"words {words[s]} and {w} of Z give one subset {name(s)}"
        if z.terms[w] != (field.neg(field.one) if s.bit_count() % 2 else field.one):
            return f"word {w} of Z has coefficient {z.terms[w]}, not (-1)^{s.bit_count()}"
        words[s] = w
    missing = next((s for s in range(2 ** n) if s not in words), None)
    if missing is not None:
        return f"no word of Z gives the subset {name(missing)}"

    generators = [_reduced(rows(words[1 << i]), field) for i in range(n)]  # g_(i + 1)
    units = _units(len(generators[0]))
    owner: dict = {}  # row -> the i - 1 whose Delta_i is nonzero there
    for i, g in enumerate(generators):
        for r in (r for r, e in enumerate(g) if e != units[r]):
            if owner.setdefault(r, i) != i:
                return f"Delta_{owner[r] + 1} and Delta_{i + 1} share row {r}"
    for s, w in words.items():
        if s.bit_count() == 1:  # I - Delta_i is M_(g_i) itself
            continue
        expected = list(units)
        for r, i in owner.items():
            if s >> i & 1:
                expected[r] = generators[i][r]
        expected, got = tuple(expected), rows(w)
        if got != expected and (got := _reduced(got, field)) != expected:
            r = next((r for r, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
            return f"word {w} differs from I - sum of Delta_i, i in {name(s)}, at row {r}"
    return None


# -- transport squares and the crown isomorphism -------------------------

def _word_square(n: int, s: int, t: int, b: tuple, c: tuple, field) -> bool:
    """Whether a word's p = 1 transport square F_s C_w = B_w F_t holds, s -> t its hom-set, B_w = b and C_w = c."""
    return rows_equal(rows_compose(_projection_rows(n, s), c), rows_compose(b, _projection_rows(n, t)), field)


def _transport_products(n: int, x: MonoidAlgElem, s: int, t: int) -> list:
    """The (c_w, B_w F_t) and (-c_w, F_s C_w) row maps of x's words, B strip and C crown."""
    f_s, f_t, field = _projection_rows(n, s), _projection_rows(n, t), x.field
    strip = [(c, rows_compose(b, f_t)) for c, b in _word_rows(n, x, s, t, "B")]
    return strip + [(field.neg(c), rows_compose(f_s, m)) for c, m in _word_rows(n, x, s, t, "C")]


def _zero_powers(field, family: list, r: int) -> list:
    """Whether a power family of row maps is zero at each power p = 1..r, up to its first nonzero."""
    zeros = list(itertools.takewhile(bool, (witness is None for witness, _ in tensor_sum_prefixes(field, family, r))))
    return zeros if len(zeros) == r else zeros + [False]  # the walk stopped at its first nonzero power


def _transport_verdict(n: int, r: int, x: MonoidAlgElem, s: int, t: int) -> tuple:
    """(`transport_square_check`'s verdict, whether it walked), holding one word's row maps at a time."""
    pairs = zip(_word_rows(n, x, s, t, "C"), _word_rows(n, x, s, t, "B"))
    if all(_word_square(n, s, t, b, c, x.field) for (_, c), (_, b) in pairs):
        return True, False
    return all(_zero_powers(x.field, _transport_products(n, x, s, t), r)), True


def transport_square_check(n: int, r: int, x: MonoidAlgElem, s: int, t: int) -> bool:
    """Whether the strip and crown families commute with the projections.

    At each power p <= r the strip-side component after F_t^(x)p must
    equal F_s^(x)p after the crown-side component, F the projection
    matrices: the family sum_w c_w ((B_w F_t)^(x)p - (F_s C_w)^(x)p) = 0.
    Where each word's p = 1 square holds every term is zero, so no walk
    runs; where one fails the sum can still cancel, and one walk decides it.
    """
    return _transport_verdict(n, r, x, s, t)[0]


@dataclass
class IsoReport:
    """Outcome of the mutual-inverse verification at truncation n-1."""

    n: int
    r: int
    field_name: str
    homset_ok: bool
    certified_ok: object  # every word matrix is an algebra map; None when not attempted
    inverse_ok: bool
    z_component_zero: bool
    factored_identity_ok: bool
    witness: dict = dc_field(default_factory=dict)
    control: object = None  # on the twist element's report: the alternating element's, which must fail

    @property
    def status(self):
        claims = (self.homset_ok, self.certified_ok, self.inverse_ok, self.z_component_zero, self.factored_identity_ok)
        return "FAIL" if any(ok is False for ok in claims) else "PASS"


def _decomposition(square: MonoidAlgElem, z: MonoidAlgElem):
    """(a, b) with `square` = a[1] + bZ exactly, z being Z, or None: b read off Z's last word, a off the identity."""
    f, last = z.field, max(z.terms, key=Word.sort_key)
    b = f.mul(square.terms.get(last, f.zero), f.inv(z.terms[last]))
    rest = square - z.scale(b)
    a = rest.terms.get(Word.identity(z.n), f.zero)
    return (a, b) if rest == MonoidAlgElem.one(f, z.n).scale(a) else None


def _closed_form(field, decomposition, k: int, alt_zero: list, r: int):
    """Whether (a - 1)I^(x)p + (b + k)Z^(p), (a, b) the decomposition, is zero at p <= r from Z's `alt_zero`; None if undecided.

    Both lists stop at their first nonzero.  Where Z^(p) = 0 the sum is (a - 1)I^(x)p.
    """
    if decomposition is None:
        return None
    u, v = field.sub(decomposition[0], field.one), field.add(decomposition[1], field.from_int(k))
    if v == field.zero:
        return [True] * r if u == field.zero else [False]
    if u == field.zero:
        return alt_zero
    return [False] if alt_zero[0] else None


class _CrownFamilies:
    """iso's families at level n: crown row maps once per (word, sign), strip row maps and squares once per word.

    Z's family on each sign s is zero at every power p <= n - 1 where
    `alternating_certificate` holds on the s-crown's row maps, and walked
    on that sign alone where it fails (`alt_zero`).
    """

    def __init__(self, n: int, field, max_tensor_dim: int):
        self.n, self.field = n, field
        self.crowns = {s: q_ungraded(build_C(n, s)[0], field) for s in (1, -1)}
        _check_tensor_cap(1, self.crowns.values(), max_tensor_dim)  # before any word matrix or walk
        self.rows = functools.cache(lambda w, s: _action_rows(n, w, s, "C"))
        self.injective = {s: rows_rank(_projection_rows(n, s), field) == self.crowns[s].dim for s in (1, -1)}
        self.z = build_Z(n, field)

        @functools.cache
        def squares(w):  # the p = 1 transport squares on both signs s, t = w.s
            b = _action_rows(n, w, None, "B")  # B_w: the same on both signs, and not kept
            return {s: _word_square(n, s, act_on_U(w, s), b, self.rows(w, s), field) for s in (1, -1)}
        self.square = lambda w, s: squares(w)[s]
        self.alt_zero = {
            s: [True] * (n - 1) if alternating_certificate(self.z, lambda w: self.rows(w, s)) is None
            else _zero_powers(field, self.terms(self.z, s), n - 1)
            for s in (1, -1)
        }

    def terms(self, x: MonoidAlgElem, s: int) -> list:
        """The (coefficient, crown row map) pairs of x on the s-crown in word order: its power family."""
        return [(x.terms[w], self.rows(w, s)) for w in sorted(x.terms, key=Word.sort_key)]

    def premise(self, x: MonoidAlgElem, square: MonoidAlgElem, s: int, t: int) -> bool:
        """Whether each word of x on s and t, and of `square` = x.x on s, has its p = 1 square, F_s injective.

        Then C_w C_w' = C_(w w'): F_s C_w C_w' = B_w F_t C_w' = B_w B_w' F_s = F_s C_(w w'), as B_w B_w' = B_(w w').
        """
        checks = ((s, x.terms), (t, x.terms), (s, square.terms))
        return self.injective[s] and all(self.square(w, sign) for sign, words in checks for w in words)

    def report(self, x: MonoidAlgElem, square: MonoidAlgElem) -> IsoReport:
        """The sub-claims and naturality of x's two families, x.x = `square`, as `iso_check` describes them."""
        n, field, r, crowns = self.n, self.field, self.n - 1, self.crowns
        targets = {s: act_on_U(min(x.terms, key=Word.sort_key), s) for s in (1, -1)}
        off = next((s for s in (1, -1) if not homset_member(x, s, targets[s])), None)
        if off is not None or targets[targets[1]] != 1:
            reason = f"support not constant on sign {off}" if off else "families do not cross back"
            return IsoReport(n, r, field.name, False, False, False, False, False, {"homset": reason})

        witness: dict = {}
        decomposition = _decomposition(square, self.z)
        for s in (1, -1):
            inverse_zero = factored_zero = [False]  # a failed premise decides p = 1 only
            if self.premise(x, square, s, targets[s]):
                units = _units(crowns[s].dim)
                inverse = self.terms(square, s) + [(field.neg(field.one), units)]
                # x.x = a[1] + bZ, [1]'s family I^(x)p: inverse (a - 1)I^(x)p + bZ^(p), factored (a - 1)I^(x)p + (b + 1)Z^(p)
                linear = decomposition if rows_equal(self.rows(Word.identity(n), s), units, field) else None
                inverse_zero = _closed_form(field, linear, 0, self.alt_zero[s], r) or _zero_powers(field, inverse, r)
                factored_zero = _closed_form(field, linear, 1, self.alt_zero[s], r) or _zero_powers(
                    field, inverse + self.terms(self.z, s), r)
            for p, (inv, fac) in enumerate(itertools.zip_longest(inverse_zero, factored_zero, fillvalue=True), 1):
                if not inv:
                    witness.setdefault("inverse", f"composite on sign {s} differs at power {p}")
                if not fac:
                    witness.setdefault("factored", f"composite on sign {s} power {p} breaks the factored identity")
        if not all(all(self.alt_zero[s]) for s in (1, -1)):
            witness["z_component"] = "alternating-element family is not zero"

        claims = tuple(key not in witness for key in ("inverse", "z_component", "factored"))
        if not all(claims):
            # the status is FAIL already; the certificate would only cost time
            return IsoReport(n, r, field.name, True, None, *claims, witness)
        certified_ok = True
        for s in (1, -1):
            graphs = build_C(n, s)[0], build_C(n, targets[s])[0]
            for k, (_, rows) in enumerate(self.terms(x, s)):
                if not rows_multiplicative(*graphs, rows, field):
                    certified_ok = False
                    witness.setdefault(f"certificate_{s}", f"word matrix {k} on sign {s} is not an algebra map")
        return IsoReport(n, r, field.name, True, certified_ok, *claims, witness)


def iso_check(n: int, field=QQ, max_tensor_dim: int = DEFAULT_TENSOR_CAP) -> IsoReport:
    """Verify the two crossing crown maps are natural and mutually inverse, and the control is not.

    The families of the twist element T run between the two crowns and must
    be mutually inverse at every power p <= n-1.  On each sign s crossing to
    t their composite is the family of x.x (`monoid.factored_square`) under
    one premise checked per word (`_CrownFamilies.premise`): the p = 1
    transport square F_s C_w = B_w F_t, F the projections and B and C the
    strip and crown word matrices, for x's words on both signs and x.x's
    on s, with F_s injective (`rows_rank`).  The sub-claims are families of
    word matrices: inverse, x.x's words and -I; factored identity, the same
    plus Z's words on s; alternating, Z's words alone.  The last is zero at
    every power on s, unwalked, where `alternating_certificate` holds on
    the s-crown's row maps, and walked on s alone where it fails.  Where
    x.x = a[1] + bZ exactly and the identity word's crown row map on s is
    the identity, the family map is linear in x: the inverse family is
    (a - 1)I^(x)p + bZ^(p) and
    the factored one (a - 1)I^(x)p + (b + 1)Z^(p), decided from Z's
    verdicts (`_closed_form`) for T (a, b = 1, -1) and for the control Z
    (Z.Z = Z, 0 and 1, reported as `control`, which must fail).  Elsewhere
    each is one walk, stopped at its first nonzero power.  A failed premise
    fails inverse and factored on its sign at p = 1.

    Naturality is not attempted after a failed sub-claim.  It is certified
    at every p by one `rows_multiplicative` call per word row map, an
    algebra map exactly where its matrix M_w is:
    M_w mu_2 = mu_2 (M_w (x) M_w) gives M_w mu_k = mu_k M_w^(x)k by
    induction on k, Kronecker powers commute with reordering the input
    positions, and sums of natural families are natural.  No family is
    materialized; the status is PASS or FAIL.  The cap bounds iso's crown
    word matrices, at p = 1: a crown dimension over `max_tensor_dim` raises
    `CapExceeded` before any word matrix or walk.
    """
    if n < 2:
        raise ValueError("crown checks need level >= 2")
    families = _CrownFamilies(n, field, max_tensor_dim)
    report = families.report(build_T(n, field), factored_square(n, field, twist_factors(n)))
    report.control = families.report(families.z, factored_square(n, field, alternating_factors(n)))
    return report
