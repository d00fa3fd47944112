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

`functor_check` tests composition only against generators: adjacent
swaps and merges generate all surjections, so L(g s) = L(g) L(s) for each
generator g and every s gives L(t s) = L(t) L(s) by induction on t.

Acting sign words on the strip and crown graphs and applying the graph
algebra construction gives, for every monoid-algebra element supported on
a hom-set of the sign action, a family of matrices between tensor powers:
at power p, the sum over words of the coefficient times the p-th
Kronecker power of the word's matrix (`_word_terms`), linear in the
monoid algebra and never inside a tensor power.

By the mixed-product rule every identity between such families -- the
annihilation statement (`lemma_check`), the transport squares along the
projections (`transport_square_check`) and the mutual inverses between
the two crowns built from the twist element (`iso_check`) -- is a sum of
p-th powers of p = 1 matrices.  The walk over the r-th powers passes
through every lower power, so one streamed walk, `tensor_sum_prefixes`,
decides each family at every p <= r.  Naturality is certified per word:
each word matrix is an algebra map, so every family is natural at every
power.  `cofunctor_eval` materializes a family only for export and for
the naturality squares `iso_check` cross-checks at p <= 2; the harness's
`explore` reads the alternating family's witness and exact nonzero count
at every p <= n from the same one walk, without building it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .errors import CapExceeded, HomSetViolation
from .fields import QQ
from .graph_algebra import Algebra, is_multiplicative, q_hom, q_ungraded
from .graphs import act_on_B, act_on_C, build_B, build_C, build_F, morphism_new
from .linalg import (
    Matrix,
    kron_sum,
    left_inverse,
    mat_compose,
    mat_rank,
    tensor_product_sum_witness,
    tensor_sum_prefixes,
    vstack,
)
from .monoid import MonoidAlgElem, Word, act_on_U, build_T, build_Z, gen_g, homset_member

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


def _generating_surjections(q: int) -> list:
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

    def mat(self, s: Surjection) -> Matrix:
        m = self._mats.get(s)
        if m is None:
            d = self.alg.dim
            if d ** max(s.p, s.q) > self.cap:
                raise CapExceeded(f"tensor dimension {d}^{max(s.p, s.q)} exceeds cap {self.cap}")
            fibres = [s.preimages(j) for j in range(1, s.q + 1)]
            fibre_order = [i for fibre in fibres for i in fibre]
            product = self._product(tuple(len(fibre) for fibre in fibres))
            # input position i is digit fibre_order.index(i) of the product's column index
            index = [0]
            for i in range(1, s.p + 1):
                weight = d ** (s.p - 1 - fibre_order.index(i))
                index = [c + k * weight for c in index for k in range(d)]
            cols = product._cols
            m = self._mats[s] = Matrix(self.alg.field, product.nrows, product.ncols, [cols[c] for c in index])
        return m


def loday_matrix(a: Algebra, s: Surjection, max_tensor_dim: int = DEFAULT_TENSOR_CAP) -> Matrix:
    """Matrix of the factor-multiplication map A^(x)p -> A^(x)q under s.

    The Kronecker product of one multiplication map per fibre of s, with
    its columns reindexed into fibre order (see `_LodayCache`); the column
    of (k_1..k_p) is the product's column of the same factors read in
    fibre order.
    """
    return _LodayCache(a, max_tensor_dim).mat(s)


def functor_check(a: Algebra, r: int, max_tensor_dim: int = DEFAULT_TENSOR_CAP) -> bool:
    """Whether the matrices respect identities and surjection composition.

    Adjacent swaps and merges generate all surjections, so given L(id) = I
    it suffices that L(g s) = L(g) L(s) for each generator g and every s:
    by induction on t = g_1...g_k, L(t) = L(g_1)...L(g_k) and L(t s) = L(t) L(s).
    """
    cache = _LodayCache(a, max_tensor_dim)
    for p in range(1, r + 1):
        if cache.mat(Surjection.identity(p)) != Matrix.identity(a.field, a.dim ** p):
            return False
    for p in range(1, r + 1):
        for q in range(1, p + 1):
            gens = _generating_surjections(q)
            for s in surjections(p, q):
                ms = cache.mat(s)
                for g in gens:
                    if cache.mat(surj_compose(g, s)) != mat_compose(cache.mat(g), ms):
                        return False
    return True


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


def naturality_witness(eta: NatTransData, max_tensor_dim: int = DEFAULT_TENSOR_CAP):
    """First failing square, or None when every square commutes.

    For a surjection s: p -> q the square compares eta_q after the source
    map with the target map after eta_p.
    """
    src = _LodayCache(eta.source, max_tensor_dim)
    tgt = _LodayCache(eta.target, max_tensor_dim)
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


def _action_matrix(n: int, w: Word, s, target: str, field) -> Matrix:
    """Matrix of the induced algebra map of the action of one word."""
    if target == "B":
        return q_hom(act_on_B(n, w), field)
    return q_hom(act_on_C(n, w, s), field)


def _word_terms(n: int, x: MonoidAlgElem, s: int, t: int, target: str) -> list:
    """The (coefficient, word matrix) pairs of x, in word order.

    For target "B" the matrices act on the strip algebra (signs are
    ignored); for target "C" x must be supported on the (s -> t) hom-set,
    and the matrices map the t-crown algebra to the s-crown one.
    """
    if x.n != n:
        raise ValueError(f"level mismatch: element has level {x.n}, expected {n}")
    if target not in ("B", "C"):
        raise ValueError(f"unknown target {target!r}")
    if target == "C" and not homset_member(x, s, t):
        raise HomSetViolation(f"element is not supported on the {s}->{t} hom-set")
    words = sorted(x.terms, key=Word.sort_key)
    return [(x.terms[w], _action_matrix(n, w, s, target, x.field)) for w in words]


def _power_terms(products, p: int) -> list:
    """The terms of  sum c * M^(x)p  over (c, M) pairs."""
    return [(c, [m] * p) for c, m in products]


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

    Targets and signs are as for `_word_terms`.  Each component is one
    `kron_sum` call over the words, which never materializes a single
    word's power.  Only export and the naturality squares at p <= 2 need
    the materialized family; every other question about a family is a
    streamed walk over its p = 1 word matrices.
    """
    field = x.field
    if target == "B":
        alg_src = alg_tgt = q_ungraded(build_B(n), field)
    else:
        alg_src = q_ungraded(build_C(n, t)[0], field)
        alg_tgt = q_ungraded(build_C(n, s)[0], field)
    if alg_src.dim ** r > max_tensor_dim or alg_tgt.dim ** r > max_tensor_dim:
        raise CapExceeded(
            f"tensor dimension {alg_src.dim}^{r} exceeds cap {max_tensor_dim}"
        )
    # the zero element has no words; its family is the powers of the zero map
    terms = _word_terms(n, x, s, t, target) or [(field.zero, Matrix.zero(field, alg_tgt.dim, alg_src.dim))]
    components = {p: kron_sum(_power_terms(terms, p)) for p in range(1, r + 1)}
    return NatTransData(r, alg_src, alg_tgt, components)


# -- the annihilation statement ----------------------------------------

def lemma_witnesses(n: int, r: int, field=QQ):
    """Yield, for p = 1..r in turn, a witness that the alternating family is nonzero at power p, or None.

    The family is the strip-side family of the alternating element
    Z = (1 - [g_1])...(1 - [g_n]): the sum over its words, one per subset S
    of the idempotent generators with coefficient (-1)^|S|, of the p-th
    Kronecker power of the word's strip-algebra matrix.  One walk of
    `tensor_sum_prefixes` decides every p <= r without materializing an
    operator; past its work budget it raises `CapExceeded`, after
    yielding the powers below.
    """
    if r < 1:
        raise ValueError("tensor power must be >= 1")
    words = _word_terms(n, build_Z(n, field), 1, 1, "B")
    for witness, _ in tensor_sum_prefixes(_power_terms(words, r), r):
        yield witness


def lemma_witness(n: int, p: int, field=QQ):
    """Witness that the alternating family is nonzero at tensor power p, or None."""
    *_, witness = lemma_witnesses(n, p, field)
    return witness


def lemma_check(n: int, p: int, field=QQ) -> bool:
    """Exact-zero verification of the annihilation statement at power p."""
    return lemma_witness(n, p, field) is None


@dataclass
class LemmaTrace:
    """Mechanized replay of the annihilation argument at a given power."""

    n: int
    p: int
    field_name: str
    e1_rank: int
    e1_cols: int
    left_inverse_verified: bool
    ep_rank: int
    ep_full_column_rank: bool
    intertwining_ok: bool
    tuples: list  # (index tuple, chosen missing index)
    missing_index_always_exists: bool
    off_window_identity_ok: bool
    summand_annihilation_ok: bool

    @property
    def passed(self):
        return (
            self.e1_rank == self.e1_cols
            and self.left_inverse_verified
            and self.ep_full_column_rank
            and self.intertwining_ok
            and self.missing_index_always_exists
            and self.off_window_identity_ok
            and self.summand_annihilation_ok
        )


def _window_action_matrix(n: int, i: int, w: Word, field) -> Matrix:
    """Matrix of the action of w restricted to window i (which is invariant)."""
    fg, _ = build_F(n, i)
    mapping = {(j, v): (j, w.coords[j - 1] * v) for (j, v) in fg.vertices}
    return q_hom(morphism_new(mapping, fg, fg), field)


def lemma_proof_trace(n: int, p: int, field=QQ) -> LemmaTrace:
    """Re-run the structural steps behind the annihilation statement.

    (i) the stacked window restrictions are injective on the strip algebra
    (full column rank, certified by an explicit left inverse; the tensor
    power inherits injectivity through the Kronecker mixed-product rule,
    which the linear-algebra suite tests separately);
    (ii) the stacked map intertwines the word actions, for every word of Z;
    (iii) every length-p index tuple misses some window index i, and g_i
    acts as the identity on all windows of the tuple, so the alternating
    element annihilates that summand -- re-verified by direct expansion:
    the sum over Z's words of the Kronecker product of the word's matrices
    on the tuple's windows is zero.
    """
    if not 1 <= p < n:
        raise ValueError("trace requires 1 <= p < n")
    incls = [build_F(n, i)[1] for i in range(1, n + 1)]
    restrictions = [q_hom(e, field) for e in incls]
    e1 = vstack(restrictions)
    e1_rank = mat_rank(e1)
    full = e1_rank == e1.ncols
    left_ok = False
    if full:
        left_inverse(e1)  # raises unless L @ e1 == identity
        left_ok = True

    # Z's words include every g_i, which the off-window step reads
    z = build_Z(n, field)
    window_mats = {(i, w): _window_action_matrix(n, i, w, field) for i in range(1, n + 1) for w in z.terms}
    # the stacked identity e1 . M_w == diag(W_i) . e1, read block by block
    intertwining_ok = True
    for w in z.terms:
        mb = _action_matrix(n, w, 1, "B", field)
        if any(
            mat_compose(e, mb) != mat_compose(window_mats[(i, w)], e)
            for i, e in enumerate(restrictions, start=1)
        ):
            intertwining_ok = False
            break

    off_window = [
        window_mats[(i_prime, gen_g(n, i))]
        for i in range(1, n + 1)
        for i_prime in range(1, n + 1)
        if i_prime != i
    ]
    off_window_ok = all(m == Matrix.identity(field, m.nrows) for m in off_window)

    tuples = []
    missing_ok = True
    for tup in itertools.product(range(1, n + 1), repeat=p):
        missing = next((i for i in range(1, n + 1) if i not in tup), None)
        if missing is None:
            missing_ok = False
        tuples.append((tup, missing))

    summands_ok = True
    for tup, _ in tuples:
        terms = [(c, [window_mats[(i, w)] for i in tup]) for w, c in z.terms.items()]
        if tensor_product_sum_witness(terms, p) is not None:
            summands_ok = False
            break

    return LemmaTrace(
        n=n,
        p=p,
        field_name=field.name,
        e1_rank=e1_rank,
        e1_cols=e1.ncols,
        left_inverse_verified=left_ok,
        ep_rank=e1_rank**p,
        ep_full_column_rank=full,
        intertwining_ok=intertwining_ok,
        tuples=tuples,
        missing_index_always_exists=missing_ok,
        off_window_identity_ok=off_window_ok,
        summand_annihilation_ok=summands_ok,
    )


# -- transport squares and the crown isomorphism -------------------------

def _transport_products(n: int, x: MonoidAlgElem, s: int, t: int) -> list:
    """The (c_w, B_w F_t) and (-c_w, F_s C_w) pairs of x's words, B strip and C crown."""
    field = x.field
    f_s = q_hom(build_C(n, s)[1], field)
    f_t = q_hom(build_C(n, t)[1], field)
    strip = _word_terms(n, x, s, t, "B")
    crown = _word_terms(n, x, s, t, "C")
    return [(c, mat_compose(m, f_t)) for c, m in strip] + [
        (field.neg(c), mat_compose(f_s, m)) for c, m in crown
    ]


def _zero_powers(terms, r: int) -> list:
    """Whether the family of `terms`, r-fold products, is zero at each power p = 1..r."""
    return [witness is None for witness, _ in tensor_sum_prefixes(terms, r)]


def transport_square_check(n: int, r: int, x: MonoidAlgElem, s: int, t: int) -> bool:
    """Whether the strip and crown families commute with the projections.

    At each power p <= r the strip-side component after F_t^(x)p must
    equal F_s^(x)p after the crown-side component, F the projection
    matrices.  By the mixed-product rule that is the family
    sum_w c_w (B_w F_t)^(x)p - sum_w c_w (F_s C_w)^(x)p = 0, decided at
    every p <= r by one walk.  Each word's square holds at p = 1, so the
    walk's merge cancels the sum.
    """
    products = _transport_products(n, x, s, t)
    return all(_zero_powers(_power_terms(products, r), r))


@dataclass
class IsoReport:
    """Outcome of the mutual-inverse verification at truncation n-1."""

    n: int
    r: int
    field_name: str
    element: str
    homset_ok: bool
    certified_ok: object  # every word matrix is an algebra map; None when not attempted
    squares_ok: object  # the naturality squares at p <= 2; None when not attempted
    inverse_ok: bool
    z_component_zero: bool
    factored_identity_ok: bool
    witness: dict = dc_field(default_factory=dict)
    skip_reason: str = ""

    @property
    def status(self):
        claims = (self.homset_ok, self.certified_ok, self.squares_ok, self.inverse_ok, self.z_component_zero,
                  self.factored_identity_ok)
        if any(ok is False for ok in claims):
            return "FAIL"
        return "SKIPPED" if self.squares_ok is None else "PASS"


def iso_check(
    n: int,
    field=QQ,
    element: str = "T",
    max_tensor_dim: int = DEFAULT_TENSOR_CAP,
) -> IsoReport:
    """Verify the two crossing crown maps are natural and mutually inverse.

    With the twist element (the default) the two families run between the
    two crowns and must be mutually inverse at every power p <= n-1.  For
    each sign s crossing to t, three sub-claims are families over p = 1
    products, each decided at every p by one walk: inverse,
    sum c_w c_w' (M_w M_w')^(x)p - I^(x)p over the s-words w and t-words
    w'; factored identity, the same terms plus the alternating-element
    words on s (composite = I - Z-family); and alternating family zero,
    those words alone.  The inverse terms are walked only when the other
    two families are both nonzero at some power.  With `element="Z"`
    (the negative control) the composites are zero, so the check must
    fail; naturality is not attempted after a failed sub-claim.

    Naturality at every p is certified by one `is_multiplicative` call per
    word matrix: M_w mu_2 = mu_2 (M_w (x) M_w) gives M_w mu_k = mu_k M_w^(x)k
    by induction on k, Kronecker powers commute with reordering the input
    positions, and sums of natural families are natural.  The squares are
    cross-checked at p <= min(n-1, 2) only; over `max_tensor_dim` they are
    not attempted and the status is SKIPPED, never PASS.
    """
    if n < 2:
        raise ValueError("crown checks need level >= 2")
    r = n - 1
    if element == "T":
        x = build_T(n, field)
    elif element == "Z":
        x = build_Z(n, field)
    else:
        raise ValueError(f"unknown element {element!r}")

    targets = {s: act_on_U(min(x.terms, key=Word.sort_key), s) for s in (1, -1)}
    off = next((s for s in (1, -1) if not homset_member(x, s, targets[s])), None)
    if off is not None or targets[targets[1]] != 1:
        reason = f"support not constant on sign {off}" if off else "families do not cross back"
        return IsoReport(n, r, field.name, element, False, False, False, False, False, False, {"homset": reason})

    witness: dict = {}

    z = build_Z(n, field)
    families = {s: _word_terms(n, x, s, targets[s], "C") for s in (1, -1)}
    minus_one = field.neg(field.one)
    z_zero = inverse_ok = factored_ok = True
    for s in (1, -1):
        t = targets[s]
        products = [(field.mul(c, c2), mat_compose(m, m2)) for c, m in families[s] for c2, m2 in families[t]]
        products.append((minus_one, Matrix.identity(field, products[0][1].nrows)))
        inverse = _power_terms(products, r)
        alternating = _power_terms(_word_terms(n, z, s, s, "C"), r)
        alt_zero = _zero_powers(alternating, r)
        factored_zero = _zero_powers(inverse + alternating, r)
        # inverse = factored - alternating: where either is zero, the inverse is zero iff both are
        decided = all(alt or fac for alt, fac in zip(alt_zero, factored_zero))
        inverse_zero = [a and f for a, f in zip(alt_zero, factored_zero)] if decided else _zero_powers(inverse, r)
        for p, (alt, inv, fac) in enumerate(zip(alt_zero, inverse_zero, factored_zero), start=1):
            z_zero = z_zero and alt
            if not inv:
                inverse_ok = False
                witness.setdefault("inverse", f"composite on sign {s} differs at power {p}")
            if not fac:
                factored_ok = False
                witness.setdefault(
                    "factored", f"composite on sign {s} power {p} breaks the factored identity"
                )
    if not z_zero:
        witness["z_component"] = "alternating-element family is not zero"

    claims = (inverse_ok, z_zero, factored_ok)
    if not all(claims):
        # the status is FAIL already; naturality would only cost time
        return IsoReport(n, r, field.name, element, True, None, None, *claims, witness, "a streamed sub-claim failed")
    crowns = {s: q_ungraded(build_C(n, s)[0], field) for s in (1, -1)}
    certified_ok = True
    for s in (1, -1):
        for k, (_, m) in enumerate(families[s]):
            if not is_multiplicative(crowns[targets[s]], crowns[s], m):
                certified_ok = False
                witness.setdefault(f"certificate_{s}", f"word matrix {k} on sign {s} is not an algebra map")
    squares_ok, skip_reason = True, ""
    try:
        for s in (1, -1):
            eta = cofunctor_eval(n, min(r, 2), x, s, targets[s], target="C", max_tensor_dim=max_tensor_dim)
            w = naturality_witness(eta, max_tensor_dim)
            if w is not None:
                squares_ok = False
                witness[f"naturality_{s}"] = w
    except CapExceeded as exc:
        squares_ok, skip_reason = None, f"cap exceeded: {exc}"
    return IsoReport(n, r, field.name, element, True, certified_ok, squares_ok, *claims, witness, skip_reason)
