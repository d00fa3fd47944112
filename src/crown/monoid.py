"""Sign words, their commutative monoid, and its monoid algebra.

A word of level n is a (2n+1)-tuple over {+1, -1, 0} in which every odd
position (1-based) is nonzero and no two adjacent entries multiply to -1,
i.e. the sign never flips without a 0 in between.  Words multiply
componentwise and form a commutative monoid with 2*3^n elements whose
identity is the all-+1 word.

The monoid algebra consists of finite formal sums of words with field
coefficients.  `build_T` and `build_Z` construct the two distinguished
elements satisfying T^2 = 1 - Z, and `act_on_U` / `homset_member` expose
the action of words on the two signs {+1, -1}: a word w carries s to
w_1 * w_{2n+1} * s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, RejectedWord

PLUS = 1
MINUS = -1

SIGN_CHAR = {1: "+", -1: "-", 0: "0"}
CHAR_SIGN = {"+": 1, "-": -1, "0": 0}

# deterministic coordinate order: +1 < -1 < 0
_LEX = {1: 0, -1: 1, 0: 2}

DEFAULT_LEVEL_CAP = 8


def _validate_coords(coords):
    if len(coords) < 3 or len(coords) % 2 == 0:
        raise ValueError(f"word length must be odd and >= 3, got {len(coords)}")
    for j, c in enumerate(coords, start=1):
        if c not in (1, -1, 0):
            raise ValueError(f"coordinate {j} not a sign: {c!r}")
        if j % 2 == 1 and c == 0:
            raise RejectedWord(j, "odd position must be nonzero")
        if j >= 2 and coords[j - 2] * c == -1:
            raise RejectedWord(j - 1, "adjacent entries multiply to -1")


@dataclass(frozen=True)
class Word:
    """An element of the level-n sign monoid; coords has length 2n+1."""

    coords: tuple

    def __post_init__(self):
        _validate_coords(self.coords)

    @property
    def n(self):
        return (len(self.coords) - 1) // 2

    @classmethod
    def identity(cls, n):
        return cls((1,) * (2 * n + 1))

    @classmethod
    def from_string(cls, text):
        return cls(tuple(CHAR_SIGN[ch] for ch in text))

    def sort_key(self):
        return tuple(_LEX[c] for c in self.coords)

    def __mul__(self, other):
        return word_mul(self, other)

    def __str__(self):
        return "".join(SIGN_CHAR[c] for c in self.coords)

    def __repr__(self):
        return f"Word({self})"


def word_mul(a: Word, b: Word) -> Word:
    if a.n != b.n:
        raise ValueError(f"level mismatch: {a.n} != {b.n}")
    return Word(tuple(x * y for x, y in zip(a.coords, b.coords)))


def _extend(prefixes):
    out = []
    for coords in prefixes:
        last = coords[-1]
        # next even entry is 0 or repeats the last sign; after a 0 the next
        # odd entry is free, otherwise it is forced
        out.append(coords + (0, 1))
        out.append(coords + (0, -1))
        out.append(coords + (last, last))
    return out


def wn_enumerate(n: int, max_level: int = DEFAULT_LEVEL_CAP):
    """All words of level n, each exactly once, sorted; count is 2*3^n."""
    if n < 1:
        raise ValueError("level must be >= 1")
    if n > max_level:
        raise CapExceeded(f"level {n} exceeds cap {max_level}")
    return _wn_enumerate_cached(n)


_WN_CACHE: dict = {}


def _wn_enumerate_cached(n):
    words = _WN_CACHE.get(n)
    if words is None:
        prefixes = [(1,), (-1,)]
        for _ in range(n):
            prefixes = _extend(prefixes)
        words = tuple(sorted((Word(c) for c in prefixes), key=Word.sort_key))
        _WN_CACHE[n] = words
    return words


def gen_g(n: int, i: int) -> Word:
    """All +1 with a 0 at position 2i."""
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    coords = [1] * (2 * n + 1)
    coords[2 * i - 1] = 0
    return Word(tuple(coords))


def gen_h(n: int, i: int) -> Word:
    """-1 at positions 1..2i-1, 0 at position 2i, +1 afterwards."""
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range 1..{n}")
    coords = [-1] * (2 * i - 1) + [0] + [1] * (2 * n + 1 - 2 * i)
    return Word(tuple(coords))


class MonoidAlgElem:
    """A finite formal sum of level-n words with nonzero field coefficients."""

    __slots__ = ("field", "n", "terms")

    def __init__(self, field, n, terms):
        self.field = field
        self.n = n
        self.terms = terms  # dict Word -> nonzero scalar; adopted, not copied

    @classmethod
    def zero(cls, field, n):
        return cls(field, n, {})

    @classmethod
    def one(cls, field, n):
        return cls(field, n, {Word.identity(n): field.one})

    @classmethod
    def from_word(cls, field, word, coeff=None):
        c = field.one if coeff is None else field.coerce(coeff)
        if c == field.zero:
            return cls.zero(field, word.n)
        return cls(field, word.n, {word: c})

    @classmethod
    def from_terms(cls, field, n, pairs):
        acc = cls.zero(field, n)
        for coeff, word in pairs:
            acc = acc + cls.from_word(field, word, coeff)
        return acc

    def _check_compatible(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.n != other.n:
            raise ValueError(f"level mismatch: {self.n} != {other.n}")

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self._check_compatible(other)
        f = self.field
        zero = f.zero
        terms = dict(self.terms)
        for w, v in other.terms.items():
            s = f.add(terms.get(w, zero), v)
            if s == zero:
                terms.pop(w, None)
            else:
                terms[w] = s
        return MonoidAlgElem(f, self.n, terms)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def scale(self, scalar):
        f = self.field
        scalar = f.coerce(scalar)
        if scalar == f.zero:
            return MonoidAlgElem.zero(f, self.n)
        return MonoidAlgElem(f, self.n, {w: f.mul(scalar, v) for w, v in self.terms.items()})

    def __mul__(self, other):
        """Convolution product: bilinear extension of word multiplication."""
        self._check_compatible(other)
        f = self.field
        zero = f.zero
        terms: dict = {}
        for wa, va in self.terms.items():
            for wb, vb in other.terms.items():
                w = word_mul(wa, wb)
                x = f.mul(va, vb)
                cur = terms.get(w)
                y = x if cur is None else f.add(cur, x)
                if y == zero:
                    terms.pop(w, None)
                else:
                    terms[w] = y
        return MonoidAlgElem(f, self.n, terms)

    def __eq__(self, other):
        if not isinstance(other, MonoidAlgElem):
            return NotImplemented
        return self.field == other.field and self.n == other.n and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"{v}*[{w}]" for w, v in sorted(self.terms.items(), key=lambda t: t[0].sort_key())]
        return " + ".join(bits)

    def to_json(self):
        f = self.field
        return [
            {"coeff": f.scalar_to_json(v), "word": str(w)}
            for w, v in sorted(self.terms.items(), key=lambda t: t[0].sort_key())
        ]

    @classmethod
    def from_json(cls, field, n, data):
        pairs = [(field.scalar_from_json(d["coeff"]), Word.from_string(d["word"])) for d in data]
        return cls.from_terms(field, n, pairs)


def build_T(n: int, field) -> MonoidAlgElem:
    """The element sum_i (1-[g_1])...(1-[g_{i-1}])[h_i], fully expanded."""
    if n < 1:
        raise ValueError("level must be >= 1")
    one = MonoidAlgElem.one(field, n)
    acc = MonoidAlgElem.zero(field, n)
    prefix = one
    for i in range(1, n + 1):
        acc = acc + prefix * MonoidAlgElem.from_word(field, gen_h(n, i))
        prefix = prefix * (one - MonoidAlgElem.from_word(field, gen_g(n, i)))
    return acc


def build_Z(n: int, field) -> MonoidAlgElem:
    """The element (1-[g_1])...(1-[g_n]), fully expanded."""
    if n < 1:
        raise ValueError("level must be >= 1")
    one = MonoidAlgElem.one(field, n)
    acc = one
    for i in range(1, n + 1):
        acc = acc * (one - MonoidAlgElem.from_word(field, gen_g(n, i)))
    return acc


def check_T_squared(n: int, field) -> bool:
    """Whether T^2 + Z equals 1 exactly in the monoid algebra."""
    t = build_T(n, field)
    z = build_Z(n, field)
    return t * t + z == MonoidAlgElem.one(field, n)


def act_on_U(w: Word, s: int) -> int:
    """Action of a word on a sign: s goes to w_1 * w_{2n+1} * s."""
    if s not in (1, -1):
        raise ValueError(f"not a sign: {s!r}")
    return w.coords[0] * w.coords[-1] * s


def homset_member(x: MonoidAlgElem, s: int, t: int) -> bool:
    """Whether every word in the support of x carries s to t."""
    return all(act_on_U(w, s) == t for w in x.terms)
