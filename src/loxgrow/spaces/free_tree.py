"""Free group of finite rank acting on its Cayley tree.

Elements and vertices are both freely reduced words, stored as tuples of
nonzero signed letter indices (+i for the i-th generator, -i for its inverse,
1-based).  The tree metric is the reduced length of x^{-1} y, delta = 0, and
every nontrivial element is loxodromic with translation length equal to its
cyclically reduced length.
"""

import string

from ..errors import ConfigError
from .base import Backend, Classification, GroupElement, Point, read_int, read_real, read_str


def reduce_letters(seq):
    out = []
    for v in seq:
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return tuple(out)


def _letter_code(v):
    # shortlex order a < a^-1 < b < b^-1 < ...
    return 2 * (abs(v) - 1) + (0 if v > 0 else 1)


class FreeGroupTree(Backend):
    kind = "free_group_tree"

    def __init__(self, rank, letters=None, delta=0.0, torsion_bound=1):
        if read_int(rank, "rank") < 1:
            raise ConfigError("rank must be >= 1")
        if letters is None:
            letters = string.ascii_lowercase[:rank]
        if len(read_str(letters, "letters")) != rank or len(set(letters)) != rank:
            raise ConfigError("need one distinct letter per generator")
        if any(not (c.isalpha() and c.islower()) for c in letters):
            raise ConfigError("generator letters must be lowercase")
        self.rank = rank
        self.letters = letters
        self.delta = read_real(delta, "delta")
        self.torsion_bound = read_int(torsion_bound, "torsion_bound")
        self._index = {c: i + 1 for i, c in enumerate(letters)}

    def config(self):
        return {
            "kind": self.kind,
            "rank": self.rank,
            "letters": self.letters,
            "delta": self.delta,
            "torsion_bound": self.torsion_bound,
        }

    # -- group algebra ------------------------------------------------------

    def _compose(self, ca, cb):
        if not ca:
            return cb
        if not cb:
            return ca
        cut = 0
        la, lb = len(ca), len(cb)
        m = min(la, lb)
        while cut < m and ca[la - 1 - cut] == -cb[cut]:
            cut += 1
        return ca[: la - cut] + cb[cut:]

    def _invert(self, ca):
        return tuple(-v for v in reversed(ca))

    def _identity_canonical(self):
        return ()

    def element(self, spec, word=None):
        """Build from a word string like "aBa" (uppercase = inverse)."""
        if isinstance(spec, GroupElement):
            return spec
        letters = []
        for ch in spec:
            low = ch.lower()
            if low not in self._index:
                raise ConfigError(f"unknown generator letter {ch!r}")
            letters.append(self._index[low] if ch.islower() else -self._index[low])
        canonical = reduce_letters(letters)
        if word is None:
            word = tuple((self.letters[abs(v) - 1], 1 if v > 0 else -1) for v in letters)
        return GroupElement(self, canonical, word)

    def sort_key(self, a):
        return (len(a.canonical), tuple(_letter_code(v) for v in a.canonical))

    # elements and vertices alike are stored as lists of letter indices
    def canonical_from_payload(self, data):
        word = tuple(read_int(v, "letter") for v in data)
        if any(v == 0 or abs(v) > self.rank for v in word):
            raise ValueError(f"letter out of range in {data!r}")
        if word != reduce_letters(word):
            raise ValueError(f"unreduced free-group word {data!r}")
        return word

    # -- geometry -----------------------------------------------------------

    def origin(self):
        return Point(self, ())

    def point_from_payload(self, data):
        return Point(self, self.canonical_from_payload(data))

    def dist(self, x, y):
        cx, cy = x.data, y.data
        i = 0
        m = min(len(cx), len(cy))
        while i < m and cx[i] == cy[i]:
            i += 1
        return (len(cx) - i) + (len(cy) - i)

    def apply(self, g, x):
        return Point(self, self._compose(g.canonical, x.data))

    def geodesic_point(self, x, y, t):
        cx, cy = x.data, y.data
        i = 0
        m = min(len(cx), len(cy))
        while i < m and cx[i] == cy[i]:
            i += 1
        d = (len(cx) - i) + (len(cy) - i)
        ti = int(round(t))
        if abs(t - ti) > 1e-9 or ti < 0 or ti > d:
            raise ValueError(f"t must be an integer in [0, {d}] on a tree, got {t}")
        up = len(cx) - i
        if ti <= up:
            return Point(self, cx[: len(cx) - ti])
        return Point(self, cx[:i] + cy[i : i + (ti - up)])

    def _cyclic_reduce(self, ca):
        lo, hi = 0, len(ca)
        while hi - lo >= 2 and ca[lo] == -ca[hi - 1]:
            lo += 1
            hi -= 1
        return ca[lo:hi]

    def classify(self, g):
        if not g.canonical:
            return Classification("identity")
        return Classification("loxodromic")

    def translation_length(self, g):
        return len(self._cyclic_reduce(g.canonical))

    def sample_points(self, rng, count, max_len=12):
        pts = []
        for _ in range(count):
            n = rng.randint(0, max_len)
            word = []
            for _ in range(n):
                choices = [v for v in range(-self.rank, self.rank + 1)
                           if v != 0 and not (word and v == -word[-1])]
                word.append(rng.choice(choices))
            pts.append(Point(self, tuple(word)))
        return pts

    def growth_encoding(self):
        return ("free_words", self.rank)

    def canonical_bytes(self, canonical):
        return bytes(_letter_code(v) for v in canonical)

    # the reduced word, one letter per entry of S, when S holds the standard
    # basis and its inverses; a larger S can spell g shorter
    def normal_form_word(self, S, g):
        words = {e.canonical: e.word for e in S}
        if all((v,) in words for v in range(-self.rank, self.rank + 1) if v):
            return tuple(sym for v in g.canonical for sym in words[(v,)])
        return None

    def subgroup_word_exact(self, S, g):
        return self.normal_form_word(S, g) if len(S) == 2 * self.rank else None
