"""Free group of finite rank acting on its Cayley tree.

Elements and vertices are both freely reduced words, stored as bytes with
one code per letter: 2(i - 1) for the i-th generator (1-based) and
2(i - 1) + 1 for its inverse. A letter and its inverse differ in the last
bit, and byte order is shortlex order a < a^-1 < b < b^-1 < ...; two codes
per generator in one byte cap the rank at 128. Certificates store words as
signed letter indices (+i for the i-th generator, -i for its inverse). The
tree metric is the reduced length of x^{-1} y; a tree is 0-hyperbolic, so
the backend takes no delta. Every nontrivial element is loxodromic with
translation length equal to its cyclically reduced length.

The byte-word algebra shared with the free-product tree (identity, order,
inversion, batch, free-walk test, ``classify``, spelling over the standard
basis, the closed-form word over a set of letters, each spelled by its own
entry) comes from ``base.ByteWordTree``.
"""

import string

from ..errors import ConfigError
from .base import ByteWordTree, GroupElement, Point, read_int, read_str

_MAX_RANK = 128


def _letter_code(v):
    return 2 * (abs(v) - 1) + (0 if v > 0 else 1)


def _letter_index(c):
    i = (c >> 1) + 1
    return -i if c & 1 else i


def reduce_codes(codes) -> bytes:
    out = bytearray()
    for c in codes:
        if out and out[-1] ^ c == 1:
            out.pop()
        else:
            out.append(c)
    return bytes(out)


class FreeGroupTree(ByteWordTree):
    kind = "free_group_tree"
    # the code of each letter's inverse, for bytes.translate
    _inverse = bytes(c ^ 1 for c in range(256))

    def __init__(self, rank, letters=None):
        if read_int(rank, "rank") < 1:
            raise ConfigError("rank must be >= 1")
        if rank > _MAX_RANK:
            raise ConfigError(f"ranks above {_MAX_RANK} are not supported")
        if letters is None:
            letters = string.ascii_lowercase[:rank]
        if len(read_str(letters, "letters")) != rank or len(set(letters)) != rank:
            raise ConfigError("need one distinct letter per generator")
        if any(not (c.isalpha() and c.islower()) for c in letters):
            raise ConfigError("generator letters must be lowercase")
        for c in letters:
            # an inverse is spelled by c's uppercase, which must read back as c^-1
            up = c.upper()
            if not (len(up) == 1 and up.isupper() and up.lower() == c):
                raise ConfigError(f"letter {c!r} has no one-letter uppercase that reads back")
        self.rank = rank
        self.letters = letters
        self._code = {c: 2 * i for i, c in enumerate(letters)}
        self._standard = [bytes((c,)) for c in range(2 * rank)]

    def config(self):
        return {
            "kind": self.kind,
            "rank": self.rank,
            "letters": self.letters,
        }

    # -- group algebra ------------------------------------------------------

    @staticmethod
    def _compose(w, g):
        # the common case first: nothing cancels at the junction
        if not (w and g) or w[-1] ^ g[0] != 1:
            return w + g
        cut = 0
        m = min(len(w), len(g))
        while cut < m and w[len(w) - 1 - cut] ^ g[cut] == 1:
            cut += 1
        return w[: len(w) - cut] + g[cut:]

    @staticmethod
    def _plain(lasts, first):
        return first ^ 1 not in lasts

    def element(self, spec, word=None):
        """Build from a word string like "aBa" (uppercase = inverse)."""
        if isinstance(spec, GroupElement):
            return spec
        codes = []
        for ch in self._word_spec(spec):
            low = ch.lower()
            if low not in self._code:
                raise ConfigError(f"unknown generator letter {ch!r}")
            codes.append(self._code[low] | (0 if ch.islower() else 1))
        if word is None:
            word = tuple((self.letters[c >> 1], -1 if c & 1 else 1) for c in codes)
        return GroupElement(self, reduce_codes(codes), word)

    # elements and vertices alike are stored as lists of signed letter indices
    def canonical_payload(self, canonical):
        return [_letter_index(c) for c in canonical]

    def canonical_from_payload(self, data):
        word = [read_int(v, "letter") for v in data]
        if any(v == 0 or abs(v) > self.rank for v in word):
            raise ValueError(f"letter out of range in {data!r}")
        codes = bytes(map(_letter_code, word))
        if codes != reduce_codes(codes):
            raise ValueError(f"unreduced free-group word {data!r}")
        return codes

    def point_payload(self, p):
        return self.canonical_payload(p.data)

    # -- geometry -----------------------------------------------------------

    def origin(self):
        return Point(self, b"")

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

    def _cyclic_reduce(self, ca):
        lo, hi = 0, len(ca)
        while hi - lo >= 2 and ca[lo] ^ ca[hi - 1] == 1:
            lo += 1
            hi -= 1
        return ca[lo:hi]

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
            pts.append(Point(self, bytes(map(_letter_code, word))))
        return pts
