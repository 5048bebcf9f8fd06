"""Upper half-plane with the PSL(2, R) action by Moebius transformations.

A 2x2 real matrix of positive determinant is one element of PSL(2, R) up
to scale (Beardon, *The Geometry of Discrete Groups*, section 4.3), so a
group element is stored as an integer matrix (a, b, c, d) of positive
determinant whose entries have gcd 1 and whose first nonzero entry is
positive: one canonical per element, and equality, the identity and the
type are decided exactly. The ``arithmetic`` setting says how input is
written:

* ``exact_integer`` -- int entries of det 1 (PSL(2, Z) and its subgroups
  such as the Sanov pair);
* ``float`` -- int or float entries, finite, with det checked to 1e-12
  relative to max(1, |ad|, |bc|). Every float is a binary rational, so the
  matrix loads exactly: scaled to integers and divided by the gcd of its
  four entries. Its det may then differ from 1, and the geometry reads it.

Points are complex numbers with positive imaginary part.  The metric is
d(z, w) = arccosh(1 + |z - w|^2 / (2 Im z Im w)), in floats, which no
certificate reads: T is proved free by the integer ping-pong test
``_free_walk`` (mode "ping-pong"), and ``delta`` (default 1.0) is read by
the ``delta`` command only.
"""

import math
from functools import reduce
from itertools import combinations

from ..errors import ConfigError, NotInGroup
from .base import Backend, Classification, GroupElement, Point, read_int, read_real

# apply shifts entries longer than this many bits right by a common number
# of bits: squares of the shifted entries stay in float range
_FLOAT_BITS = 500


class HalfPlane(Backend):
    kind = "half_plane"
    certificate_mode = "ping-pong"

    def __init__(self, arithmetic="exact_integer", delta=1.0):
        if arithmetic not in ("exact_integer", "float"):
            raise ConfigError(f"unknown arithmetic {arithmetic!r}")
        self.arithmetic = arithmetic
        self.exact = arithmetic == "exact_integer"
        self.delta = read_real(delta, "delta")

    def config(self):
        return {
            "kind": self.kind,
            "arithmetic": self.arithmetic,
            "delta": self.delta,
        }

    # -- group algebra ------------------------------------------------------

    def _normalize(self, a, b, c, d):
        # divide out the gcd of the entries; then, as det != 0 leaves a or b
        # nonzero, the first nonzero of those two carries the sign
        g = math.gcd(a, b, c, d)
        if g != 1:
            a, b, c, d = a // g, b // g, c // g, d // g
        if a < 0 or not a and b < 0:
            return (-a, -b, -c, -d)
        return (a, b, c, d)

    def _compose(self, ca, cb):
        (a1, b1, c1, d1), (a2, b2, c2, d2) = ca, cb
        return self._normalize(a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
                               c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)

    def _compose_batch(self, chunk, g):
        a2, b2, c2, d2 = g
        if a2 * d2 - b2 * c2 != 1:
            # a factor of det != 1 can leave the product a common factor
            return [self._compose(w, g) for w in chunk]
        # g lies in SL(2, Z), so each product keeps the gcd 1 of its w: only
        # _normalize's sign rule is left, with g unpacked once
        out = []
        for a1, b1, c1, d1 in chunk:
            a = a1 * a2 + b1 * c2
            b = a1 * b2 + b1 * d2
            c = c1 * a2 + d1 * c2
            d = c1 * b2 + d1 * d2
            if a < 0 or not a and b < 0:
                out.append((-a, -b, -c, -d))
            else:
                out.append((a, b, c, d))
        return out

    def _invert(self, ca):
        a, b, c, d = ca
        return self._normalize(d, -b, -c, a)

    def _identity_canonical(self):
        return (1, 0, 0, 1)

    def element(self, spec, word=None):
        if isinstance(spec, GroupElement):
            return spec
        try:
            (a, b), (c, d) = spec
        except (TypeError, ValueError):
            raise ConfigError(f"expected a 2x2 matrix, got {spec!r}")
        number = int if self.exact else (int, float)
        for v in (a, b, c, d):
            # "1" and true are not numbers, though float() would pass them
            if not isinstance(v, number) or isinstance(v, bool):
                raise NotInGroup(f"{self.arithmetic} arithmetic needs "
                                 f"{'int' if self.exact else 'number'} entries, got {v!r}")
        if self.exact:
            if a * d - b * c != 1:
                raise NotInGroup(f"determinant {a * d - b * c} != 1")
            return GroupElement(self, self._normalize(a, b, c, d), word)
        try:
            fa, fb, fc, fd = float(a), float(b), float(c), float(d)
        except OverflowError:
            raise NotInGroup(f"matrix entries exceed float range in {spec!r}") from None
        ad, bc = fa * fd, fb * fc
        det = ad - bc
        # relative to the products: ad - bc cancels, so an honest det-1
        # matrix with entries near 1e8 computes det 0.0 or 2.0
        tol = 1e-12 * max(1.0, abs(ad), abs(bc))
        if not (math.isfinite(det) and abs(det - 1.0) <= tol):
            raise NotInGroup(f"determinant {det} not within {tol:.3g} of 1")
        # the entries as written, each p / q with q a power of two, over
        # the largest q: integers with the same ratios
        ratios = [v.as_integer_ratio() for v in (a, b, c, d)]
        scale = max(q for _, q in ratios)
        return GroupElement(self, self._integer_canonical(*(p * (scale // q) for p, q in ratios)),
                            word)

    def _integer_canonical(self, a, b, c, d):
        # large entries can pass the float check, whose tolerance grows
        # with |ad| and |bc|, with an exact det of 0 or below
        if a * d - b * c <= 0:
            raise NotInGroup(f"determinant {a * d - b * c} of the exact matrix is not positive")
        return self._normalize(a, b, c, d)

    def sort_key(self, a):
        return a.canonical

    # a matrix is stored as [a, b, c, d], a point as [re, im]; a stored
    # canonical of the float spelling is an integer matrix of any det > 0
    def canonical_from_payload(self, data):
        a, b, c, d = data
        if self.exact:
            return self.element([[a, b], [c, d]]).canonical
        return self._integer_canonical(*(read_int(v, "matrix entry") for v in data))

    # -- geometry -----------------------------------------------------------

    def origin(self):
        return Point(self, complex(0.0, 1.0))

    def point_payload(self, p):
        return [p.data.real, p.data.imag]

    def point_from_payload(self, data):
        re, im = (read_real(v, "coordinate") for v in data)
        if not im > 0:
            raise ValueError("half-plane points need positive imaginary part")
        return Point(self, complex(re, im))

    def dist(self, x, y):
        z, w = x.data, y.data
        den = 2.0 * z.imag * w.imag
        if den <= 0.0:
            raise OverflowError("point too close to the real axis for float distances")
        q = abs(z - w) ** 2 / den
        if not q < math.inf:
            raise OverflowError("distance exceeds float range")
        return math.acosh(1.0 + q)

    def apply(self, g, x):
        # Split into real/imaginary parts by hand: Im(g z) = det v / |cz + d|^2
        # with the exact det. Computing det as fl(ad) - fl(bc) instead
        # cancels to <= 0 once the entries pass about 1e8, as naive complex
        # division does past 2**26.
        a, b, c, d, det = _scaled(g.canonical)
        z = x.data
        u, v = z.real, z.imag
        p = c * u + d
        q = c * v
        den = p * p + q * q
        if not 0.0 < den < math.inf:
            raise OverflowError("matrix entries exceed float range at this point")
        re = ((a * u + b) * p + (a * v) * q) / den
        im = det * v / den
        if not (im > 0.0 and math.isfinite(re)):
            raise OverflowError("matrix entries exceed float range at this point")
        return Point(self, complex(re, im))

    def classify(self, g):
        if self.is_identity(g):
            return Classification("identity")
        a, b, c, d = g.canonical
        # tr^2 against 4 det, the scale-free form of |tr| against 2
        tr2, det4 = (a + d) ** 2, 4 * (a * d - b * c)
        if tr2 < det4:
            return Classification("elliptic")
        if tr2 == det4:
            return Classification("parabolic")
        return Classification("loxodromic")

    def translation_length(self, g):
        if self.classify(g).kind != "loxodromic":
            return 0.0
        a, b, c, d = g.canonical
        tr, det = abs(a + d), a * d - b * c
        # tau = 2 arccosh(|tr| / (2 sqrt(det))), with the root taken of an
        # int quotient, which stays in float range for entries past it; det
        # 1 keeps |tr| / 2, which the root could round one ulp apart
        try:
            x = tr / 2.0 if det == 1 else math.sqrt(tr * tr / (4 * det))
        except OverflowError:
            # past float range, acosh(x) = log(2x) to far below one ulp, and
            # 2 log(2x) = 2 log |tr| - log det, from the logs of the ints
            return 2.0 * math.log(tr) - math.log(det)
        return 2.0 * math.acosh(x)

    def sample_points(self, rng, count, window=4.0, log_height=2.5):
        pts = []
        for _ in range(count):
            x = rng.uniform(-window, window)
            y = math.exp(rng.uniform(-log_height, log_height))
            pts.append(Point(self, complex(x, y)))
        return pts

    # Klein's ping-pong on integer matrices of any det D > 0. Each letter
    # s = (a, b, c, d) gets an open region O_s that s maps the complement of
    # closure(O_s^-1) onto: the disk |cz - a| < sqrt(D) when c != 0, as
    # c s(z) - a = -D/(cz + d) (Beardon, section 9.5: its isometric circle),
    # and for the one translation pair z -> z +- t allowed (c = 0 and a = d,
    # t = |b/a|), the half-planes Re z > h + t and Re z < h. A letter with
    # c = 0 and a != d moves along an axis through infinity and gets no
    # region, so the test says no. When the regions are pairwise disjoint, a
    # point x0 + iY with Y large lies outside every closure, and a reduced
    # word w, applied letter by letter from the right, moves it into O_s of
    # w's first letter s, so w != 1: gens with their inverses are a free
    # basis. Regions may be tangent: an open set disjoint from O_s misses
    # its closure too, which is all each step needs. Conjugating changes no
    # word, so S is also tried with each parabolic letter's cusp, where
    # (a + d)^2 = 4D, sent to infinity. Regions ignore the sign: raw integer
    # products, no compose. A letter listed twice is no free basis
    def _free_walk(self, gens):
        letters = set(gens)
        if len(letters) < len(gens) or any(
                g == h or h not in letters for g, h in zip(gens, map(self._invert, gens))):
            return False
        cusps = {(a - d, 2 * c) if c > 0 else (d - a, -2 * c)
                 for a, b, c, d in gens if c and (a + d) ** 2 == 4 * (a * d - b * c)}
        return any(_ping_pong(_conjugated(gens, q)) for q in [None, *cusps])

    # When S's canonicals pass _free_walk they are a free basis with their
    # inverses, so the freely reduced word over them is g's one geodesic
    # (the normal form theorem of free groups). g's carried word is read as
    # S canonicals, reduced by canonicals (an input may list both A and
    # A^-1 under two labels) and trusted only when what is left composes to
    # g; each letter is spelled by its S entry's word. None when the word
    # is missing or holds a symbol of no one-symbol entry of S
    def subgroup_word_exact(self, S, g):
        if g.word is None or not self._free_walk([s.canonical for s in S]):
            return None
        entry, letter = {}, {}
        for s in S:
            entry[s.canonical] = s.word
            if s.word is not None and len(s.word) == 1:
                (sym, sign), = s.word
                letter[sym, sign], letter[sym, -sign] = s.canonical, self._invert(s.canonical)
        reduced = []
        for part in g.word:
            c = letter.get(part)
            if c is None:
                return None
            if reduced and reduced[-1] == self._invert(c):
                reduced.pop()
            else:
                reduced.append(c)
        if reduce(self._compose, reduced, self._identity_canonical()) != g.canonical:
            return None
        return tuple(sym for c in reduced for sym in entry[c])


def _scaled(canonical):
    """The entries and det of ``canonical``, entries past _FLOAT_BITS bits
    shifted right by one number of bits s and det divided by 4^s to match:
    the same map, as a canonical is projective, with no entry past float
    range."""
    a, b, c, d = canonical
    det = a * d - b * c
    s = max(a.bit_length(), b.bit_length(), c.bit_length(), d.bit_length()) - _FLOAT_BITS
    if s > 0:
        return a >> s, b >> s, c >> s, d >> s, det / (1 << 2 * s)
    return a, b, c, d, det


def _conjugated(mats, cusp):
    """M s M^-1 up to sign for each s of ``mats``, where M = (x, y; n, -m) of
    det 1 sends ``cusp``, a (numerator, denominator > 0) pair, to infinity."""
    if cusp is None:
        return mats
    m, n = (v // math.gcd(*cusp) for v in cusp)
    x = -pow(m, -1, n)
    y = (-x * m - 1) // n
    out = []
    for a, b, c, d in mats:
        p, q, r, u = x * a + y * c, x * b + y * d, n * a - m * c, n * b - m * d
        out.append((-p * m - q * n, q * x - p * y, -r * m - u * n, u * x - r * y))
    return out


def _ping_pong(mats):
    """Whether the letters ``mats`` have the disjoint regions of
    HalfPlane._free_walk. A disk is (a, c, D) with c > 0: center a/c,
    radius sqrt(D)/c. Two disks are disjoint when |a1 c2 - a2 c1| >=
    c2 sqrt(D1) + c1 sqrt(D2), and with the one translation t = |b/a|
    allowed, every disk lies in one strip of width t:
    (a1 + sqrt(D1))/c1 - (a2 - sqrt(D2))/c2 <= t for any two, each side
    multiplied out to integers for ``_at_least``."""
    disks, shifts = [], []
    for a, b, c, d in mats:
        if c:
            disks.append((a, c, a * d - b * c) if c > 0 else (-a, -c, a * d - b * c))
        elif a != d:
            return False
        else:
            shifts.append((abs(b), abs(a)))
    if len(shifts) > 2 or not all(_at_least(abs(a1 * c2 - a2 * c1), c2, D1, c1, D2)
                                  for (a1, c1, D1), (a2, c2, D2) in combinations(disks, 2)):
        return False
    if not shifts:
        return True
    t, s = shifts[0]
    return all(_at_least(t * c1 * c2 - s * (a1 * c2 - a2 * c1), s * c2, D1, s * c1, D2)
               for a1, c1, D1 in disks for a2, c2, D2 in disks)


def _at_least(L, u, D1, v, D2):
    """Whether L >= u sqrt(D1) + v sqrt(D2), for integers u, v >= 0 and
    D1, D2 > 0, exactly: the right side is not negative, so square once
    for L^2 - u^2 D1 - v^2 D2 >= 2 u v sqrt(D1 D2), and, that left side
    not negative either, square again."""
    if L < 0:
        return False
    M = L * L - u * u * D1 - v * v * D2
    return M >= 0 and M * M >= 4 * u * u * v * v * D1 * D2
