"""Free product of two finite cyclic groups acting on its Bass-Serre tree.

Elements are alternating syllable words ((factor, exp), ...) with factor in
{0, 1} and 1 <= exp < order[factor]; adjacent syllables use different
factors.  ``_compose`` takes normal forms only and merges them at the
junction; ``normalize`` brings any syllable sequence to normal form.  Tree
vertices are cosets g<a> / g<b>, stored as (rep, side) where rep is the
syllable normal form of a shortest coset representative (it never ends in
a syllable of its own factor).  Edge stabilizers are trivial, so the tree
is 0-hyperbolic and torsion_bound defaults to 1.

The (2, 3) instance is the modular group PSL(2, Z) up to isomorphism.
"""

from ..errors import ConfigError
from .base import Backend, Classification, GroupElement, Point, int_param, real_param

_LETTERS = "ab"


class FreeProductTree(Backend):
    kind = "free_product_tree"

    def __init__(self, orders=(2, 3), delta=0.0, torsion_bound=1):
        p, q = orders
        p, q = int_param("factor order", p), int_param("factor order", q)
        if p < 2 or q < 2:
            raise ConfigError("factor orders must be >= 2")
        if p == 2 and q == 2:
            raise ConfigError("the (2, 2) free product is virtually cyclic; rejected")
        if p > 63 or q > 63:
            raise ConfigError("factor orders above 63 are not supported")
        self.orders = (p, q)
        self.delta = real_param("delta", delta)
        self.torsion_bound = int_param("torsion_bound", torsion_bound)

    def config(self):
        return {
            "kind": self.kind,
            "orders": list(self.orders),
            "delta": self.delta,
            "torsion_bound": self.torsion_bound,
        }

    # -- group algebra ------------------------------------------------------

    def normalize(self, syllables):
        """Normal form of any sequence of (factor, exp) pairs, exps taken
        modulo the factor's order."""
        out = []
        for factor, exp in syllables:
            exp %= self.orders[factor]
            if out and out[-1][0] == factor:
                exp = (out[-1][1] + exp) % self.orders[factor]
                out.pop()
            if exp:
                out.append((factor, exp))
        return tuple(out)

    def is_normal(self, syllables):
        """Whether ``syllables`` is a normal form: factors 0 or 1 that
        alternate, each exp in 1 .. order - 1."""
        prev = None
        for factor, exp in syllables:
            if factor not in (0, 1) or factor == prev or not 1 <= exp < self.orders[factor]:
                return False
            prev = factor
        return True

    def _compose(self, ca, cb):
        # both arguments are normal forms, so only the junction can merge:
        # syllables of one factor meet there, and a merge to the identity
        # brings the next pair (both of the other factor) together
        i, j = len(ca), 0
        while i and j < len(cb) and ca[i - 1][0] == cb[j][0]:
            factor = cb[j][0]
            exp = (ca[i - 1][1] + cb[j][1]) % self.orders[factor]
            if exp:
                return ca[: i - 1] + ((factor, exp),) + cb[j + 1 :]
            i -= 1
            j += 1
        return ca[:i] + cb[j:]

    def _invert(self, ca):
        return tuple((f, self.orders[f] - e) for f, e in reversed(ca))

    def _identity_canonical(self):
        return ()

    def element(self, spec, word=None):
        if isinstance(spec, GroupElement):
            return spec
        syllables = []
        symbols = []
        for ch in spec:
            low = ch.lower()
            if low not in _LETTERS:
                raise ConfigError(f"unknown generator letter {ch!r} (use a/b)")
            factor = _LETTERS.index(low)
            syllables.append((factor, 1 if ch.islower() else self.orders[factor] - 1))
            symbols.append((low, 1 if ch.islower() else -1))
        if word is None:
            word = tuple(symbols)
        return GroupElement(self, self.normalize(syllables), word)

    def sort_key(self, a):
        return (len(a.canonical), a.canonical)

    # -- Bass-Serre tree geometry -------------------------------------------

    def _strip(self, rep, side):
        if rep and rep[-1][0] == side:
            rep = rep[:-1]
        return rep

    def vertex(self, g, side):
        """Coset vertex g<factor_side>."""
        return Point(self, (self._strip(g.canonical, side), side))

    def origin(self):
        return Point(self, ((), 0))

    def _candidate_seeds(self):
        return [Point(self, ((), 0)), Point(self, ((), 1))]

    def apply(self, g, x):
        rep, side = x.data
        return Point(self, (self._strip(self._compose(g.canonical, rep), side), side))

    def dist(self, x, y):
        # Past the common syllable prefix P, the coset (P U, s) lies len(U)
        # edges beyond P<first factor of U>, or is P<s> when U is empty; this
        # needs the invariant that a rep never ends in a syllable of its own
        # side.  Both starting cosets contain P: they coincide when the
        # factors agree (distinct first syllables then branch apart) and are
        # adjacent otherwise.
        (ru, s), (rv, t) = x.data, y.data
        i = 0
        m = min(len(ru), len(rv))
        while i < m and ru[i] == rv[i]:
            i += 1
        fu = ru[i][0] if i < len(ru) else s
        fv = rv[i][0] if i < len(rv) else t
        return len(ru) + len(rv) - 2 * i + (0 if fu == fv else 1)

    def _path_vertices(self, x, y):
        (ru, s), (rv, t) = x.data, y.data
        w = self._strip(self._compose(self._invert(ru), rv), t)
        verts = [((), s)]
        if not w:
            if s != t:
                verts.append(((), t))
        else:
            cur = ()
            if w[0][0] != s:
                verts.append(((), 1 - s))
            for f, e in w:
                cur = cur + ((f, e),)
                verts.append((cur, 1 - f))
        out = []
        for rep, side in verts:
            rep = self._strip(self._compose(ru, rep), side)
            out.append(Point(self, (rep, side)))
        return out

    def geodesic_point(self, x, y, t):
        path = self._path_vertices(x, y)
        ti = int(round(t))
        if abs(t - ti) > 1e-9 or ti < 0 or ti >= len(path):
            raise ValueError(f"t must be an integer in [0, {len(path) - 1}], got {t}")
        return path[ti]

    def _cyclic_reduce(self, ca):
        # first == last factor forces odd syllable length; one nontrivial merge
        # leaves an alternating word with distinct end factors
        ca = list(ca)
        while len(ca) >= 2 and ca[0][0] == ca[-1][0]:
            f = ca[0][0]
            e = (ca[0][1] + ca[-1][1]) % self.orders[f]
            ca = ca[1:-1]
            if e:
                ca.insert(0, (f, e))
                break
        return tuple(ca)

    def classify(self, g):
        if not g.canonical:
            return Classification("identity")
        if len(self._cyclic_reduce(g.canonical)) <= 1:
            return Classification("elliptic")
        return Classification("loxodromic")

    def translation_length(self, g):
        red = self._cyclic_reduce(g.canonical)
        return len(red) if len(red) >= 2 else 0

    def sample_points(self, rng, count, max_syllables=12):
        pts = []
        for _ in range(count):
            n = rng.randint(0, max_syllables)
            side = rng.randint(0, 1)
            word = []
            factor = rng.randint(0, 1)
            for _ in range(n):
                word.append((factor, rng.randint(1, self.orders[factor] - 1)))
                factor = 1 - factor
            pts.append(Point(self, (self._strip(tuple(word), side), side)))
        return pts

    def growth_encoding(self):
        return ("product_words", self.orders[0], self.orders[1])

    def canonical_bytes(self, canonical):
        return bytes((f << 6) | e for f, e in canonical)

    # the normal form, one syllable per entry of S, when S holds every
    # nontrivial factor element; a larger S can spell g shorter
    def normal_form_word(self, S, g):
        words = {e.canonical: e.word for e in S}
        if all(((f, e),) in words for f in (0, 1) for e in range(1, self.orders[f])):
            return tuple(sym for syl in g.canonical for sym in words[(syl,)])
        return None

    def subgroup_word_exact(self, S, g):
        standard = self.orders[0] + self.orders[1] - 2
        return self.normal_form_word(S, g) if len(S) == standard else None
