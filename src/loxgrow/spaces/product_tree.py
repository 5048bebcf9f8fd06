"""Free product of two finite cyclic groups acting on its Bass-Serre tree.

Elements are alternating syllable words with factor in {0, 1} and
1 <= exp < order[factor]; adjacent syllables use different factors.  They
are stored as bytes, one (factor << 6) | exp byte per syllable, so orders
stop at 63 and byte order is the order of the (factor, exp) pairs.
Certificates store the pairs, [[factor, exp], ...], and ``syllables``
reads them off.  ``_compose`` takes normal forms only and merges them at
the junction; ``normalize`` brings any sequence of (factor, exp) pairs to
normal form.  Tree vertices are cosets g<a> / g<b>, stored as (rep, side)
where rep is the normal form of a shortest coset representative (it never
ends in a syllable of its own factor).  Edge stabilizers are trivial;
the tree is 0-hyperbolic, so the backend takes no delta.

The (2, 3) instance is the modular group PSL(2, Z) up to isomorphism.

The byte-word algebra shared with the free-group tree (identity, order,
inversion, batch, the one-byte half of the free-walk test, ``classify``,
spelling over the standard set of every nontrivial syllable, the
closed-form word over a set of one-syllable entries) comes from
``base.ByteWordTree``; the spelling of each syllable over such a set,
``_syllable_words``, is this module's.
"""

from ..errors import ConfigError
from .base import ByteWordTree, GroupElement, Point, read_int

_LETTERS = "ab"


def _encode(syllables) -> bytes:
    return bytes((f << 6) | e for f, e in syllables)


def _junction_compose(orders):
    def compose(w, g):
        # both arguments are normal forms, so only the junction can merge:
        # syllables of one factor meet there, and a merge to the identity
        # brings the next pair (both of the other factor) together; bit 6
        # tells the factors apart
        if not (w and g) or (w[-1] ^ g[0]) >> 6:
            return w + g
        i, j = len(w), 0
        while i and j < len(g) and not (w[i - 1] ^ g[j]) >> 6:
            f = g[j] >> 6
            e = ((w[i - 1] & 63) + (g[j] & 63)) % orders[f]
            if e:
                return w[: i - 1] + bytes(((f << 6) | e,)) + g[j + 1 :]
            i -= 1
            j += 1
        return w[:i] + g[j:]

    return compose


class FreeProductTree(ByteWordTree):
    kind = "free_product_tree"

    def __init__(self, orders=(2, 3)):
        p, q = orders
        p, q = read_int(p, "factor order"), read_int(q, "factor order")
        if p < 2 or q < 2:
            raise ConfigError("factor orders must be >= 2")
        if p == 2 and q == 2:
            raise ConfigError("the (2, 2) free product is virtually cyclic; rejected")
        if p > 63 or q > 63:
            raise ConfigError("factor orders above 63 are not supported")
        self.orders = (p, q)
        # chosen once, not per call: ball walks compose per element and generator
        self._compose = _junction_compose(self.orders)
        inverse = bytearray(range(256))
        for f in (0, 1):
            for e in range(1, self.orders[f]):
                inverse[(f << 6) | e] = (f << 6) | (self.orders[f] - e)
        self._inverse = bytes(inverse)
        self._standard = [bytes(((f << 6) | e,)) for f in (0, 1) for e in range(1, self.orders[f])]

    def config(self):
        return {
            "kind": self.kind,
            "orders": list(self.orders),
        }

    # -- group algebra ------------------------------------------------------

    def normalize(self, syllables):
        """Normal form of any sequence of (factor, exp) pairs, exps taken
        modulo the factor's order, as a canonical."""
        out = bytearray()
        for factor, exp in syllables:
            exp %= self.orders[factor]
            if out and out[-1] >> 6 == factor:
                exp = ((out[-1] & 63) + exp) % self.orders[factor]
                out.pop()
            if exp:
                out.append((factor << 6) | exp)
        return bytes(out)

    def is_normal(self, syllables):
        """Whether the (factor, exp) pairs ``syllables`` are a normal form:
        factors 0 or 1 that alternate, each exp in 1 .. order - 1."""
        prev = None
        for factor, exp in syllables:
            if factor not in (0, 1) or factor == prev or not 1 <= exp < self.orders[factor]:
                return False
            prev = factor
        return True

    @staticmethod
    def syllables(canonical):
        """The (factor, exp) pairs of a canonical."""
        return tuple((s >> 6, s & 63) for s in canonical)

    # no last syllable lies in the factor of g's first (factor a's bytes
    # are those below 64)
    @staticmethod
    def _plain(lasts, first):
        return min(lasts) >= 64 if first < 64 else max(lasts) < 64

    # one syllable per generator, and per factor the exponents present
    # together with 0 closed under addition: two syllables then merge into
    # the identity or a generator, or concatenate
    def _free_walk(self, gens):
        if not super()._free_walk(gens):
            return False
        for f, order in enumerate(self.orders):
            exps = {0} | {g[0] & 63 for g in gens if g[0] >> 6 == f}
            if any((x + y) % order not in exps for x in exps for y in exps):
                return False
        return True

    # per factor, a breadth-first search over Z/order by S's exponents in
    # that factor gives each exponent's distance from 0; a syllable is
    # spelled from the right, each step the least S index one step closer
    # to 0: the word that word_length_in_S's walk spells back
    def _syllable_words(self, S):
        table = {}
        for f, order in enumerate(self.orders):
            steps = [(s.canonical[0] & 63, s.word) for s in S if s.canonical[0] >> 6 == f]
            dist, frontier = {0: 0}, [0]
            while frontier:
                below, frontier = frontier, []
                for e in below:
                    for x, _ in steps:
                        y = (e + x) % order
                        if y not in dist:
                            dist[y] = dist[e] + 1
                            frontier.append(y)
            for e in dist:
                rest, word = e, ()
                while rest:
                    x, w = next((x, w) for x, w in steps
                                if dist.get((rest - x) % order) == dist[rest] - 1)
                    rest, word = (rest - x) % order, w + word
                table[(f << 6) | e] = word
        return table

    def element(self, spec, word=None):
        if isinstance(spec, GroupElement):
            return spec
        syllables = []
        symbols = []
        for ch in self._word_spec(spec):
            low = ch.lower()
            if low not in _LETTERS:
                raise ConfigError(f"unknown generator letter {ch!r} (use a/b)")
            factor = _LETTERS.index(low)
            syllables.append((factor, 1 if ch.islower() else self.orders[factor] - 1))
            symbols.append((low, 1 if ch.islower() else -1))
        if word is None:
            word = tuple(symbols)
        return GroupElement(self, self.normalize(syllables), word)

    # a syllable word is stored as [[factor, exp], ...], a vertex as
    # [rep, side]
    def canonical_payload(self, canonical):
        return [[s >> 6, s & 63] for s in canonical]

    def _syllables(self, data):
        return tuple((read_int(f, "factor"), read_int(e, "exponent")) for f, e in data)

    def canonical_from_payload(self, data):
        syllables = self._syllables(data)
        if not self.is_normal(syllables):
            raise ValueError(f"non-normal syllable word {data!r}")
        return _encode(syllables)

    # -- Bass-Serre tree geometry -------------------------------------------

    def _strip(self, rep, side):
        if rep and rep[-1] >> 6 == side:
            rep = rep[:-1]
        return rep

    def vertex(self, g, side):
        """Coset vertex g<factor_side>."""
        return Point(self, (self._strip(g.canonical, side), side))

    def origin(self):
        return Point(self, (b"", 0))

    def point_payload(self, p):
        rep, side = p.data
        return [self.canonical_payload(rep), side]

    def point_from_payload(self, data):
        rep, side = data
        rep, side = self._syllables(rep), read_int(side, "side")
        if side not in (0, 1) or not self.is_normal(rep) or rep and rep[-1][0] == side:
            raise ValueError(f"invalid coset representative {data!r}")
        return Point(self, (_encode(rep), side))

    def _candidate_seeds(self):
        return [Point(self, (b"", 0)), Point(self, (b"", 1))]

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
        fu = ru[i] >> 6 if i < len(ru) else s
        fv = rv[i] >> 6 if i < len(rv) else t
        return len(ru) + len(rv) - 2 * i + (0 if fu == fv else 1)

    def _cyclic_reduce(self, ca):
        # first == last factor forces odd syllable length; one nontrivial merge
        # leaves an alternating word with distinct end factors
        while len(ca) >= 2 and not (ca[0] ^ ca[-1]) >> 6:
            f = ca[0] >> 6
            e = ((ca[0] & 63) + (ca[-1] & 63)) % self.orders[f]
            ca = ca[1:-1]
            if e:
                ca = bytes(((f << 6) | e,)) + ca
                break
        return ca

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
                word.append((factor << 6) | rng.randint(1, self.orders[factor] - 1))
                factor = 1 - factor
            pts.append(Point(self, (self._strip(bytes(word), side), side)))
        return pts
