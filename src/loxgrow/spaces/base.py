"""Common element/point types and the backend protocol.

A backend bundles a group with exact arithmetic and an action on a proper
hyperbolic space.  Group elements carry two representations:

* ``canonical`` -- the backend normal form, hashable, one per element, used
  for equality;
* ``word`` -- an optional expression over named generator symbols,
  ``((symbol, sign), ...)`` with sign +/-1.  Words survive composition with
  free cancellation at the symbol level, so any derived element remembers a
  valid (not necessarily geodesic) spelling over the original generators.
  Where only canonicals matter an element carries no word: the (n, k)
  search's tried T sets are bare canonicals, and only the winning T is
  spelled.

``GroupElement`` and ``Point`` are plain ``__slots__`` classes, since
every ``apply`` builds a Point: equal when the backend is one object and
the canonical (the point's data) is equal, the word ignored.

``ByteWordTree`` holds what the two trees' byte-word canonicals share: the
identity, shortlex order, inversion, the chunk batch, the one-byte half of
the free-walk test, ``classify``, the spelling over the standard set and
the closed-form word over a set of one-byte entries.
"""

import sys
from dataclasses import dataclass
from itertools import repeat
from operator import add, itemgetter
from typing import Any, Optional, Tuple

from ..errors import BackendMismatch, ConfigError

Word = Tuple[Tuple[str, int], ...]
_last = itemgetter(-1)


# JSON readers: a value of the wrong type raises TypeError and one out of
# range ValueError; make_backend turns either into ConfigError and the
# certificate loader into InvalidCertificate


def read_int(v, name="value") -> int:
    """A JSON integer; int() would pass 2.7, "3" and true."""
    if type(v) is not int:
        raise TypeError(f"{name} must be an integer, got {v!r}")
    return v


def read_real(v, name="value") -> float:
    """A finite JSON number, as a float; float() would pass "1.5" and true,
    and json reads NaN and Infinity."""
    if type(v) not in (int, float):
        raise TypeError(f"{name} must be a number, got {v!r}")
    # false for NaN, +-Infinity and ints that float() cannot hold
    if not abs(v) <= sys.float_info.max:
        raise ValueError(f"{name} must be finite, got {v!r}")
    return float(v)


def read_str(v, name="value") -> str:
    if type(v) is not str:
        raise TypeError(f"{name} must be a string, got {v!r}")
    return v


def read_flag(v, name="value") -> bool:
    """true or false; bool() would read "false" as true."""
    if type(v) is not bool:
        raise TypeError(f"{name} must be true or false, got {v!r}")
    return v


def reduce_symbol_word(parts) -> Word:
    out = []
    for sym, sign in parts:
        if out and out[-1][0] == sym and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((sym, sign))
    return tuple(out)


def inverse_word(word) -> Word:
    return tuple((sym, -sign) for sym, sign in reversed(word))


def word_str(word: Optional[Word]) -> str:
    """Human-readable spelling: single lowercase symbols use case for inverses."""
    if word is None:
        return "?"
    if not word:
        return "1"
    parts = []
    for sym, sign in word:
        if len(sym) == 1 and sym.islower():
            parts.append(sym if sign > 0 else sym.upper())
        else:
            parts.append(sym if sign > 0 else sym + "^-1")
    return "".join(parts)


class GroupElement:
    """A group element of ``backend``: equal, and hashed alike, when the
    backends are one object and the canonicals are equal; the word is
    ignored."""

    __slots__ = ("backend", "canonical", "word")

    def __init__(self, backend: Any, canonical: Any, word: Optional[Word] = None):
        self.backend = backend
        self.canonical = canonical
        self.word = word

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.backend is other.backend and self.canonical == other.canonical

    def __hash__(self):
        return hash((id(self.backend), self.canonical))

    def __repr__(self):
        return f"<{word_str(self.word)}|{self.canonical}>"


class Point:
    """A point of ``backend``'s space, compared like a GroupElement."""

    __slots__ = ("backend", "data")

    def __init__(self, backend: Any, data: Any):
        self.backend = backend
        self.data = data

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.backend is other.backend and self.data == other.data

    def __hash__(self):
        return hash((id(self.backend), self.data))

    def __repr__(self):
        return f"Point({self.data!r})"


@dataclass(frozen=True)
class Classification:
    kind: str  # "identity" | "elliptic" | "parabolic" | "loxodromic"


class Backend:
    """Shared glue; concrete geometry lives in the subclasses."""

    kind = "abstract"
    delta = 0.0
    # how the (n, k) search proves T free: the margin test at a basepoint on
    # the trees; the half-plane's integer "ping-pong" test (``_free_walk``)
    certificate_mode = "geometric"

    # -- group algebra ----------------------------------------------------

    def compose(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._check(a)
        self._check(b)
        word = None
        if a.word is not None and b.word is not None:
            word = reduce_symbol_word(a.word + b.word)
        return GroupElement(self, self._compose(a.canonical, b.canonical), word)

    def invert(self, a: GroupElement) -> GroupElement:
        self._check(a)
        word = None
        if a.word is not None:
            word = inverse_word(a.word)
        return GroupElement(self, self._invert(a.canonical), word)

    def is_identity(self, a: GroupElement) -> bool:
        self._check(a)
        return a.canonical == self._identity_canonical()

    def identity(self) -> GroupElement:
        return GroupElement(self, self._identity_canonical(), ())

    def _check(self, obj):
        if obj.backend is not self:
            raise BackendMismatch(f"element of {obj.backend!r} used with {self!r}")

    # -- deterministic ordering -------------------------------------------

    def sort_key(self, a: GroupElement):
        raise NotImplementedError

    # -- hooks implemented per backend --------------------------------------

    # the product of two canonicals; ball walks call it, or the batch
    # below, once per element and generator, so backends bind it once, as
    # a plain function where they can
    def _compose(self, ca, cb):
        raise NotImplementedError

    # [_compose(w, g) for w in chunk], element for element: the batch that
    # words.spheres takes. Its chunks never hold the identity; the trees
    # override it with one junction test for the whole chunk, and the
    # half-plane with one loop that unpacks g once
    def _compose_batch(self, chunk, g):
        raise NotImplementedError

    def _invert(self, ca):
        raise NotImplementedError

    def _identity_canonical(self):
        raise NotImplementedError

    def element(self, spec, word=None) -> GroupElement:
        raise NotImplementedError

    def _word_spec(self, spec) -> str:
        """A generator given as a word string, such as "aBa" on the trees."""
        try:
            return read_str(spec, "generator")
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def origin(self) -> Point:
        raise NotImplementedError

    def dist(self, x: Point, y: Point) -> float:
        raise NotImplementedError

    def apply(self, g: GroupElement, x: Point) -> Point:
        raise NotImplementedError

    def classify(self, g: GroupElement) -> Classification:
        raise NotImplementedError

    def translation_length(self, g: GroupElement) -> float:
        raise NotImplementedError

    def sample_points(self, rng, count: int):
        raise NotImplementedError

    # whether the ball of the canonicals ``gens`` may be counted without a
    # walk (``generic_ball_counts``' ``free``): True only when the normal
    # forms over gens are the words in which g_h may follow g_j exactly
    # when g_j g_h lies outside {1} u gens; decided with no compose. The
    # trees test one-letter sets (ByteWordTree), the half-plane a free
    # basis by integer ping-pong (HalfPlane)
    def _free_walk(self, gens):
        return False

    # a geodesic word over S for g where a normal-form theorem gives one in
    # closed form, else None (the caller searches): the trees answer when
    # every entry of S is one byte (ByteWordTree), the half-plane when S
    # passes _free_walk and g's carried word reduces to g (HalfPlane). The
    # word is the one word_length_in_S's walk would spell back
    def subgroup_word_exact(self, S, g):
        return None

    # a word over S for g spelled by the backend's normal form when S
    # contains its standard generating set, else None; not always shortest
    def normal_form_word(self, S, g):
        return None

    def config(self) -> dict:
        raise NotImplementedError

    # -- JSON form, as certificates store it ---------------------------------

    def canonical_payload(self, canonical):
        return list(canonical)

    def canonical_from_payload(self, data):
        """The canonical stored as ``data``, checked with the backend's own
        rules; TypeError or ValueError on anything else."""
        raise NotImplementedError

    def point_payload(self, p: Point):
        return list(p.data)

    def point_from_payload(self, data) -> Point:
        """The point stored as ``data``; raises like canonical_from_payload."""
        raise NotImplementedError

    # the basepoint pool (``basepoint_candidates``)
    def _candidate_seeds(self):
        return [self.origin()]

    def __repr__(self):
        return f"{type(self).__name__}({self.config()})"


class ByteWordTree(Backend):
    """A tree backend whose canonicals are normal-form byte words.

    A subclass sets ``_inverse``, the bytes.translate table of each byte's
    inverse, and ``_standard``, its standard generating set as one-byte
    canonicals, and supplies ``_compose`` and the junction test
    ``_plain(lasts, first)``: True when no word ending in a byte of
    ``lasts`` reduces against a word starting with byte ``first``.
    """

    def _identity_canonical(self):
        return b""

    def sort_key(self, a):
        return (len(a.canonical), a.canonical)

    def _invert(self, ca):
        return ca[::-1].translate(self._inverse)

    def _compose_batch(self, chunk, g):
        # one junction test for the chunk: when no last byte can meet g's
        # first, nothing reduces and every product is w + g
        if self._plain(bytes(map(_last, chunk)), g[0]):
            return list(map(add, chunk, repeat(g)))
        return list(map(self._compose, chunk, repeat(g)))

    # one byte per generator, all distinct: two free-group letters then
    # cancel or concatenate, and FreeProductTree also asks that two
    # syllables merge into the identity or a generator; so a word over gens
    # with no adjacent pair in {1} u gens is its own reduced byte word, the
    # normal form theorem of free groups and free products
    def _free_walk(self, gens):
        return all(len(g) == 1 for g in gens) and len(set(gens)) == len(gens)

    def classify(self, g):
        if not g.canonical:
            return Classification("identity")
        return Classification("loxodromic" if self.translation_length(g) else "elliptic")

    # the normal form, one byte per entry of S, when S holds the standard
    # set; a larger S can spell g shorter
    def normal_form_word(self, S, g):
        words = {e.canonical: e.word for e in S}
        if all(c in words for c in self._standard):
            return tuple(sym for c in g.canonical for sym in words[bytes((c,))])
        return None

    # one byte per entry of S, so each entry is one letter or one syllable:
    # by the normal form theorem of free groups and free products, |g|_S is
    # the sum over g's syllables of their lengths over S's entries in their
    # factor, and ``_syllable_words`` spells each syllable; None when one
    # lies outside <S>
    def subgroup_word_exact(self, S, g):
        if any(len(s.canonical) != 1 for s in S):
            return None
        table = self._syllable_words(S)
        try:
            return tuple(sym for c in g.canonical for sym in table[c])
        except KeyError:
            return None

    # each entry spells its own byte: on the free group, where every letter
    # is a syllable, that is the whole table (FreeProductTree overrides it)
    def _syllable_words(self, S):
        return {s.canonical[0]: s.word for s in S}


def basepoint_candidates(S, budget: int = 64):
    """Deterministic basepoint pool: the backend's seeds (``_candidate_seeds``),
    cut at ``budget``. No point of their S-orbit was the winning basepoint
    of any tree certificate measured; the half-plane search reads no point."""
    return S.backend._candidate_seeds()[:budget]
