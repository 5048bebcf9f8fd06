"""Common element/point types and the backend protocol.

A backend bundles a group with exact (or float) arithmetic and an action on a
proper hyperbolic space.  Group elements carry two representations:

* ``canonical`` -- the backend normal form, hashable, used for equality;
* ``word`` -- an optional expression over named generator symbols,
  ``((symbol, sign), ...)`` with sign +/-1.  Words survive composition with
  free cancellation at the symbol level, so any derived element remembers a
  valid (not necessarily geodesic) spelling over the original generators.

``ByteWordTree`` holds what the two trees' byte-word canonicals share: the
identity, shortlex order, inversion, the chunk batch, the one-byte half of
the free-walk test, ``classify`` and the spelling over the standard set.
"""

import sys
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class GroupElement:
    backend: Any = field(repr=False)
    canonical: Any
    word: Optional[Word] = field(default=None, compare=False)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.backend is other.backend and self.canonical == other.canonical

    def __hash__(self):
        return hash((id(self.backend), self.canonical))

    def __repr__(self):
        return f"<{word_str(self.word)}|{self.canonical}>"


@dataclass(frozen=True)
class Point:
    backend: Any = field(repr=False)
    data: Any

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
    torsion_bound = 1
    # canonical forms decide the word problem exactly (float backends lie)
    exact_words = True
    # worst-case roundoff of dist(); margins must absorb it
    dist_roundoff = 0.0

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
            word = tuple((sym, -sign) for sym, sign in reversed(a.word))
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

    # the key that matches elements to a walk's keys (targets, steps
    # back): None where canonicals are exact and so their own keys, else a
    # function that absorbs any roundoff the backend's canonical forms carry
    _growth_key = None

    # the dedup key of a ball walk over the canonicals ``gens``, as
    # words.spheres takes it: _growth_key, or None where that returns every
    # canonical the walk can reach unchanged
    def _walk_key(self, gens):
        return self._growth_key

    # whether the ball of the canonicals ``gens`` may be counted without a
    # walk (``generic_ball_counts``' ``free``): True only when the normal
    # forms over gens are the words in which g_h may follow g_j exactly
    # when g_j g_h lies outside {1} u gens; decided with no compose
    def _free_walk(self, gens):
        return False

    # a geodesic word over S for g when S is exactly the backend's standard
    # generating set, else None (the caller searches)
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

    # candidate-pool hooks with sensible defaults
    def _candidate_seeds(self):
        return [self.origin()]

    def _point_key(self, p: Point):
        return p.data

    def _extra_candidates(self, elems):
        return []

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

    def subgroup_word_exact(self, S, g):
        return self.normal_form_word(S, g) if len(S) == len(self._standard) else None


def basepoint_candidates(S, budget: int = 64):
    """Deterministic basepoint pool: the origin-type seeds, the S^{<=2} orbit
    of the origin, and backend-specific extras (axis apexes on the plane)."""
    backend = S.backend
    seeds = backend._candidate_seeds()
    pts = []
    seen = set()

    def push(p):
        key = backend._point_key(p)
        if key not in seen:
            seen.add(key)
            pts.append(p)

    for p in seeds:
        push(p)
    elems = list(S)
    # cap the pair products at the budget; escalated sets grow too fast
    # for the full quadratic sweep; only the products' canonicals matter
    heads = [g.canonical for g in elems[:budget]]
    prods = []
    known = {g.canonical for g in elems}
    for a in heads:
        if len(prods) >= budget:
            break
        for b in heads:
            ab = GroupElement(backend, backend._compose(a, b))
            if ab.canonical not in known and not backend.is_identity(ab):
                known.add(ab.canonical)
                prods.append(ab)
                if len(prods) >= budget:
                    break
    prods.sort(key=backend.sort_key)
    for g in elems + prods:
        for p in seeds:
            try:
                push(backend.apply(g, p))
            except OverflowError:
                # huge matrix entries push the orbit onto the boundary
                continue
        if len(pts) >= budget:
            break
    for p in backend._extra_candidates(elems):
        if len(pts) >= budget:
            break
        push(p)
    return pts[:budget]
