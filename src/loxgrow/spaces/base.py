"""Common element/point types and the backend protocol.

A backend bundles a group with exact (or float) arithmetic and an action on a
proper hyperbolic space.  Group elements carry two representations:

* ``canonical`` -- the backend normal form, hashable, used for equality;
* ``word`` -- an optional expression over named generator symbols,
  ``((symbol, sign), ...)`` with sign +/-1.  Words survive composition with
  free cancellation at the symbol level, so any derived element remembers a
  valid (not necessarily geodesic) spelling over the original generators.
"""

import sys
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Optional, Tuple

from ..errors import BackendMismatch, ConfigError

Word = Tuple[Tuple[str, int], ...]


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
    boundary: bool = False  # float trace within eps of the parabolic line


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

    # the product of two canonicals; ball walks call it once per element
    # and generator, so backends bind it once, as a plain function where
    # they can
    def _compose(self, ca, cb):
        raise NotImplementedError

    # [_compose(w, g) for w in chunk], element for element: the batch that
    # words.spheres takes. Its chunks never hold the identity; the trees
    # override it with one junction test for the whole chunk, and the
    # exact half-plane with one loop that unpacks g once
    def _compose_batch(self, chunk, g):
        return list(map(self._compose, chunk, repeat(g)))

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

    def geodesic_point(self, x: Point, y: Point, t: float) -> Point:
        raise NotImplementedError

    def classify(self, g: GroupElement) -> Classification:
        raise NotImplementedError

    def translation_length(self, g: GroupElement) -> float:
        raise NotImplementedError

    def sample_points(self, rng, count: int):
        raise NotImplementedError

    # dedup key of ball walks over inexact canonicals (exact_words false);
    # must absorb any roundoff the backend's canonical forms carry
    def _growth_key(self, canonical):
        return canonical

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
