"""Common element/point types and the backend protocol.

A backend bundles a group with exact (or float) arithmetic and an action on a
proper hyperbolic space.  Group elements carry two representations:

* ``canonical`` -- the backend normal form, hashable, used for equality;
* ``word`` -- an optional expression over named generator symbols,
  ``((symbol, sign), ...)`` with sign +/-1.  Words survive composition with
  free cancellation at the symbol level, so any derived element remembers a
  valid (not necessarily geodesic) spelling over the original generators.
"""

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from ..errors import BackendMismatch

Word = Tuple[Tuple[str, int], ...]


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

    def __mul__(self, other):
        return self.backend.compose(self, other)

    def inverse(self):
        return self.backend.invert(self)

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

    def power(self, a: GroupElement, n: int) -> GroupElement:
        if n < 0:
            return self.power(self.invert(a), -n)
        out = self.identity()
        for _ in range(n):
            out = self.compose(out, a)
        return out

    def _check(self, obj):
        if obj.backend is not self:
            raise BackendMismatch(f"element of {obj.backend!r} used with {self!r}")

    # -- deterministic ordering -------------------------------------------

    def sort_key(self, a: GroupElement):
        raise NotImplementedError

    # -- hooks implemented per backend --------------------------------------

    def _compose(self, ca, cb):
        raise NotImplementedError

    def _invert(self, ca):
        raise NotImplementedError

    def _identity_canonical(self):
        raise NotImplementedError

    def element(self, spec, word=None) -> GroupElement:
        raise NotImplementedError

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

    # engine hook: ("free_words", rank) | ("product_words", p, q)
    # | ("int_matrix",) | None for the generic object path
    def growth_encoding(self):
        return None

    # dedup key for the generic ball-count path; must absorb any roundoff
    # the backend's canonical forms carry
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
