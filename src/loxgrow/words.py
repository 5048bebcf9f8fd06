"""Finite symmetric generating sets and word-metric bookkeeping.

A GeneratingSet is an ordered, deduplicated, identity-free, inverse-closed
list of group elements.  Every element carries a spelling over the *labels*
of the original generators (inverse letters included), so sets produced by
product_ball_set remember a valid expression over the user's input set; that
expression bounds the word length d_S from above when exact search is out of
reach.
"""

from itertools import islice
from operator import attrgetter

from .errors import BudgetExceeded, ConfigError, EmptyAfterReduction, NotSymmetric
from .spaces.base import GroupElement, word_str

DEFAULT_MEMORY_CAP = 2_000_000


class GeneratingSet:
    def __init__(self, backend, elements):
        self.backend = backend
        self.elements = list(elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def labels(self):
        return [word_str(g.word) for g in self.elements]

    def __repr__(self):
        return f"GeneratingSet({self.labels()})"


def make_generating_set(backend, inputs, symmetrize=True):
    """Normalize user generators into a symmetric GeneratingSet.

    ``inputs`` may be word strings (tree backends), matrices (half_plane), or
    ready GroupElements.  Each input becomes a single named symbol; inverses
    reuse the symbol with a flipped sign, so symbol-word length counts
    occurrences of the original generators.
    """
    elems = []
    seen = set()
    for i, spec in enumerate(inputs):
        if isinstance(spec, str):
            label = spec
        elif isinstance(spec, GroupElement):
            label = word_str(spec.word)
        else:
            label = f"g{i}"
        g = backend.element(spec)
        g = GroupElement(backend, g.canonical, ((label, 1),))
        if backend.is_identity(g) or g.canonical in seen:
            continue
        seen.add(g.canonical)
        elems.append(g)
    if symmetrize:
        for g in list(elems):
            inv = backend.invert(g)
            if inv.canonical not in seen:
                seen.add(inv.canonical)
                elems.append(inv)
    else:
        for g in elems:
            if backend.invert(g).canonical not in seen:
                raise NotSymmetric(f"input not closed under inverses at {word_str(g.word)}")
    if not elems:
        raise EmptyAfterReduction("no nontrivial generators left")
    elems.sort(key=backend.sort_key)
    return GeneratingSet(backend, elems)


def spheres(identity, gens, compose, cap, key=None):
    """Breadth-first spheres of the Cayley graph, one list per radius 1, 2, ...

    Elements are found in frontier order, then generator order, via
    ``compose(element, generator)``; ``key`` maps an element to its dedup
    key (default: the element itself). Stops after an empty sphere (a
    finite group). Once the visited set, identity included, passes ``cap``
    it yields the partial sphere, ending with the element that passed the
    cap, and stops; callers spot this as 1 + (elements yielded) > cap.
    """
    seen = {identity if key is None else key(identity)}
    frontier = [identity]
    while True:
        sphere = []
        for w in frontier:
            for g in gens:
                c = compose(w, g)
                k = c if key is None else key(c)
                if k not in seen:
                    seen.add(k)
                    sphere.append(c)
                    if len(seen) > cap:
                        yield sphere
                        return
        if not sphere:
            return
        yield sphere
        frontier = sphere


def product_ball_set(S, n, memory_cap=DEFAULT_MEMORY_CAP):
    """All nontrivial products of at most n generators, as a GeneratingSet."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    backend = S.backend
    out = []
    ball = spheres(backend.identity(), list(S), backend.compose, memory_cap,
                   key=attrgetter("canonical"))
    for sphere in islice(ball, n):
        out.extend(sphere)
        if len(out) >= memory_cap:
            raise BudgetExceeded(f"product ball exceeded {memory_cap} elements", completed=None)
    out = [g for g in out if not backend.is_identity(g)]
    out.sort(key=backend.sort_key)
    return GeneratingSet(backend, out)


def word_length_in_S(S, targets, memory_cap=DEFAULT_MEMORY_CAP):
    """Exact d_S(1, g) for every ``(g, cap)`` in ``targets``, from one
    breadth-first walk of the Cayley ball of S.

    Returns one outcome per target, in order: the length, None when it
    exceeds ``cap``, or a BudgetExceeded (returned, not raised) when the
    visited set outgrew ``memory_cap`` by radius ``cap`` without meeting g;
    its ``completed`` is the last full radius. Each outcome is what a walk
    for that target alone would give: a target is checked against every
    sphere up to its own cap, before that sphere's budget check, and leaves
    the walk once found or past its cap. The identity and targets that
    ``backend.subgroup_length_exact`` resolves are answered without a walk;
    the walk stops when no target is left or the ball runs out.
    """
    backend = S.backend
    ident = backend._identity_canonical()
    out = [None] * len(targets)
    pending = {}  # canonical -> [(index, cap)] still searched
    for i, (g, cap) in enumerate(targets):
        if g.canonical == ident:
            out[i] = 0
            continue
        exact = backend.subgroup_length_exact(S, g)
        if exact is not None:
            out[i] = exact if exact <= cap else None
        elif cap >= 1:
            pending.setdefault(g.canonical, []).append((i, cap))
    if not pending:
        return out
    horizon = max(cap for entries in pending.values() for _, cap in entries)
    visited = 1
    ball = spheres(ident, [s.canonical for s in S], backend._compose, memory_cap)
    for radius, sphere in enumerate(islice(ball, horizon), 1):
        for target in [t for t in pending if t in sphere]:
            for i, _ in pending.pop(target):
                out[i] = radius
        visited += len(sphere)
        if visited > memory_cap:
            bust = BudgetExceeded(
                f"word-length search exceeded {memory_cap} elements", completed=radius - 1
            )
            for entries in pending.values():
                for i, _ in entries:
                    out[i] = bust
            return out
        # targets whose cap is this radius stay None
        pending = {target: kept for target, entries in pending.items()
                   if (kept := [e for e in entries if e[1] > radius])}
        if not pending:
            break
    return out
