"""Finite symmetric generating sets and word-metric bookkeeping.

A GeneratingSet is an ordered, deduplicated, identity-free, inverse-closed
list of group elements.  Every element carries a spelling over the *labels*
of the original generators (inverse letters included), so sets produced by
product_ball_set remember a valid expression over the user's input set; that
expression bounds the word length d_S from above when exact search is out of
reach.
"""

from itertools import islice, repeat
from operator import attrgetter

from .errors import BudgetExceeded, ConfigError, EmptyAfterReduction, NotSymmetric
from .spaces.base import GroupElement, word_str

DEFAULT_MEMORY_CAP = 2_000_000
# spheres: the longest batch, and the shortest chunk worth batching
_CHUNK = 4096
_SMALL = 32


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


def spheres(identity, gens, compose, cap, key=None, keyed=False):
    """Breadth-first spheres of the Cayley graph, one list per radius 1, 2, ...

    Each sphere is walked one generator at a time: its elements come in
    generator order, then frontier order, each found as
    ``compose(element, generator)``. That is reverse shortlex: an element
    sits where its least geodesic word over ``gens``, read right to left
    as generator indices, sorts. ``key`` maps an element to its dedup key
    (default: the element itself). With ``keyed`` each sphere comes as a
    dict from key to element, in the same order, so a caller that matches
    by key needs no key call of its own. Stops after an empty sphere (a
    finite group). Once the visited set, identity included, passes ``cap``
    it yields the partial sphere, ending with the element that passed the
    cap, and stops; callers spot this as 1 + (elements yielded) > cap.

    Composes that can only step back into the walked ball are skipped.
    Each element w of sphere n >= 1 remembers the generator g_j that found
    it, w = p g_j with p in sphere n - 1, by lying in the slice of its
    sphere that g_j found. If g_j h lies in the radius-1 ball {1} u gens,
    then w h = p (g_j h) lies in the radius-n ball, which is all visited
    before sphere n is expanded, so ``compose(w, h)`` could only give a
    duplicate, and h does not step from g_j's slice. Which h these are for
    each g_j is read off the expansion of sphere 1, which composes every
    g_j h anyway, so a walk of two spheres composes no more than before.
    The skip is exact when ``key`` respects compose: keys of (p g_j) h and
    p (g_j h) agree, and equal keys stay equal when composed on the left.
    Every sphere, its order and the cap are then as if every element met
    every generator. Float canonicals meet this only up to roundoff: a
    skipped compose is, in exact arithmetic, an element already seen, so
    with raw float canonicals as keys the walk drops roundoff copies of
    walked elements that a full walk would have counted as new
    (``_growth_key`` rounds them together either way).

    A slice is stepped from in chunks of at most ``_CHUNK`` elements, and
    a chunk that cannot pass the cap, even if all its products are new,
    is composed and keyed as one batch. When the batch's keys are distinct
    and none was seen, the element loop would add every one of them, in
    order, so the batch joins the sphere whole; otherwise the element loop
    runs over the pairs already composed. The element loop composes
    lazily on chunks shorter than ``_SMALL``, on chunks that could pass
    the cap, and on the expansion of sphere 1, which records the skips. So
    no compose happens past the cap, and every sphere is the element
    loop's, element for element.
    """
    seen = {identity if key is None else key(identity)}
    # frontier[lo:hi] for (lo, hi) = bounds[j] is what gens[j] found, and
    # sources[h] lists the slices gens[h] steps from; the identity is slice 0
    frontier, bounds = [identity], [(0, 1)]
    sources = [[0]] * len(gens)
    ball1 = None  # the radius-1 keys, while sphere 1 is expanded
    radius = 0
    while True:
        sphere, found = [], []
        keys = [] if keyed else None
        for h, g in enumerate(gens):
            start = len(sphere)
            for j in sources[h]:
                lo, hi = bounds[j]
                while lo < hi:
                    chunk = frontier[lo:min(hi, lo + _CHUNK)]
                    lo += len(chunk)
                    if len(chunk) >= _SMALL and ball1 is None and len(seen) + len(chunk) <= cap:
                        cs = list(map(compose, chunk, repeat(g)))
                        ks = cs if key is None else list(map(key, cs))
                        fresh = set(ks)
                        if len(fresh) == len(ks) and fresh.isdisjoint(seen):
                            seen |= fresh
                            sphere += cs
                            if keyed:
                                keys += ks
                            continue
                        for c, k in zip(cs, ks):
                            if k not in seen:
                                seen.add(k)
                                sphere.append(c)
                                if keyed:
                                    keys.append(k)
                        continue
                    for w in chunk:
                        c = compose(w, g)
                        k = c if key is None else key(c)
                        if k not in seen:
                            seen.add(k)
                            sphere.append(c)
                            if keyed:
                                keys.append(k)
                            if len(seen) > cap:
                                yield dict(zip(keys, sphere)) if keyed else sphere
                                return
                        elif ball1 is not None and k in ball1:
                            skipped[j].add(h)
            found.append((start, len(sphere)))
        if not sphere:
            return
        yield dict(zip(keys, sphere)) if keyed else sphere
        radius += 1
        if radius == 1:
            ball1, skipped = set(seen), [set() for _ in gens]
            sources = [range(len(gens))] * len(gens)
        elif radius == 2:
            sources = [[j for j, skip in enumerate(skipped) if h not in skip]
                       for h in range(len(gens))]
            ball1 = None
        frontier, bounds = sphere, found


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
    """A shortest word over S for every ``(g, cap)`` in ``targets``, from one
    breadth-first walk of the Cayley ball of S.

    Returns one outcome per target, in order: a word for g of d_S(1, g)
    steps, each step spelled by its S entry's own word (one symbol per
    entry, as make_generating_set builds S); None when d_S(1, g) exceeds
    ``cap``; or a BudgetExceeded (returned, not raised) when the visited
    set outgrew ``memory_cap`` by radius ``cap`` without meeting g; its
    ``completed`` is the last full radius. At the radius where the walk
    passes ``memory_cap`` its sphere is partial: ``spheres`` lists it in
    reverse shortlex order and ends it at the element that passed the cap,
    so a target of that radius is found exactly when it comes no later
    than that element in this order. Each outcome is what a walk for
    that target alone would give: a target is checked against every sphere
    up to its own cap, before that sphere's budget check, and leaves the
    walk once found or past its cap. The identity and targets that
    ``backend.subgroup_word_exact`` spells are answered without a walk;
    the walk stops when no target is left or the ball runs out.

    The walk keeps its spheres, and a target found at radius d is spelled
    backwards: from g to g s^-1 in sphere d - 1, and on to the identity.
    Spheres are matched by ``backend._growth_key``, which absorbs float
    roundoff; a float target whose step back still misses gives None.
    Where canonicals are inexact (``backend.exact_words`` false) the walk
    itself dedups by that key, so its spheres are the ones ``ball_sizes``
    counts, and targets and the identity are matched by key. Exact
    canonicals are their own keys and cost no key call; an exact sphere
    is turned into a map only when a found target lies past it, so the
    last sphere walked, often the largest, is never mapped.
    """
    backend = S.backend
    key = None if backend.exact_words else backend._growth_key
    ident = backend._identity_canonical()
    ident_key = ident if key is None else key(ident)
    out = [None] * len(targets)
    pending = {}  # key -> [(index, cap)] still searched
    for i, (g, cap) in enumerate(targets):
        k = g.canonical if key is None else key(g.canonical)
        if k == ident_key:
            out[i] = ()
            continue
        exact = backend.subgroup_word_exact(S, g)
        if exact is not None:
            out[i] = exact if len(exact) <= cap else None
        elif cap >= 1:
            pending.setdefault(k, []).append((i, cap))
    if not pending:
        return out
    horizon = max(cap for entries in pending.values() for _, cap in entries)
    visited = 1
    # a float sphere comes from the walk as the key -> canonical map that
    # both matching and spelling use, keyed once by the dedup itself; an
    # exact sphere is its own keys, stays a list and is matched by scanning
    walked = [[ident] if key is None else {ident_key: ident}]
    ball = spheres(ident, [s.canonical for s in S], backend._compose, memory_cap, key,
                   keyed=key is not None)
    for radius, sphere in enumerate(islice(ball, horizon), 1):
        walked.append(sphere)
        for target in [t for t in pending if t in sphere]:
            for i, _ in pending.pop(target):
                out[i] = radius  # spelled after the walk
        visited += len(sphere)
        if visited > memory_cap:
            bust = BudgetExceeded(
                f"word-length search exceeded {memory_cap} elements", completed=radius - 1
            )
            for entries in pending.values():
                for i, _ in entries:
                    out[i] = bust
            break
        # targets whose cap is this radius stay None
        pending = {target: kept for target, entries in pending.items()
                   if (kept := [e for e in entries if e[1] > radius])}
        if not pending:
            break
    radii = [(i, d) for i, d in enumerate(out) if isinstance(d, int)]
    if radii:
        deepest = max(d for _, d in radii)
        layers = [dict(zip(w, w)) if key is None else w for w in walked[:deepest]]
        back = [(backend._invert(s.canonical), s.word) for s in S]
        for i, d in radii:
            out[i] = _spell_back(backend, targets[i][0].canonical, layers[:d], back)
    return out


def _spell_back(backend, g, layers, back):
    """A word for g, which lies one sphere past ``layers[-1]``: step to
    g s^-1 for the first ``(s^-1, word of s)`` in ``back`` that lands in the
    sphere below, down to the identity in ``layers[0]``. None if roundoff
    hides every step back from some sphere."""
    key = backend._growth_key
    steps = []
    for layer in reversed(layers):
        for inv, word in back:
            prev = layer.get(key(backend._compose(g, inv)))
            if prev is not None:
                break
        else:
            return None
        steps.append(word)
        g = prev
    return tuple(sym for word in reversed(steps) for sym in word)
