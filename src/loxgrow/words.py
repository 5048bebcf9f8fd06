"""Finite symmetric generating sets and word-metric bookkeeping.

A GeneratingSet is an ordered, deduplicated, identity-free, inverse-closed
list of group elements.  Every element carries a spelling over the *labels*
of the original generators (inverse letters included), so sets produced by
product_ball_set remember a valid expression over the user's input set; that
expression bounds the word length d_S from above when exact search is out of
reach.
"""

from bisect import bisect_right
from itertools import islice, repeat
from operator import attrgetter

from .errors import BudgetExceeded, ConfigError, EmptyAfterReduction, NotSymmetric
from .spaces.base import GroupElement, word_str

DEFAULT_MEMORY_CAP = 2_000_000
# spheres: the longest batch
_CHUNK = 4096


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


def spheres(identity, gens, compose, cap, key=None, batch=None, seen=None):
    """Breadth-first spheres of the Cayley graph, one record per radius 1, 2, ...

    Each sphere is walked one generator at a time: its elements come in
    generator order, then frontier order, each found as
    ``compose(element, generator)``. That is reverse shortlex: an element
    sits where its least geodesic word over ``gens``, read right to left
    as generator indices, sorts. ``key`` maps an element to its dedup key
    (default None: the element itself), as a backend's walk key
    ``_walk_key(gens)`` does. Stops after an empty sphere (a finite
    group). Once the walked ball, identity included, passes ``cap`` it
    yields the partial sphere, ending with the element that passed the
    cap, and stops; callers spot this as 1 + (elements yielded) > cap.
    ``seen`` is the visited set to dedup against: the caller's set holding
    just the identity's key, which the walk then fills with every key it
    yields (default: a fresh one). A ``Ball`` passes its own, so readers
    of its records can probe it.

    A sphere comes as ``(sphere, keys, slices)``: ``keys[i]`` is the key
    of ``sphere[i]`` (``keys`` is ``sphere`` itself when ``key`` is None),
    and ``sphere[lo:hi]`` for ``(lo, hi) = slices[j]`` is what ``gens[j]``
    found. The slices are consecutive, in generator order, and an element
    of slice j has a least geodesic word that ends in g_j: j is the least
    index with element = p g_j for some p in the sphere below. A partial
    sphere's slices stop at the generator that passed the cap.

    Composes that can only step back into the walked ball are skipped.
    Each element w of sphere n >= 1 remembers the generator g_j that found
    it, w = p g_j with p in sphere n - 1, by lying in slice j. If g_j h
    lies in the radius-1 ball {1} u gens, then w h = p (g_j h) lies in the
    radius-n ball, which is all visited before sphere n is expanded, so
    ``compose(w, h)`` could only give a duplicate, and h does not step
    from g_j's slice. Which h these are for each g_j is read off the
    expansion of sphere 1, which composes every g_j h anyway, so a walk of
    two spheres composes no more than before. The skip is exact when
    ``key`` respects compose: keys of (p g_j) h and p (g_j h) agree, and
    equal keys stay equal when composed on the left. Every sphere, its
    order and the cap are then as if every element met every generator.
    Float canonicals meet this only up to roundoff: a skipped compose is,
    in exact arithmetic, an element already seen, so with raw float
    canonicals as keys the walk drops roundoff copies of walked elements
    that a full walk would have counted as new (``_rounded_key`` rounds
    them together either way; integer-valued float sets have no roundoff).

    A slice is stepped from in chunks of at most ``_CHUNK`` elements, each
    composed and keyed as one batch. When the visited set stays within
    ``cap`` and no key of the batch was seen, one probe pass checks that
    and one insert pass adds the keys. If the visited set then grew by the
    batch's length, its keys are distinct, adding them one by one would
    keep every one of them, in order, and the batch joins the sphere
    whole. Otherwise some key repeats within the batch; since none was
    seen before the insert, removing the batch's keys restores the visited
    set exactly. A group never takes this rollback (p g = p' g forces
    p = p'), but float keys and monoids can. A batch that was rolled back
    or failed the probe goes to a loop over the pairs already composed,
    which adds the new ones, records the skips while sphere 1 is expanded
    and stops at the element that passes the cap. A chunk that may pass
    the cap is composed whole, so at most ``_CHUNK`` composes happen past
    it, and the spheres are the same.

    ``batch(chunk, g)`` composes a chunk. It must return exactly
    ``[compose(w, g) for w in chunk]``, element for element; its chunks
    never hold the identity, whose products, the radius-1 sphere, come
    from ``compose``. The default maps ``compose`` over the chunk; a
    caller that can compose a whole chunk at once passes its own.
    """
    if batch is None:
        def batch(chunk, g):
            return list(map(compose, chunk, repeat(g)))

    if seen is None:
        seen = {identity if key is None else key(identity)}
    # frontier[lo:hi] for (lo, hi) = bounds[j] is what gens[j] found, and
    # sources[h] lists the slices gens[h] steps from; the identity is slice 0
    frontier, bounds = [identity], [(0, 1)]
    sources = [[0]] * len(gens)
    ball1 = None  # the radius-1 keys, while sphere 1 is expanded
    radius = 0
    while True:
        sphere, found = [], []
        keys = sphere if key is None else []
        for h, g in enumerate(gens):
            start = len(sphere)
            for j in sources[h]:
                lo, hi = bounds[j]
                while lo < hi:
                    chunk = frontier[lo:min(hi, lo + _CHUNK)]
                    lo += len(chunk)
                    cs = batch(chunk, g) if radius else [compose(identity, g)]
                    ks = cs if key is None else list(map(key, cs))
                    size = len(seen)
                    if size + len(ks) <= cap and seen.isdisjoint(ks):
                        seen.update(ks)
                        if len(seen) - size == len(ks):
                            sphere += cs
                            if keys is not sphere:
                                keys += ks
                            continue
                        # a key repeated within the chunk; none was seen
                        # before, so this restores seen exactly
                        seen.difference_update(ks)
                    for c, k in zip(cs, ks):
                        if k not in seen:
                            seen.add(k)
                            sphere.append(c)
                            if keys is not sphere:
                                keys.append(k)
                            if len(seen) > cap:
                                yield sphere, keys, found + [(start, len(sphere))]
                                return
                        elif ball1 is not None and k in ball1:
                            skipped[j].add(h)
            found.append((start, len(sphere)))
        if not sphere:
            return
        yield sphere, keys, found
        radius += 1
        if radius == 1:
            ball1, skipped = set(seen), [set() for _ in gens]
            sources = [range(len(gens))] * len(gens)
        elif radius == 2:
            sources = [[j for j, skip in enumerate(skipped) if h not in skip]
                       for h in range(len(gens))]
            ball1 = None
        frontier, bounds = sphere, found


class Ball:
    """One breadth-first walk of the Cayley ball of S, walked only as far as
    its readers ask and read by each of them from radius 0.

    The walk is ``spheres`` over S's canonicals with the backend's compose,
    chunk batch and walk key ``_walk_key``, capped at ``memory_cap``.
    ``key``, the backend's ``_growth_key``, matches targets and steps back
    to the walk's keys: it is the walk key, or keeps the walk's canonicals
    as they are where the walk key is None. ``records[n]`` is sphere n's
    ``(sphere, keys, slices)``, ``records[0]`` the identity's, and
    ``seen`` is the walk's visited set: the keys of every record so far,
    which may run past the radius a reader has reached. Iterating
    gives the records of spheres 1, 2, ..., those walked already first,
    then walking on; it stops where the walk stops (an empty sphere, or
    the partial sphere that passed the cap). ``growth.ball_sizes`` counts
    from a Ball and ``word_length_in_S`` searches one, so the pipeline
    walks the ball once for both.
    The walk's generator frame holds the Ball, a reference cycle: a dropped
    Ball is freed only when the cyclic garbage collector runs.
    """

    def __init__(self, S, memory_cap=DEFAULT_MEMORY_CAP):
        backend = S.backend
        self.cap = memory_cap
        self.key = backend._growth_key
        gens = [s.canonical for s in S]
        walk_key = backend._walk_key(gens)
        ident = backend._identity_canonical()
        self.ident_key = ident if walk_key is None else walk_key(ident)
        self.seen = {self.ident_key}
        self.records = [([ident], [self.ident_key], [(0, 1)])]
        self._walk = self._spheres(backend, ident, gens, walk_key)

    def _spheres(self, backend, ident, gens, key):
        # a generator, so a Ball that no reader walks starts no walk
        yield from spheres(ident, gens, backend._compose, self.cap, key,
                           batch=backend._compose_batch, seen=self.seen)

    def __iter__(self):
        radius = 1
        while True:
            if radius == len(self.records):
                record = next(self._walk, None)
                if record is None:
                    return
                self.records.append(record)
            yield self.records[radius]
            radius += 1


def product_ball_set(S, n, memory_cap=DEFAULT_MEMORY_CAP):
    """All nontrivial products of at most n generators, as a GeneratingSet."""
    if n < 1:
        raise ConfigError("n must be >= 1")
    backend = S.backend
    out = []
    ball = spheres(backend.identity(), list(S), backend.compose, memory_cap,
                   key=attrgetter("canonical"))
    for sphere, _, _ in islice(ball, n):
        out.extend(sphere)
        if len(out) >= memory_cap:
            raise BudgetExceeded(f"product ball exceeded {memory_cap} elements", completed=None)
    out = [g for g in out if not backend.is_identity(g)]
    out.sort(key=backend.sort_key)
    return GeneratingSet(backend, out)


def word_length_in_S(S, targets, memory_cap=DEFAULT_MEMORY_CAP, ball=None):
    """A shortest word over S for every ``(g, cap)`` in ``targets``, from one
    breadth-first walk of the Cayley ball of S: ``ball``, a ``Ball`` of S
    whose walk it resumes and whose cap stands for ``memory_cap``, or a
    fresh ``Ball(S, memory_cap)``.

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
    the walk stops when no target is left or the ball runs out. A ``Ball``
    walked further already (for the growth table) is only read.

    At each sphere a pending target costs one probe of the walk's visited
    set, ``ball.seen``, and only a target found there is looked for in the
    sphere's keys: ``seen`` holds this sphere when the walk has gone no
    further, but a pre-walked ``seen`` also holds the spheres beyond, so
    the keys decide. The Ball keeps the records, and a target found at
    radius d is spelled backwards from its place in sphere d: the slice it
    lies in names the entry s that found it, and g s^-1 lies in sphere
    d - 1, down to the identity. Targets, the identity and the steps back
    are matched by the backend's ``_growth_key`` (``ball.key``), which
    gives the Ball's walk keys, so its spheres are the ones ``ball_sizes``
    counts. On the float half-plane that key absorbs roundoff, and a float
    target whose step back still misses gives None; exact canonicals are
    their own keys (the key is None) and cost no key call. A sphere is
    mapped from key to place only when a found target lies past it, so
    the last sphere walked, often the largest, is never mapped.
    """
    backend = S.backend
    if ball is None:
        ball = Ball(S, memory_cap)
    key, seen = ball.key, ball.seen
    out = [None] * len(targets)
    pending = {}  # key -> [(index, cap)] still searched
    for i, (g, cap) in enumerate(targets):
        k = g.canonical if key is None else key(g.canonical)
        if k == ball.ident_key:
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
    hits = {}  # index -> (radius, place in its sphere), spelled after the walk
    for radius, (sphere, keys, _) in enumerate(islice(ball, horizon), 1):
        for target in [t for t in pending if t in seen]:
            try:
                place = keys.index(target)
            except ValueError:  # a later sphere: the walk ran ahead
                continue
            for i, _ in pending.pop(target):
                hits[i] = radius, place
        visited += len(sphere)
        if visited > ball.cap:
            bust = BudgetExceeded(
                f"word-length search exceeded {ball.cap} elements", completed=radius - 1
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
    if hits:
        walked = ball.records
        deepest = max(d for d, _ in hits.values())
        places = [dict(zip(keys, range(len(keys)))) for _, keys, _ in walked[:deepest]]
        for i, (d, place) in hits.items():
            out[i] = _spell_back(backend, key, S, walked[1:d + 1], places[:d], place)
    return out


def _spell_back(backend, key, S, records, places, place):
    """A word over S for the element at ``place`` of the last of
    ``records``, the spheres 1..d of a walk over S: the slice it lies in
    names the entry s that found it, and one compose with s^-1 steps to
    sphere d - 1, whose ``places`` map finds it by key, down to the
    identity. None if roundoff hides a step back."""
    steps = []
    for (sphere, _, slices), below in zip(reversed(records), reversed(places)):
        j = bisect_right([lo for lo, _ in slices], place) - 1
        prev = backend._compose(sphere[place], backend._invert(S[j].canonical))
        place = below.get(prev if key is None else key(prev))
        if place is None:
            return None
        steps.append(S[j].word)
    return tuple(sym for word in reversed(steps) for sym in word)
