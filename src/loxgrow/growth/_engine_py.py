"""The ball-count engine.

One counter for every backend: ``generic_ball_counts`` walks the Cayley
ball with the backend's own compose on canonical forms, except on the
sets where it needs no walk. Every walked count comes from the one
breadth-first search, ``words.spheres``, which skips the composes that
step back into the ball it has walked. It walks a sphere one generator
at a time and hands the backend's ``_compose_batch`` whole slices of the
sphere below; a slice whose products are all new joins the next sphere
after one probe and one insert per canonical, both in C, with no Python
step per element. So the per-element cost is the compose. Each sphere
comes with its keys and the slice each generator found; the counter
reads only its length, so it counts any stream of these records.
``verify-bound`` hands it a ``words.Ball``, whose records the kappa
search then reads on: that command walks the ball once for both.
``growth`` and other callers that hand it nothing get a fresh walk whose
spheres are dropped once counted.

When the backend's ``_free_walk`` vouches for S (distinct one-letter or
one-syllable tree entries, closed in each factor, or a half-plane set of
integer matrices that a ping-pong test proves a free basis),
nothing is walked: the normal forms over S are a language whose only
state is the last letter, so each sphere's slice sizes follow from the
sphere below.

The trees' canonicals are bytes, and their composes first try the common
case: when the letters at the junction cannot cancel (free words: w's
last letter is not the inverse of g's first; product words: w's last
syllable and g's first lie in different factors), the product is w + g,
one concatenation. Only otherwise do they cancel or merge at the
junction. Their batches run the same junction test once for a whole
chunk: they gather every last byte into one bytes object, and when none
of them can meet g's first byte, the chunk is concatenated with g by
``map``, with no Python step per element. Any other chunk is composed
element by element. The half-plane's canonicals are integer matrices in
lowest terms, whichever way the input was written; it composes a chunk
with a det-1 g in one loop, with g unpacked once, where each product is
already in lowest terms and only needs the sign rule, and a chunk with
any other g one ``_compose`` at a time, which divides out the gcd.
"""

from ..words import spheres


def generic_ball_counts(identity, gens, compose, n_max, cap, batch=None,
                        records=None, free=False):
    """Ball counts for radii 0..n_max from the identity, as (counts, truncated).

    ``compose`` and ``batch`` act on canonical forms, one per element, as
    ``words.spheres`` takes them. ``records``
    is the walk to count, the records of spheres 1, 2, ... from any
    ``spheres`` walk with these arguments, such as a ``words.Ball`` shared
    with other readers (default: a fresh walk, whose spheres are dropped
    as soon as they are counted). Only ``len(sphere)`` is read. On
    truncation the counts stop at the last fully explored radius, as a
    walk capped at ``cap`` stops. A search that runs out of new elements
    means the ball stabilized (finite group); the constant tail is filled
    in.

    ``free`` promises that ``gens`` are distinct canonicals, none the
    identity, whose words have unique normal forms in which g_h may follow
    g_j exactly when ``compose(g_j, g_h)`` lies outside {1} u gens (a
    backend's ``_free_walk``; a free basis with its inverses qualifies).
    The counts then come from each sphere's slice sizes, one per last
    letter, and neither ``records`` nor a walk is read; ``batch`` goes
    unused. An all-zero sphere (a finite group) repeats the
    last count.
    """
    counts = [1]
    if free:
        ball1 = {identity, *gens}
        sources = [[j for j, g in enumerate(gens) if compose(g, h) not in ball1]
                   for h in gens]
        sizes = [1] * len(gens)
        for _ in range(n_max):
            counts.append(counts[-1] + sum(sizes))
            if counts[-1] > cap:
                return counts[:-1], True
            sizes = [sum(sizes[j] for j in src) for src in sources]
        return counts, False
    if records is None:
        records = spheres(identity, gens, compose, cap, batch=batch)
    for _, (sphere, _, _) in zip(range(n_max), records):
        counts.append(counts[-1] + len(sphere))
        if counts[-1] > cap:
            return counts[:-1], True
    counts.extend(counts[-1:] * (n_max + 1 - len(counts)))
    return counts, False


# no caller; perfbench/tracing.py still wraps these names (ROADMAP item 6)
free_ball_counts = product_ball_counts = matrix_ball_counts = generic_ball_counts
