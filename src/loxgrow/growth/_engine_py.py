"""The ball-count engine.

One counter for every backend: ``generic_ball_counts`` walks the Cayley
ball with the backend's own compose on canonical forms. Every count comes
from the one breadth-first search, ``words.spheres``, which skips the
composes that step back into the ball it has walked. It walks a sphere one
generator at a time and hands the backend's ``_compose_batch`` whole
slices of the sphere below; a slice whose products are all new joins the
next sphere after one probe and one insert per key, both in C, with no
Python step per element. So the per-element cost is the compose, and the
key where canonicals are inexact. Each sphere comes with its keys and
the slice each generator found; the counter reads only its length, so it
counts any stream of these records. ``verify-bound`` hands it a
``words.Ball``, whose records the kappa search then reads on: that
command walks the ball once for both. ``growth`` and other callers that
hand it nothing get a fresh walk whose spheres are dropped once counted.

The trees' canonicals are bytes, and their composes first try the common
case: when the letters at the junction cannot cancel (free words: w's
last letter is not the inverse of g's first; product words: w's last
syllable and g's first lie in different factors), the product is w + g,
one concatenation. Only otherwise do they cancel or merge at the
junction. Their batches run the same junction test once for a whole
chunk: they gather every last byte into one bytes object, and when none
of them can meet g's first byte, the chunk is concatenated with g by
``map``, with no Python step per element. Any other chunk is composed
element by element. The half-plane composes integer or float 4-tuples;
its exact batch composes a chunk in one loop with g unpacked once, and
its float batch maps the float compose.

On the float half-plane, whose tables ``ball_sizes`` marks heuristic,
the walk dedups by ``HalfPlane._growth_key``, which rounds only entries
with more than 9 binary fractional digits; on integer-valued float sets
it then costs about what the exact walk does.
"""

from ..words import spheres


def generic_ball_counts(identity, gens, compose, n_max, cap, key=None, batch=None,
                        records=None):
    """Ball counts for radii 0..n_max from the identity, as (counts, truncated).

    ``compose``, ``key`` and ``batch`` act on canonical forms, as
    ``words.spheres`` takes them; ``key`` must be stable under the
    backend's roundoff (None: canonicals are their own keys). ``records``
    is the walk to count, the records of spheres 1, 2, ... from any
    ``spheres`` walk with these arguments, such as a ``words.Ball`` shared
    with other readers (default: a fresh walk, whose spheres are dropped
    as soon as they are counted). Only ``len(sphere)`` is read. On
    truncation the counts stop at the last fully explored radius. A search
    that runs out of new elements means the ball stabilized (finite
    group); the constant tail is filled in.
    """
    counts = [1]
    if records is None:
        records = spheres(identity, gens, compose, cap, key, batch=batch)
    for _, (sphere, _, _) in zip(range(n_max), records):
        counts.append(counts[-1] + len(sphere))
        if counts[-1] > cap:
            return counts[:-1], True
    counts.extend(counts[-1:] * (n_max + 1 - len(counts)))
    return counts, False


# no caller; perfbench/tracing.py still wraps these names (ROADMAP item 5)
free_ball_counts = product_ball_counts = matrix_ball_counts = generic_ball_counts
