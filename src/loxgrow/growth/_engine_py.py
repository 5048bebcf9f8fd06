"""The ball-count engine.

One counter per growth encoding: free-group words and C_p * C_q words as
bytes, integer matrices as 4-tuples, and a generic counter on canonical
forms for backends without an encoding. Each keeps its own compose
function; every count comes from the one breadth-first search,
``words.spheres``, which skips the composes that step back into the ball
it has walked. It walks a sphere one generator at a time and hands the
compose whole slices of the sphere below, through ``map``; a slice whose
products are all new joins the next sphere by set algebra, with no Python
step per element. So the counters' own per-element cost is the compose,
and the key on the generic path.

The byte composes first try the common case: when w is empty or the
letters at the junction cannot cancel (free words: w's last letter is not
the inverse of g's first; product words: w's last syllable and g's first
lie in different factors), the product is w + g, one concatenation. Only
otherwise do they cancel or merge letter by letter. Their batches run the
same junction test once for a whole chunk: they gather every last byte
into one bytes object, and when none of them can meet g's first byte (no
inverse letter; no byte in g's factor, checked by the least or greatest
byte against 64), the chunk is concatenated with g by ``map``, with no
Python step per element. Any other chunk is composed element by element.

The generic counter runs on the float half-plane, whose tables
``ball_sizes`` marks heuristic: it composes with
``HalfPlane._compose_float``, which normalises the sign inline, and dedups
by ``HalfPlane._growth_key``, which rounds only entries with more than 9
binary fractional digits. On integer-valued float sets it then costs
about what the integer-matrix counter does.
"""

from itertools import repeat
from operator import add, itemgetter
from typing import Callable, List, Tuple

from ..words import spheres

_MAT_ID = (1, 0, 0, 1)
_last = itemgetter(-1)


def _ball_counts(identity, gens, compose, n_max, cap, key=None, batch=None):
    """Ball counts for radii 0..n_max from the identity, as (counts, truncated).

    On truncation the counts stop at the last fully explored radius. A
    search that runs out of new elements means the ball stabilized (finite
    group); the constant tail is filled in.
    """
    counts = [1]
    walk = spheres(identity, gens, compose, cap, key, batch=batch)
    for _, sphere in zip(range(n_max), walk):
        counts.append(counts[-1] + len(sphere))
        if counts[-1] > cap:
            return counts[:-1], True
    counts.extend(counts[-1:] * (n_max + 1 - len(counts)))
    return counts, False


def _free_compose(w: bytes, g: bytes) -> bytes:
    if not (w and g) or w[-1] ^ g[0] != 1:
        return w + g
    cut = 0
    m = min(len(w), len(g))
    while cut < m and w[len(w) - 1 - cut] ^ g[cut] == 1:
        cut += 1
    return w[: len(w) - cut] + g[cut:]


def _free_batch(chunk: List[bytes], g: bytes) -> List[bytes]:
    if g[0] ^ 1 in bytes(map(_last, chunk)):
        return list(map(_free_compose, chunk, repeat(g)))
    return list(map(add, chunk, repeat(g)))


def free_ball_counts(gens: List[bytes], n_max: int, cap: int) -> Tuple[List[int], bool]:
    return _ball_counts(b"", gens, _free_compose, n_max, cap, batch=_free_batch)


def _product_compose_fn(p: int, q: int) -> Callable[[bytes, bytes], bytes]:
    orders = (p, q)

    def compose(w: bytes, g: bytes) -> bytes:
        if not (w and g) or (w[-1] ^ g[0]) >> 6:
            return w + g
        out = bytearray(w)
        for s in g:
            fac = s >> 6
            if out and out[-1] >> 6 == fac:
                e = ((out[-1] & 63) + (s & 63)) % orders[fac]
                out.pop()
                if e:
                    out.append((fac << 6) | e)
            else:
                out.append(s)
        return bytes(out)

    return compose


def _product_batch_fn(compose: Callable[[bytes, bytes], bytes]):
    def batch(chunk: List[bytes], g: bytes) -> List[bytes]:
        # factor a's syllables are the bytes below 64, factor b's the rest
        lasts = bytes(map(_last, chunk))
        if (min(lasts) >= 64) if g[0] < 64 else (max(lasts) < 64):
            return list(map(add, chunk, repeat(g)))
        return list(map(compose, chunk, repeat(g)))

    return batch


def product_ball_counts(
    gens: List[bytes], p: int, q: int, n_max: int, cap: int
) -> Tuple[List[int], bool]:
    compose = _product_compose_fn(p, q)
    return _ball_counts(b"", gens, compose, n_max, cap, batch=_product_batch_fn(compose))


def _mat_compose(w, g):
    a, b, c, d = w
    e, f, h, k = g
    ra = a * e + b * h
    rb = a * f + b * k
    rc = c * e + d * h
    rd = c * f + d * k
    if ra < 0 or (ra == 0 and rb < 0):
        return (-ra, -rb, -rc, -rd)
    return (ra, rb, rc, rd)


def matrix_ball_counts(
    gens: List[Tuple[int, int, int, int]], n_max: int, cap: int
) -> Tuple[List[int], bool]:
    return _ball_counts(_MAT_ID, gens, _mat_compose, n_max, cap)


def generic_ball_counts(identity, gens, compose, key, n_max, cap):
    """Object-path fallback for backends without a byte encoding.

    ``compose`` and ``key`` act on canonical forms; ``key`` must be stable
    under the backend's roundoff (exact canonicals hash as themselves).
    """
    return _ball_counts(identity, gens, compose, n_max, cap, key)
