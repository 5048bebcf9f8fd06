"""The ball-count engine.

One counter per growth encoding: free-group words and C_p * C_q words as
bytes, integer matrices as 4-tuples, and a generic counter on canonical
forms for backends without an encoding. Each keeps its own compose
function; every count comes from the one breadth-first search,
``words.spheres``.
"""

from typing import Callable, List, Tuple

from ..words import spheres

_MAT_ID = (1, 0, 0, 1)


def _ball_counts(identity, gens, compose, n_max, cap, key=None):
    """Ball counts for radii 0..n_max from the identity, as (counts, truncated).

    On truncation the counts stop at the last fully explored radius. A
    search that runs out of new elements means the ball stabilized (finite
    group); the constant tail is filled in.
    """
    counts = [1]
    for _, sphere in zip(range(n_max), spheres(identity, gens, compose, cap, key)):
        counts.append(counts[-1] + len(sphere))
        if counts[-1] > cap:
            return counts[:-1], True
    counts.extend(counts[-1:] * (n_max + 1 - len(counts)))
    return counts, False


def _free_compose(w: bytes, g: bytes) -> bytes:
    cut = 0
    m = min(len(w), len(g))
    while cut < m and w[len(w) - 1 - cut] ^ g[cut] == 1:
        cut += 1
    return w[: len(w) - cut] + g[cut:]


def free_ball_counts(gens: List[bytes], n_max: int, cap: int) -> Tuple[List[int], bool]:
    return _ball_counts(b"", gens, _free_compose, n_max, cap)


def _product_compose_fn(p: int, q: int) -> Callable[[bytes, bytes], bytes]:
    orders = (p, q)

    def compose(w: bytes, g: bytes) -> bytes:
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


def product_ball_counts(
    gens: List[bytes], p: int, q: int, n_max: int, cap: int
) -> Tuple[List[int], bool]:
    return _ball_counts(b"", gens, _product_compose_fn(p, q), n_max, cap)


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
