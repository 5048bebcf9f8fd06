"""A fixed Python workload that measures how fast the machine is right now.

On a shared host the same command can take 20-40% longer for a minute at
a time. ``scale`` corrects a time measured next to this loop, in the same
process, by the ratio of REFERENCE_S to the loop's time (damped by
EXPONENT), so the scaled metrics read as seconds on this machine at its
usual speed. The loop mixes the operations loxgrow spends its time on
(byte strings and tuples in sets, small-int 2x2 products, float hyperbolic
distances, object allocation, long symbol words) but uses no loxgrow code,
so a change to loxgrow moves the scaled numbers as much as the raw ones.
"""

import gc
import math
import time

# usual calibrate() time on the 2-vCPU Xeon VM where the baselines were taken
REFERENCE_S = 0.020
# The loop reacts to slow phases more than loxgrow does: the exponent that
# gave the least spread between runs was 0.5 for growth-balls, 0.5-0.75 for
# certify-kappa and 1 for certify-pingpong. 0.75 keeps all three under 10%.
EXPONENT = 0.75


class _Elem:
    __slots__ = ("canonical", "word")

    def __init__(self, canonical, word):
        self.canonical = canonical
        self.word = word


def _bytes_ball(radius):
    gens = (b"\x00", b"\x01", b"\x02", b"\x03")
    seen = {b""}
    frontier = [b""]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for g in gens:
                c = w[:-1] if w and (w[-1] ^ g[0]) == 1 else w + g
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return len(seen)


def _matrix_ball(radius):
    gens = ((1, 2, 0, 1), (1, -2, 0, 1), (1, 0, 2, 1), (1, 0, -2, 1))
    ident = _Elem((1, 0, 0, 1), ())
    seen = {ident.canonical}
    frontier = [ident]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            a, b, c, d = w.canonical
            for i, (e, f, g, h) in enumerate(gens):
                m = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
                if m not in seen:
                    seen.add(m)
                    nxt.append(_Elem(m, w.word + ((i, 1),)))
        frontier = nxt
    return len(seen)


def _distances(count):
    total = 0.0
    z = complex(0.3, 1.7)
    for i in range(count):
        w = complex((i % 17) * 0.25 - 2.0, 0.5 + (i % 11) * 0.3)
        q = abs(z - w) ** 2 / (2.0 * z.imag * w.imag)
        total += math.acosh(1.0 + q)
        z = (2 * w + 1) / (w + 1) if i % 3 else z
    return total


def _symbol_words(steps):
    # a long spelling extended letter by letter, with free cancellation
    word = tuple(("g%d" % (i % 3), 1 if i % 4 else -1) for i in range(600))
    for i in range(steps):
        out = []
        for sym, sign in word + (("g%d" % (i % 3), 1),):
            if out and out[-1][0] == sym and out[-1][1] == -sign:
                out.pop()
            else:
                out.append((sym, sign))
        word = tuple(out[1:])
    return len(word)


def scale(seconds: float, calib_s: float) -> float:
    """A time measured next to a calibration of calib_s, at the reference speed."""
    return seconds * (REFERENCE_S / calib_s) ** EXPONENT


def calibrate() -> float:
    """Seconds for one fixed unit of work (about REFERENCE_S).

    Collects garbage first, so the previous command's leftovers are freed
    outside both timings, as they would be when its process exits.
    """
    gc.collect()
    t0 = time.perf_counter()
    _bytes_ball(8)
    _matrix_ball(7)
    _distances(6000)
    _symbol_words(60)
    return time.perf_counter() - t0
