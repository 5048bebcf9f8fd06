"""Input checks and dispatch for ball counting.

Backends with a byte or integer-matrix encoding run the matching
``_engine_py`` counter on that encoding; all others run the generic
object path on canonical forms. The counters are looked up on the module
at call time, so wrapping ``_engine_py.<name>`` wraps every call.
"""

from ..errors import ConfigError
from ..words import DEFAULT_MEMORY_CAP
from . import _engine_py
from .table import GrowthTable

# There is no compiled engine; perfbench/worker.py still imports this name.
KERNEL_AVAILABLE = False


def ball_sizes(S, n_max: int, memory_cap: float = DEFAULT_MEMORY_CAP) -> GrowthTable:
    """Exact ball sizes #S^{<=n} for n = 0..n_max.

    Stops at the last completed radius with ``truncated=True`` once the
    number of distinct elements passes ``memory_cap``. The table's engine
    is "python" for the byte and matrix encodings, "generic" otherwise; it
    is ``heuristic`` when the backend's canonicals are inexact (the float
    half-plane), whose elements are merged by ``_growth_key``.
    """
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    cap = int(memory_cap)
    if cap < 1:
        raise ConfigError("memory_cap must be positive")
    backend = S.backend
    enc = backend.growth_encoding()
    if enc is None:
        counts, truncated = _engine_py.generic_ball_counts(
            backend._identity_canonical(),
            [g.canonical for g in S],
            backend._compose,
            backend._growth_key,
            n_max,
            cap,
        )
        return GrowthTable(counts, truncated=truncated, engine="generic",
                           heuristic=not backend.exact_words)

    kind = enc[0]
    if kind == "free_words":
        gens = [backend.canonical_bytes(g.canonical) for g in S]
        counts, truncated = _engine_py.free_ball_counts(gens, n_max, cap)
    elif kind == "product_words":
        gens = [backend.canonical_bytes(g.canonical) for g in S]
        counts, truncated = _engine_py.product_ball_counts(gens, enc[1], enc[2], n_max, cap)
    elif kind == "int_matrix":
        gens = [g.canonical for g in S]
        counts, truncated = _engine_py.matrix_ball_counts(gens, n_max, cap)
    else:
        raise ConfigError(f"unknown growth encoding {kind!r}")
    return GrowthTable(counts, truncated=truncated, engine="python")
