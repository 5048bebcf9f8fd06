"""Input checks for ball counting, and the one call of the counter.

Every backend runs ``_engine_py.generic_ball_counts`` with its own compose
and chunk batch on canonical forms. The counter is looked up on the
module at call time, so wrapping ``_engine_py.generic_ball_counts`` wraps
every call.
"""

from ..errors import ConfigError
from ..words import DEFAULT_MEMORY_CAP
from . import _engine_py
from .table import GrowthTable

# There is no compiled engine; perfbench/worker.py still imports this name.
KERNEL_AVAILABLE = False


def ball_sizes(S, n_max: int, memory_cap: float = DEFAULT_MEMORY_CAP,
               ball=None) -> GrowthTable:
    """Exact ball sizes #S^{<=n} for n = 0..n_max.

    Stops at the last completed radius with ``truncated=True`` once the
    number of distinct elements passes ``memory_cap``. Elements are told
    apart by their canonicals, one per element on every backend. ``ball``,
    a ``words.Ball`` of S with this cap, is the walk to count, which keeps
    its records for the next reader (``verify_theorem``'s kappa search);
    without one the counter walks afresh and keeps no sphere. Where the
    backend's ``_free_walk`` holds for S's canonicals (one-letter tree
    sets, half-plane sets of integer matrices that pass its
    ping-pong test), the counter walks nothing, not even ``ball``: it
    counts normal forms by their last letter.
    """
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    cap = int(memory_cap)
    if cap < 1:
        raise ConfigError("memory_cap must be positive")
    backend = S.backend
    gens = [g.canonical for g in S]
    counts, truncated = _engine_py.generic_ball_counts(
        backend._identity_canonical(), gens, backend._compose, n_max, cap,
        batch=backend._compose_batch, records=ball,
        free=backend._free_walk(gens),
    )
    return GrowthTable(counts, truncated=truncated, engine="generic")
