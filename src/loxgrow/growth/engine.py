"""Engine selection and dispatch for ball counting.

The compiled kernel is preferred whenever the backend exposes a byte or
integer encoding; the pure twin handles everything else and any int64
overflow the kernel reports.
"""

from ..errors import ConfigError
from ..words import DEFAULT_MEMORY_CAP
from . import _engine_py
from .table import GrowthTable

try:
    from . import _kernel
except ImportError:  # extension not built; the pure twin covers everything
    _kernel = None

KERNEL_AVAILABLE = _kernel is not None


def _dispatch(mod, S, enc, n_max, cap):
    backend = S.backend
    kind = enc[0]
    if kind == "free_words":
        gens = [backend.canonical_bytes(g.canonical) for g in S]
        return mod.free_ball_counts(gens, n_max, cap)
    if kind == "product_words":
        gens = [backend.canonical_bytes(g.canonical) for g in S]
        return mod.product_ball_counts(gens, enc[1], enc[2], n_max, cap)
    if kind == "int_matrix":
        gens = [g.canonical for g in S]
        return mod.matrix_ball_counts(gens, n_max, cap)
    raise ConfigError(f"unknown growth encoding {kind!r}")


def ball_sizes(
    S,
    n_max: int,
    memory_cap: float = DEFAULT_MEMORY_CAP,
    engine: str = "auto",
) -> GrowthTable:
    """Exact ball sizes #S^{<=n} for n = 0..n_max.

    Stops at the last completed radius with ``truncated=True`` once the
    number of distinct elements passes ``memory_cap``. ``engine`` is one of
    "auto", "kernel", "python"; backends without an exact encoding always
    run the generic object path.
    """
    if n_max < 0:
        raise ConfigError("n_max must be >= 0")
    if engine not in ("auto", "kernel", "python"):
        raise ConfigError(f"unknown engine {engine!r}")
    cap = int(memory_cap)
    if cap < 1:
        raise ConfigError("memory_cap must be positive")
    backend = S.backend
    enc = backend.growth_encoding()

    if enc is None:
        if engine == "kernel":
            raise ConfigError("the compiled kernel needs an exact backend")
        counts, truncated = _engine_py.generic_ball_counts(
            backend._identity_canonical(),
            [g.canonical for g in S],
            backend._compose,
            backend._growth_key,
            n_max,
            cap,
        )
        return GrowthTable(counts, truncated=truncated, engine="generic")

    if engine == "kernel" and _kernel is None:
        raise ConfigError("the compiled kernel is not built; reinstall or use engine='python'")
    use_kernel = _kernel is not None and engine != "python"

    if use_kernel:
        try:
            counts, truncated = _dispatch(_kernel, S, enc, n_max, cap)
            tag = "kernel"
        except OverflowError:
            if engine == "kernel":
                raise
            counts, truncated = _dispatch(_engine_py, S, enc, n_max, cap)
            tag = "python"
    else:
        counts, truncated = _dispatch(_engine_py, S, enc, n_max, cap)
        tag = "python"
    return GrowthTable(counts, truncated=truncated, engine=tag)
