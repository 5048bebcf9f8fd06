"""Concrete hyperbolic-space backends.

Three backends share one protocol: the Cayley tree of a free group, the
Bass-Serre tree of a free product of two finite cyclic groups, and the
hyperbolic plane acted on by 2x2 matrices (entries written as integers or
floats, both loaded exactly).
"""

from ..errors import ConfigError
from .base import Backend, Classification, GroupElement, Point, basepoint_candidates, word_str
from .free_tree import FreeGroupTree
from .half_plane import HalfPlane
from .product_tree import FreeProductTree
from .psl2z import psl2z_normal_form, syllables_to_matrix

_KINDS = {
    "free_group_tree": FreeGroupTree,
    "free_product_tree": FreeProductTree,
    "half_plane": HalfPlane,
}

_ALLOWED_KEYS = {
    "free_group_tree": {"kind", "rank", "letters"},
    "free_product_tree": {"kind", "orders"},
    "half_plane": {"kind", "arithmetic", "delta"},
}


def make_backend(config: dict) -> Backend:
    """Build a backend from a config mapping; unknown keys are rejected.

    Raises ConfigError on any config it cannot build, a parameter of the
    wrong type included: integer parameters take ints (not true or 2.7),
    the half-plane's delta a finite int or float (not "1.5", true or NaN).
    The trees are 0-hyperbolic and take no delta.
    """
    if not isinstance(config, dict) or "kind" not in config:
        raise ConfigError("backend config must be a mapping with a 'kind' key")
    kind = config["kind"]
    if type(kind) is not str or kind not in _KINDS:
        raise ConfigError(f"unknown backend kind {kind!r}")
    extra = set(config) - _ALLOWED_KEYS[kind]
    if extra:
        raise ConfigError(f"unknown backend keys for {kind}: {sorted(extra)}")
    kwargs = {k: v for k, v in config.items() if k != "kind"}
    if kind == "free_group_tree" and "rank" not in kwargs:
        raise ConfigError("free_group_tree needs a rank")
    try:
        if kind == "free_product_tree" and "orders" in kwargs:
            kwargs["orders"] = tuple(kwargs["orders"])
        return _KINDS[kind](**kwargs)
    except (TypeError, ValueError) as exc:
        # a parameter of the wrong shape or type, such as orders 5 or rank 2.5
        raise ConfigError(f"invalid {kind} parameters: {exc}") from exc


__all__ = [
    "Backend",
    "Classification",
    "FreeGroupTree",
    "FreeProductTree",
    "GroupElement",
    "HalfPlane",
    "Point",
    "basepoint_candidates",
    "make_backend",
    "psl2z_normal_form",
    "syllables_to_matrix",
    "word_str",
]
