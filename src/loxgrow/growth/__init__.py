"""Ball counting and growth-rate brackets."""

from .engine import KERNEL_AVAILABLE, ball_sizes
from .table import (
    CSV_HEADER,
    GrowthBrackets,
    GrowthTable,
    growth_brackets,
)

__all__ = [
    "CSV_HEADER",
    "GrowthBrackets",
    "GrowthTable",
    "KERNEL_AVAILABLE",
    "ball_sizes",
    "growth_brackets",
]
