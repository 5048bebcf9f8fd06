"""Ball-count tables and certified growth-rate brackets.

For a symmetric set S the counts a_n = #S^{<=n} are submultiplicative
(a_{m+n} <= a_m a_n), so u_n = min_{m <= n} log(a_m)/m is a nonincreasing
certified upper bound for the growth rate omega(<S>, S), while the one-step
ratio log(a_n / a_{n-1}) estimates it empirically.
"""

import math
from dataclasses import dataclass
from typing import List

from .. import __version__
from ..errors import ConfigError

CSV_HEADER = "n,ball,sphere,upper_bound,ratio_estimate"


@dataclass
class GrowthTable:
    balls: List[int]
    truncated: bool = False
    engine: str = ""

    def __post_init__(self):
        if not self.balls or self.balls[0] != 1:
            raise ValueError("a growth table starts with the radius-0 ball of size 1")

    @property
    def n_max(self):
        return len(self.balls) - 1

    def ball(self, n):
        return self.balls[n]

    def sphere(self, n):
        return self.balls[n] - (self.balls[n - 1] if n >= 1 else 0)

    def upper(self, n):
        if n < 1:
            return None
        return min(math.log(self.balls[m]) / m for m in range(1, n + 1))

    def ratio(self, n):
        if n < 1:
            return None
        return math.log(self.balls[n]) - math.log(self.balls[n - 1])

    def rows(self):
        for n in range(len(self.balls)):
            yield (n, self.balls[n], self.sphere(n), self.upper(n), self.ratio(n))

    def to_csv(self) -> str:
        def fmt(v):
            return "" if v is None else format(v, ".9g")

        lines = [f"# loxgrow {__version__}", CSV_HEADER]
        for n, ball, sphere, upper, ratio in self.rows():
            lines.append(f"{n},{ball},{sphere},{fmt(upper)},{fmt(ratio)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GrowthBrackets:
    omega_upper: float
    omega_hat: float


def growth_brackets(table: GrowthTable) -> GrowthBrackets:
    """Certified upper bound and empirical ratio estimate at the last radius."""
    n = table.n_max
    if n < 2:
        raise ConfigError("growth brackets need a table of radius >= 2")
    return GrowthBrackets(omega_upper=table.upper(n), omega_hat=table.ratio(n))


def theta_ratio(table: GrowthTable, S) -> float:
    """omega_hat normalized by log #S; free groups on #S/2 letters approach 1."""
    if len(S) < 2:
        raise ConfigError("theta needs at least two generators")
    return growth_brackets(table).omega_hat / math.log(len(S))
