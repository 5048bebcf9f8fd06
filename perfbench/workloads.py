"""Workload definitions: seeded config files and the reference answers.

Each workload is a fixed list of configs; each config runs a fixed list of
CLI steps once per pass. The seed changes how the inputs are written, never
how much work they ask for:

* ``growth-balls`` conjugates its half-plane sets by a seeded product of
  T^+-1 and U^+-1 in SL(2, Z). Conjugation keeps the word metric, so the
  ball counts stay exact, and ball counting does the same work.
* ``certify-kappa`` and ``certify-pingpong`` only permute the generators,
  flip matrix signs and hand in inverses instead of generators. The library
  sorts generating sets by canonical form, so the pipeline makes the same
  choices on every seed. Conjugated sets make the search pick another
  loxodromic and (n, k): in trials the elliptic verify-bound took 4.3-6.2 s
  and Sanov's kappa went from 26 to 186, so the spread between runs would
  depend on the seeds drawn.
"""

import math
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

SANOV = [[[1, 2], [0, 1]], [[1, 0], [2, 1]]]
# S = [[0,-1],[1,0]] (order 2), ST (order 3), (ST)^2: needs one escalation round
PSL2Z_ELLIPTIC = [[[0, -1], [1, 0]], [[0, -1], [1, 1]], [[-1, -1], [1, 0]]]

LOG3 = math.log(3)

_T = ((1, 1), (0, 1))
_U = ((1, 0), (1, 1))

# C2*C3 {a, b} at radius 32; the sphere recurrence below must reproduce it
C23_BALL_32 = 458746


def free_rank2_balls(n: int) -> int:
    """#S^{<=n} for a free basis of rank 2: 2 * 3^n - 1."""
    return 2 * 3**n - 1


def c23_balls(n: int) -> int:
    """#S^{<=n} for C2*C3 with S = {a, b, b^-1}: spheres 1, 3, 4, then s_n = 2 s_{n-2}."""
    spheres = [1, 3, 4]
    while len(spheres) <= n:
        spheres.append(2 * spheres[-2])
    return sum(spheres[: n + 1])


@dataclass
class Config:
    """One config file and the CLI steps run on it in every pass."""

    name: str
    payload: dict
    steps: List[str]
    reference: Optional[Callable[[int], int]] = None  # exact ball counts
    free_rank2: bool = False  # omega(<S>, S) = log 3, so omega_lower <= log 3
    # check_certificate with the config's memory cap instead of `check-cert`;
    # the CLI checker always searches with the 2,000,000-element default cap
    check_memory_cap: Optional[int] = None
    notes: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    configs: List[Config]


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def _mat_inv(a):
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def _conjugator(rng):
    g = ((1, 0), (0, 1))
    letters = []
    for _ in range(rng.randint(1, 3)):
        base, name = rng.choice(((_T, "T"), (_U, "U")))
        if rng.random() < 0.5:
            base, name = _mat_inv(base), name + "^-1"
        g = _mat_mul(g, base)
        letters.append(name)
    return g, " ".join(letters)


def _conjugate(gens, rng, as_float=False):
    g, spelled = _conjugator(rng)
    g_inv = _mat_inv(g)
    out = []
    for m in gens:
        c = _mat_mul(_mat_mul(g, tuple(tuple(r) for r in m)), g_inv)
        out.append([[float(v) if as_float else v for v in row] for row in c])
    return out, spelled


def _present_matrices(gens, rng):
    """Same generating set after symmetrization, written differently."""
    out = []
    for m in gens:
        m = tuple(tuple(r) for r in m)
        if rng.random() < 0.5:
            m = _mat_inv(m)
        sign = rng.choice((1, -1))
        out.append([[sign * v for v in row] for row in m])
    rng.shuffle(out)
    return out


def _present_letters(gens, rng):
    """Swap generators for their inverse spelling (uppercase) and reorder."""
    out = [g.upper() if rng.random() < 0.5 else g for g in gens]
    rng.shuffle(out)
    return out


def _half_plane(arithmetic="exact_integer"):
    if arithmetic == "float":
        return {"kind": "half_plane", "arithmetic": "float"}
    return {"kind": "half_plane"}


def _product_tree(p, q):
    return {"kind": "free_product_tree", "orders": [p, q]}


def growth_balls(seed: int) -> Workload:
    rng = random.Random(f"growth-balls/{seed}")
    letters = rng.choice(("xy", "ab", "uv", "pq"))
    sanov, sanov_conj = _conjugate(SANOV, rng)
    sanov_f, sanov_f_conj = _conjugate(SANOV, rng, as_float=True)
    steps = ["growth"]
    return Workload(
        "growth-balls",
        [
            Config("f2", {
                "backend": {"kind": "free_group_tree", "rank": 2, "letters": letters},
                "generators": _present_letters(list(letters), rng),
                "budgets": {"n_max": 12},
            }, steps, reference=free_rank2_balls),
            Config("c2c3", {
                "backend": _product_tree(2, 3),
                "generators": _present_letters(["a", "b"], rng),
                "budgets": {"n_max": 32},
            }, steps, reference=c23_balls),
            Config("sanov", {
                "backend": _half_plane(),
                "generators": sanov,
                "budgets": {"n_max": 11},
            }, steps, reference=free_rank2_balls,
                notes={"conjugator": sanov_conj}),
            Config("sanov-float", {
                "backend": _half_plane("float"),
                "generators": sanov_f,
                "budgets": {"n_max": 10},
            }, steps, reference=free_rank2_balls,
                notes={"conjugator": sanov_f_conj}),
        ],
    )


def certify_kappa(seed: int) -> Workload:
    rng = random.Random(f"certify-kappa/{seed}")
    steps = ["verify-bound", "check-cert"]
    return Workload(
        "certify-kappa",
        [
            # delta 0.7 lies above log 2, the four-point constant of the
            # plane; at the default 1.0 the same escalation needs n = 21, not 2
            Config("elliptic", {
                "backend": {"kind": "half_plane", "delta": 0.7},
                "generators": _present_matrices(PSL2Z_ELLIPTIC, rng),
                "budgets": {"n_max": 3, "memory_cap": 5000},
            }, steps, check_memory_cap=5000),
            Config("sanov", {
                "backend": _half_plane(),
                "generators": _present_matrices(SANOV, rng),
                "budgets": {"n_max": 8, "memory_cap": 50000},
            }, steps, free_rank2=True, check_memory_cap=50000),
            Config("sanov-float", {
                "backend": _half_plane("float"),
                "generators": _present_matrices(SANOV, rng),
                "budgets": {"n_max": 7, "memory_cap": 20000},
            }, steps, free_rank2=True, check_memory_cap=20000),
            # {a, b} misses b^2..b^5, so kappa needs the breadth-first search
            Config("c2c7", {
                "backend": _product_tree(2, 7),
                "generators": _present_letters(["a", "b"], rng),
                "budgets": {"n_max": 10},
            }, steps),
        ],
    )


def certify_pingpong(seed: int) -> Workload:
    rng = random.Random(f"certify-pingpong/{seed}")
    steps = ["verify-bound", "free-basis", "check-cert"]
    pool = [
        ("c2c3", 2, 3, ["a", "b"], 12),
        ("c2c4", 2, 4, ["a", "b", "bb"], 10),
        ("c3c3", 3, 3, ["a", "b"], 8),
    ]
    return Workload(
        "certify-pingpong",
        [
            Config(name, {
                "backend": _product_tree(p, q),
                "generators": _present_letters(gens, rng),
                "budgets": {"n_max": n_max},
            }, steps)
            for name, p, q, gens, n_max in pool
        ],
    )


WORKLOADS = {
    "growth-balls": growth_balls,
    "certify-kappa": certify_kappa,
    "certify-pingpong": certify_pingpong,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)

