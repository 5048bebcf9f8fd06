import functools
import sys

import pytest

import loxgrow.words
from loxgrow.errors import EmptyAfterReduction
from loxgrow.spaces import FreeGroupTree, FreeProductTree, HalfPlane, make_backend
from loxgrow.words import make_generating_set

SANOV = [[[1, 2], [0, 1]], [[1, 0], [2, 1]]]
# S = [[0,-1],[1,0]] (order 2), ST (order 3), (ST)^2: the elliptic PSL(2,Z) set
PSL2Z_ELLIPTIC = [[[0, -1], [1, 0]], [[0, -1], [1, 1]], [[-1, -1], [1, 0]]]
# float sets with no integer form: Lyndon-Ullman mu = 1/2, and Sanov
# conjugated in floats by diag(1.1, 1/1.1), whose off-diagonal product is
# not exactly 4
NON_INTEGER_FLOAT_SETS = {
    "lyndon-ullman": [[[1, 0.5], [0, 1]], [[1, 0], [0.5, 1]]],
    "sanov diag(1.1)": [[[1.0, 2.4200000000000004], [0.0, 1.0]],
                        [[1.0, 0.0], [1.652892561983471, 1.0]]],
}


def mat_mul(a, b):
    """The product of two 2x2 matrices given as nested sequences."""
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


# the backends of random_generating_set, by kind
RANDOM_SET_BACKENDS = {
    "f2": {"kind": "free_group_tree", "rank": 2, "letters": "ab"},
    "c2c3": {"kind": "free_product_tree", "orders": [2, 3]},
    "c3c3": {"kind": "free_product_tree", "orders": [3, 3]},
    "plane": {"kind": "half_plane"},
    "plane-float": {"kind": "half_plane", "arithmetic": "float"},
    "conjugate": {"kind": "half_plane", "arithmetic": "float"},
}
# T^+-2 and U^+-2 generate Sanov's free group; T and the order-2 S leave it
_PLANE_LETTERS = [((1, 2), (0, 1)), ((1, -2), (0, 1)), ((1, 0), (2, 1)), ((1, 0), (-2, 1)),
                  ((1, 1), (0, 1)), ((0, -1), (1, 0))]


def random_generating_set(kind, rng):
    """A seeded random generating set on ``RANDOM_SET_BACKENDS[kind]``, for
    tests that run a search against a reference on many inputs: 1-3 words
    of 1-3 letters over a, b and their inverses on a tree; on the plane 1-3
    products of 1-4 of the PSL(2, Z) letters above, with float entries on
    "plane-float", and on "conjugate" also conjugated in floats by
    diag(l, 1/l) for an l that leaves some entries non-integer. Sets whose
    entries all reduce to the identity are drawn again."""
    backend = make_backend(RANDOM_SET_BACKENDS[kind])
    while True:
        if kind in ("f2", "c2c3", "c3c3"):
            gens = ["".join(rng.choice("aAbB") for _ in range(rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 3))]
        else:
            gens = [functools.reduce(mat_mul, rng.choices(_PLANE_LETTERS, k=rng.randint(1, 4)))
                    for _ in range(rng.randint(1, 3))]
            if kind == "conjugate":
                l2 = rng.choice((0.5, 1.1, 0.37)) ** 2
                gens = [((a, b * l2), (c / l2, d)) for (a, b), (c, d) in gens]
            if kind != "plane":
                gens = [[[float(v) for v in row] for row in m] for m in gens]
        try:
            return make_generating_set(backend, gens)
        except EmptyAfterReduction:
            continue


def power(g, n):
    """g^n for n >= 0: n composes folded left from the identity."""
    return functools.reduce(g.backend.compose, [g] * n, g.backend.identity())


class Walk:
    """One counted walk: its generator list and the number of spheres it
    has yielded so far, the last one partial when the walk passed its cap."""

    def __init__(self, gens):
        self.gens = gens
        self.radius = 0

    def follow(self, records):
        for record in records:
            self.radius += 1
            yield record


def count_walks(monkeypatch):
    """Count the walks of ``loxgrow.words.spheres``: every ``loxgrow``
    module attribute bound to it is patched, so a module that imports it by
    name is counted too. Each walk appends a ``Walk``, its generator list
    and how far it went. A test module's own ``spheres`` name is left
    alone, so walks that go through it (such as test_words' oracle) are not
    counted."""
    walks = []
    spheres = loxgrow.words.spheres

    def counted(identity, gens, *args, **kwargs):
        walk = Walk(list(gens))
        walks.append(walk)
        return walk.follow(spheres(identity, gens, *args, **kwargs))

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "loxgrow" or name.startswith("loxgrow.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is spheres:
                monkeypatch.setattr(module, attr, counted)
    return walks


def reference_spheres(identity, gens, compose, cap, key=None):
    """``spheres`` without its skips and batches: every generator, in order,
    is composed with every element of a sphere, one at a time. Yields the
    same records: the sphere, its keys and the slice each generator found."""
    seen = {identity if key is None else key(identity)}
    frontier = [identity]
    while True:
        sphere, keys, slices = [], [], []
        for g in gens:
            start = len(sphere)
            for w in frontier:
                c = compose(w, g)
                k = c if key is None else key(c)
                if k not in seen:
                    seen.add(k)
                    sphere.append(c)
                    keys.append(k)
                    if len(seen) > cap:
                        yield sphere, keys, slices + [(start, len(sphere))]
                        return
            slices.append((start, len(sphere)))
        if not sphere:
            return
        yield sphere, keys, slices
        frontier = sphere


@pytest.fixture
def ft2():
    return FreeGroupTree(2, letters="xy")


@pytest.fixture
def pt23():
    return FreeProductTree((2, 3))


@pytest.fixture
def hp():
    return HalfPlane()


@pytest.fixture
def hpf():
    return HalfPlane(arithmetic="float")


@pytest.fixture
def S_f2(ft2):
    return make_generating_set(ft2, ["x", "y"])


@pytest.fixture
def S_pt(pt23):
    return make_generating_set(pt23, ["a", "b", "bb"])


@pytest.fixture
def S_sanov(hp):
    return make_generating_set(hp, SANOV)
