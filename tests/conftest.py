import functools

import pytest

from loxgrow.spaces import FreeGroupTree, FreeProductTree, HalfPlane
from loxgrow.words import make_generating_set

SANOV = [[[1, 2], [0, 1]], [[1, 0], [2, 1]]]
# S = [[0,-1],[1,0]] (order 2), ST (order 3), (ST)^2: the elliptic PSL(2,Z) set
PSL2Z_ELLIPTIC = [[[0, -1], [1, 0]], [[0, -1], [1, 1]], [[-1, -1], [1, 0]]]


def power(g, n):
    """g^n for n >= 0: n composes folded left from the identity."""
    return functools.reduce(g.backend.compose, [g] * n, g.backend.identity())


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
