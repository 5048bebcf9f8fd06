"""Bridge between integer matrices and the (2, 3) free-product normal form.

PSL(2, Z) is generated by the order-2 rotation S = [[0, -1], [1, 0]] and the
order-3 element S*T (T = [[1, 1], [0, 1]] the unit translation).  With
a -> S and b -> S*T one has T = a*b in PSL(2, Z), so the classical
continued-fraction decomposition M = T^{q1} S T^{q2} S ... T^{qr} yields an
(a, b)-word whose syllable reduction is the normal form.
"""

from .half_plane import HalfPlane
from .product_tree import FreeProductTree

S_MAT = ((0, -1), (1, 0))
T_MAT = ((1, 1), (0, 1))

_P23 = FreeProductTree((2, 3))
# its input checks read matrices, and its product evaluates syllable words
_H = HalfPlane()


def _t_syllables(m):
    # T = ab, T^-1 = b^2 a  (inverse of ab with a^2 = 1, b^3 = 1)
    if m >= 0:
        return ((0, 1), (1, 1)) * m
    return ((1, 2), (0, 1)) * (-m)


def psl2z_normal_form(matrix):
    """Alternating (a, b)-syllable word equal to ``matrix`` projectively.

    ``matrix`` is a 2x2 integer matrix with determinant 1 (nested sequence,
    the canonical 4-tuple or an element), checked as the exact half-plane
    checks its input.  Returns the syllable tuple ((factor, exp), ...)
    with factor 0 of order 2 and factor 1 of order 3.
    """
    if hasattr(matrix, "canonical"):
        matrix = matrix.canonical
    if len(matrix) == 4:
        matrix = (matrix[:2], matrix[2:])
    # the exact half-plane's entry and determinant checks
    a, b, c, d = _H.element(matrix).canonical

    syll = b""
    while c != 0:
        # peel M = T^q S M'; rounding the quotient halves |c| each step
        q = (2 * a + c) // (2 * c)
        syll = _P23._compose(syll, _P23.normalize(_t_syllables(q) + ((0, 1),)))
        a, b, c, d = -c, -d, a - q * c, b - q * d
    # now M = +/- T^(a*b) with a == d == +/-1
    syll = _P23._compose(syll, _P23.normalize(_t_syllables(a * b)))
    return _P23.syllables(syll)


def syllables_to_matrix(syll):
    """Evaluate an (a, b)-syllable word back to the normalized integer matrix."""
    s, t = (_H.element(m).canonical for m in (S_MAT, T_MAT))
    st = _H._compose(s, t)
    gens = {(0, 1): s, (1, 1): st, (1, 2): _H._compose(st, st)}
    out = _H._identity_canonical()
    for f, e in syll:
        out = _H._compose(out, gens[(f, e if f == 1 else 1)])
    a, b, c, d = out
    return ((a, b), (c, d))
