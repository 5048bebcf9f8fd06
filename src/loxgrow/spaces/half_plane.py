"""Upper half-plane with the PSL(2) action by Moebius transformations.

Group elements are 2x2 matrices up to sign, normalized so the first nonzero
entry of (a, b, c, d) is positive.  Two arithmetic modes:

* ``exact_integer`` -- Python ints, det == 1 required; the word problem is
  decided exactly (PSL(2, Z) and its subgroups such as the Sanov pair).
* ``float`` -- det checked to 1e-12, identity/equality decided to eps_id.

Points are complex numbers with positive imaginary part.  The metric is
d(z, w) = arccosh(1 + |z - w|^2 / (2 Im z Im w)); the constant delta of the
four-point inequality defaults to 1.0 (the plane's thin-triangle constants
lie below that; estimate_delta probes it empirically).
"""

import cmath
import math

from ..errors import ConfigError, NotInGroup
from .base import Backend, Classification, GroupElement, Point

EPS_ID = 1e-9


class HalfPlane(Backend):
    kind = "half_plane"

    def __init__(self, arithmetic="exact_integer", delta=1.0, torsion_bound=2):
        if arithmetic not in ("exact_integer", "float"):
            raise ConfigError(f"unknown arithmetic {arithmetic!r}")
        self.arithmetic = arithmetic
        self.exact = arithmetic == "exact_integer"
        self.exact_words = self.exact
        # chosen once, not per call: ball walks compose per element and generator
        self._compose = self._compose_exact if self.exact else self._compose_float
        self.dist_roundoff = 1e-9
        self.delta = float(delta)
        self.torsion_bound = int(torsion_bound)

    def config(self):
        return {
            "kind": self.kind,
            "arithmetic": self.arithmetic,
            "delta": self.delta,
            "torsion_bound": self.torsion_bound,
        }

    # -- group algebra ------------------------------------------------------

    def _normalize(self, a, b, c, d):
        for v in (a, b, c, d):
            if self.exact:
                if v != 0:
                    return (a, b, c, d) if v > 0 else (-a, -b, -c, -d)
            else:
                if abs(v) > EPS_ID:
                    return (a, b, c, d) if v > 0 else (-a, -b, -c, -d)
        return (a, b, c, d)

    def _compose_exact(self, ca, cb):
        a1, b1, c1, d1 = ca
        a2, b2, c2, d2 = cb
        a = a1 * a2 + b1 * c2
        b = a1 * b2 + b1 * d2
        c = c1 * a2 + d1 * c2
        d = c1 * b2 + d1 * d2
        # det 1 rules out a = b = 0, so a, then b, carries the sign
        if a < 0 or (a == 0 and b < 0):
            return (-a, -b, -c, -d)
        return (a, b, c, d)

    def _compose_float(self, ca, cb):
        a1, b1, c1, d1 = ca
        a2, b2, c2, d2 = cb
        a = a1 * a2 + b1 * c2
        b = a1 * b2 + b1 * d2
        c = c1 * a2 + d1 * c2
        d = c1 * b2 + d1 * d2
        # _normalize's float rule, inline: the first entry past EPS_ID
        # carries the sign; NaN and tiny entries are skipped
        for v in (a, b, c, d):
            if v > EPS_ID:
                return (a, b, c, d)
            if v < -EPS_ID:
                return (-a, -b, -c, -d)
        return (a, b, c, d)

    def _invert(self, ca):
        a, b, c, d = ca
        return self._normalize(d, -b, -c, a)

    def _identity_canonical(self):
        return (1, 0, 0, 1) if self.exact else (1.0, 0.0, 0.0, 1.0)

    def is_identity(self, a):
        self._check(a)
        if self.exact:
            return a.canonical == (1, 0, 0, 1)
        return max(abs(x - y) for x, y in zip(a.canonical, (1.0, 0.0, 0.0, 1.0))) <= EPS_ID

    def element(self, spec, word=None):
        if isinstance(spec, GroupElement):
            return spec
        try:
            (a, b), (c, d) = spec
        except (TypeError, ValueError):
            raise ConfigError(f"expected a 2x2 matrix, got {spec!r}")
        if self.exact:
            for v in (a, b, c, d):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise NotInGroup(f"exact_integer arithmetic needs int entries, got {v!r}")
            if a * d - b * c != 1:
                raise NotInGroup(f"determinant {a * d - b * c} != 1")
            return GroupElement(self, self._normalize(a, b, c, d), word)
        a, b, c, d = float(a), float(b), float(c), float(d)
        det = a * d - b * c
        if abs(det - 1.0) > 1e-12:
            raise NotInGroup(f"determinant {det} not within 1e-12 of 1")
        return GroupElement(self, self._normalize(a, b, c, d), word)

    def sort_key(self, a):
        return a.canonical

    # -- geometry -----------------------------------------------------------

    def origin(self):
        return Point(self, complex(0.0, 1.0))

    def _point_key(self, p):
        return (round(p.data.real, 9), round(p.data.imag, 9))

    def dist(self, x, y):
        z, w = x.data, y.data
        den = 2.0 * z.imag * w.imag
        if den <= 0.0:
            raise OverflowError("point too close to the real axis for float distances")
        q = abs(z - w) ** 2 / den
        if not q < math.inf:
            raise OverflowError("distance exceeds float range")
        return math.acosh(1.0 + q)

    def apply(self, g, x):
        # Split into real/imaginary parts by hand.  Naive complex division
        # computes Im via fl(ad) - fl(bc), which cancels to zero once the
        # entries pass 2**26; using det keeps Im exact up to rounding.
        a, b, c, d = g.canonical
        z = x.data
        u, v = z.real, z.imag
        det = a * d - b * c
        p = c * u + d
        q = c * v
        den = p * p + q * q
        if not 0.0 < den < math.inf:
            raise OverflowError("matrix entries exceed float range at this point")
        re = ((a * u + b) * p + (a * v) * q) / den
        im = det * v / den
        if not (im > 0.0 and math.isfinite(re)):
            raise OverflowError("matrix entries exceed float range at this point")
        return Point(self, complex(re, im))

    def geodesic_point(self, x, y, t):
        z, w = x.data, y.data
        d = self.dist(x, y)
        if t < -1e-9 or t > d + 1e-9:
            raise ValueError(f"t must lie in [0, {d}], got {t}")
        if d < 1e-15:
            return Point(self, z)
        t = max(0.0, min(float(t), d))
        if abs(z.real - w.real) <= 1e-12 * (1.0 + abs(z.real) + abs(w.real)):
            s = 1.0 if w.imag > z.imag else -1.0
            return Point(self, complex(z.real, z.imag * math.exp(s * t)))
        cen = (abs(z) ** 2 - abs(w) ** 2) / (2.0 * (z.real - w.real))
        r = abs(z - cen)
        # arclength along the semicircle: u(theta) = log tan(theta/2)
        uz = math.log(math.tan(math.atan2(z.imag, z.real - cen) / 2.0))
        uw = math.log(math.tan(math.atan2(w.imag, w.real - cen) / 2.0))
        up = uz + (1.0 if uw > uz else -1.0) * t
        th = 2.0 * math.atan(math.exp(up))
        return Point(self, cen + r * cmath.exp(1j * th))

    def _trace(self, g):
        a, _, _, d = g.canonical
        return a + d

    def classify(self, g):
        if self.is_identity(g):
            return Classification("identity")
        tr = abs(self._trace(g))
        if self.exact:
            if tr < 2:
                return Classification("elliptic")
            if tr == 2:
                return Classification("parabolic")
            return Classification("loxodromic")
        if abs(tr - 2.0) <= EPS_ID:
            return Classification("parabolic", boundary=True)
        if tr < 2.0:
            return Classification("elliptic")
        return Classification("loxodromic")

    def translation_length(self, g):
        tr = abs(self._trace(g))
        if self.classify(g).kind != "loxodromic":
            return 0.0
        return 2.0 * math.acosh(tr / 2.0)

    def axis_apex(self, g):
        """One sample point on the axis of a loxodromic element."""
        a, b, c, d = (float(v) for v in g.canonical)
        if abs(c) > EPS_ID:
            cen = (a - d) / (2.0 * c)
            r = math.sqrt((a + d) ** 2 - 4.0) / (2.0 * abs(c))
            return Point(self, complex(cen, r))
        # fixes infinity; the axis is the vertical line over the finite fixed point
        x0 = b / (d - a)
        return Point(self, complex(x0, 1.0))

    def _extra_candidates(self, elems):
        out = []
        for g in sorted(elems, key=self.sort_key):
            if self.classify(g).kind != "loxodromic":
                continue
            try:
                out.append(self.axis_apex(g))
            except OverflowError:
                continue
        return out

    def sample_points(self, rng, count, window=4.0, log_height=2.5):
        pts = []
        for _ in range(count):
            x = rng.uniform(-window, window)
            y = math.exp(rng.uniform(-log_height, log_height))
            pts.append(Point(self, complex(x, y)))
        return pts

    def growth_encoding(self):
        return ("int_matrix",) if self.exact else None

    def _growth_key(self, canonical):
        """Dedup key of a canonical: float entries rounded to 9 decimals.

        Two float matrices are one element when their keys are equal. An
        entry v with ``v * 512`` integral has at most 9 binary fractional
        digits, so its decimal expansion has at most 9 digits and
        ``round(v, 9) == v``: a canonical of such entries (integer-valued
        ones included) is its own key, with no decimal conversion. Other
        entries are rounded as before. Keys are only hashed and compared,
        so the partition into elements is the same either way (-0.0 ==
        0.0). Exact canonicals are their own keys.
        """
        if self.exact:
            return canonical
        a, b, c, d = canonical
        if ((a * 512.0).is_integer() and (b * 512.0).is_integer()
                and (c * 512.0).is_integer() and (d * 512.0).is_integer()):
            return canonical
        return (round(a, 9), round(b, 9), round(c, 9), round(d, 9))
