"""Upper half-plane with the PSL(2) action by Moebius transformations.

Group elements are 2x2 matrices up to sign, normalized so the first nonzero
entry of (a, b, c, d) is positive.  Two arithmetic modes:

* ``exact_integer`` -- Python ints, det == 1 required; the word problem is
  decided exactly (PSL(2, Z) and its subgroups such as the Sanov pair).
* ``float`` -- det checked to 1e-12 relative to max(1, |ad|, |bc|),
  identity/equality decided to eps_id.

Points are complex numbers with positive imaginary part.  The metric is
d(z, w) = arccosh(1 + |z - w|^2 / (2 Im z Im w)); the constant delta of the
four-point inequality defaults to 1.0 (the plane's thin-triangle constants
lie below that; estimate_delta probes it empirically).
"""

import cmath
import math

from ..errors import ConfigError, NotInGroup
from .base import Backend, Classification, GroupElement, Point, read_int, read_real

EPS_ID = 1e-9


class HalfPlane(Backend):
    kind = "half_plane"

    def __init__(self, arithmetic="exact_integer", delta=1.0, torsion_bound=2):
        if arithmetic not in ("exact_integer", "float"):
            raise ConfigError(f"unknown arithmetic {arithmetic!r}")
        self.arithmetic = arithmetic
        self.exact = arithmetic == "exact_integer"
        self.exact_words = self.exact
        # the sign rule's threshold: the first entry past +-eps carries the sign
        self._eps = 0 if self.exact else EPS_ID
        # the target key: exact canonicals are their own keys
        self._growth_key = None if self.exact else self._rounded_key
        self.dist_roundoff = 1e-9
        self.delta = read_real(delta, "delta")
        self.torsion_bound = read_int(torsion_bound, "torsion_bound")

    def config(self):
        return {
            "kind": self.kind,
            "arithmetic": self.arithmetic,
            "delta": self.delta,
            "torsion_bound": self.torsion_bound,
        }

    # -- group algebra ------------------------------------------------------

    def _normalize(self, a, b, c, d):
        # _compose_batch's sign rule on one matrix; it keeps -0.0 entries,
        # which a compose with the identity turns into 0.0
        eps = self._eps
        for v in (a, b, c, d):
            if v > eps:
                return (a, b, c, d)
            if v < -eps:
                return (-a, -b, -c, -d)
        return (a, b, c, d)

    def _compose(self, ca, cb):
        return self._compose_batch((ca,), cb)[0]

    def _compose_batch(self, chunk, g):
        # one loop for both arithmetics: the first entry past +-eps carries
        # the sign; NaN and entries within eps are skipped
        a2, b2, c2, d2 = g
        eps = self._eps
        neg = -eps
        out = []
        for a1, b1, c1, d1 in chunk:
            a = a1 * a2 + b1 * c2
            b = a1 * b2 + b1 * d2
            c = c1 * a2 + d1 * c2
            d = c1 * b2 + d1 * d2
            if a < neg or not a > eps and (
                    b < neg or not b > eps and (c < neg or not c > eps and d < neg)):
                out.append((-a, -b, -c, -d))
            else:
                out.append((a, b, c, d))
        return out

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
        number = int if self.exact else (int, float)
        for v in (a, b, c, d):
            # "1" and true are not numbers, though float() would pass them
            if not isinstance(v, number) or isinstance(v, bool):
                raise NotInGroup(f"{self.arithmetic} arithmetic needs "
                                 f"{'int' if self.exact else 'number'} entries, got {v!r}")
        if self.exact:
            if a * d - b * c != 1:
                raise NotInGroup(f"determinant {a * d - b * c} != 1")
            return GroupElement(self, self._normalize(a, b, c, d), word)
        try:
            a, b, c, d = float(a), float(b), float(c), float(d)
        except OverflowError:
            raise NotInGroup(f"matrix entries exceed float range in {spec!r}") from None
        ad, bc = a * d, b * c
        det = ad - bc
        # relative to the products: ad - bc cancels, so an honest det-1
        # matrix with entries near 1e8 computes det 0.0 or 2.0
        tol = 1e-12 * max(1.0, abs(ad), abs(bc))
        if not (math.isfinite(det) and abs(det - 1.0) <= tol):
            raise NotInGroup(f"determinant {det} not within {tol:.3g} of 1")
        return GroupElement(self, self._normalize(a, b, c, d), word)

    def sort_key(self, a):
        return a.canonical

    # a matrix is stored as [a, b, c, d], a point as [re, im]
    def canonical_from_payload(self, data):
        a, b, c, d = data
        return self.element([[a, b], [c, d]]).canonical

    # -- geometry -----------------------------------------------------------

    def origin(self):
        return Point(self, complex(0.0, 1.0))

    def point_payload(self, p):
        return [p.data.real, p.data.imag]

    def point_from_payload(self, data):
        re, im = (read_real(v, "coordinate") for v in data)
        if not im > 0:
            raise ValueError("half-plane points need positive imaginary part")
        return Point(self, complex(re, im))

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
        # Split into real/imaginary parts by hand: Im(g z) = det v / |cz + d|^2
        # with det = 1. Exact canonicals are integer matrices of det 1, and
        # float ones are products of matrices checked to det 1 on input.
        # Computing det as fl(ad) - fl(bc) instead cancels to <= 0 once the
        # entries pass about 1e8, as naive complex division does past 2**26.
        a, b, c, d = g.canonical
        z = x.data
        u, v = z.real, z.imag
        p = c * u + d
        q = c * v
        den = p * p + q * q
        if not 0.0 < den < math.inf:
            raise OverflowError("matrix entries exceed float range at this point")
        re = ((a * u + b) * p + (a * v) * q) / den
        im = v / den
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
            return Classification("parabolic")
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

    def _walk_key(self, gens):
        # products of integer-valued floats stay so, or turn +-inf or NaN,
        # and _rounded_key keys such canonicals by their own values (a NaN
        # entry, a fresh object each time, matches nothing either way)
        if not self.exact and all(v.is_integer() for g in gens for v in g):
            return None
        return self._growth_key

    def _rounded_key(self, canonical):
        """Walk key of a float canonical: its entries rounded to 9 decimals.

        Two float matrices are one element when their keys are equal. An
        entry v with ``v * 512`` integral has at most 9 binary fractional
        digits, so its decimal expansion has at most 9 digits and
        ``round(v, 9) == v``: a canonical of such entries (integer-valued
        ones included) is its own key, with no decimal conversion. Other
        entries are rounded as before. Keys are only hashed and compared,
        so the partition into elements is the same either way (-0.0 ==
        0.0).
        """
        a, b, c, d = canonical
        if ((a * 512.0).is_integer() and (b * 512.0).is_integer()
                and (c * 512.0).is_integer() and (d * 512.0).is_integer()):
            return canonical
        return (round(a, 9), round(b, 9), round(c, 9), round(d, 9))
