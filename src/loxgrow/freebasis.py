"""Free-subgroup certificates and the certified growth lower bound.

Pipeline (``build_free_basis``): square the generating ball S_eff until a
loxodromic shows up among S_eff and S_eff*S_eff, pick a short loxodromic b,
find an independent f, amplify to h = f b^n, conjugate a coset-separated
subset S0 into T = {s h^k s^-1}, certify that T is a free basis by the
ping-pong margin test (displacement against Gromov products at one
basepoint), and convert the rank into
omega(<S>, S) >= log(2r - 1) / kappa with kappa >= max_t d_S(1, t).

Kappa is word evidence: each T entry carries a word over S's symbols, the
shortest one the builder found (a tree normal form, or one breadth-first
walk within ``memory_cap``) or else its spelling from the construction,
and kappa is the longest of these words. The checker evaluates the words
over the stored S and searches nothing.
"""

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import (
    AllElementary,
    BudgetExceeded,
    ConfigError,
    ElementaryDetected,
    ExactWordProblemUnavailable,
    HeuristicOnly,
    InvalidCertificate,
    LikelyElementary,
    NoLoxodromicFound,
    NotInGroup,
    SearchExhausted,
)
from .growth import GrowthTable, ball_sizes, growth_brackets
from .hypcore import (
    axis_overlap_diameter,
    estimate_delta,
    loxodromic_criterion,
    min_displacement_search,
    translation_length_bracket,
)
from .spaces import make_backend
from .spaces.base import GroupElement, Point, basepoint_candidates, word_str
from .spaces.free_tree import reduce_letters
from .words import (
    DEFAULT_MEMORY_CAP,
    GeneratingSet,
    product_ball_set,
    word_length_in_S,
)

# unused here; perfbench/tracing.py patches this name on this module
from .hypcore import gromov_product  # noqa: F401

CERT_FORMAT = "loxgrow-cert/1"


@dataclass
class SearchBudgets:
    """Knobs for escalation and the amplification search; defaults suit the
    bundled examples."""

    max_n: int = 64
    max_k: int = 8
    max_rounds: int = 6


# -- loxodromic search --------------------------------------------------------


@dataclass
class LoxodromicPick:
    b: GroupElement
    tau: float


def _loxodromic_by_criterion(g, backend, pool, max_power=16):
    gm = g
    for m in range(1, max_power + 1):
        if m > 1:
            gm = backend.compose(gm, g)
        for o in pool:
            try:
                if loxodromic_criterion(gm, o):
                    return True
            except OverflowError:
                # power left the float range at this basepoint
                continue
    return False


def find_short_loxodromic(S, budget=64) -> LoxodromicPick:
    """Scan S and S*S for the loxodromic of largest translation length.

    Ties go to the shorter word, then canonical order. Float backends test
    candidates over the basepoint pool and estimate tau at the
    joint-displacement minimizer. Raises NoLoxodromicFound when every
    candidate is elliptic or parabolic; build_free_basis then escalates.
    """
    backend = S.backend
    if not backend.exact_words:
        o = min_displacement_search(S, budget).point
        pool = basepoint_candidates(S, budget)

    candidates = []
    seen = set()
    for g in S:
        if g.canonical not in seen:
            seen.add(g.canonical)
            candidates.append(g)
    for a in S:
        for b in S:
            g = backend.compose(a, b)
            if backend.is_identity(g) or g.canonical in seen:
                continue
            seen.add(g.canonical)
            candidates.append(g)

    best = None
    best_key = None
    for g in candidates:
        if backend.exact_words:
            if backend.classify(g).kind != "loxodromic":
                continue
            tau = backend.translation_length(g)
        else:
            if not _loxodromic_by_criterion(g, backend, pool):
                continue
            tau = translation_length_bracket(g, o, N=16).estimate
        key = (-tau, len(g.word or ()), backend.sort_key(g))
        if best is None or key < best_key:
            best, best_key = g, key
    if best is None:
        raise NoLoxodromicFound("no loxodromic element among S and S*S")
    return LoxodromicPick(b=best, tau=-best_key[0])


# -- elementary-subgroup membership ------------------------------------------


def _elementary_core(b, g, N_test=6, theta=1.0, window=8) -> Tuple[bool, bool]:
    """(member, heuristic). Exact backends compare g b^n g^-1 with b^{+-n};
    float backends fall back to the axis-overlap proxy."""
    backend = b.backend
    if backend.exact_words:
        # canonicals decide equality here; no symbol words are built
        compose, invert = backend._compose, backend._invert
        bc, gc = b.canonical, g.canonical
        ginv = invert(gc)
        bn = bc
        for i in range(N_test):
            if i:
                bn = compose(bn, bc)
            conj = compose(compose(gc, bn), ginv)
            if conj == bn or conj == invert(bn):
                return True, False
        return False, False
    o = backend.origin()
    tau = backend.translation_length(b)
    try:
        diam = axis_overlap_diameter(b, g, o, theta=theta, window=window)
    except OverflowError:
        # axis samples degenerated to the boundary; cannot rule membership out
        return True, True
    return diam >= window * max(tau, 1e-9) / 2.0, True


def in_elementary(b, g, N_test=6) -> bool:
    """Whether g normalizes the axis of the loxodromic b (g in E(b)).

    True iff g b^n g^-1 equals b^n or b^-n for some 1 <= n <= N_test. On a
    float backend the answer is a flagged heuristic, never a certificate.
    """
    member, heuristic = _elementary_core(b, g, N_test)
    if heuristic:
        warnings.warn(
            "elementary membership decided by the axis-overlap heuristic",
            HeuristicOnly,
            stacklevel=2,
        )
    return member


def find_independent(S, b, N_test=6) -> GroupElement:
    """First generator (canonical order) outside E(b); AllElementary if none."""
    heuristic_any = False
    for s in S:
        member, heuristic = _elementary_core(b, s, N_test)
        heuristic_any = heuristic_any or heuristic
        if not member:
            if heuristic_any:
                warnings.warn(
                    "independence decided by the axis-overlap heuristic",
                    HeuristicOnly,
                    stacklevel=2,
                )
            return s
    raise AllElementary("every generator normalizes the axis of the pivot element")


# -- freeness certificates ----------------------------------------------------


@dataclass(frozen=True)
class GeometricCheck:
    valid: bool
    m: float
    p_max: float
    margin: float


def certify_free_geometric(T, x, delta=None, epsilon_margin=0.0) -> GeometricCheck:
    """Ping-pong margin test at basepoint x.

    m is the least displacement of T and its inverses; p_max the largest
    Gromov product <a^-1 x, b x>_x over ordered letter pairs with b != a^-1
    (equal letters included). Valid means m > 0 and
    p_max <= m/8 - delta/2 - epsilon_margin; every nonempty reduced word W
    over T then moves x by at least |W| m / 2, so <T> is free of rank #T.

    T must carry one representative per +/- pair: if two entries coincide
    or pair as inverses (or an entry is an involution), the 2#T letters are
    not distinct, the per-pair estimate misses words like t1 t2 = 1, and
    the check reports invalid regardless of the margin.

    Each distance is computed once: d(a x, x) per letter and d(a x, b x) per
    unordered pair of distinct letters, at most 2r + r(2r - 1) dist calls
    for r = #T. The (a^-1, b) and (b^-1, a) products then share one value;
    dist is symmetric on every backend (bit for bit on the half-plane).
    """
    backend = T.backend
    if delta is None:
        delta = backend.delta
    letters, pairs, degenerate = _letters(T)
    m, p_max, margin = _margin(backend, letters, pairs, x, delta, -math.inf)
    valid = m > 0 and margin >= epsilon_margin and not degenerate
    return GeometricCheck(valid=valid, m=m, p_max=p_max, margin=margin)


def _letters(T):
    """T's entries then their inverses, the index pairs (i < j) of distinct
    letters, and whether any two letters coincide. Only the canonicals act
    on points, so the inverses carry no words."""
    backend = T.backend
    letters = list(T) + [GroupElement(backend, backend._invert(t.canonical)) for t in T]
    canon = [a.canonical for a in letters]
    pairs = [(i, j) for i in range(len(letters)) for j in range(i + 1, len(letters))
             if canon[i] != canon[j]]
    return letters, pairs, len(set(canon)) < len(letters)


def _margin(backend, letters, pairs, x, delta, floor):
    """(m, p_max, margin) at x, with margin = m/8 - delta/2 - p_max.

    a^-1 x runs over every translate and b over the letters != a^-1, so the
    Gromov product of each pair in ``pairs`` counts once. The products stop
    once the margin falls below ``floor``; it can only fall further."""
    translates = [backend.apply(a, x) for a in letters]
    d = [backend.dist(tx, x) for tx in translates]
    m = min(d)
    p_max = 0.0
    margin = m / 8.0 - delta / 2.0 - p_max
    for i, j in pairs:
        if margin < floor:
            break
        p = 0.5 * (d[i] + d[j] - backend.dist(translates[i], translates[j]))
        if p > p_max:
            p_max = p
            margin = m / 8.0 - delta / 2.0 - p_max
    return m, p_max, margin


def _scan_basepoints(T, points, delta, epsilon_margin):
    """The basepoint among ``points`` at which T passes the ping-pong test,
    or None.

    It is the point that certify_free_geometric at every point would pick:
    the first of largest margin, skipping points where a distance
    overflows, if the check passes there. The scan gets there with less
    work. It builds T's letters once, and it rejects a T whose letters
    coincide before computing any distance. It drops a point once
    m/8 - delta/2 - p_max, with p_max the largest Gromov product so far,
    falls below ``epsilon_margin``. Further products only lower that
    number, so a dropped point fails the test and has a smaller margin
    than any point that passes it.
    """
    backend = T.backend
    letters, pairs, degenerate = _letters(T)
    if degenerate:
        return None
    best = None  # (margin, m, point)
    for x in points:
        try:
            m, _, margin = _margin(backend, letters, pairs, x, delta, epsilon_margin)
        except OverflowError:
            # entries of T grew past float range; drop the basepoint
            continue
        if margin >= epsilon_margin and (best is None or margin > best[0]):
            best = (margin, m, x)
    if best is None or not best[1] > 0:
        return None
    return best[2]


def certify_free_exact(T, L, memory_cap=DEFAULT_MEMORY_CAP) -> bool:
    """Check that no nonempty reduced word over T of length <= L is trivial.

    A True result bounds the length of a shortest relation from below; it
    certifies neither freeness nor any growth bound, and the pipeline does
    not call it. Tests use it as an exact reference for the geometric
    check. Raises ExactWordProblemUnavailable on float backends and
    BudgetExceeded when the word count sum_{l<=L} 2r (2r-1)^(l-1) passes
    the cap.
    """
    backend = T.backend
    if not backend.exact_words:
        raise ExactWordProblemUnavailable(
            "exact freeness checks need exact canonical forms"
        )
    if L < 1:
        raise ConfigError("relation length bound must be >= 1")
    r = len(T)
    two_r = 2 * r
    total, term = 0, two_r
    for _ in range(L):
        total += term
        term *= two_r - 1
        if total > memory_cap:
            raise BudgetExceeded(
                f"exact check would enumerate more than {memory_cap} reduced words"
            )
    letters = [t.canonical for t in T] + [backend.invert(t).canonical for t in T]
    ident = backend._identity_canonical()
    stack = [(ident, -1, 0)]
    while stack:
        cur, last, depth = stack.pop()
        if depth == L:
            continue
        for j in range(two_r):
            if last >= 0 and j == (last + r) % two_r:
                continue
            nxt = backend._compose(cur, letters[j])
            if nxt == ident:
                return False
            stack.append((nxt, j, depth + 1))
    return True


# -- certificate --------------------------------------------------------------


@dataclass
class FreeBasisCertificate:
    backend_config: dict
    backend_hash: str
    delta: float
    mode: str  # always "geometric"
    b: GroupElement
    f: GroupElement
    h: GroupElement
    n: int
    k: int
    S: GeneratingSet  # word metric of the final bound
    S0: GeneratingSet
    T: GeneratingSet  # one representative per +- pair
    r: int
    basepoint: Point
    m: float
    p_max: float
    margin: float
    epsilon_margin: float
    kappa: int
    kappa_mode: str  # "exact" | "word-upper"
    omega_lower: float
    escalation_rounds: int
    membership_heuristic: bool = False


def _diagonal(max_n, max_k):
    for total in range(2, max_n + max_k + 1):
        lo = max(1, total - max_k)
        hi = min(max_n, total - 1)
        for n in range(lo, hi + 1):
            yield n, total - n


def _compute_kappa(S, T, memory_cap) -> Tuple[GeneratingSet, int, str]:
    """T respelled over S, kappa and kappa_mode.

    One breadth-first walk searches for every entry up to its carried
    word's length. An entry found there, or spelled by the backend's
    shortcut, takes a shortest word; any other keeps its carried spelling,
    or the backend's normal-form word over S where that is no longer.
    kappa is the longest word, and the mode is "exact" when every entry got
    a shortest word, else "word-upper"."""
    outcomes = word_length_in_S(S, [(t, len(t.word)) for t in T], memory_cap)
    shortest = [isinstance(d, tuple) for d in outcomes]
    words = [d if ok else _upper_word(S, t) for t, d, ok in zip(T, outcomes, shortest)]
    T = GeneratingSet(S.backend, [GroupElement(S.backend, t.canonical, w)
                                  for t, w in zip(T, words)])
    return T, max(map(len, words)), "exact" if all(shortest) else "word-upper"


def _upper_word(S, t):
    normal = S.backend.normal_form_word(S, t)
    return normal if normal is not None and len(normal) <= len(t.word) else t.word


def build_free_basis(S, budgets=None, *, memory_cap=DEFAULT_MEMORY_CAP) -> FreeBasisCertificate:
    """Escalate to a loxodromic, then run the diagonal (n, k) amplification
    search ending in a freeness certificate.

    Escalation: starting from S_eff = S, while no loxodromic shows up among
    S_eff and its pairwise products, S_eff becomes its radius-2 ball. After
    ``budgets.max_rounds`` squarings without one it raises LikelyElementary.
    The search then runs over S_eff; kappa is measured in the word metric
    of S, and the certificate records the number of rounds. Any
    ElementaryDetected raised here carries that number in
    ``escalation_rounds``.

    Smallest n + k first, n ascending inside a diagonal; the first (n, k)
    whose T passes the ping-pong margin test at some basepoint candidate
    wins. The basepoint is the candidate of largest margin, the first on
    ties (``_scan_basepoints``), and certify_free_geometric at that point
    gives the stored m, p_max and margin. If no (n, k) passes,
    SearchExhausted is raised.
    """
    budgets = budgets or SearchBudgets()
    backend = S.backend
    eps = backend.dist_roundoff
    S_eff, rounds = S, 0
    while True:
        try:
            b = find_short_loxodromic(S_eff).b
            break
        except NoLoxodromicFound:
            if rounds >= budgets.max_rounds:
                raise LikelyElementary(
                    f"no loxodromic element after {rounds} ball escalations",
                    escalation_rounds=rounds,
                )
            S_eff = product_ball_set(S_eff, 2, memory_cap)
            rounds += 1
    try:
        f = find_independent(S_eff, b)
    except AllElementary as exc:
        exc.escalation_rounds = rounds
        raise
    membership_heuristic = not backend.exact_words
    pool = None if backend.exact_words else basepoint_candidates(S_eff)

    b_pows = {1: b}

    def power_b(n):
        if n not in b_pows:
            b_pows[n] = backend.compose(power_b(n - 1), b)
        return b_pows[n]

    stage_cache = {}

    def stage(n):
        # h and the coset-separated S0 depend on n only
        if n in stage_cache:
            return stage_cache[n]
        h = backend.compose(f, power_b(n))
        if backend.exact_words:
            lox = backend.classify(h).kind == "loxodromic"
        else:
            lox = _loxodromic_by_criterion(h, backend, pool)
        if not lox:
            stage_cache[n] = None
            return None
        S0 = []
        for s in S_eff:
            separated = True
            for prev in S0:
                g = GroupElement(backend, backend._compose(backend._invert(s.canonical),
                                                           prev.canonical))
                member, _ = _elementary_core(h, g)
                if member:
                    separated = False
                    break
            if separated:
                S0.append(s)
        h_pows = {1: h}
        stage_cache[n] = (h, S0, h_pows)
        return stage_cache[n]

    def conjugated(n, k):
        st = stage(n)
        if st is None:
            return None
        h, S0, h_pows = st
        if not S0:
            return None
        while max(h_pows) < k:
            top = max(h_pows)
            h_pows[top + 1] = backend.compose(h_pows[top], h)
        hk = h_pows[k]
        T = GeneratingSet(
            backend,
            [backend.compose(backend.compose(s, hk), backend.invert(s)) for s in S0],
        )
        return h, S0, T

    def finalize(n, k, h, S0, T, check, x):
        T, kappa, kappa_mode = _compute_kappa(S, T, memory_cap)
        r = len(T)
        omega = math.log(2 * r - 1) / kappa if r >= 2 else 0.0
        return FreeBasisCertificate(
            backend_config=backend.config(),
            backend_hash=backend_hash(backend.config()),
            delta=backend.delta,
            mode="geometric",
            b=b,
            f=f,
            h=h,
            n=n,
            k=k,
            S=S,
            S0=GeneratingSet(backend, list(S0)),
            T=T,
            r=r,
            basepoint=x,
            m=check.m,
            p_max=check.p_max,
            margin=check.margin,
            epsilon_margin=eps,
            kappa=kappa,
            kappa_mode=kappa_mode,
            omega_lower=omega,
            escalation_rounds=rounds,
            membership_heuristic=membership_heuristic,
        )

    for n, k in _diagonal(budgets.max_n, budgets.max_k):
        built = conjugated(n, k)
        if built is None:
            continue
        h, S0, T = built
        x = _scan_basepoints(T, basepoint_candidates(T), backend.delta, eps)
        if x is not None:
            # the stored numbers come from the checker's own function
            check = certify_free_geometric(T, x, backend.delta, eps)
            return finalize(n, k, h, S0, T, check, x)

    raise SearchExhausted(
        f"no certificate with n <= {budgets.max_n}, k <= {budgets.max_k}"
    )


# -- theorem driver -----------------------------------------------------------


@dataclass
class TheoremReport:
    omega_lower: float
    omega_hat: float
    omega_upper: float
    log_card_S: float
    theta_hat: Optional[float]
    cert: Optional[FreeBasisCertificate]
    table: GrowthTable
    escalation_rounds: int = 0
    elementary: Optional[str] = None
    elementary_reason: Optional[str] = None


def verify_theorem(S, n_max, budgets=None, *, memory_cap=DEFAULT_MEMORY_CAP,
                   seed=0) -> TheoremReport:
    """Run the full pipeline and cross-check the growth brackets.

    Counts balls for S, then builds the free-basis certificate with
    build_free_basis (which escalates by itself). Elementary outcomes are
    reported, not raised; budget blowups propagate. A growth table
    truncated below radius 2 raises BudgetExceeded; one truncated later
    stays in the report (``table.truncated``) for the caller to flag. On
    the half-plane the configured delta must cover an empirical four-point
    defect estimate. The certified lower bound must not exceed the
    certified upper bound, else the run aborts.
    """
    backend = S.backend
    if backend.kind == "half_plane":
        est = estimate_delta(backend, 200, seed)
        if est > backend.delta:
            raise ConfigError(
                f"empirical four-point defect {est:.4f} exceeds the configured "
                f"delta {backend.delta:g}; raise delta"
            )
    table = ball_sizes(S, n_max, memory_cap=memory_cap)
    if table.truncated and table.n_max < 2:
        raise BudgetExceeded(
            f"growth table truncated at radius {table.n_max}; brackets need radius >= 2"
        )
    brackets = growth_brackets(table)
    log_card = math.log(len(S))

    cert = None
    elementary = None
    reason = None
    try:
        cert = build_free_basis(S, budgets, memory_cap=memory_cap)
        rounds = cert.escalation_rounds
    except ElementaryDetected as exc:
        elementary = type(exc).__name__
        reason = str(exc)
        rounds = exc.escalation_rounds

    omega_lower = cert.omega_lower if cert is not None else 0.0
    if omega_lower > brackets.omega_upper + 1e-9:
        raise InvalidCertificate(
            f"certified lower bound {omega_lower:.6f} exceeds certified upper "
            f"bound {brackets.omega_upper:.6f}"
        )
    return TheoremReport(
        omega_lower=omega_lower,
        omega_hat=brackets.omega_hat,
        omega_upper=brackets.omega_upper,
        log_card_S=log_card,
        theta_hat=brackets.omega_hat / log_card if len(S) >= 2 else None,
        cert=cert,
        table=table,
        escalation_rounds=rounds,
        elementary=elementary,
        elementary_reason=reason,
    )


# -- serialization ------------------------------------------------------------


def backend_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _canonical_payload(backend, canonical):
    if backend.kind == "free_product_tree":
        return [[f, e] for f, e in canonical]
    return list(canonical)


def _int(v):
    # int() would pass 1.5, "3" and true
    if type(v) is not int:
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _real(v):
    if type(v) not in (int, float):
        raise TypeError(f"expected a number, got {v!r}")
    return v


def _str(s):
    if type(s) is not str:
        raise TypeError(f"expected a string, got {s!r}")
    return s


def _flag(v):
    # bool() would read "false" as true
    if type(v) is not bool:
        raise TypeError(f"expected true or false, got {v!r}")
    return v


def _canonical_from(backend, data):
    if backend.kind == "free_group_tree":
        c = tuple(_int(v) for v in data)
        if any(v == 0 or abs(v) > backend.rank for v in c):
            raise InvalidCertificate(f"letter out of range in {data!r}")
        if c != reduce_letters(c):
            raise InvalidCertificate(f"unreduced free-group word {data!r}")
        return c
    if backend.kind == "free_product_tree":
        syl = tuple((_int(f), _int(e)) for f, e in data)
        if not backend.is_normal(syl):
            raise InvalidCertificate(f"non-normal syllable word {data!r}")
        return syl
    if len(data) != 4:
        raise InvalidCertificate(f"matrix payload needs 4 entries, got {data!r}")
    a, b, c, d = (_real(v) for v in data)
    return backend.element([[a, b], [c, d]]).canonical


def _element_payload(backend, g):
    out = {
        "word": word_str(g.word),
        "canonical": _canonical_payload(backend, g.canonical),
    }
    if g.word is not None:
        out["symbols"] = [[sym, int(e)] for sym, e in g.word]
    return out


def _element_from(backend, data):
    word = None
    if "symbols" in data:
        word = tuple((_str(s), _int(e)) for s, e in data["symbols"])
    canonical = _canonical_from(backend, data["canonical"])
    return GroupElement(backend, canonical, word)


def _point_payload(backend, p):
    if backend.kind == "free_group_tree":
        return list(p.data)
    if backend.kind == "free_product_tree":
        rep, side = p.data
        return [[[f, e] for f, e in rep], side]
    return [p.data.real, p.data.imag]


def _point_from(backend, data):
    if backend.kind == "free_group_tree":
        c = tuple(_int(v) for v in data)
        if c != reduce_letters(c):
            raise InvalidCertificate(f"unreduced vertex word {data!r}")
        return Point(backend, c)
    if backend.kind == "free_product_tree":
        rep, side = data
        rep = tuple((_int(f), _int(e)) for f, e in rep)
        if _int(side) not in (0, 1):
            raise InvalidCertificate(f"vertex side must be 0 or 1, got {side!r}")
        if not backend.is_normal(rep) or (rep and rep[-1][0] == side):
            raise InvalidCertificate(f"invalid coset representative {data!r}")
        return Point(backend, (rep, side))
    re, im = (float(_real(v)) for v in data)
    if not im > 0:
        raise InvalidCertificate("half-plane points need positive imaginary part")
    return Point(backend, complex(re, im))


def _genset_payload(backend, S):
    return [_element_payload(backend, g) for g in S]


def _genset_from(backend, data):
    return GeneratingSet(backend, [_element_from(backend, item) for item in data])


def certificate_payload(cert: FreeBasisCertificate) -> dict:
    backend = cert.b.backend
    return {
        "format": CERT_FORMAT,
        "backend": cert.backend_config,
        "backend_hash": cert.backend_hash,
        # tree backends measure in ints; serialize type-stable floats so a
        # payload survives a load/dump round trip byte-identically
        "delta": float(cert.delta),
        "mode": cert.mode,
        "b": _element_payload(backend, cert.b),
        "f": _element_payload(backend, cert.f),
        "h": _element_payload(backend, cert.h),
        "n": cert.n,
        "k": cert.k,
        "S": _genset_payload(backend, cert.S),
        "S0": _genset_payload(backend, cert.S0),
        "T": _genset_payload(backend, cert.T),
        "r": cert.r,
        "basepoint": _point_payload(backend, cert.basepoint),
        "m": float(cert.m),
        "p_max": float(cert.p_max),
        "margin": float(cert.margin),
        "epsilon_margin": float(cert.epsilon_margin),
        "kappa": cert.kappa,
        "kappa_mode": cert.kappa_mode,
        "omega_lower": float(cert.omega_lower),
        "escalation_rounds": cert.escalation_rounds,
        "membership_heuristic": cert.membership_heuristic,
    }


def certificate_to_json(cert: FreeBasisCertificate) -> str:
    return json.dumps(certificate_payload(cert), sort_keys=True, indent=2) + "\n"


def certificate_from_payload(data, backend=None) -> FreeBasisCertificate:
    """Load a certificate from its payload dict or JSON text.

    Raises InvalidCertificate on text that is not JSON, on a missing field,
    on a field of the wrong shape or type, and on a stored matrix that is
    not in the group. A stored backend config that ``make_backend`` cannot
    build raises its ConfigError, as in a run config.
    """
    try:
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise InvalidCertificate("a certificate is a JSON object")
        if data.get("format") != CERT_FORMAT:
            raise InvalidCertificate(f"unknown certificate format {data.get('format')!r}")
        config = data["backend"]
        if backend_hash(config) != data["backend_hash"]:
            raise InvalidCertificate("backend hash does not match the stored config")
    except _SHAPE_ERRORS as exc:
        raise _malformed(exc) from exc
    stored = make_backend(config)
    if backend is None:
        backend = stored
    elif backend.config() != stored.config():
        raise InvalidCertificate("certificate was produced by a different backend")
    try:
        return _certificate_fields(data, config, backend)
    except _SHAPE_ERRORS as exc:
        raise _malformed(exc) from exc


# what loading a field of the wrong shape or type raises; NotInGroup is a
# stored matrix with det != 1 or non-integer exact entries
_SHAPE_ERRORS = (TypeError, ValueError, KeyError, OverflowError, NotInGroup)


def _malformed(exc):
    return InvalidCertificate(f"malformed certificate: {type(exc).__name__}: {exc}")


def _certificate_fields(data, config, backend):
    return FreeBasisCertificate(
        backend_config=config,
        backend_hash=data["backend_hash"],
        delta=float(_real(data["delta"])),
        mode=_str(data["mode"]),
        b=_element_from(backend, data["b"]),
        f=_element_from(backend, data["f"]),
        h=_element_from(backend, data["h"]),
        n=_int(data["n"]),
        k=_int(data["k"]),
        S=_genset_from(backend, data["S"]),
        S0=_genset_from(backend, data["S0"]),
        T=_genset_from(backend, data["T"]),
        r=_int(data["r"]),
        basepoint=_point_from(backend, data["basepoint"]),
        m=float(_real(data["m"])),
        p_max=float(_real(data["p_max"])),
        margin=float(_real(data["margin"])),
        epsilon_margin=float(_real(data["epsilon_margin"])),
        kappa=_int(data["kappa"]),
        kappa_mode=_str(data["kappa_mode"]),
        omega_lower=float(_real(data["omega_lower"])),
        escalation_rounds=_int(data["escalation_rounds"]),
        membership_heuristic=_flag(data["membership_heuristic"]),
    )


# -- independent checker ------------------------------------------------------


def _check_T_words(S, T):
    """Evaluate each T entry's symbol word over S and compare with the entry.

    S must be identity-free and inverse-closed, with exactly one symbol
    (label, +-1) per entry and no symbol twice; sign -1 stands for the
    inverse. Float backends compare up to sign with a relative 1e-9.
    """
    backend = S.backend
    symbols = {}
    for s in S:
        if s.word is None or len(s.word) != 1 or s.word[0][1] not in (1, -1):
            raise InvalidCertificate(f"S entry {word_str(s.word)} must carry one symbol")
        if s.word[0] in symbols:
            raise InvalidCertificate(f"S repeats the symbol {word_str(s.word)}")
        if backend.is_identity(s):
            raise InvalidCertificate("S contains the identity")
        symbols[s.word[0]] = s.canonical
    canon = set(symbols.values())
    if any(backend._invert(c) not in canon for c in canon):
        raise InvalidCertificate("S is not closed under inverses")
    letters = {(label, -sign): backend._invert(c) for (label, sign), c in symbols.items()}
    letters.update(symbols)
    for t in T:
        if t.word is None or any(sym not in letters for sym in t.word):
            raise InvalidCertificate(f"T entry {word_str(t.word)} is not a word over S")
        value = backend._identity_canonical()
        for sym in t.word:
            value = backend._compose(value, letters[sym])
        if backend.exact_words:
            ok = value == t.canonical
        else:
            tol = 1e-9 * max(1.0, max(abs(x) for x in t.canonical))
            ok = any(max(abs(v - sign * x) for v, x in zip(value, t.canonical)) <= tol
                     for sign in (1, -1))
        if not ok:
            raise InvalidCertificate(f"T entry {word_str(t.word)} does not evaluate to itself")


def check_certificate(source, backend=None, memory_cap=None) -> dict:
    """Re-derive every certified quantity and compare with the stored one.

    Accepts a FreeBasisCertificate, a payload dict, or JSON text. kappa is
    re-derived from the T words alone: each must evaluate over the stored S
    to its entry, and kappa must equal the longest of them. No search runs,
    so ``memory_cap`` is accepted and ignored; ``kappa_mode`` is the
    builder's note on whether the words are shortest and is not checked.

    Exact backends must reproduce each number bit-for-bit; the float
    backend gets a 1e-9 tolerance. The only accepted mode is "geometric".
    Fields fixed by the backend are derived, not trusted:
    ``membership_heuristic`` must equal ``not backend.exact_words`` and
    ``epsilon_margin`` must cover ``backend.dist_roundoff``.
    ``escalation_rounds`` must be non-negative; the count itself is not
    re-derived, since that would mean re-running the escalation. The
    returned summary reports derived values. Raises InvalidCertificate on
    the first mismatch.
    """
    if isinstance(source, FreeBasisCertificate):
        cert = source
    else:
        cert = certificate_from_payload(source, backend)
    backend = cert.b.backend
    tol = 0.0 if backend.exact_words else 1e-9

    def fail(msg):
        raise InvalidCertificate(msg)

    if cert.mode != "geometric":
        fail(f"unknown mode {cert.mode!r}")
    if cert.delta != backend.delta:
        fail(f"certificate delta {cert.delta} != backend delta {backend.delta}")
    if cert.epsilon_margin < backend.dist_roundoff:
        fail(f"epsilon_margin {cert.epsilon_margin!r} is below the backend's "
             f"distance roundoff {backend.dist_roundoff!r}")
    membership_heuristic = not backend.exact_words
    if cert.membership_heuristic != membership_heuristic:
        fail(f"membership_heuristic must be {membership_heuristic} on this backend")
    if backend_hash(backend.config()) != cert.backend_hash:
        fail("backend hash mismatch")
    if cert.escalation_rounds < 0:
        fail(f"escalation_rounds {cert.escalation_rounds} is negative")

    hc = backend.compose(cert.f, backend.power(cert.b, cert.n)).canonical
    if hc != cert.h.canonical:
        fail("h != f * b^n")
    if cert.r != len(cert.T) or cert.r != len(cert.S0):
        fail("r disagrees with #T or #S0")
    if cert.r < 1:
        fail("T is empty")
    hk = backend.power(cert.h, cert.k)
    for s, t in zip(cert.S0, cert.T):
        expect = backend.compose(backend.compose(s, hk), backend.invert(s))
        if expect.canonical != t.canonical:
            fail(f"T entry for {word_str(s.word)} is not s h^k s^-1")
    canon = [t.canonical for t in cert.T]
    inv = [backend.invert(t).canonical for t in cert.T]
    for i in range(len(canon)):
        for j in range(len(canon)):
            if i != j and canon[i] == canon[j]:
                fail("T has repeated entries")
            if canon[i] == inv[j]:
                fail("T contains an inverse pair or an involution")

    try:
        chk = certify_free_geometric(cert.T, cert.basepoint, cert.delta, cert.epsilon_margin)
    except OverflowError:
        fail("geometric quantities overflow at the stored basepoint")
    if abs(chk.m - cert.m) > tol:
        fail(f"m mismatch: recomputed {chk.m!r}, stored {cert.m!r}")
    if abs(chk.p_max - cert.p_max) > tol:
        fail(f"p_max mismatch: recomputed {chk.p_max!r}, stored {cert.p_max!r}")
    if abs(chk.margin - cert.margin) > tol:
        fail(f"margin mismatch: recomputed {chk.margin!r}, stored {cert.margin!r}")
    if not chk.valid:
        fail("geometric margin does not clear the floor")

    _check_T_words(cert.S, cert.T)
    kappa = max(len(t.word) for t in cert.T)
    if kappa != cert.kappa:
        fail(f"kappa mismatch: the longest T word has length {kappa}, stored {cert.kappa}")
    expect = math.log(2 * cert.r - 1) / cert.kappa if cert.r >= 2 else 0.0
    if expect != cert.omega_lower:
        fail(f"omega_lower mismatch: recomputed {expect!r}, stored {cert.omega_lower!r}")

    return {
        "valid": True,
        "mode": cert.mode,
        "r": cert.r,
        "kappa": cert.kappa,
        "omega_lower": float(cert.omega_lower),
        "margin": float(chk.margin),
        "membership_heuristic": membership_heuristic,
    }
