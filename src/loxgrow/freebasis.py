"""Free-subgroup certificates and the certified growth lower bound.

Pipeline (``build_free_basis``): square the generating ball S_eff until a
loxodromic shows up among S_eff and S_eff*S_eff, pick a short loxodromic b,
find an independent f, amplify to h = f b^n, conjugate a coset-separated
subset S0 of at least two entries into T = {s h^k s^-1}, certify that T is
a free basis by the backend's ``certificate_mode`` ("ping-pong" on the
half-plane: integer ping-pong, with no point or float; "geometric" on the
trees: displacement against Gromov products at one basepoint, in integer
tree distances), and convert the rank into
omega(<S>, S) >= log(2r - 1) / kappa with kappa >= max_t d_S(1, t).

Kappa is word evidence: each T entry carries a word over S's symbols, the
shortest one the builder found (a tree normal form, or one breadth-first
walk within ``memory_cap``) or else its spelling from the construction,
and kappa is the longest of these words. The certificate stores what the
bound uses, not how T was found (b, f, h, S0): the checker re-derives the
bound from T and the stored S, and searches nothing.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

from .errors import (
    AllElementary,
    BudgetExceeded,
    ConfigError,
    ElementaryDetected,
    InvalidCertificate,
    LikelyElementary,
    NoLoxodromicFound,
    NotInGroup,
    SearchExhausted,
)
from .growth import GrowthTable, ball_sizes, growth_brackets
from .spaces import make_backend
from .spaces.base import (
    GroupElement,
    Point,
    basepoint_candidates,
    inverse_word,
    read_flag,
    read_int,
    read_real,
    read_str,
    reduce_symbol_word,
    word_str,
)
from .words import (
    DEFAULT_MEMORY_CAP,
    Ball,
    GeneratingSet,
    product_ball_set,
    word_length_in_S,
)

# unused here; perfbench/tracing.py patches these names on this module
from .hypcore import estimate_delta, gromov_product, min_displacement_search  # noqa: F401

CERT_FORMAT = "loxgrow-cert/2"


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


def find_short_loxodromic(S) -> LoxodromicPick:
    """Scan S and S*S for the loxodromic of largest translation length.

    Ties go to the shorter word, then canonical order. The backend's
    ``classify`` picks the loxodromics and ``translation_length`` gives tau.
    Raises NoLoxodromicFound when no candidate is loxodromic;
    build_free_basis then escalates.
    """
    backend = S.backend
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
        if backend.classify(g).kind != "loxodromic":
            continue
        tau = backend.translation_length(g)
        key = (-tau, len(g.word or ()), backend.sort_key(g))
        if best is None or key < best_key:
            best, best_key = g, key
    if best is None:
        raise NoLoxodromicFound("no loxodromic element among S and S*S")
    return LoxodromicPick(b=best, tau=-best_key[0])


# -- elementary-subgroup membership ------------------------------------------


def _elementary_member(b, g) -> bool:
    """Whether g lies in E(b), the stabilizer of the fixed-point pair of the
    loxodromic b: whether g b g^-1 is b or b^-1."""
    # One conjugate decides on every backend. The trees act with trivial
    # edge stabilizers (free groups, C_p*C_q), so (g b g^-1)^n = b^(+-n)
    # forces g b g^-1 = b^(+-1). In PSL(2, R), discrete or not, a g that
    # fixes both fixed points of b shares b's axis and commutes with b, and
    # a g that swaps them is a half-turn about a point of that axis and
    # inverts b; any other g moves the pair, and so the axis of g b g^-1.
    backend = b.backend
    bc, gc = b.canonical, g.canonical
    conj = backend._compose(backend._compose(gc, bc), backend._invert(gc))
    return conj == bc or conj == backend._invert(bc)


def find_independent(S, b) -> GroupElement:
    """First generator (canonical order) outside E(b); AllElementary if none."""
    for s in S:
        if not _elementary_member(b, s):
            return s
    raise AllElementary("every generator normalizes the axis of the pivot element")


# -- freeness certificates ----------------------------------------------------


@dataclass(frozen=True)
class GeometricCheck:
    valid: bool
    m: float
    p_max: float
    margin: float


def certify_free_geometric(T, x, delta=None) -> GeometricCheck:
    """Ping-pong margin test at basepoint x.

    m is the least displacement of T and its inverses; p_max the largest
    Gromov product <a^-1 x, b x>_x over ordered letter pairs with b != a^-1
    (equal letters included). Valid means m > 0 and p_max <= m/8 - delta/2;
    every nonempty reduced word W over T then moves x by at least |W| m / 2,
    so <T> is free of rank #T. The search and the checker run it on the
    trees, whose distances are integers, so the margin is exact there.

    T must carry one representative per +/- pair: if two entries coincide
    or pair as inverses (or an entry is an involution), the 2#T letters are
    not distinct, the per-pair estimate misses words like t1 t2 = 1, and
    the check reports invalid regardless of the margin.

    Each distance is computed once: d(a x, x) per letter and d(a x, b x) per
    unordered pair of distinct letters, at most 2r + r(2r - 1) dist calls
    for r = #T. The (a^-1, b) and (b^-1, a) products then share one value;
    dist is symmetric on every backend (bit for bit on the half-plane).
    Every letter and pair is measured (``_margin`` with no floor), so m
    and p_max are the least and largest of the same floats in any order.
    """
    backend = T.backend
    if delta is None:
        delta = backend.delta
    letters, earlier, degenerate = _letters(T)
    m, p_max, margin = _margin(backend, letters, earlier, x, delta, -math.inf)
    valid = m > 0 and margin >= 0 and not degenerate
    return GeometricCheck(valid=valid, m=m, p_max=p_max, margin=margin)


def _letters(T):
    """T's entries then their inverses; for each letter, the indices of the
    earlier letters distinct from it; and whether any two letters coincide.
    Only the canonicals act on points, so the inverses carry no words."""
    backend = T.backend
    letters = list(T) + [GroupElement(backend, backend._invert(t.canonical)) for t in T]
    canon = [a.canonical for a in letters]
    earlier = [[i for i in range(j) if canon[i] != canon[j]] for j in range(len(canon))]
    return letters, earlier, len(set(canon)) < len(letters)


def _margin(backend, letters, earlier, x, delta, floor):
    """(m, p_max, margin) at x, with margin = m/8 - delta/2 - p_max.

    a^-1 x runs over every translate and b over the letters != a^-1, so the
    Gromov product of each letter with each of its ``earlier`` letters
    counts once. Letters are taken in order: the displacement d(a x, x) of
    one, then its products with the earlier ones. The walk stops as soon
    as the margin of the values so far falls below ``floor`` and returns
    those values. The stop is exact in floating point: the m so far is at
    least the final m and the p_max so far at most the final one, and
    m/8 - delta/2 - p_max is monotone in each, rounding included, so the
    full margin lies below ``floor`` too. With floor -inf every distance
    is measured."""
    half_delta = delta / 2.0
    translates, d = [], []
    m, p_max = math.inf, 0.0
    for a, before in zip(letters, earlier):
        ax = backend.apply(a, x)
        dx = backend.dist(ax, x)
        if dx < m:
            m = dx
            if m / 8.0 - half_delta - p_max < floor:
                return m, p_max, m / 8.0 - half_delta - p_max
        for i in before:
            p = 0.5 * (d[i] + dx - backend.dist(translates[i], ax))
            if p > p_max:
                p_max = p
                if m / 8.0 - half_delta - p_max < floor:
                    return m, p_max, m / 8.0 - half_delta - p_max
        translates.append(ax)
        d.append(dx)
    return m, p_max, m / 8.0 - half_delta - p_max


def _scan_basepoints(T, points, delta):
    """The basepoint among ``points`` at which T passes the ping-pong test,
    or None.

    It is the point that certify_free_geometric at every point would pick:
    the first of largest margin, if the check passes there. The scan gets
    there with less work. It builds T's letters once, and it rejects a T
    whose letters coincide before computing any distance. Each point is
    measured letter by letter (``_margin``) against the floor max(0, best
    margin so far): a point whose margin is below 0 fails the test, and one
    at or below the best so far can no longer win, so the point is dropped
    at the first displacement or Gromov product that sinks it.
    """
    backend = T.backend
    letters, earlier, degenerate = _letters(T)
    if degenerate:
        return None
    best = None  # (margin, m, point)
    for x in points:
        floor = 0.0 if best is None else max(0.0, best[0])
        m, _, margin = _margin(backend, letters, earlier, x, delta, floor)
        if margin >= 0.0 and (best is None or margin > best[0]):
            best = (margin, m, x)
    if best is None or not best[1] > 0:
        return None
    return best[2]


def _free_basis_evidence(T):
    """The certificate fields that prove T a free basis, or None when T
    fails its backend's test: on the half-plane, ping-pong on T and its
    inverses (``HalfPlane._free_walk``), which stores nothing beyond T; on
    a tree, the margin test at the best basepoint (``_scan_basepoints``),
    stored with m, p_max and margin from certify_free_geometric, the
    checker's own function."""
    backend = T.backend
    if backend.certificate_mode == "ping-pong":
        canon = [t.canonical for t in T]
        return {} if backend._free_walk(canon + [backend._invert(c) for c in canon]) else None
    x = _scan_basepoints(T, basepoint_candidates(T), backend.delta)
    if x is None:
        return None
    check = certify_free_geometric(T, x, backend.delta)
    return {"basepoint": x, "m": check.m, "p_max": check.p_max, "margin": check.margin}


def certify_free_exact(T, L, memory_cap=DEFAULT_MEMORY_CAP) -> bool:
    """Check that no nonempty reduced word over T of length <= L is trivial.

    A True result bounds the length of a shortest relation from below; it
    certifies neither freeness nor any growth bound, and the pipeline does
    not call it. Tests use it as an exact reference for both freeness
    tests. Raises BudgetExceeded when the word count
    sum_{l<=L} 2r (2r-1)^(l-1) passes the cap.
    """
    backend = T.backend
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
    """The fields of a ``loxgrow-cert/2`` certificate, each stored under its
    name (``key`` in the metadata where that differs).

    The evidence for the bound is S, T with its words, kappa, omega_lower
    and, in the "geometric" mode only, the basepoint and margin numbers
    (``_GEOMETRIC``, else None); the checker re-derives each of them from
    T and the stored backend. n, k, ``kappa_mode`` and
    ``escalation_rounds`` are notes from the builder and are not checked.
    """

    backend_config: dict = field(metadata={"key": "backend"})
    backend_hash: str
    mode: str  # the backend's certificate_mode: "ping-pong" | "geometric"
    n: int  # builder note: h = f b^n
    k: int  # builder note: T = {s h^k s^-1}
    S: GeneratingSet  # word metric of the final bound
    T: GeneratingSet  # one representative per +- pair
    r: int
    kappa: int
    kappa_mode: str  # "exact" | "word-upper"
    omega_lower: float
    escalation_rounds: int
    # a constant of the format: membership in E(b) is always decided exactly
    membership_heuristic: bool = False
    basepoint: Optional[Point] = None
    m: Optional[float] = None
    p_max: Optional[float] = None
    margin: Optional[float] = None


# the fields of the "geometric" mode's evidence, stored in no other mode
_GEOMETRIC = ("basepoint", "m", "p_max", "margin")


def _diagonal(max_n, max_k):
    for total in range(2, max_n + max_k + 1):
        lo = max(1, total - max_k)
        hi = min(max_n, total - 1)
        for n in range(lo, hi + 1):
            yield n, total - n


def _compute_kappa(S, T, memory_cap, ball=None) -> Tuple[GeneratingSet, int, str]:
    """T respelled over S, kappa and kappa_mode.

    An entry that the backend's ``subgroup_word_exact`` spells in closed
    form (every entry of a one-syllable tree set, or of a half-plane free
    basis such as Sanov's pair) takes that shortest word with no walk. One
    breadth-first walk searches for every other entry up to its carried
    word's length: ``ball``, a ``Ball`` of S that may be walked in part
    already, or a fresh one. An entry found there takes a shortest word;
    any other keeps its carried spelling, or the backend's normal-form
    word over S where that is no longer.
    kappa is the longest word, and the mode is "exact" when every entry got
    a shortest word, else "word-upper"."""
    outcomes = word_length_in_S(S, [(t, len(t.word)) for t in T], memory_cap, ball=ball)
    shortest = [isinstance(d, tuple) for d in outcomes]
    words = [d if ok else _upper_word(S, t) for t, d, ok in zip(T, outcomes, shortest)]
    T = GeneratingSet(S.backend, [GroupElement(S.backend, t.canonical, w)
                                  for t, w in zip(T, words)])
    return T, max(map(len, words)), "exact" if all(shortest) else "word-upper"


def _upper_word(S, t):
    normal = S.backend.normal_form_word(S, t)
    return normal if normal is not None and len(normal) <= len(t.word) else t.word


def _coset_separated(S_eff, h):
    """The entries of S_eff, in order, that lie in distinct left cosets of
    E(h): an entry s is kept unless s^-1 p lies in E(h) for an entry p kept
    before it."""
    backend = h.backend
    S0 = []
    for s in S_eff:
        s_inv = backend._invert(s.canonical)
        quotients = (GroupElement(backend, backend._compose(s_inv, p.canonical)) for p in S0)
        if not any(_elementary_member(h, g) for g in quotients):
            S0.append(s)
    return S0


def _spelled(T, S0, f, b, n, k):
    """The tried T = {s h^k s^-1 : s in S0}, h = f b^n, with words: each
    entry keeps the canonical the search composed, and its word is the
    free reduction of the words of s, (f b^n)^k and s^-1 concatenated (one
    word whatever order the reductions run in), so nothing is composed."""
    backend = T.backend
    hk = (f.word + b.word * n) * k
    words = (reduce_symbol_word(s.word + hk + inverse_word(s.word)) for s in S0)
    return GeneratingSet(backend, [GroupElement(backend, t.canonical, w) for t, w in zip(T, words)])


def build_free_basis(S, budgets=None, *, memory_cap=DEFAULT_MEMORY_CAP,
                     ball=None) -> FreeBasisCertificate:
    """Escalate to a loxodromic, then run the diagonal (n, k) amplification
    search ending in a freeness certificate.

    Escalation: starting from S_eff = S, while no loxodromic shows up among
    S_eff and its pairwise products, S_eff becomes its radius-2 ball. After
    ``budgets.max_rounds`` squarings without one it raises LikelyElementary.
    The search then runs over S_eff; kappa is measured in the word metric
    of S, and the certificate records the number of rounds. Any
    ElementaryDetected raised here carries that number in
    ``escalation_rounds``.

    Then b = find_short_loxodromic, f = find_independent, h = f b^n, S0
    the entries in distinct cosets of E(h) and T = {s h^k s^-1 : s in S0},
    skipping an n whose h is not loxodromic or whose S0 has fewer than
    two entries, since a rank-1 T bounds nothing. Membership in E(b) and
    E(h) tests one conjugate (``_elementary_member``).

    Smallest n + k first, n ascending inside a diagonal; the first (n, k)
    whose T passes the backend's freeness test (``_free_basis_evidence``)
    wins: integer ping-pong on the half-plane, which reads no point, and
    the margin test at the best basepoint candidate on a tree. The search
    composes bare canonicals, and a tried T holds elements with no word;
    only the winning T is spelled (``_spelled``), once, before kappa reads
    its words. If no (n, k) passes, SearchExhausted is raised. Kappa's search
    resumes ``ball``, a ``Ball`` of S with this ``memory_cap``, when one is
    given (``verify_theorem`` passes the one its growth table walked),
    else walks a fresh one.
    """
    budgets = budgets or SearchBudgets()
    backend = S.backend
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

    # bare canonicals from here on; _spelled spells the winner
    compose, invert = backend._compose, backend._invert
    b_pows = [b.canonical]  # b^1, b^2, ...
    # n -> (S0, [s^-1 for s in S0], [h^1, h^2, ...]), or None if h is not
    # loxodromic or #S0 < 2
    stages = {}
    for n, k in _diagonal(budgets.max_n, budgets.max_k):
        if n not in stages:
            while len(b_pows) < n:
                b_pows.append(compose(b_pows[-1], b_pows[0]))
            h = GroupElement(backend, compose(f.canonical, b_pows[n - 1]))
            S0 = _coset_separated(S_eff, h) if backend.classify(h).kind == "loxodromic" else []
            stages[n] = ((S0, [invert(s.canonical) for s in S0], [h.canonical])
                         if len(S0) >= 2 else None)
        if stages[n] is None:
            continue
        S0, S0_inv, h_pows = stages[n]
        while len(h_pows) < k:
            h_pows.append(compose(h_pows[-1], h_pows[0]))
        hk = h_pows[k - 1]
        T = GeneratingSet(backend, [GroupElement(backend, compose(compose(s.canonical, hk), s_inv))
                                    for s, s_inv in zip(S0, S0_inv)])
        evidence = _free_basis_evidence(T)
        if evidence is None:
            continue
        T, kappa, kappa_mode = _compute_kappa(S, _spelled(T, S0, f, b, n, k), memory_cap, ball)
        r = len(T)
        return FreeBasisCertificate(
            backend_config=backend.config(), backend_hash=backend_hash(backend.config()),
            mode=backend.certificate_mode, n=n, k=k, S=S, T=T, r=r,
            kappa=kappa, kappa_mode=kappa_mode, omega_lower=math.log(2 * r - 1) / kappa,
            escalation_rounds=rounds, **evidence,
        )

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


def verify_theorem(S, n_max, budgets=None, *, memory_cap=DEFAULT_MEMORY_CAP) -> TheoremReport:
    """Run the full pipeline and cross-check the growth brackets.

    Counts balls for S, then builds the free-basis certificate with
    build_free_basis (which escalates by itself). Both read one ``Ball``
    of S: the table counts its first ``n_max`` spheres, and the kappa
    search reads them again and walks on from there only if it must, so
    the ball of S is walked once; the Ball is dropped when both are done.
    On a one-letter tree set, or a half-plane set of integer matrices
    that passes ``HalfPlane._free_walk``'s ping-pong test (both spellings
    of Sanov's pair do), the table is counted without
    a walk. Kappa's targets are spelled in closed form, with no walk, on
    a tree set of one-byte entries and on such a half-plane set: Sanov's
    pair and the trees' standard sets walk nothing at all, and C2*C7
    {a, b} walks only the table's ``n_max`` spheres.
    Elementary outcomes are reported, not raised; budget blowups
    propagate. A growth table truncated below radius 2 raises
    BudgetExceeded; one truncated later stays in the report
    (``table.truncated``) for the caller to flag. The certified lower
    bound must not exceed the certified upper bound, else the run aborts.
    """
    ball = Ball(S, memory_cap)
    table = ball_sizes(S, n_max, memory_cap=memory_cap, ball=ball)
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
        cert = build_free_basis(S, budgets, memory_cap=memory_cap, ball=ball)
        rounds = cert.escalation_rounds
    except ElementaryDetected as exc:
        elementary = type(exc).__name__
        reason = str(exc)
        rounds = exc.escalation_rounds
    # readers done; Ball and walk form a cycle, so only the cyclic GC frees them
    del ball

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


def _element_payload(backend, g):
    out = {
        "word": word_str(g.word),
        "canonical": backend.canonical_payload(g.canonical),
    }
    if g.word is not None:
        out["symbols"] = [[sym, int(e)] for sym, e in g.word]
    return out


def _element_from(backend, data):
    word = None
    if "symbols" in data:
        word = tuple((read_str(s, "symbol"), read_int(e, "sign")) for s, e in data["symbols"])
    return GroupElement(backend, backend.canonical_from_payload(data["canonical"]), word)


def _same(v):
    return v


def _codec(backend):
    """Certificate field type -> (write, read) of the field's JSON form."""
    return {
        # the backend config, read before the other fields: its hash is
        # compared and make_backend builds it
        dict: (_same, _same),
        str: (_same, read_str),
        int: (_same, read_int),
        # tree backends measure in ints; write type-stable floats so a
        # payload survives a load/dump round trip byte-identically
        float: (float, read_real),
        bool: (_same, read_flag),
        GeneratingSet: (lambda S: [_element_payload(backend, g) for g in S],
                        lambda data: GeneratingSet(backend, [_element_from(backend, item)
                                                             for item in data])),
        Point: (backend.point_payload, backend.point_from_payload),
    }


def _key(f):
    return f.metadata.get("key", f.name)


def _type(f):
    """The field's type, Point for Optional[Point]."""
    return getattr(f.type, "__args__", (f.type,))[0]


def certificate_payload(cert: FreeBasisCertificate) -> dict:
    """The certificate as a JSON-ready dict; a field that is None (the
    geometric evidence in the ping-pong mode) is left out."""
    codec = _codec(cert.S.backend)
    out = {"format": CERT_FORMAT}
    for f in fields(FreeBasisCertificate):
        value = getattr(cert, f.name)
        if value is not None:
            out[_key(f)] = codec[_type(f)][0](value)
    return out


def certificate_to_json(cert: FreeBasisCertificate) -> str:
    return json.dumps(certificate_payload(cert), sort_keys=True, indent=2) + "\n"


def certificate_from_payload(data, backend=None) -> FreeBasisCertificate:
    """Load a certificate from its payload dict or JSON text.

    Raises InvalidCertificate on text that is not JSON, on a missing field,
    on a field of the wrong shape or type, on a number that is not finite,
    and on a stored element or point that the backend's own rules refuse.
    The geometric evidence (``_GEOMETRIC``) may be missing; the checker
    asks for it in the geometric mode and refuses it in any other.
    A stored backend config that ``make_backend`` cannot build raises its
    ConfigError, as in a run config.
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
    codec, values = _codec(backend), {}
    for f in fields(FreeBasisCertificate):
        if f.name in _GEOMETRIC and _key(f) not in data:
            continue
        try:
            values[f.name] = codec[_type(f)][1](data[_key(f)])
        except _SHAPE_ERRORS as exc:
            raise _malformed(exc, f" field {_key(f)!r}") from exc
    return FreeBasisCertificate(**values)


# what loading a field of the wrong shape or type raises; NotInGroup is a
# stored matrix of the wrong det (!= 1 exact, <= 0 float) or entry type
_SHAPE_ERRORS = (TypeError, ValueError, KeyError, OverflowError, NotInGroup)


def _malformed(exc, where=""):
    return InvalidCertificate(f"malformed certificate{where}: {type(exc).__name__}: {exc}")


# -- independent checker ------------------------------------------------------


def _check_T_words(S, T):
    """Evaluate each T entry's symbol word over S and compare with the entry.

    S must be identity-free and inverse-closed, with exactly one symbol
    (label, +-1) per entry and no symbol twice; sign -1 stands for the
    inverse.
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
        if value != t.canonical:
            raise InvalidCertificate(f"T entry {word_str(t.word)} does not evaluate to itself")


def check_certificate(source, backend=None, memory_cap=None) -> dict:
    """Re-derive the bound from T and compare with the stored numbers.

    Accepts a FreeBasisCertificate, a payload dict, or JSON text, checked
    on the backend its stored config builds. The mode must be the
    backend's ``certificate_mode``, with the geometric evidence
    (``_GEOMETRIC``) stored in that mode only. It checks that r = #T >= 2
    with 2r distinct letters; that T is a free basis (the builder's test,
    ``_free_basis_evidence``, on the half-plane; on a tree the margin at
    the stored basepoint, which must reproduce m, p_max and margin and
    clear 0); that each T word evaluates over the stored S to its entry,
    with kappa the longest word; and that omega_lower = log(2r - 1) /
    kappa. n, k, ``kappa_mode`` and ``escalation_rounds`` (beyond being
    >= 0) are unchecked notes, and no work depends on them. No search runs,
    so ``memory_cap`` is accepted and ignored.

    Each number must be reproduced bit for bit, and
    ``membership_heuristic`` must be false. Raises InvalidCertificate on
    the first mismatch.
    """
    if isinstance(source, FreeBasisCertificate):
        cert = source
    else:
        cert = certificate_from_payload(source, backend)
    backend = cert.S.backend

    def fail(msg):
        raise InvalidCertificate(msg)

    if cert.mode not in ("geometric", "ping-pong"):
        fail(f"unknown mode {cert.mode!r}")
    if cert.mode != backend.certificate_mode:
        fail(f"mode {cert.mode!r} on a {backend.kind} backend, whose certificates "
             f"have mode {backend.certificate_mode!r}")
    stored = [name for name in _GEOMETRIC if getattr(cert, name) is not None]
    want = list(_GEOMETRIC) if cert.mode == "geometric" else []
    if stored != want:
        fail(f"mode {cert.mode!r} stores the evidence fields {want}, this certificate {stored}")
    if cert.membership_heuristic:
        fail("membership_heuristic must be false: membership is decided exactly")
    if backend_hash(backend.config()) != cert.backend_hash:
        fail("backend hash mismatch")
    if cert.escalation_rounds < 0:
        fail(f"escalation_rounds {cert.escalation_rounds} is negative")

    if cert.r != len(cert.T):
        fail(f"r {cert.r} disagrees with #T {len(cert.T)}")
    if cert.r < 2:
        fail(f"rank {cert.r}: the bound needs a free basis of rank r >= 2")
    if _letters(cert.T)[2]:
        fail("T has a repeated entry, an inverse pair or an involution")

    summary = {}
    if cert.mode == "ping-pong":
        if _free_basis_evidence(cert.T) is None:
            fail("T and its inverses fail the integer ping-pong test")
    else:
        chk = certify_free_geometric(cert.T, cert.basepoint, backend.delta)
        # fail closed: NaN compares false
        if not chk.m == cert.m:
            fail(f"m mismatch: recomputed {chk.m!r}, stored {cert.m!r}")
        if not chk.p_max == cert.p_max:
            fail(f"p_max mismatch: recomputed {chk.p_max!r}, stored {cert.p_max!r}")
        if not chk.margin == cert.margin:
            fail(f"margin mismatch: recomputed {chk.margin!r}, stored {cert.margin!r}")
        if not chk.valid:
            fail("geometric margin does not clear the floor")
        summary["margin"] = float(chk.margin)

    _check_T_words(cert.S, cert.T)
    kappa = max(len(t.word) for t in cert.T)
    if kappa != cert.kappa:
        fail(f"kappa mismatch: the longest T word has length {kappa}, stored {cert.kappa}")
    expect = math.log(2 * cert.r - 1) / cert.kappa
    if expect != cert.omega_lower:
        fail(f"omega_lower mismatch: recomputed {expect!r}, stored {cert.omega_lower!r}")

    return {
        "valid": True,
        "mode": cert.mode,
        "r": cert.r,
        "kappa": cert.kappa,
        "omega_lower": float(cert.omega_lower),
        **summary,
        "membership_heuristic": False,
    }
