"""Loxodromic search, freeness certificates, the theorem driver."""

import dataclasses
import json
import math
import random
import warnings

import pytest

import loxgrow.freebasis as freebasis
import loxgrow.spaces.base
from loxgrow.errors import (
    AllElementary,
    BudgetExceeded,
    ConfigError,
    ElementaryDetected,
    EmptyAfterReduction,
    InvalidCertificate,
    LikelyElementary,
    NoLoxodromicFound,
    SearchExhausted,
)
from loxgrow.freebasis import (
    GeometricCheck,
    SearchBudgets,
    _compute_kappa,
    _elementary_member,
    build_free_basis,
    certificate_from_payload,
    certificate_payload,
    certificate_to_json,
    certify_free_exact,
    certify_free_geometric,
    check_certificate,
    find_independent,
    find_short_loxodromic,
    verify_theorem,
)
from loxgrow.hypcore import gromov_product
from loxgrow.spaces import GroupElement, Point, make_backend
from loxgrow.spaces.base import basepoint_candidates, reduce_symbol_word
from loxgrow.words import GeneratingSet, make_generating_set, product_ball_set

from conftest import PSL2Z_ELLIPTIC, SANOV, count_walks, power
from test_words import _evaluate, _one_target


def raw_set(backend, words):
    return GeneratingSet(backend, [backend.element(w) for w in words])


# -- loxodromic search ----------------------------------------------------------


def test_find_short_loxodromic_f2(ft2, S_f2):
    pick = find_short_loxodromic(S_f2)
    assert pick.tau == 2.0
    assert pick.b.canonical == ft2.element("xx").canonical


def test_find_short_loxodromic_psl_tree(pt23, S_pt):
    pick = find_short_loxodromic(S_pt)
    assert pick.tau == 2.0
    assert pick.b.canonical == pt23.element("ab").canonical


def test_find_short_loxodromic_sanov(hp, S_sanov):
    pick = find_short_loxodromic(S_sanov)
    assert pick.tau == pytest.approx(2.0 * math.acosh(3.0))
    a, b, c, d = pick.b.canonical
    assert abs(a + d) == 6


def test_no_loxodromic_in_elliptic_set(hp):
    S = make_generating_set(hp, PSL2Z_ELLIPTIC)
    with pytest.raises(NoLoxodromicFound):
        find_short_loxodromic(S)


# -- elementary membership -------------------------------------------------------


def test_in_elementary_free_group(ft2):
    x = ft2.element("x")
    assert _elementary_member(x, ft2.element("X"))
    assert _elementary_member(x, ft2.element("xx"))
    assert not _elementary_member(x, ft2.element("y"))
    assert not _elementary_member(ft2.element("xx"), ft2.element("y"))


def test_in_elementary_product_tree(pt23):
    ab = pt23.element("ab")
    assert not _elementary_member(ab, pt23.element("a"))
    assert _elementary_member(ab, pt23.element("abab"))


def _six_power_member(b, g):
    """The exact membership test before one conjugate sufficed:
    g b^n g^-1 in {b^n, b^-n} for some 1 <= n <= 6."""
    backend = b.backend
    compose, invert = backend._compose, backend._invert
    bc, gc = b.canonical, g.canonical
    bn = bc
    for i in range(6):
        if i:
            bn = compose(bn, bc)
        conj = compose(compose(gc, bn), invert(gc))
        if conj == bn or conj == invert(bn):
            return True
    return False


_MEMBER_CASES = {
    "f2": ({"kind": "free_group_tree", "rank": 2, "letters": "xy"}, ["x", "y"]),
    "f3": ({"kind": "free_group_tree", "rank": 3}, ["a", "b", "c"]),
    "c2c3": ({"kind": "free_product_tree", "orders": [2, 3]}, ["a", "b"]),
    "c3c4": ({"kind": "free_product_tree", "orders": [3, 4]}, ["a", "b"]),
    "c2c7": ({"kind": "free_product_tree", "orders": [2, 7]}, ["a", "b"]),
    "sanov": ({"kind": "half_plane"}, SANOV),
    "psl2z {T,U}": ({"kind": "half_plane"}, [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]),
}


@pytest.mark.parametrize("case", sorted(_MEMBER_CASES))
def test_one_conjugate_decides_exact_membership(case):
    # on a tree with trivial edge stabilizers (g b g^-1)^n = b^(+-n) forces
    # g b g^-1 = b^(+-1): one conjugate answers as six powers did, on every
    # pair of a loxodromic b of the radius-2 ball and a g of the radius-4 one
    config, gens = _MEMBER_CASES[case]
    backend = make_backend(config)
    S = make_generating_set(backend, gens)
    ball = [backend.identity()] + list(product_ball_set(S, 4, 10_000))
    pivots = [b for b in product_ball_set(S, 2, 10_000)
              if backend.classify(b).kind == "loxodromic"]
    assert pivots
    answers = set()
    for b in pivots:
        for g in ball:
            member = _elementary_member(b, g)
            assert member == _six_power_member(b, g), (b.canonical, g.canonical)
            answers.add(member)
    assert answers == {True, False}


def test_find_independent(ft2, S_f2):
    f = find_independent(S_f2, ft2.element("xx"))
    assert f.canonical == ft2.element("y").canonical
    S_cyclic = make_generating_set(ft2, ["x"])
    with pytest.raises(AllElementary):
        find_independent(S_cyclic, ft2.element("x"))


# -- geometric certificates -------------------------------------------------------


def test_geometric_check_valid_pair(ft2):
    T = raw_set(ft2, ["xx", "yy"])
    chk = certify_free_geometric(T, ft2.origin())
    assert chk.valid
    assert chk.m == 2.0
    assert chk.p_max == 0.0
    assert chk.margin == 0.25


def test_geometric_check_rejects_shared_prefix(ft2):
    T = raw_set(ft2, ["x", "yx"])
    chk = certify_free_geometric(T, ft2.origin())
    assert not chk.valid
    assert chk.m == 1.0
    assert chk.p_max == 1.0
    assert chk.margin == -0.875
    # the pair is nevertheless free: no short relation exists
    assert certify_free_exact(T, 6) is True


def test_geometric_check_rejects_degenerate_letter_sets(ft2, pt23):
    # entries that repeat, pair as inverses, or square to the identity
    # collapse the 2#T letters, so no margin may certify them
    x = ft2.origin()
    for words in (["x", "X"], ["x", "x"], ["xy", "xy"]):
        assert not certify_free_geometric(raw_set(ft2, words), x).valid
    assert not certify_free_geometric(raw_set(pt23, ["a"]), pt23.origin()).valid
    # the exact checker sees the same relations
    assert certify_free_exact(raw_set(ft2, ["x", "X"]), 2) is False
    assert certify_free_exact(raw_set(pt23, ["a"]), 2) is False


def test_geometric_check_refuses_the_half_plane(hp):
    # the plane proves T free by integer ping-pong; a margin there would
    # rest on its configured delta, which no certificate reads
    T = raw_set(hp, [SANOV[0], SANOV[1]])
    with pytest.raises(ConfigError, match="margin test is for the trees"):
        certify_free_geometric(T, hp.origin())
    assert freebasis._free_basis_evidence(T) == {}


def test_geometric_displacement_lower_bound(ft2):
    T = raw_set(ft2, ["xx", "yy"])
    chk = certify_free_geometric(T, ft2.origin())
    assert chk.valid
    rng = random.Random(13)
    letters = list(T) + [ft2.invert(t) for t in T]
    for _ in range(50):
        length = rng.randint(1, 8)
        word = [rng.randrange(4)]
        while len(word) < length:
            nxt = rng.randrange(4)
            if abs(nxt - word[-1]) != 2:
                word.append(nxt)
        W = ft2.identity()
        for idx in word:
            W = ft2.compose(W, letters[idx])
        moved = ft2.dist(ft2.origin(), ft2.apply(W, ft2.origin()))
        assert moved >= len(word) * chk.m / 2.0


def reference_geometric(T, x):
    """Reference check: one gromov_product call per ordered letter pair."""
    backend = T.backend
    letters = list(T) + [backend.invert(t) for t in T]
    translates = [backend.apply(a, x) for a in letters]
    inverses = [a.canonical for a in letters[len(T):]] + [a.canonical for a in letters[: len(T)]]
    degenerate = len({a.canonical for a in letters}) < len(letters)
    m = min(backend.dist(x, tx) for tx in translates)
    p_max = 0.0
    for i in range(len(letters)):
        ax = translates[(i + len(T)) % len(letters)]
        for j, b in enumerate(letters):
            if b.canonical == inverses[i]:
                continue
            p = gromov_product(ax, translates[j], x)
            if p > p_max:
                p_max = p
    margin = m / 8.0 - p_max
    valid = m > 0 and margin >= 0 and not degenerate
    return GeometricCheck(valid=valid, m=m, p_max=p_max, margin=margin)


def _searched_T_sets(S, monkeypatch, memory_cap):
    # every T the (n, k) search tries with n <= 3 and k <= 8, each refused
    # so that the search goes on: small and large T sets
    seen = []

    def refuse(T):
        seen.append(T)
        return None

    monkeypatch.setattr(freebasis, "_free_basis_evidence", refuse)
    with pytest.raises(SearchExhausted):
        build_free_basis(S, SearchBudgets(max_n=3, max_k=8), memory_cap=memory_cap)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("case", ["f2", "c2c3", "c3c3"])
def test_geometric_check_matches_per_pair_reference(case, monkeypatch):
    if case == "f2":
        backend, gens = make_backend({"kind": "free_group_tree", "rank": 2, "letters": "xy"}), ["x", "y"]
    else:
        orders = [2, 3] if case == "c2c3" else [3, 3]
        backend, gens = make_backend({"kind": "free_product_tree", "orders": orders}), ["a", "b"]
    S = make_generating_set(backend, gens)
    sets = _searched_T_sets(S, monkeypatch, 50_000)
    assert sets

    calls = [0]
    dist = type(backend).dist

    def counted(self, x, y):
        calls[0] += 1
        return dist(self, x, y)

    checked = 0
    for T in sets:
        r = len(T)
        for x in basepoint_candidates(T):
            want = reference_geometric(T, x)
            monkeypatch.setattr(type(backend), "dist", counted)
            calls[0] = 0
            got = certify_free_geometric(T, x)
            monkeypatch.setattr(type(backend), "dist", dist)
            assert calls[0] <= 2 * r + r * (2 * r - 1)
            assert (got.m, got.p_max, got.margin, got.valid) == (
                want.m, want.p_max, want.margin, want.valid)
            checked += 1
    assert checked


# -- exact certificates ------------------------------------------------------------


def test_exact_check_detects_relation(ft2):
    T = raw_set(ft2, ["x", "xx"])
    assert certify_free_exact(T, 2) is True
    assert certify_free_exact(T, 3) is False


def test_exact_check_sanov(hp, S_sanov):
    T = raw_set(hp, [SANOV[0], SANOV[1]])
    assert certify_free_exact(T, 5) is True


def test_exact_check_guards(ft2, hpf):
    T = raw_set(ft2, ["x", "yy"])
    with pytest.raises(ConfigError):
        certify_free_exact(T, 0)
    with pytest.raises(BudgetExceeded):
        certify_free_exact(T, 8, memory_cap=10)
    # the float spelling loads exactly, so its word problem is decided too
    Tf = GeneratingSet(hpf, [hpf.element([[2.0, 0.0], [0.0, 0.5]])])
    assert certify_free_exact(Tf, 3) is True


# -- pipelines ----------------------------------------------------------------------


def test_pipeline_f2(ft2, S_f2):
    cert = build_free_basis(S_f2)
    assert (cert.n, cert.k) == (1, 3)
    assert cert.mode == "geometric"
    # b = xx, f = y and h = f b^n = yxx; every entry of S is kept, and
    # T = {s h^k s^-1}
    hk = power(ft2.element("yxx"), 3)
    assert [t.canonical for t in cert.T] == [
        ft2.compose(ft2.compose(s, hk), ft2.invert(s)).canonical for s in S_f2]
    assert cert.r == 4
    assert cert.margin == 0.125
    assert (cert.kappa, cert.kappa_mode) == (11, "exact")
    assert cert.omega_lower == math.log(7) / 11
    assert not cert.membership_heuristic
    assert check_certificate(cert)["valid"]


def test_pipeline_psl_tree(pt23, S_pt):
    cert = build_free_basis(S_pt)
    assert (cert.n, cert.k) == (3, 6)
    assert cert.r == 3
    assert cert.margin == 0.0
    assert cert.mode == "geometric"
    assert (cert.kappa, cert.kappa_mode) == (27, "exact")
    assert cert.omega_lower == math.log(5) / 27
    assert check_certificate(cert)["valid"]


def test_pipeline_sanov(hp, S_sanov):
    cert = build_free_basis(S_sanov, memory_cap=50_000)
    # the first T that integer ping-pong passes
    assert (cert.n, cert.k) == (1, 3)
    assert cert.r == 4
    assert cert.mode == "ping-pong"
    assert (cert.basepoint, cert.m, cert.p_max, cert.margin) == (None, None, None, None)
    # S is a free basis, so T's reduced words over it are shortest
    assert (cert.kappa, cert.kappa_mode) == (11, "exact")
    assert cert.omega_lower == math.log(7) / 11
    assert check_certificate(cert)["valid"]


def test_pipeline_deterministic(S_f2):
    a = certificate_to_json(build_free_basis(S_f2))
    b = certificate_to_json(build_free_basis(S_f2))
    assert a == b


def test_pipeline_escalates_by_itself(hp):
    # no loxodromic among the elliptic set and its products: one squaring
    S = make_generating_set(hp, PSL2Z_ELLIPTIC)
    cert = build_free_basis(S, memory_cap=50_000)
    assert cert.escalation_rounds == 1
    assert [g.canonical for g in cert.S] == [g.canonical for g in S]
    report = verify_theorem(S, 3, memory_cap=50_000)
    assert certificate_payload(cert) == certificate_payload(report.cert)


def test_escalation_budget_and_rounds_on_elementary_outcomes(hp, ft2, monkeypatch):
    parabolic = make_generating_set(hp, [[[1, 1], [0, 1]]])
    with pytest.raises(LikelyElementary) as ei:
        build_free_basis(parabolic, SearchBudgets(max_rounds=2))
    assert ei.value.escalation_rounds == 2
    assert "after 2 ball escalations" in str(ei.value)

    # force one escalation on a cyclic set: AllElementary then reports it
    original = freebasis.find_short_loxodromic
    calls = []

    def miss_once(S):
        calls.append(len(S))
        if len(calls) == 1:
            raise NoLoxodromicFound("forced miss")
        return original(S)

    monkeypatch.setattr(freebasis, "find_short_loxodromic", miss_once)
    cyclic = make_generating_set(ft2, ["x"])
    with pytest.raises(AllElementary) as ei:
        build_free_basis(cyclic)
    assert ei.value.escalation_rounds == 1
    assert calls == [2, 4]
    calls.clear()
    report = verify_theorem(cyclic, 4)
    assert (report.elementary, report.escalation_rounds) == ("AllElementary", 1)


# -- theorem driver -------------------------------------------------------------------


def test_verify_theorem_f2(S_f2):
    report = verify_theorem(S_f2, 8)
    assert report.cert is not None
    assert report.elementary is None
    assert 0.0 < report.omega_lower <= report.omega_upper + 1e-9
    assert report.omega_hat == pytest.approx(math.log(3), abs=1e-3)
    assert report.theta_hat == pytest.approx(report.omega_hat / math.log(4))
    assert report.table.ball(8) == 2 * 3**8 - 1
    assert report.escalation_rounds == 0


def test_verify_theorem_cyclic_reports_elementary(ft2):
    S = make_generating_set(ft2, ["x"])
    report = verify_theorem(S, 6)
    assert report.cert is None
    assert report.elementary == "AllElementary"
    assert report.omega_lower == 0.0
    assert report.omega_hat == pytest.approx(math.log(13) - math.log(11))
    assert report.elementary_reason


def test_verify_theorem_sanov_frozen(S_sanov):
    report = verify_theorem(S_sanov, 8, memory_cap=50_000)
    assert report.omega_lower == math.log(7) / 11
    assert report.omega_hat == pytest.approx(1.0987647276927959)
    assert report.omega_upper == pytest.approx(1.1852461598882145)
    assert report.theta_hat == pytest.approx(0.7925912118730545)
    assert report.escalation_rounds == 0
    assert report.cert.membership_heuristic is False


def test_verify_theorem_delta_guard():
    # the plane proves T free by integer ping-pong, which reads no delta, so
    # verify_theorem no longer compares delta with an empirical four-point
    # defect: a delta of 0.3, below the plane's log 2, certifies what the
    # default 1.0 does, and only the stored backend config tells them apart
    payloads = []
    for delta in (0.3, 1.0):
        S = make_generating_set(make_backend({"kind": "half_plane", "delta": delta}), SANOV)
        payloads.append(certificate_payload(verify_theorem(S, 4, memory_cap=50_000).cert))
    tight, default = payloads
    assert (tight["backend"]["delta"], default["backend"]["delta"]) == (0.3, 1.0)
    for payload in payloads:
        del payload["backend"], payload["backend_hash"]
    assert tight == default


# -- serialization and the independent checker -----------------------------------------


def test_certificate_round_trip(ft2, S_f2):
    cert = build_free_basis(S_f2)
    payload = certificate_payload(cert)
    back = certificate_from_payload(payload)
    assert [t.canonical for t in back.T] == [t.canonical for t in cert.T]
    assert back.kappa == cert.kappa
    assert certificate_to_json(back) == certificate_to_json(cert)
    assert check_certificate(certificate_to_json(cert))["valid"]


def test_certificate_wrong_backend(S_f2):
    cert = build_free_basis(S_f2)
    payload = certificate_payload(cert)
    other = make_backend({"kind": "free_group_tree", "rank": 2})
    with pytest.raises(InvalidCertificate):
        certificate_from_payload(payload, backend=other)


def test_certificate_tamper_fuzz(S_f2):
    cert = build_free_basis(S_f2)
    base = certificate_payload(cert)
    assert check_certificate(base)["valid"]

    def tampered(**changes):
        data = json.loads(json.dumps(base))
        data.update(changes)
        return data

    # a tree takes no delta: one stored under a matching hash is a config
    # error, not a margin the checker reads
    loose = dict(base["backend"], delta=1.0)
    with pytest.raises(ConfigError, match="unknown backend keys"):
        check_certificate(tampered(backend=loose, backend_hash=freebasis.backend_hash(loose)))
    bad_variants = [
        tampered(mode="exact_only", exact_check_len=4),
        tampered(format="loxgrow-cert/0"),
        tampered(format="loxgrow-cert/1"),
        tampered(backend_hash="0" * 16),
        tampered(r=cert.r + 1),
        tampered(m=cert.m + 0.5),
        tampered(p_max=cert.p_max + 0.5),
        tampered(margin=cert.margin + 0.25),
        tampered(mode="ping-pong"),
        tampered(margin=None),
        tampered(kappa=cert.kappa + 1),
        tampered(kappa=cert.kappa - 1, omega_lower=math.log(2 * cert.r - 1) / (cert.kappa - 1)),
        tampered(omega_lower=cert.omega_lower * 1.01),
        tampered(basepoint=[1, 1]),
    ]
    for data in bad_variants:
        with pytest.raises(InvalidCertificate):
            check_certificate(data)
    # n, k and kappa_mode are the builder's notes, not checked claims
    for note in (dict(n=cert.n + 1), dict(k=cert.k + 1), dict(kappa_mode="word-upper")):
        assert check_certificate(tampered(**note)) == check_certificate(base)

    # a longest T word padded with x X: still a word for its entry, so it
    # checks once kappa and omega_lower follow it, and not before
    data = json.loads(json.dumps(base))
    longest = max(data["T"], key=lambda t: len(t["symbols"]))
    longest["symbols"] = longest["symbols"] + [["x", 1], ["x", -1]]
    with pytest.raises(InvalidCertificate, match="kappa mismatch"):
        check_certificate(data)
    data.update(kappa=cert.kappa + 2, omega_lower=math.log(2 * cert.r - 1) / (cert.kappa + 2))
    assert check_certificate(data)["kappa"] == cert.kappa + 2

    # tampering inside T: swap one entry for its inverse
    data = json.loads(json.dumps(base))
    t0 = data["T"][0]
    backend = S_f2.backend
    inv = backend.invert(cert.T[0])
    t0["canonical"] = list(inv.canonical)
    t0.pop("symbols", None)
    with pytest.raises(InvalidCertificate):
        check_certificate(data)


def test_repeated_T_entry_rejected(S_f2):
    # one T entry repeated, with r and omega_lower to match: every check
    # before the degenerate-T one passes
    cert = build_free_basis(S_f2)
    data = certificate_payload(cert)
    data["T"].append(data["T"][0])
    r = cert.r + 1
    data.update(r=r, omega_lower=math.log(2 * r - 1) / cert.kappa)
    with pytest.raises(InvalidCertificate,
                       match="T has a repeated entry, an inverse pair or an involution"):
        check_certificate(data)


def test_forged_T_words_rejected(S_f2):
    # one-letter words over S would make kappa 1 and omega_lower log 7,
    # above the true rate log 3
    payload = certificate_payload(verify_theorem(S_f2, 6).cert)
    for t in payload["T"]:
        t["symbols"] = [["x", 1]]
    payload.update(kappa=1, kappa_mode="word-upper", omega_lower=math.log(7))
    with pytest.raises(InvalidCertificate):
        check_certificate(payload)


_KAPPA_CASES = {
    # case: (backend config, generators, memory cap, pinned (r, kappa, kappa_mode))
    "elliptic": ({"kind": "half_plane", "delta": 0.7}, PSL2Z_ELLIPTIC, 5000, (7, 31, "word-upper")),
    "sanov": ({"kind": "half_plane"}, SANOV, 50_000, (4, 11, "exact")),
    "sanov-float": ({"kind": "half_plane", "arithmetic": "float"},
                    [[[1.0, 2.0], [0.0, 1.0]], [[1.0, 0.0], [2.0, 1.0]]], 20_000,
                    (4, 11, "exact")),
    "c2c7": ({"kind": "free_product_tree", "orders": [2, 7]}, ["a", "b"], 2_000_000,
             (3, 14, "exact")),
    # ab is a two-syllable entry, so no closed form spells T: the walk runs
    "c2c4-ab": ({"kind": "free_product_tree", "orders": [2, 4]}, ["a", "b", "bb", "ab"], 20_000,
                (4, 21, "word-upper")),
}
# the cases whose T subgroup_word_exact spells: a free basis on the plane,
# one-syllable entries on the tree
_CLOSED_FORM = {"sanov", "sanov-float", "c2c7"}


@pytest.mark.parametrize("case", sorted(_KAPPA_CASES))
def test_kappa_walks_the_ball_once(case, monkeypatch):
    # the certify-kappa sets at their benchmark caps: the entries of T that
    # no closed form spells are all searched in one walk of the ball of S,
    # and a T the closed form spells walks nothing
    config, gens, cap, (r, kappa, kappa_mode) = _KAPPA_CASES[case]
    S = make_generating_set(make_backend(config), gens)
    cert = build_free_basis(S, memory_cap=cap)
    assert (cert.r, cert.kappa, cert.kappa_mode) == (r, kappa, kappa_mode)
    walks = count_walks(monkeypatch)
    T, got_kappa, got_mode = _compute_kappa(cert.S, cert.T, cap)
    assert (got_kappa, got_mode) == (kappa, kappa_mode)
    assert [t.word for t in T] == [t.word for t in cert.T]
    assert len(walks) == (0 if case in _CLOSED_FORM else 1)


# n_max of the certify-kappa configs in the benchmark
_KAPPA_N_MAX = {"elliptic": 3, "sanov": 8, "sanov-float": 7, "c2c7": 10, "c2c4-ab": 4}


@pytest.mark.parametrize("case", sorted(_KAPPA_CASES))
def test_verify_theorem_walks_the_ball_of_S_once(case, monkeypatch):
    # the growth table and the kappa search read one Ball, so a run makes
    # at most one walk over S's canonicals; each escalation round walks
    # S_eff's elements in product_ball_set, another set, which does not count
    config, gens, cap, (r, kappa, kappa_mode) = _KAPPA_CASES[case]
    S = make_generating_set(make_backend(config), gens)
    walked = count_walks(monkeypatch)
    n_max = _KAPPA_N_MAX[case]
    rep = verify_theorem(S, n_max, memory_cap=cap)
    assert (rep.cert.r, rep.cert.kappa, rep.cert.kappa_mode) == (r, kappa, kappa_mode)
    radii = [w.radius for w in walked if w.gens == [s.canonical for s in S]]
    assert len(walked) == len(radii) + rep.escalation_rounds
    if case in _CLOSED_FORM:
        # kappa walks nothing: the table walks to n_max and no further,
        # or not at all where it counts a free basis's ball (Sanov)
        assert radii == ([] if case.startswith("sanov") else [n_max])
    else:
        # the kappa search walks on from the table's spheres
        [radius] = radii
        assert radius > n_max


_PINGPONG_CASES = {
    # the certify-pingpong sets and their n_max in the benchmark
    "c2c3": ((2, 3), ["a", "b"], 12),
    "c2c4": ((2, 4), ["a", "b", "bb"], 10),
    "c3c3": ((3, 3), ["a", "b"], 8),
}


@pytest.mark.parametrize("case", sorted(_PINGPONG_CASES))
def test_verify_theorem_on_a_free_standard_set_walks_nothing(case, monkeypatch):
    # the table counts normal forms without a walk and the tree shortcut
    # spells kappa's targets, so the Ball never walks past the identity
    orders, gens, n_max = _PINGPONG_CASES[case]
    backend = make_backend({"kind": "free_product_tree", "orders": list(orders)})
    S = make_generating_set(backend, gens)
    balls = []

    class Watched(freebasis.Ball):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            balls.append(self)

    def no_batch(*args):
        raise AssertionError("a batch was composed")

    monkeypatch.setattr(freebasis, "Ball", Watched)
    monkeypatch.setattr(backend, "_compose_batch", no_batch)
    rep = verify_theorem(S, n_max)
    assert rep.cert is not None and rep.cert.kappa_mode == "exact"
    assert [len(ball.records) for ball in balls] == [1]


_CHECK_CASES = {
    # F2 and the certify-pingpong sets, whose tree shortcut spells T
    # without a walk
    "f2": ({"kind": "free_group_tree", "rank": 2, "letters": "xy"}, ["x", "y"], 2_000_000),
    "c2c3": ({"kind": "free_product_tree", "orders": [2, 3]}, ["a", "b"], 2_000_000),
    "c2c4": ({"kind": "free_product_tree", "orders": [2, 4]}, ["a", "b", "bb"], 2_000_000),
    "c3c3": ({"kind": "free_product_tree", "orders": [3, 3]}, ["a", "b"], 2_000_000),
    **{case: (config, gens, cap) for case, (config, gens, cap, _) in _KAPPA_CASES.items()},
}


@pytest.mark.parametrize("case", sorted(_CHECK_CASES))
def test_checker_walks_nothing(case, monkeypatch):
    config, gens, cap = _CHECK_CASES[case]
    S = make_generating_set(make_backend(config), gens)
    payload = certificate_payload(build_free_basis(S, memory_cap=cap))
    walks = count_walks(monkeypatch)

    def no_search(*args, **kwargs):
        raise AssertionError("the checker searched for a word")

    monkeypatch.setattr(freebasis, "word_length_in_S", no_search)
    assert check_certificate(payload)["kappa"] == payload["kappa"]
    # perfbench's call shape: the memory cap is accepted and ignored
    assert check_certificate(payload, memory_cap=1)["valid"]
    assert walks == []


@pytest.mark.parametrize("case", ["f2", "c2c3", "c2c7", "sanov", "elliptic"])
def test_T_words_are_evidence_for_kappa(case, monkeypatch):
    config, gens, cap = _CHECK_CASES[case]
    backend = make_backend(config)
    S = make_generating_set(backend, gens)
    cert = build_free_basis(S, memory_cap=cap)
    # every T word spells its entry over S, and kappa is the longest word
    for t in cert.T:
        assert _evaluate(S, t.word) == t.canonical
    assert cert.kappa == max(len(t.word) for t in cert.T)
    # an entry a closed form spells carries that word
    closed = [backend.subgroup_word_exact(S, t) for t in cert.T]
    assert all(w in (None, t.word) for t, w in zip(cert.T, closed))
    # against the one-target walk, with the closed forms switched off so
    # their words are measured too: a word the builder calls shortest has
    # the walk's length; an entry it kept spelled is one that neither a
    # closed form nor the walk within the cap spells
    monkeypatch.setattr(backend, "subgroup_word_exact", lambda S, g: None)
    outcomes = [_one_target(S, t, len(t.word), cap) for t in cert.T]
    reached = [(d, len(t.word)) for t, d in zip(cert.T, outcomes) if not isinstance(d, tuple)]
    assert all(d == n for d, n in reached)
    shortest = [w is not None or not isinstance(d, tuple) for w, d in zip(closed, outcomes)]
    assert (cert.kappa_mode == "exact") == all(shortest)


@pytest.mark.parametrize("case", ["elliptic", "c3c3"])
def test_search_spells_only_the_winner(case, monkeypatch):
    config, gens, cap = _CHECK_CASES[case]
    backend = make_backend(config)
    S = make_generating_set(backend, gens)
    scanned, spelled, composes = [], [], []
    test, kappa, spell = freebasis._free_basis_evidence, freebasis._compute_kappa, freebasis._spelled

    def record_test(T):
        scanned.append(T)
        return test(T)

    def record_kappa(S, T, *args):
        spelled.append(T)
        return kappa(S, T, *args)

    def counted_spell(*args):
        # spelling the winner composes nothing, with or without words
        with monkeypatch.context() as m:
            m.setattr(backend, "_compose", lambda a, b: composes.append((a, b)))
            m.setattr(backend, "compose", lambda a, b: composes.append((a, b)))
            return spell(*args)

    monkeypatch.setattr(freebasis, "_free_basis_evidence", record_test)
    monkeypatch.setattr(freebasis, "_compute_kappa", record_kappa)
    monkeypatch.setattr(freebasis, "_spelled", counted_spell)
    cert = build_free_basis(S, memory_cap=cap)
    # the search tries bare canonicals; one T, the last tried, is spelled
    assert len(scanned) >= 2 and len(spelled) == 1 and composes == []
    assert all(t.word is None for T in scanned for t in T)
    (T,) = spelled
    assert [t.canonical for t in T] == [t.canonical for t in scanned[-1]]
    assert [t.canonical for t in T] == [t.canonical for t in cert.T]
    # each word is s h^k s^-1 freely reduced, h's word rebuilt from b, f, n
    S_eff = S
    for _ in range(cert.escalation_rounds):
        S_eff = product_ball_set(S_eff, 2, cap)
    b = find_short_loxodromic(S_eff).b
    f = find_independent(S_eff, b)
    h = backend.compose(f, power(b, cert.n))
    h_word = f.word + b.word * cert.n
    S0 = freebasis._coset_separated(S_eff, h)
    want = [reduce_symbol_word(s.word + h_word * cert.k
                               + tuple((sym, -sign) for sym, sign in reversed(s.word)))
            for s in S0]
    assert [t.word for t in T] == want
    assert all(_evaluate(S, w) == t.canonical for t, w in zip(T, want))


def test_kappa_over_a_set_larger_than_the_standard_one():
    # ab is a letter of S, so the normal form over {a, b, bb} is not
    # shortest: the walk searches, and an entry it does not reach takes the
    # shorter of its carried word and the normal form, noted word-upper
    backend = make_backend({"kind": "free_product_tree", "orders": [2, 4]})
    S = make_generating_set(backend, ["a", "b", "bb", "ab"])
    cert = build_free_basis(S, memory_cap=20_000)
    assert (cert.r, cert.kappa, cert.kappa_mode) == (4, 21, "word-upper")
    for t in cert.T:
        assert _evaluate(S, t.word) == t.canonical
        assert len(t.word) <= len(backend.normal_form_word(S, t))
    assert check_certificate(certificate_payload(cert))["kappa"] == 21


def test_kappa_search_contradicting_the_word_fails(ft2):
    # xxy needs two letters of {xx, y}; a one-letter word for it is a lie
    S = make_generating_set(ft2, ["xx", "y"])
    t = ft2.element("xxy")
    # an honest padded word is respelled to a shortest one
    honest = GeneratingSet(ft2, [GroupElement(ft2, t.canonical, (("xx", 1), ("y", 1), ("y", 1),
                                                                 ("y", -1)))])
    T, kappa, mode = _compute_kappa(S, honest, 1000)
    assert ([t.word for t in T], kappa, mode) == ([(("xx", 1), ("y", 1))], 2, "exact")
    # the walk cannot spell the forged entry within one letter, so the
    # builder keeps its word; the checker's evaluation then rejects it
    forged = GeneratingSet(ft2, [GroupElement(ft2, t.canonical, (("xx", 1),))])
    T, kappa, mode = _compute_kappa(S, forged, 1000)
    assert ([t.word for t in T], kappa, mode) == ([(("xx", 1),)], 1, "word-upper")
    with pytest.raises(InvalidCertificate, match="does not evaluate"):
        freebasis._check_T_words(S, T)


@pytest.mark.parametrize("edit", [
    lambda S: S[0].update(symbols=[["x", 1], ["y", 1]]),
    lambda S: S[0].update(symbols=[["x", 2]]),
    lambda S: S[0].pop("symbols"),
    lambda S: S[1].update(symbols=S[0]["symbols"]),
    lambda S: S.append({"word": "e", "canonical": [], "symbols": [["e", 1]]}),
    lambda S: S.append({"word": "z", "canonical": [1, 1], "symbols": [["z", 1]]}),
], ids=["two-symbols", "bad-sign", "no-symbol", "shared-symbol", "identity", "not-symmetric"])
def test_checker_validates_stored_S(S_f2, edit):
    data = certificate_payload(build_free_basis(S_f2))
    edit(data["S"])
    with pytest.raises(InvalidCertificate):
        check_certificate(data)


def test_certificate_malformed_payloads(ft2, S_f2):
    cert = build_free_basis(S_f2)
    base = certificate_payload(cert)
    data = json.loads(json.dumps(base))
    data["T"][0]["canonical"] = [1, -1]  # unreduced word
    with pytest.raises(InvalidCertificate):
        certificate_from_payload(data)
    data = json.loads(json.dumps(base))
    data["basepoint"] = [1, 0, 0]
    with pytest.raises(InvalidCertificate):
        check_certificate(data)
    for basepoint in ([7], [0], [1, -7]):
        data = json.loads(json.dumps(base))
        data["basepoint"] = basepoint
        with pytest.raises(InvalidCertificate, match="letter out of range"):
            certificate_from_payload(data)


@pytest.mark.parametrize("field", ["m", "p_max", "margin"])
def test_checker_fails_closed_on_nan(S_f2, field):
    # a certificate handed in as an object skips the JSON readers, and NaN
    # compares false with any tolerance
    cert = dataclasses.replace(build_free_basis(S_f2), **{field: math.nan})
    with pytest.raises(InvalidCertificate, match=f"{field} mismatch"):
        check_certificate(cert)


def _one_ulp_up(payload):
    return dict(payload, omega_lower=math.nextafter(payload["omega_lower"], math.inf))


def test_float_certificate_is_bit_strict(hpf):
    # the float spelling loads exactly, and its certificate is checked as
    # the exact one is: no tolerance on omega_lower, its one float
    S = make_generating_set(hpf, [[[1.0, 2.0], [0.0, 1.0]], [[1.0, 0.0], [2.0, 1.0]]])
    payload = certificate_payload(build_free_basis(S, memory_cap=50_000))
    assert check_certificate(payload)["valid"]
    with pytest.raises(InvalidCertificate, match="omega_lower mismatch"):
        check_certificate(_one_ulp_up(payload))


def test_exact_certificate_is_bit_strict(hp, S_sanov):
    cert = build_free_basis(S_sanov, memory_cap=50_000)
    payload = certificate_payload(cert)
    with pytest.raises(InvalidCertificate, match="omega_lower mismatch"):
        check_certificate(_one_ulp_up(payload))


# -- field-mutation sweep over honest certificates ---------------------------------

# the builder's cap; it keeps the half-plane kappa searches short
_SWEEP_CAP = 5_000
_SWEEP_CASES = {
    "f2": ({"kind": "free_group_tree", "rank": 2, "letters": "xy"}, ["x", "y"]),
    "c2c3": ({"kind": "free_product_tree", "orders": [2, 3]}, ["a", "b"]),
    "sanov": ({"kind": "half_plane"}, SANOV),
    "sanov-float": ({"kind": "half_plane", "arithmetic": "float"},
                    [[[1.0, 2.0], [0.0, 1.0]], [[1.0, 0.0], [2.0, 1.0]]]),
}


@pytest.fixture(scope="module")
def honest():
    """case -> (backend, S, payload) of an honest certificate."""
    out = {}
    for case, (config, gens) in _SWEEP_CASES.items():
        backend = make_backend(config)
        S = make_generating_set(backend, gens)
        cert = build_free_basis(S, memory_cap=_SWEEP_CAP)
        out[case] = (backend, S, certificate_payload(cert))
    return out


def _mutations(backend, S, base):
    """(label, payload) pairs, each changing one field of ``base``."""
    def moved(data):
        g = freebasis._element_from(backend, data)
        return freebasis._element_payload(backend, backend.compose(g, S[0]))

    def squared(data):
        # a word for the square: T then holds no longer a basis of rank r
        # in the stored kappa, or not a free one
        g = freebasis._element_from(backend, data)
        return freebasis._element_payload(backend, backend.compose(g, g))

    out = []

    def put(key, value):
        data = json.loads(json.dumps(base))
        data[key] = value
        out.append((f"{key}={value!r}"[:60], data))

    for key, value in base.items():
        if isinstance(value, bool):
            put(key, not value)
        elif isinstance(value, int):
            for v in (value - 1, value + 1, 0, 2 * value):
                if v != value:
                    put(key, v)
        elif isinstance(value, float):
            for v in [value + d for d in (-0.5, -1e-6, -1e-12, 1e-12, 1e-6, 0.5)] + [0.0, 2 * value]:
                if v != value:
                    put(key, v)
    put("mode", "exact_only")
    put("mode", "geometric" if base["mode"] == "ping-pong" else "ping-pong")
    put("kappa_mode", "word-upper" if base["kappa_mode"] == "exact" else "exact")
    for key in ("S", "T"):
        entries = base[key]
        for i, entry in enumerate(entries):
            put(key, entries[:i] + [moved(entry)] + entries[i + 1:])
        put(key, entries[:-1])
        put(key, entries + [entries[0]])
        put(key, entries[::-1])
    entries = base["T"]
    for i, entry in enumerate(entries):
        put("T", entries[:i] + [squared(entry)] + entries[i + 1:])
        # its inverse with the inverse word: the same free basis and kappa
        g = freebasis._element_from(backend, entry)
        put("T", entries[:i] + [freebasis._element_payload(backend, backend.invert(g))]
            + entries[i + 1:])
    if "basepoint" in base:
        point = backend.point_from_payload(base["basepoint"])
        put("basepoint", backend.point_payload(backend.apply(S[0], point)))
    else:
        # the geometric evidence, which a ping-pong certificate never stores
        for key, values in (("basepoint", ([0.0, 1.0], [0.5, 2.0])), ("m", (1.0, 50.0)),
                            ("p_max", (0.0, 1.0)), ("margin", (0.0, 0.5))):
            for value in values:
                put(key, value)
    return out


@pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
def test_field_mutation_sweep(honest, case):
    backend, S, base = honest[case]
    expected = check_certificate(base)
    mutations = _mutations(backend, S, base)
    assert len(mutations) >= 60
    for label, data in mutations:
        try:
            summary = check_certificate(data)
        except InvalidCertificate:
            continue
        assert not label.startswith("omega_lower="), label
        assert summary == expected, label


def test_checker_rejects_negative_escalation_rounds(honest):
    # a larger count cannot be caught without re-running the escalation,
    # but no escalation runs a negative number of rounds
    for case in sorted(honest):
        _, _, base = honest[case]
        assert check_certificate(dict(base, escalation_rounds=base["escalation_rounds"] + 1))["valid"]
        with pytest.raises(InvalidCertificate, match="escalation_rounds"):
            check_certificate(dict(base, escalation_rounds=-1))


def test_checker_derives_backend_fixed_fields(honest):
    # membership is decided exactly on every backend, both half-plane
    # spellings included
    for case in sorted(honest):
        _, _, base = honest[case]
        assert base["membership_heuristic"] is False
        with pytest.raises(InvalidCertificate, match="membership_heuristic"):
            check_certificate(dict(base, membership_heuristic=True))
    # the plane's ping-pong needs no distance roundoff and no basepoint:
    # its certificate stores neither, and refuses the margin numbers
    _, _, exact = honest["sanov"]
    assert exact["mode"] == "ping-pong" and "epsilon_margin" not in exact
    with pytest.raises(InvalidCertificate, match="evidence"):
        check_certificate(dict(exact, margin=0.5))


# -- the basepoint scan --------------------------------------------------------------

def _per_basepoint_pick(T, points):
    """The loop the scan replaces: the full check at every point, the first
    of largest margin kept; (point, check) when that check passes, else None."""
    best, best_x = None, None
    for x in points:
        chk = certify_free_geometric(T, x)
        if best is None or chk.margin > best.margin:
            best, best_x = chk, x
    return (best_x, best) if best is not None and best.valid else None


_scan = freebasis._scan_basepoints  # the tests below patch the module's name


def _assert_scan_matches(T, points):
    want = _per_basepoint_pick(T, points)
    got = _scan(T, points)
    if want is None:
        assert got is None
    else:
        assert got is want[0]
    return want


def _pick(cert):
    return (cert.n, cert.k, cert.basepoint, cert.m, cert.p_max, cert.margin)


def _build_both_ways(S, monkeypatch, memory_cap, budgets=None):
    """build_free_basis with the scan, and with the per-basepoint loop in
    its place; each outcome is the certificate's pick or the error type.
    Every T the scan sees is also checked against the loop."""
    def outcome():
        try:
            return _pick(build_free_basis(S, budgets, memory_cap=memory_cap))
        except (ElementaryDetected, SearchExhausted) as exc:
            return type(exc)

    scanned = []

    def checked_scan(T, points):
        scanned.append(T)
        _assert_scan_matches(T, points)
        return _scan(T, points)

    def loop(T, points):
        picked = _per_basepoint_pick(T, points)
        return None if picked is None else picked[0]

    monkeypatch.setattr(freebasis, "_scan_basepoints", checked_scan)
    new = outcome()
    monkeypatch.setattr(freebasis, "_scan_basepoints", loop)
    old = outcome()
    monkeypatch.setattr(freebasis, "_scan_basepoints", _scan)
    return new, old, scanned


@pytest.mark.parametrize("case", sorted(_CHECK_CASES))
def test_scan_picks_what_the_per_basepoint_loop_picks(case, monkeypatch):
    config, gens, cap = _CHECK_CASES[case]
    S = make_generating_set(make_backend(config), gens)
    new, old, scanned = _build_both_ways(S, monkeypatch, cap)
    assert new == old
    assert not isinstance(new, type)
    if S.backend.kind == "half_plane":
        # integer ping-pong decides every T: no basepoint is scanned
        assert scanned == []
    else:
        assert len(scanned) >= 2  # at least one T fails before the winner


_RANDOM_BACKENDS = {
    "f2": {"kind": "free_group_tree", "rank": 2, "letters": "ab"},
    "c2c3": {"kind": "free_product_tree", "orders": [2, 3]},
    "c3c3": {"kind": "free_product_tree", "orders": [3, 3]},
    "c2c5": {"kind": "free_product_tree", "orders": [2, 5]},
}


@pytest.mark.parametrize("case", sorted(_RANDOM_BACKENDS))
def test_scan_picks_what_the_loop_picks_on_random_sets(case, monkeypatch):
    backend = make_backend(_RANDOM_BACKENDS[case])
    rng = random.Random(f"scan/{case}")
    picked = 0
    for _ in range(8):
        words = ["".join(rng.choice("aAbB") for _ in range(rng.randint(1, 2)))
                 for _ in range(rng.randint(2, 3))]
        try:
            S = make_generating_set(backend, words)
        except EmptyAfterReduction:
            continue
        new, old, _ = _build_both_ways(S, monkeypatch, 20_000, SearchBudgets(max_n=6, max_k=8))
        assert new == old, words
        picked += not isinstance(new, type)
    assert picked >= 3


@pytest.mark.parametrize("case", ["c2c3", "c3c3"])
def test_scan_matches_the_loop_over_shuffled_and_sampled_points(case, monkeypatch):
    # every T of the search, at its candidates plus sampled points in a
    # seeded order
    config, gens, cap = _CHECK_CASES[case]
    backend = make_backend(config)
    S = make_generating_set(backend, gens)
    sets = _searched_T_sets(S, monkeypatch, cap)
    rng = random.Random(f"points/{case}")
    passed = 0
    for T in sets:
        points = basepoint_candidates(T) + backend.sample_points(rng, 8)
        rng.shuffle(points)
        passed += _assert_scan_matches(T, points) is not None
    assert passed


def test_scan_takes_the_first_point_on_ties(ft2):
    # {x^8, y^8}: margin 1 at the origin; 0 at x, X and y, which tie at a
    # zero floor; -1 at xx
    T = raw_set(ft2, ["x" * 8, "y" * 8])
    o = ft2.origin()
    x, X, y, xx = (ft2.apply(ft2.element(w), o) for w in ("x", "X", "y", "xx"))
    assert [certify_free_geometric(T, p).margin for p in (o, x, X, y, xx)] == [1, 0, 0, 0, -1]
    for points in ([x, X, y], [X, y, x], [y, x, X], [xx, y, X]):
        assert _assert_scan_matches(T, points)[0] is points[1 if points[0] is xx else 0]
    # a later point of larger margin wins; one below the floor never does
    assert _assert_scan_matches(T, [x, xx, o, X])[0] is o
    assert _assert_scan_matches(T, [xx]) is None


def test_scan_judges_m_on_the_winner():
    # in C3*C3, b fixes the vertex <b>: there m = 0 and every Gromov product
    # is 0, so the margin is 0 and clears a zero floor, yet the check fails
    backend = make_backend({"kind": "free_product_tree", "orders": [3, 3]})
    T = raw_set(backend, ["b", "abaB"])
    fixed = Point(backend, (b"", 1))
    chk = certify_free_geometric(T, fixed)
    assert (chk.m, chk.p_max, chk.margin, chk.valid) == (0, 0.0, 0.0, False)
    others = [p for p in basepoint_candidates(T) + backend.sample_points(random.Random(5), 30)
              if certify_free_geometric(T, p).margin < 0.0]
    assert others
    for points in ([fixed], [fixed] + others, others + [fixed]):
        assert _assert_scan_matches(T, points) is None


def test_scan_rejects_coinciding_letters_before_any_distance(ft2, pt23, monkeypatch):
    def no_dist(self, x, y):
        raise AssertionError("distance computed for a degenerate T")

    for backend, words in ((ft2, ["x", "X"]), (ft2, ["xy", "xy"]), (pt23, ["a"])):
        monkeypatch.setattr(type(backend), "dist", no_dist)
        assert _scan(raw_set(backend, words), [backend.origin()]) is None
        monkeypatch.undo()


def _random_T(backend, rng):
    """2-4 random entries, short words over a, b."""
    words = ["".join(rng.choice("aAbB") for _ in range(rng.randint(1, 4)))
             for _ in range(rng.randint(2, 4))]
    return raw_set(backend, words)


@pytest.mark.parametrize("case", sorted(_RANDOM_BACKENDS))
def test_margin_stops_early_only_below_the_floor(case):
    # for every floor, _margin returns what the full walk (floor -inf)
    # returns, bit for bit, when the full margin reaches the floor, and
    # else a margin below it
    backend = make_backend(_RANDOM_BACKENDS[case])
    rng = random.Random(f"margin/{case}")
    stopped = 0
    for _ in range(24):
        T = _random_T(backend, rng)
        letters, earlier, _ = freebasis._letters(T)
        for x in basepoint_candidates(T) + backend.sample_points(rng, 6):
            full = freebasis._margin(backend, letters, earlier, x, -math.inf)
            margin = full[2]
            floors = [-math.inf, math.inf, 0.0] + [rng.uniform(-30.0, 5.0) for _ in range(4)]
            floors += [margin, math.nextafter(margin, -math.inf),
                       math.nextafter(margin, math.inf), margin - 0.5, margin + 0.5]
            for floor in floors:
                got = freebasis._margin(backend, letters, earlier, x, floor)
                if margin >= floor:
                    assert repr(got) == repr(full), (case, floor)
                else:
                    assert got[2] < floor, (case, floor, got, full)
                    stopped += repr(got) != repr(full)
    assert stopped


# counts from the scan, which drops a basepoint at the first displacement
# or Gromov product that sinks it below the best margin so far, over the
# seeds: 782 dist and 245 apply calls on C3*C3 (3,648 and 2,841 with the
# S-orbit and pair products in the pool); the per-basepoint loop with
# symbol words took 27,972 dist and 1,147 reduce_symbol_word calls. The
# elliptic set is proved free by integer ping-pong, with no point: no dist
# and no apply call (3,486 and 999 with the float margin over the seeds
# and axis apexes; 140,280 dist with the per-basepoint loop)
_WORK_BOUNDS = {
    # case: (dist, apply, reduce_symbol_word)
    "c3c3": (1_000, 320, 250),
    "elliptic": (0, 0, 600),
}


@pytest.mark.parametrize("case", sorted(_WORK_BOUNDS))
def test_build_free_basis_work_counts(case, monkeypatch):
    config, gens, cap = _CHECK_CASES[case]
    backend = make_backend(config)
    S = make_generating_set(backend, gens)
    calls = {"dist": 0, "apply": 0, "reduce": 0}
    dist = type(backend).dist
    apply = type(backend).apply
    reduce = loxgrow.spaces.base.reduce_symbol_word

    def counted_dist(self, x, y):
        calls["dist"] += 1
        return dist(self, x, y)

    def counted_apply(self, g, x):
        calls["apply"] += 1
        return apply(self, g, x)

    def counted_reduce(parts):
        calls["reduce"] += 1
        return reduce(parts)

    monkeypatch.setattr(type(backend), "dist", counted_dist)
    monkeypatch.setattr(type(backend), "apply", counted_apply)
    monkeypatch.setattr(loxgrow.spaces.base, "reduce_symbol_word", counted_reduce)
    monkeypatch.setattr(freebasis, "reduce_symbol_word", counted_reduce)
    cert = build_free_basis(S, memory_cap=cap)
    max_dist, max_apply, max_reduce = _WORK_BOUNDS[case]
    if not max_dist:
        # nor does the checker of a ping-pong certificate measure anything
        assert check_certificate(cert)["valid"]
    assert (calls["dist"] > 0) == (max_dist > 0) and calls["dist"] <= max_dist
    assert (calls["apply"] > 0) == (max_apply > 0) and calls["apply"] <= max_apply
    assert 0 < calls["reduce"] <= max_reduce


# -- the heuristic flag and the checker's work ------------------------------------


@pytest.mark.parametrize("case", ["f2", "c2c3", "sanov", "elliptic", "sanov-float"])
def test_exact_backends_build_without_a_heuristic_warning(case):
    config, gens, cap = _CHECK_CASES[case]
    S = make_generating_set(make_backend(config), gens)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not build_free_basis(S, memory_cap=cap).membership_heuristic


def _count_composes(monkeypatch):
    """Count _compose calls on every backend the checker builds."""
    calls = []
    make = freebasis.make_backend

    def counted_backend(config):
        backend = make(config)
        compose = backend._compose

        def counted(a, b):
            calls.append(1)
            return compose(a, b)

        backend._compose = counted
        return backend

    monkeypatch.setattr(freebasis, "make_backend", counted_backend)
    return calls


@pytest.mark.parametrize("case", ["f2", "c2c3", "sanov", "sanov-float"])
def test_checker_work_ignores_the_stored_n_and_k(case, monkeypatch):
    # n and k are the builder's notes: the checker forms no b^n or h^k, so
    # n = k = 10^9 checks as the honest certificate does, with the same work
    config, gens, cap = _CHECK_CASES[case]
    S = make_generating_set(make_backend(config), gens)
    honest = certificate_payload(build_free_basis(S, memory_cap=cap))
    inflated = dict(honest, n=10**9, k=10**9)
    calls = _count_composes(monkeypatch)
    summaries, counts = [], []
    for payload in (honest, inflated):
        calls.clear()
        summaries.append(check_certificate(payload))
        counts.append(len(calls))
    assert summaries[0]["valid"] and summaries[1] == summaries[0]
    assert counts[1] == counts[0] > 0
