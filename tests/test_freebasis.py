"""Loxodromic search, freeness certificates, the theorem driver."""

import json
import math
import random
import warnings

import pytest

import loxgrow.freebasis as freebasis
import loxgrow.spaces.base
import loxgrow.words
from loxgrow.errors import (
    AllElementary,
    BudgetExceeded,
    ConfigError,
    ElementaryDetected,
    EmptyAfterReduction,
    ExactWordProblemUnavailable,
    HeuristicOnly,
    InvalidCertificate,
    LikelyElementary,
    NoLoxodromicFound,
    SearchExhausted,
)
from loxgrow.freebasis import (
    GeometricCheck,
    SearchBudgets,
    _compute_kappa,
    build_free_basis,
    certificate_from_payload,
    certificate_payload,
    certificate_to_json,
    certify_free_exact,
    certify_free_geometric,
    check_certificate,
    find_independent,
    find_short_loxodromic,
    in_elementary,
    verify_theorem,
)
from loxgrow.hypcore import gromov_product
from loxgrow.spaces import GroupElement, HalfPlane, Point, make_backend
from loxgrow.spaces.base import basepoint_candidates
from loxgrow.words import GeneratingSet, make_generating_set

from conftest import PSL2Z_ELLIPTIC, SANOV
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
    assert in_elementary(x, ft2.element("X"))
    assert in_elementary(x, ft2.element("xx"))
    assert not in_elementary(x, ft2.element("y"))
    assert not in_elementary(ft2.element("xx"), ft2.element("y"))


def test_in_elementary_product_tree(pt23):
    ab = pt23.element("ab")
    assert not in_elementary(ab, pt23.element("a"))
    assert in_elementary(ab, pt23.element("abab"))


def test_in_elementary_float_warns(hpf):
    b = hpf.element([[2.0, 0.0], [0.0, 0.5]])
    with pytest.warns(HeuristicOnly):
        in_elementary(b, hpf.element([[1.0, 1.0], [0.0, 1.0]]))


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


def test_geometric_check_sanov_powers(hp):
    A8 = hp.power(hp.element(SANOV[0]), 8)
    B8 = hp.power(hp.element(SANOV[1]), 8)
    T = GeneratingSet(hp, [A8, B8])
    chk = certify_free_geometric(T, hp.origin(), delta=1.0)
    assert chk.m == pytest.approx(math.acosh(129.0))
    assert chk.p_max == pytest.approx(2.0862335235627105)
    assert chk.margin == pytest.approx(-1.892115453381781)
    assert not chk.valid
    assert certify_free_exact(T, 5) is True


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


def reference_geometric(T, x, delta, epsilon_margin):
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
    margin = m / 8.0 - delta / 2.0 - p_max
    valid = m > 0 and margin >= epsilon_margin and not degenerate
    return GeometricCheck(valid=valid, m=m, p_max=p_max, margin=margin)


def _searched_T_sets(S, monkeypatch, memory_cap):
    # every T the (n, k) search scans for a basepoint, winner or not
    seen = {}
    inner = freebasis._scan_basepoints

    def record(T, points, delta, epsilon_margin):
        seen.setdefault(id(T), (T, epsilon_margin))
        return inner(T, points, delta, epsilon_margin)

    monkeypatch.setattr(freebasis, "_scan_basepoints", record)
    build_free_basis(S, memory_cap=memory_cap)
    monkeypatch.setattr(freebasis, "_scan_basepoints", inner)
    return list(seen.values())


@pytest.mark.parametrize("case", ["f2", "c2c3", "c3c3", "sanov", "sanov_float"])
def test_geometric_check_matches_per_pair_reference(case, monkeypatch):
    if case == "f2":
        backend, gens = make_backend({"kind": "free_group_tree", "rank": 2, "letters": "xy"}), ["x", "y"]
    elif case in ("c2c3", "c3c3"):
        orders = [2, 3] if case == "c2c3" else [3, 3]
        backend, gens = make_backend({"kind": "free_product_tree", "orders": orders}), ["a", "b"]
    else:
        arith = "float" if case == "sanov_float" else "exact_integer"
        backend = make_backend({"kind": "half_plane", "arithmetic": arith})
        gens = SANOV if backend.exact else [[[float(v) for v in row] for row in M] for M in SANOV]
    S = make_generating_set(backend, gens)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HeuristicOnly)
        sets = _searched_T_sets(S, monkeypatch, 50_000)
    assert sets

    calls = [0]
    dist = type(backend).dist

    def counted(self, x, y):
        calls[0] += 1
        return dist(self, x, y)

    checked = 0
    for T, eps in sets:
        r = len(T)
        for x in basepoint_candidates(T):
            try:
                want = reference_geometric(T, x, backend.delta, eps)
            except OverflowError:
                with pytest.raises(OverflowError):
                    certify_free_geometric(T, x, backend.delta, eps)
                continue
            monkeypatch.setattr(type(backend), "dist", counted)
            calls[0] = 0
            got = certify_free_geometric(T, x, backend.delta, eps)
            monkeypatch.setattr(type(backend), "dist", dist)
            assert calls[0] <= 2 * r + r * (2 * r - 1)
            assert (got.m, got.p_max, got.margin, got.valid) == (
                want.m, want.p_max, want.margin, want.valid)
            checked += 1
            if backend.kind == "half_plane":
                pts = [x] + [backend.apply(a, x) for t in T for a in (t, backend.invert(t))]
                for p in pts:
                    for q in pts:
                        assert backend.dist(p, q) == backend.dist(q, p)
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
    Tf = GeneratingSet(hpf, [hpf.element([[2.0, 0.0], [0.0, 0.5]])])
    with pytest.raises(ExactWordProblemUnavailable):
        certify_free_exact(Tf, 3)


# -- pipelines ----------------------------------------------------------------------


def test_pipeline_f2(ft2, S_f2):
    cert = build_free_basis(S_f2)
    assert (cert.n, cert.k) == (1, 3)
    assert cert.mode == "geometric"
    assert cert.b.canonical == ft2.element("xx").canonical
    assert cert.f.canonical == ft2.element("y").canonical
    assert cert.h.canonical == ft2.element("yxx").canonical
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
    assert (cert.n, cert.k) == (1, 8)
    assert cert.r == 4
    assert cert.basepoint.data == 1j
    assert cert.m == pytest.approx(36.7197287074991)
    assert cert.p_max == pytest.approx(3.5456110011537234)
    assert cert.margin == pytest.approx(0.5443550872836642)
    assert (cert.kappa, cert.kappa_mode) == (26, "word-upper")
    assert cert.omega_lower == math.log(7) / 26
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
    assert report.omega_lower == math.log(7) / 26
    assert report.omega_hat == pytest.approx(1.0987647276927959)
    assert report.omega_upper == pytest.approx(1.1852461598882145)
    assert report.theta_hat == pytest.approx(0.7925912118730545)
    assert report.escalation_rounds == 0
    assert report.cert.membership_heuristic is False


def test_verify_theorem_delta_guard():
    hp_tight = make_backend({"kind": "half_plane", "delta": 0.3})
    S = make_generating_set(hp_tight, SANOV)
    with pytest.raises(ConfigError):
        verify_theorem(S, 4, memory_cap=50_000)


# -- serialization and the independent checker -----------------------------------------


def test_certificate_round_trip(ft2, S_f2):
    cert = build_free_basis(S_f2)
    payload = certificate_payload(cert)
    back = certificate_from_payload(payload)
    assert back.h.canonical == cert.h.canonical
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

    bad_variants = [
        tampered(mode="exact_only", exact_check_len=4),
        tampered(format="loxgrow-cert/0"),
        tampered(backend_hash="0" * 16),
        tampered(delta=1.0),
        tampered(n=cert.n + 1),
        tampered(k=cert.k + 1),
        tampered(r=cert.r + 1),
        tampered(m=cert.m + 0.5),
        tampered(p_max=cert.p_max + 0.5),
        tampered(margin=cert.margin + 0.25),
        tampered(epsilon_margin=-1.0),
        tampered(epsilon_margin=cert.margin + 1.0),
        tampered(kappa=cert.kappa + 1),
        tampered(kappa=cert.kappa - 1, omega_lower=math.log(2 * cert.r - 1) / (cert.kappa - 1)),
        tampered(omega_lower=cert.omega_lower * 1.01),
        tampered(h=certificate_payload(cert)["f"]),
        tampered(basepoint=[1, 1]),
    ]
    for data in bad_variants:
        with pytest.raises(InvalidCertificate):
            check_certificate(data)
    # kappa_mode is the builder's note on the words, not a checked claim
    assert check_certificate(tampered(kappa_mode="word-upper"))["valid"]

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
    "elliptic": ({"kind": "half_plane", "delta": 0.7}, PSL2Z_ELLIPTIC, 5000, (7, 76, "word-upper")),
    "sanov": ({"kind": "half_plane"}, SANOV, 50_000, (4, 26, "word-upper")),
    "sanov-float": ({"kind": "half_plane", "arithmetic": "float"},
                    [[[1.0, 2.0], [0.0, 1.0]], [[1.0, 0.0], [2.0, 1.0]]], 20_000,
                    (1, 15, "word-upper")),
    "c2c7": ({"kind": "free_product_tree", "orders": [2, 7]}, ["a", "b"], 2_000_000,
             (3, 14, "exact")),
}


def _count_walks(monkeypatch):
    walks = []
    spheres = loxgrow.words.spheres

    def counted(*args, **kwargs):
        walks.append(1)
        return spheres(*args, **kwargs)

    monkeypatch.setattr(loxgrow.words, "spheres", counted)
    return walks


@pytest.mark.parametrize("case", sorted(_KAPPA_CASES))
def test_kappa_walks_the_ball_once(case, monkeypatch):
    # the certify-kappa sets at their benchmark caps: all r entries of T
    # are searched in one walk of the ball of S
    config, gens, cap, (r, kappa, kappa_mode) = _KAPPA_CASES[case]
    S = make_generating_set(make_backend(config), gens)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HeuristicOnly)
        cert = build_free_basis(S, memory_cap=cap)
    assert (cert.r, cert.kappa, cert.kappa_mode) == (r, kappa, kappa_mode)
    walks = _count_walks(monkeypatch)
    T, got_kappa, got_mode = _compute_kappa(cert.S, cert.T, cap)
    assert (got_kappa, got_mode) == (kappa, kappa_mode)
    assert [t.word for t in T] == [t.word for t in cert.T]
    assert len(walks) == 1


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HeuristicOnly)
        payload = certificate_payload(build_free_basis(S, memory_cap=cap))
    walks = _count_walks(monkeypatch)

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
    # against the one-target walk, with the tree shortcut switched off so
    # its words are measured too: a word the builder calls shortest has
    # the walk's length; an entry it kept spelled is one the walk could
    # not reach within the cap
    monkeypatch.setattr(backend, "subgroup_word_exact", lambda S, g: None)
    outcomes = [_one_target(S, t, len(t.word), cap) for t in cert.T]
    reached = [(d, len(t.word)) for t, d in zip(cert.T, outcomes) if not isinstance(d, tuple)]
    assert all(d == n for d, n in reached)
    assert (cert.kappa_mode == "exact") == (len(reached) == cert.r)


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
    data["b"]["canonical"] = [1, -1]  # unreduced word
    with pytest.raises(InvalidCertificate):
        certificate_from_payload(data)
    data = json.loads(json.dumps(base))
    data["basepoint"] = [1, 0, 0]
    with pytest.raises(InvalidCertificate):
        check_certificate(data)


def test_float_certificate_tolerance(hpf):
    S = make_generating_set(hpf, [[[1.0, 2.0], [0.0, 1.0]], [[1.0, 0.0], [2.0, 1.0]]])
    with pytest.warns(HeuristicOnly):
        cert = build_free_basis(S, memory_cap=50_000)
    assert cert.membership_heuristic is True
    payload = certificate_payload(cert)
    assert check_certificate(payload)["valid"]
    payload["m"] = payload["m"] + 1e-12  # under the float tolerance
    assert check_certificate(payload)["valid"]
    payload["m"] = payload["m"] + 1e-6
    with pytest.raises(InvalidCertificate):
        check_certificate(payload)


def test_exact_certificate_is_bit_strict(hp, S_sanov):
    cert = build_free_basis(S_sanov, memory_cap=50_000)
    payload = certificate_payload(cert)
    payload["m"] = payload["m"] + 1e-12
    with pytest.raises(InvalidCertificate):
        check_certificate(payload)


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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HeuristicOnly)
            cert = build_free_basis(S, memory_cap=_SWEEP_CAP)
        out[case] = (backend, S, certificate_payload(cert))
    return out


def _mutations(backend, S, base):
    """(label, payload) pairs, each changing one field of ``base``."""
    def moved(data):
        g = freebasis._element_from(backend, data)
        return freebasis._element_payload(backend, backend.compose(g, S[0]))

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
    put("kappa_mode", "word-upper" if base["kappa_mode"] == "exact" else "exact")
    for key in ("b", "f", "h"):
        put(key, moved(base[key]))
        for other in ("b", "f", "h"):
            if other != key:
                put(key, base[other])
    for key in ("S", "S0", "T"):
        entries = base[key]
        put(key, [moved(entries[0])] + entries[1:])
        put(key, entries[:-1])
        put(key, entries + [entries[0]])
        put(key, entries[::-1])
    point = freebasis._point_from(backend, base["basepoint"])
    put("basepoint", freebasis._point_payload(backend, backend.apply(S[0], point)))
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
    _, _, flt = honest["sanov-float"]
    assert flt["membership_heuristic"] is True
    with pytest.raises(InvalidCertificate, match="membership_heuristic"):
        check_certificate(dict(flt, membership_heuristic=False))
    _, _, f2 = honest["f2"]
    with pytest.raises(InvalidCertificate, match="membership_heuristic"):
        check_certificate(dict(f2, membership_heuristic=True))
    _, _, exact = honest["sanov"]
    assert exact["epsilon_margin"] == HalfPlane().dist_roundoff
    with pytest.raises(InvalidCertificate, match="epsilon_margin"):
        check_certificate(dict(exact, epsilon_margin=0.0))
    assert check_certificate(dict(exact, epsilon_margin=0.5))["valid"]


# -- the basepoint scan --------------------------------------------------------------

def _per_basepoint_pick(T, points, delta, eps):
    """The loop the scan replaces: the full check at every point, the first
    of largest margin kept; (point, check) when that check passes, else None."""
    best, best_x = None, None
    for x in points:
        try:
            chk = certify_free_geometric(T, x, delta, eps)
        except OverflowError:
            continue
        if best is None or chk.margin > best.margin:
            best, best_x = chk, x
    return (best_x, best) if best is not None and best.valid else None


_scan = freebasis._scan_basepoints  # the tests below patch the module's name


def _assert_scan_matches(T, points, delta, eps):
    want = _per_basepoint_pick(T, points, delta, eps)
    got = _scan(T, points, delta, eps)
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

    def checked_scan(T, points, delta, eps):
        scanned.append(T)
        _assert_scan_matches(T, points, delta, eps)
        return _scan(T, points, delta, eps)

    def loop(T, points, delta, eps):
        picked = _per_basepoint_pick(T, points, delta, eps)
        return None if picked is None else picked[0]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HeuristicOnly)
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


@pytest.mark.parametrize("case", ["c2c3", "c3c3", "sanov", "sanov-float"])
def test_scan_matches_the_loop_over_shuffled_and_sampled_points(case, monkeypatch):
    # every T of the search, at its candidates plus sampled points in a
    # seeded order, and with the floor at zero as well as the backend's
    config, gens, cap = _CHECK_CASES[case]
    backend = make_backend(config)
    S = make_generating_set(backend, gens)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HeuristicOnly)
        sets = _searched_T_sets(S, monkeypatch, cap)
    rng = random.Random(f"points/{case}")
    passed = 0
    for T, eps in sets:
        points = basepoint_candidates(T) + backend.sample_points(rng, 8)
        rng.shuffle(points)
        for delta, floor in ((backend.delta, eps), (0.0, 0.0)):
            passed += _assert_scan_matches(T, points, delta, floor) is not None
    assert passed


def test_scan_takes_the_first_point_on_ties(ft2):
    # {x^8, y^8}: margin 1 at the origin; 0 at x, X and y, which tie at a
    # zero floor; -1 at xx
    T = raw_set(ft2, ["x" * 8, "y" * 8])
    o = ft2.origin()
    x, X, y, xx = (ft2.apply(ft2.element(w), o) for w in ("x", "X", "y", "xx"))
    assert [certify_free_geometric(T, p).margin for p in (o, x, X, y, xx)] == [1, 0, 0, 0, -1]
    for points in ([x, X, y], [X, y, x], [y, x, X], [xx, y, X]):
        assert _assert_scan_matches(T, points, 0.0, 0.0)[0] is points[1 if points[0] is xx else 0]
    # a later point of larger margin wins; one below the floor never does
    assert _assert_scan_matches(T, [x, xx, o, X], 0.0, 0.0)[0] is o
    assert _assert_scan_matches(T, [xx], 0.0, 0.0) is None
    assert _assert_scan_matches(T, [x, X], 0.0, 0.5) is None
    assert _assert_scan_matches(T, [x, o], 0.0, 0.5)[0] is o


def test_scan_judges_m_on_the_winner():
    # in C3*C3, b fixes the vertex <b>: there m = 0 and every Gromov product
    # is 0, so the margin is 0 and clears a zero floor, yet the check fails
    backend = make_backend({"kind": "free_product_tree", "orders": [3, 3]})
    T = raw_set(backend, ["b", "abaB"])
    fixed = Point(backend, ((), 1))
    chk = certify_free_geometric(T, fixed, 0.0, 0.0)
    assert (chk.m, chk.p_max, chk.margin, chk.valid) == (0, 0.0, 0.0, False)
    others = [p for p in basepoint_candidates(T) + backend.sample_points(random.Random(5), 30)
              if certify_free_geometric(T, p, 0.0, 0.0).margin < 0.0]
    assert others
    for points in ([fixed], [fixed] + others, others + [fixed]):
        assert _assert_scan_matches(T, points, 0.0, 0.0) is None


def test_scan_rejects_coinciding_letters_before_any_distance(ft2, pt23, monkeypatch):
    def no_dist(self, x, y):
        raise AssertionError("distance computed for a degenerate T")

    for backend, words in ((ft2, ["x", "X"]), (ft2, ["xy", "xy"]), (pt23, ["a"])):
        monkeypatch.setattr(type(backend), "dist", no_dist)
        assert _scan(raw_set(backend, words), [backend.origin()], 0.0, 0.0) is None
        monkeypatch.undo()


# counts from the scan with its early drop; the per-basepoint loop with
# symbol words took 27,972 dist and 1,147 reduce_symbol_word calls on
# C3*C3 and 140,280 and 4,597 on the elliptic set
_WORK_BOUNDS = {
    "c3c3": (9_000, 250),
    "elliptic": (23_000, 600),
}


@pytest.mark.parametrize("case", sorted(_WORK_BOUNDS))
def test_build_free_basis_work_counts(case, monkeypatch):
    config, gens, cap = _CHECK_CASES[case]
    backend = make_backend(config)
    S = make_generating_set(backend, gens)
    calls = {"dist": 0, "reduce": 0}
    dist = type(backend).dist
    reduce = loxgrow.spaces.base.reduce_symbol_word

    def counted_dist(self, x, y):
        calls["dist"] += 1
        return dist(self, x, y)

    def counted_reduce(parts):
        calls["reduce"] += 1
        return reduce(parts)

    monkeypatch.setattr(type(backend), "dist", counted_dist)
    monkeypatch.setattr(loxgrow.spaces.base, "reduce_symbol_word", counted_reduce)
    build_free_basis(S, memory_cap=cap)
    max_dist, max_reduce = _WORK_BOUNDS[case]
    assert 0 < calls["dist"] <= max_dist
    assert 0 < calls["reduce"] <= max_reduce
