"""Loxodromic search, freeness certificates, the theorem driver."""

import json
import math
import random
import warnings

import pytest

import loxgrow.freebasis as freebasis
from loxgrow.errors import (
    AllElementary,
    BudgetExceeded,
    ConfigError,
    ExactWordProblemUnavailable,
    HeuristicOnly,
    InvalidCertificate,
    LikelyElementary,
    NoLoxodromicFound,
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
from loxgrow.spaces import GroupElement, HalfPlane, make_backend
from loxgrow.spaces.base import basepoint_candidates
from loxgrow.words import GeneratingSet, make_generating_set

from conftest import PSL2Z_ELLIPTIC, SANOV


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
    # every T the (n, k) search hands to the geometric check
    seen = {}
    inner = freebasis.certify_free_geometric

    def record(T, x, delta=None, epsilon_margin=0.0):
        seen.setdefault(id(T), (T, epsilon_margin))
        return inner(T, x, delta, epsilon_margin)

    monkeypatch.setattr(freebasis, "certify_free_geometric", record)
    build_free_basis(S, memory_cap=memory_cap)
    monkeypatch.setattr(freebasis, "certify_free_geometric", inner)
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
    assert check_certificate(cert, memory_cap=50_000)["valid"]


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
        tampered(kappa_mode="word-upper"),
        tampered(omega_lower=cert.omega_lower * 1.01),
        tampered(h=certificate_payload(cert)["f"]),
        tampered(basepoint=[1, 1]),
    ]
    for data in bad_variants:
        with pytest.raises(InvalidCertificate):
            check_certificate(data)

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


def test_kappa_search_contradicting_the_word_fails(ft2):
    # xxy needs two letters of {xx, y}; a one-letter word for it is a lie
    S = make_generating_set(ft2, ["xx", "y"])
    t = ft2.element("xxy")
    honest = GeneratingSet(ft2, [GroupElement(ft2, t.canonical, (("xx", 1), ("y", 1)))])
    assert _compute_kappa(S, honest, 1000) == (2, "exact")
    forged = GeneratingSet(ft2, [GroupElement(ft2, t.canonical, (("xx", 1),))])
    with pytest.raises(InvalidCertificate):
        _compute_kappa(S, forged, 1000)


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
    assert check_certificate(payload, memory_cap=50_000)["valid"]
    payload["m"] = payload["m"] + 1e-12  # under the float tolerance
    assert check_certificate(payload, memory_cap=50_000)["valid"]
    payload["m"] = payload["m"] + 1e-6
    with pytest.raises(InvalidCertificate):
        check_certificate(payload, memory_cap=50_000)


def test_exact_certificate_is_bit_strict(hp, S_sanov):
    cert = build_free_basis(S_sanov, memory_cap=50_000)
    payload = certificate_payload(cert)
    payload["m"] = payload["m"] + 1e-12
    with pytest.raises(InvalidCertificate):
        check_certificate(payload, memory_cap=50_000)


# -- field-mutation sweep over honest certificates ---------------------------------

# builder and checker share this cap, as the CLI does with a config's
# memory_cap; it keeps the half-plane kappa searches short
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
    expected = check_certificate(base, memory_cap=_SWEEP_CAP)
    mutations = _mutations(backend, S, base)
    assert len(mutations) >= 60
    for label, data in mutations:
        try:
            summary = check_certificate(data, memory_cap=_SWEEP_CAP)
        except InvalidCertificate:
            continue
        assert not label.startswith("omega_lower="), label
        assert summary == expected, label


def test_checker_derives_backend_fixed_fields(honest):
    _, _, flt = honest["sanov-float"]
    assert flt["membership_heuristic"] is True
    with pytest.raises(InvalidCertificate, match="membership_heuristic"):
        check_certificate(dict(flt, membership_heuristic=False), memory_cap=_SWEEP_CAP)
    _, _, f2 = honest["f2"]
    with pytest.raises(InvalidCertificate, match="membership_heuristic"):
        check_certificate(dict(f2, membership_heuristic=True))
    _, _, exact = honest["sanov"]
    assert exact["epsilon_margin"] == HalfPlane().dist_roundoff
    with pytest.raises(InvalidCertificate, match="epsilon_margin"):
        check_certificate(dict(exact, epsilon_margin=0.0), memory_cap=_SWEEP_CAP)
    assert check_certificate(dict(exact, epsilon_margin=0.5), memory_cap=_SWEEP_CAP)["valid"]
