"""Loxodromic search, freeness certificates, the theorem driver."""

import json
import math
import random

import pytest

from loxgrow.errors import (
    AllElementary,
    BudgetExceeded,
    ConfigError,
    ExactWordProblemUnavailable,
    HeuristicOnly,
    InvalidCertificate,
    NoLoxodromicFound,
)
from loxgrow.freebasis import (
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
from loxgrow.spaces import GroupElement, HalfPlane, make_backend
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
    report = verify_theorem(S, 4, memory_cap=50_000, check_delta=False)
    assert report.cert is not None


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

    # downgrading the mode leaves every stored claim true; the checker accepts
    downgraded = tampered(mode="exact_only", exact_check_len=4)
    assert check_certificate(downgraded)["mode"] == "exact_only"

    bad_variants = [
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
