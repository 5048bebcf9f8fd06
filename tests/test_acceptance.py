"""Acceptance checks: the package's headline guarantees, one test each.

`pytest tests/test_acceptance.py -v` prints one pass/fail line per
guarantee. Tolerances are stated inline next to each assertion.
"""

import itertools
import json
import math
import random
import time

import pytest

from conftest import NON_INTEGER_FLOAT_SETS, PSL2Z_ELLIPTIC, SANOV
from loxgrow import cli
from loxgrow.errors import NoLoxodromicFound
from loxgrow.freebasis import (
    certificate_payload,
    certify_free_exact,
    certify_free_geometric,
    find_short_loxodromic,
    verify_theorem,
)
from loxgrow.growth import ball_sizes, growth_brackets
from loxgrow.hypcore import (
    estimate_delta,
    four_point_defect,
    translation_length_bracket,
)
from loxgrow.spaces import FreeGroupTree, FreeProductTree, HalfPlane
from loxgrow.spaces.base import Point
from loxgrow.spaces.psl2z import psl2z_normal_form
from loxgrow.words import GeneratingSet, make_generating_set, product_ball_set

CAP = 4_000_000


def f2_closed_form(n):
    return 2 * 3**n - 1


@pytest.fixture(scope="module")
def f2_backend():
    return FreeGroupTree(2, letters="xy")


@pytest.fixture(scope="module")
def f2_gens(f2_backend):
    return make_generating_set(f2_backend, ["x", "y"])


@pytest.fixture(scope="module")
def f2_table_13(f2_gens):
    t0 = time.monotonic()
    table = ball_sizes(f2_gens, 13, memory_cap=CAP)
    return table, time.monotonic() - t0


@pytest.fixture(scope="module")
def f2_reports(f2_gens):
    return [verify_theorem(f2_gens, 10, memory_cap=CAP) for _ in range(3)]


def test_rank2_ball_counts_closed_form_to_radius_13(f2_table_13):
    table, elapsed = f2_table_13
    for n in range(14):
        assert table.ball(n) == f2_closed_form(n)
    assert table.ball(13) == 3_188_645
    assert not table.truncated and table.ball(13) <= CAP
    assert elapsed <= 60.0
    print(f"PASS ball counts: a13={table.ball(13)} in {elapsed:.1f}s ({table.engine})")


def test_rank2_upper_bracket_certified_and_monotone(f2_table_13):
    table, _ = f2_table_13
    uppers = [table.upper(n) for n in range(1, 14)]
    assert all(a >= b for a, b in zip(uppers, uppers[1:]))
    brackets = growth_brackets(table)
    gap = brackets.omega_upper - math.log(3)
    assert 0.0 <= gap <= math.log(2) / 13  # 0.0534
    print(f"PASS upper bracket: omega_upper-log3={gap:.4f} <= {math.log(2)/13:.4f}")


def test_sanov_matrix_balls_match_free_group(f2_table_13):
    hp = HalfPlane()
    S = make_generating_set(hp, SANOV)
    t0 = time.monotonic()
    table = ball_sizes(S, 10, memory_cap=CAP)
    elapsed = time.monotonic() - t0
    for n in range(11):
        assert table.ball(n) == f2_closed_form(n)
    assert elapsed <= 60.0
    print(f"PASS Sanov freeness: a10={table.ball(10)} in {elapsed:.1f}s")


def test_rank2_pipeline_certificate_and_determinism(f2_reports):
    rep = f2_reports[0]
    cert = rep.cert
    assert cert is not None and cert.r == 4
    assert certify_free_exact(cert.T, 6) is True
    assert 0.0 < cert.omega_lower <= math.log(3) + 1e-12
    assert cert.omega_lower <= rep.omega_upper
    payloads = [
        json.dumps(certificate_payload(r.cert), sort_keys=True) for r in f2_reports
    ]
    assert payloads[0] == payloads[1] == payloads[2]
    assert all(r.table.balls == rep.table.balls for r in f2_reports)
    print(
        f"PASS pipeline: r={cert.r} kappa={cert.kappa} "
        f"omega_lower={cert.omega_lower:.6f} deterministic over 3 reruns"
    )


def _random_tree_word(rng, length):
    letters, inv = "xyXY", {"x": "X", "X": "x", "y": "Y", "Y": "y"}
    word = rng.choice(letters)
    while len(word) < length:
        word += rng.choice([c for c in letters if c != inv[word[-1]]])
    return word


def _random_alternating_entry(rng, bcount):
    # leading b-syllable and trailing a: the entry departs the basepoint
    # along one tree edge and its inverse along the other, which is the only
    # way a (2,3) product word can clear the m/8 margin (m = 2 * bcount)
    parts = []
    for _ in range(bcount):
        parts.append(rng.choice(["b", "bb"]))
        parts.append("a")
    return "".join(parts)


def _random_matrix_product(rng, backend, length, mats=SANOV):
    letters = [backend.element(m) for m in mats]
    letters += [backend.invert(g) for g in letters]
    idx = rng.randrange(4)
    g = letters[idx]
    for _ in range(length - 1):
        idx = rng.choice([j for j in range(4) if j != (idx + 2) % 4])
        g = backend.compose(g, letters[idx])
    return g


def test_geometric_certificates_sound_against_exact_checker():
    ft2 = FreeGroupTree(2, letters="xy")
    pt23 = FreeProductTree((2, 3))
    hp = HalfPlane()
    # Sanov's pair conjugated in floats by diag(1.1): letters of det != 1
    hpf = HalfPlane(arithmetic="float")

    def sample_set(backend, rng):
        if backend is ft2:
            words = [
                _random_tree_word(rng, rng.randint(1, 4))
                for _ in range(rng.randint(2, 3))
            ]
        elif backend is pt23:
            words = [
                _random_alternating_entry(rng, rng.randint(4, 5)) for _ in range(2)
            ]
        else:
            mats = SANOV if backend is hp else NON_INTEGER_FLOAT_SETS["sanov diag(1.1)"]
            return GeneratingSet(
                backend,
                [
                    _random_matrix_product(rng, backend, rng.randint(1, 3), mats)
                    for _ in range(rng.randint(2, 3))
                ],
            )
        return GeneratingSet(backend, [backend.element(w) for w in words])

    rng = random.Random(20260814)
    trials, valid_certs, plane_certs = 0, [], 0
    # random entries rarely clear the margin (any shared departure direction
    # kills it), so keep sampling each backend until it has contributed its
    # share of valid certificates. The plane certifies by integer ping-pong
    # on T and its inverses, in either spelling, det != 1 included: each T
    # it passes must have no relation of length <= 6 either
    for backend, want_valid in ((ft2, 15), (pt23, 15), (hp, 10), (hpf, 10)):
        done, found = 0, 0
        while done < 70 or found < want_valid:
            if done >= 1000:
                break
            done += 1
            T = sample_set(backend, rng)
            if isinstance(backend, HalfPlane):
                letters = [t.canonical for t in T] + [backend.invert(t).canonical for t in T]
                if backend._free_walk(letters):
                    assert certify_free_exact(T, 6, memory_cap=CAP) is True
                    plane_certs += 1
                    found += 1
                continue
            x = backend.origin()
            chk = certify_free_geometric(T, x)
            if chk.valid:
                assert certify_free_exact(T, 6, memory_cap=CAP) is True
                valid_certs.append((T, x, chk.m))
                found += 1
        trials += done
    assert trials >= 200
    assert len(valid_certs) >= 30  # the soundness check must not be vacuous
    assert plane_certs >= 20

    words_checked = 0
    for T, x, m in valid_certs:
        backend = T.backend
        symbols = list(T) + [backend.invert(t) for t in T]
        r = len(T)
        for _ in range(8):
            length = rng.randint(1, 8)
            idx = rng.randrange(2 * r)
            g = symbols[idx]
            for _ in range(length - 1):
                idx = rng.choice(
                    [j for j in range(2 * r) if j != (idx + r) % (2 * r)]
                )
                g = backend.compose(g, symbols[idx])
            assert backend.dist(x, backend.apply(g, x)) >= length * m / 2.0 - 1e-9
            words_checked += 1
    assert words_checked >= 200
    print(
        f"PASS cross-oracle: {len(valid_certs)} valid tree and {plane_certs} plane "
        f"certificates over {trials} seeded sets, {words_checked} word displacements"
    )


def test_parabolic_on_plane_loxodromic_on_tree():
    mat = [[1, 1], [0, 1]]
    hp = HalfPlane()
    g = hp.element(mat)
    cls = hp.classify(g)
    assert cls.kind == "parabolic"
    a, _, _, d = g.canonical
    assert abs(a + d) == 2

    pt23 = FreeProductTree((2, 3))
    h = pt23.element("ab")
    assert psl2z_normal_form(mat) == pt23.syllables(h.canonical)
    assert pt23.classify(h).kind == "loxodromic"
    assert pt23.translation_length(h) == 2
    print("PASS classification: T=ab parabolic (|tr|=2) on plane, loxodromic tau=2 on tree")


def _mat_mul(p, q):
    (a, b), (c, d) = p
    (e, f), (g, h) = q
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def test_elliptic_set_needs_escalation_to_find_loxodromic():
    hp = HalfPlane()
    S = make_generating_set(hp, PSL2Z_ELLIPTIC)
    assert len(S) == 3  # inverses already present mod sign
    with pytest.raises(NoLoxodromicFound):
        find_short_loxodromic(S)

    # brute-force trace scan of products (the set is closed under inverses,
    # so semigroup words of length <= 4 cover the radius-4 ball)
    mats = [tuple(map(tuple, m)) for m in PSL2Z_ELLIPTIC]
    traces = {}
    for length in range(1, 5):
        for combo in itertools.product(mats, repeat=length):
            m = combo[0]
            for q in combo[1:]:
                m = _mat_mul(m, q)
            tr = abs(m[0][0] + m[1][1])
            key = min(length, traces.get(tr, length))
            traces[tr] = key
    assert all(tr <= 2 for tr, length in traces.items() if length <= 2)
    min_lox_trace = min(tr for tr in traces if tr > 2)
    assert min_lox_trace == 3

    rep = verify_theorem(S, 3, memory_cap=50_000)
    assert rep.cert is not None
    assert 1 <= rep.escalation_rounds <= 2
    # the certificate does not store the pivot b: rerun the escalation
    S_eff = S
    for _ in range(rep.escalation_rounds):
        S_eff = product_ball_set(S_eff, 2, 50_000)
    a, _, _, d = find_short_loxodromic(S_eff).b.canonical
    assert abs(a + d) == min_lox_trace
    print(
        f"PASS escalation: round-0 traces <=2, |tr(b)|={abs(a + d)} after "
        f"{rep.escalation_rounds} round(s), brute-force minimum {min_lox_trace}"
    )


def test_metric_numerics_distance_and_translation_bracket():
    hp = HalfPlane()
    d = hp.dist(Point(hp, 1j), Point(hp, 2j))
    assert abs(d - math.log(2)) <= 1e-12

    hpf = HalfPlane(arithmetic="float")
    g = hpf.element([[2.0, 0.0], [0.0, 0.5]])
    tau = 2.0 * math.log(2.0)
    br = translation_length_bracket(g, hpf.origin())
    assert abs(br.upper - tau) <= 1e-12  # equality up to double rounding
    off = translation_length_bracket(g, Point(hpf, 1 + 1j), N=64)
    assert abs(off.estimate - tau) <= 1e-6
    print(
        f"PASS metric numerics: |d(i,2i)-log2|={abs(d - math.log(2)):.2e}, "
        f"bracket errors {abs(br.upper - tau):.2e} / {abs(off.estimate - tau):.2e}"
    )


def test_four_point_inequality_holds_at_configured_delta():
    ft2 = FreeGroupTree(2, letters="xy")
    pt23 = FreeProductTree((2, 3))
    hp = HalfPlane()
    for backend, bound in ((ft2, 0.0), (pt23, 0.0), (hp, 1.0)):
        rng = random.Random(4)
        worst = 0.0
        for _ in range(1000):
            x, y, z, o = backend.sample_points(rng, 4)
            worst = max(worst, four_point_defect(x, y, z, o))
        assert worst <= bound
    assert estimate_delta(ft2, 200, 0) == 0.0
    assert estimate_delta(pt23, 200, 0) == 0.0
    print("PASS four-point: 1000 quadruples per backend within delta, trees exactly 0")


def test_theta_ratio_increases_with_powered_generating_sets(f2_gens, f2_table_13):
    thetas = []
    for n in range(1, 5):
        if n == 1:
            Tn, table = f2_gens, f2_table_13[0]
        else:
            Tn = product_ball_set(f2_gens, n, CAP)
            table = ball_sizes(Tn, 13 // n, memory_cap=CAP)
        theta = growth_brackets(table).omega_hat / math.log(len(Tn))
        closed = n * math.log(3) / math.log(2 * 3**n - 2)
        assert abs(theta - closed) <= 0.02
        thetas.append(theta)
    assert all(a < b for a, b in zip(thetas, thetas[1:]))
    print(f"PASS theta ratios: {[round(t, 4) for t in thetas]} strictly increasing")


def test_cli_exits_2_on_elementary_inputs(tmp_path, capsys):
    cyclic = tmp_path / "cyclic.json"
    cyclic.write_text(
        json.dumps(
            {
                "backend": {"kind": "free_group_tree", "rank": 2, "letters": "xy"},
                "generators": ["x"],
            }
        )
    )
    rc = cli.main(["verify-bound", str(cyclic), "--max-radius", "4"])
    out = capsys.readouterr().out
    assert rc == 2
    summary = json.loads(out)
    assert summary["elementary"] == "AllElementary"
    assert summary["certificate"] is None

    parabolic = tmp_path / "parabolic.json"
    parabolic.write_text(
        json.dumps(
            {
                "backend": {"kind": "half_plane"},
                "generators": [[[1, 1], [0, 1]]],
            }
        )
    )
    rc = cli.main(["free-basis", str(parabolic)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "after 6 ball escalations" in err
    print("PASS failure contracts: rank-1 and single-parabolic inputs exit 2")
