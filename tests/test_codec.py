"""The JSON form of canonicals and points, and the bytes of certificates."""

import hashlib
import json
import random

import pytest

from loxgrow.freebasis import build_free_basis, certificate_to_json
from loxgrow.spaces import _KINDS, basepoint_candidates, make_backend
from loxgrow.words import DEFAULT_MEMORY_CAP, make_generating_set, product_ball_set

from conftest import PSL2Z_ELLIPTIC, SANOV

SANOV_FLOAT = [[[1.0, 2.0], [0.0, 1.0]], [[1.0, 0.0], [2.0, 1.0]]]

_CASES = {
    "free_group_tree": ({"kind": "free_group_tree", "rank": 2}, ["a", "b"]),
    "free_product_tree": ({"kind": "free_product_tree", "orders": [3, 4]}, ["a", "b"]),
    "half_plane": ({"kind": "half_plane"}, SANOV),
    "half_plane-float": ({"kind": "half_plane", "arithmetic": "float"}, SANOV_FLOAT),
}


def _generating_set(case):
    config, gens = _CASES[case]
    return make_generating_set(make_backend(config), gens)


def test_cases_cover_every_kind():
    assert {config["kind"] for config, _ in _CASES.values()} == set(_KINDS)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_canonicals_round_trip_through_json_text(case):
    S = _generating_set(case)
    backend = S.backend
    ball = [backend.identity()] + list(product_ball_set(S, 3))
    assert len(ball) > 20
    for g in ball:
        text = json.dumps(backend.canonical_payload(g.canonical))
        canonical = backend.canonical_from_payload(json.loads(text))
        assert canonical == g.canonical
        # the same JSON types too: an int entry read back as a float would
        # change the certificate's bytes
        assert json.dumps(backend.canonical_payload(canonical)) == text


@pytest.mark.parametrize("case", sorted(_CASES))
def test_points_round_trip_through_json_text(case):
    S = _generating_set(case)
    backend = S.backend
    points = basepoint_candidates(S) + backend.sample_points(random.Random(0), 50)
    for p in points:
        text = json.dumps(backend.point_payload(p))
        q = backend.point_from_payload(json.loads(text))
        assert q == p
        assert json.dumps(backend.point_payload(q)) == text


# SHA-256 of certificate_to_json: a certificate's bytes must not drift with
# the code that writes them; the float Sanov certificate is pinned field by
# field in test_cli
@pytest.mark.parametrize("config, gens, cap, digest", [
    ({"kind": "free_group_tree", "rank": 2, "letters": "xy"}, ["x", "y"], DEFAULT_MEMORY_CAP,
     "c465564b5b6176556837c02aec0e8c5aede43555e333139f8e0a97cfa1e647d7"),
    ({"kind": "free_product_tree", "orders": [2, 3]}, ["a", "b"], DEFAULT_MEMORY_CAP,
     "0025b1046e59670982559ce0bbae78772b64654dca786a19786595ff46d234a8"),
    ({"kind": "half_plane"}, SANOV, 50_000,
     "ea1f3a1cad43ea2ba37f3e8b969283c975041d76c5eb183fb6264f5a822e0aba"),
    ({"kind": "free_product_tree", "orders": [3, 3]}, ["a", "b"], DEFAULT_MEMORY_CAP,
     "31a604d82fa217dd610b0fc47245bbb2f903d05f12b1556e52b8581233e0750f"),
    ({"kind": "half_plane", "delta": 0.7}, PSL2Z_ELLIPTIC, 5000,
     "8be8d415e1870930df1b3ca775394762e5ab099ed8c52ef14fc71df25f54865c"),
    # kappa 14 spelled by the one-syllable closed form, no walk
    ({"kind": "free_product_tree", "orders": [2, 7]}, ["a", "b"], DEFAULT_MEMORY_CAP,
     "ed7f021c624736663718a631efe059f21a795482a4d7bb85b2f55f11757d79a2"),
    # coset separation at n = 2 keeps 3 of S's 4 entries, so r = 3
    ({"kind": "free_product_tree", "orders": [2, 4]}, ["a", "b", "bb"], DEFAULT_MEMORY_CAP,
     "4ccc5bc33e2bc72ed86b073609bd9a697049a00279839205a114f6c857b447f5"),
    # coset separation keeps 4 of S's 6 entries, so r = 4, and the normal
    # form gives a word-upper kappa
    ({"kind": "free_product_tree", "orders": [2, 4]}, ["a", "b", "bb", "ab"], 20_000,
     "70629a988adf2789b5e004b5642a1ae688e65a41d1e74ff9be37f5bf4c86011e"),
], ids=["f2", "c2c3", "sanov", "c3c3", "elliptic", "c2c7", "c2c4", "c2c4-ab"])
def test_certificate_bytes_are_pinned(config, gens, cap, digest):
    S = make_generating_set(make_backend(config), gens)
    text = certificate_to_json(build_free_basis(S, memory_cap=cap))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
