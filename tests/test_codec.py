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
     "7df3c2a1a6d64eb73f2ca44d0e454f5095c2778d7d443a1501ed7dc3c6b576f4"),
    ({"kind": "free_product_tree", "orders": [2, 3]}, ["a", "b"], DEFAULT_MEMORY_CAP,
     "beac9aa11620761ab08a9d15b24f4e30bc3dca5e879356901262d910602b97f1"),
    ({"kind": "half_plane"}, SANOV, 50_000,
     "05507b3764770127516afe030b366a7649f017cb4e6f513ac9b3a2fab4e84bc1"),
    ({"kind": "free_product_tree", "orders": [3, 3]}, ["a", "b"], DEFAULT_MEMORY_CAP,
     "1c045f676b32735b2ac02df5a750baaf05570b86ee987d4f1615152b210a2c77"),
    ({"kind": "half_plane", "delta": 0.7}, PSL2Z_ELLIPTIC, 5000,
     "bd2c96cb58274acae2e5320cfb13aaf296f74bb96d43d2640b0078478f01b912"),
    # kappa 14 found by the breadth-first walk
    ({"kind": "free_product_tree", "orders": [2, 7]}, ["a", "b"], DEFAULT_MEMORY_CAP,
     "a0a1c26cc8d2406643a6e6fed5d2242725f991dbd4dd91623185c61e6fee6747"),
    # S0 drops one entry (coset separation at n = 2)
    ({"kind": "free_product_tree", "orders": [2, 4]}, ["a", "b", "bb"], DEFAULT_MEMORY_CAP,
     "2822dda5adefe2987a3c58b14a21e3f26d088a8ef68ea86ee9c11713512dcea2"),
    # S0 drops two entries, and the normal form gives a word-upper kappa
    ({"kind": "free_product_tree", "orders": [2, 4]}, ["a", "b", "bb", "ab"], 20_000,
     "93167db4d465bc02157929bc991951c6f3d45a919b70cdfc1fe0214f47f52560"),
], ids=["f2", "c2c3", "sanov", "c3c3", "elliptic", "c2c7", "c2c4", "c2c4-ab"])
def test_certificate_bytes_are_pinned(config, gens, cap, digest):
    S = make_generating_set(make_backend(config), gens)
    text = certificate_to_json(build_free_basis(S, memory_cap=cap))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
