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
     "3fd6f4622558a930be82aed3bd9f7f9c7e0113b3a2739bdaef12d02441f6ce2d"),
    ({"kind": "free_product_tree", "orders": [2, 3]}, ["a", "b"], DEFAULT_MEMORY_CAP,
     "370e53e92bc515faf7e712f5a806607975efea40e9fb5830ca04471362b5df26"),
    ({"kind": "half_plane"}, SANOV, 50_000,
     "c99b93c2b18752587715f0cf0ce41f9db8acafaedc74f1a27508123413aef4e2"),
    ({"kind": "free_product_tree", "orders": [3, 3]}, ["a", "b"], DEFAULT_MEMORY_CAP,
     "40ee37ba1c46adab58258fa1629335b52e72bdd0bf60b58e7d1a606462a69aeb"),
    ({"kind": "half_plane", "delta": 0.7}, PSL2Z_ELLIPTIC, 5000,
     "c4ede1e7db3aeb7cb4c0634bb4db7ea55641fa8d707d1ad4d886b17ea0e2e319"),
    # kappa 14 spelled by the one-syllable closed form, no walk
    ({"kind": "free_product_tree", "orders": [2, 7]}, ["a", "b"], DEFAULT_MEMORY_CAP,
     "6db5ef2ac730c0614fb77d5a0861e6efef6ad994801ee77f35b37c7f6260c7a3"),
    # coset separation at n = 2 keeps 3 of S's 4 entries, so r = 3
    ({"kind": "free_product_tree", "orders": [2, 4]}, ["a", "b", "bb"], DEFAULT_MEMORY_CAP,
     "185350a930d1d712b9629290d510eab8d6e585fd7e048fbcd734ce1636bccba5"),
    # coset separation keeps 4 of S's 6 entries, so r = 4, and the normal
    # form gives a word-upper kappa
    ({"kind": "free_product_tree", "orders": [2, 4]}, ["a", "b", "bb", "ab"], 20_000,
     "79c72559ba107fa686f5addc3e4a7d287142e789bea6e65d53bd41432ecbb428"),
], ids=["f2", "c2c3", "sanov", "c3c3", "elliptic", "c2c7", "c2c4", "c2c4-ab"])
def test_certificate_bytes_are_pinned(config, gens, cap, digest):
    S = make_generating_set(make_backend(config), gens)
    text = certificate_to_json(build_free_basis(S, memory_cap=cap))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
