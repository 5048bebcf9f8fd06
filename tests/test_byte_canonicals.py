"""The trees' byte canonicals against the tuple forms they replaced.

Free words were tuples of signed letter indices (+i for the i-th generator,
-i for its inverse) sorted by (length, letter codes); C_p * C_q words were
tuples of (factor, exp) syllables sorted by (length, syllables). Certificates
still store those forms, and S is still sorted in that order.
"""

import json
import random

import pytest

from loxgrow.spaces import FreeGroupTree, FreeProductTree, GroupElement, Point


def _old_free_key(word):
    return (len(word), tuple(2 * (abs(v) - 1) + (0 if v > 0 else 1) for v in word))


def _random_free_word(rng, rank, length):
    word = []
    for _ in range(length):
        word.append(rng.choice([v for v in range(-rank, rank + 1)
                                if v and not (word and v == -word[-1])]))
    return tuple(word)


def _random_syllables(rng, orders, length):
    factor = rng.randint(0, 1)
    word = []
    for _ in range(length):
        word.append((factor, rng.randint(1, orders[factor] - 1)))
        factor = 1 - factor
    return tuple(word)


def _assert_same_order(backend, olds, old_key):
    """sort_key orders the canonicals of ``olds`` (payloads) as ``old_key``
    orders the old forms: the same sorted order, with the same ties."""
    old = [old_key(w) for w in olds]
    new = [backend.sort_key(GroupElement(backend, backend.canonical_from_payload(w)))
           for w in olds]
    order = sorted(range(len(olds)), key=old.__getitem__)
    assert order == sorted(range(len(olds)), key=new.__getitem__)
    for i, j in zip(order, order[1:]):
        assert (old[i] == old[j]) == (new[i] == new[j])


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 128])
def test_free_sort_key_orders_as_the_signed_letter_key(rank):
    rng = random.Random(f"free-order/{rank}")
    backend = FreeGroupTree(rank) if rank <= 26 else FreeGroupTree(rank, letters=_letters(rank))
    # short words, so lengths tie often and codes decide
    words = [_random_free_word(rng, rank, rng.randint(0, 5)) for _ in range(600)]
    words += [(v,) for v in range(-rank, rank + 1) if v]
    _assert_same_order(backend, [list(w) for w in words], _old_free_key)


@pytest.mark.parametrize("orders", [(2, 3), (3, 3), (2, 63), (63, 63), (17, 5)])
def test_product_sort_key_orders_as_the_syllable_key(orders):
    rng = random.Random(f"product-order/{orders}")
    backend = FreeProductTree(orders)
    words = [_random_syllables(rng, orders, rng.randint(0, 5)) for _ in range(600)]
    words += [((f, e),) for f in (0, 1) for e in range(1, orders[f])]

    def old_key(payload):
        syllables = tuple(map(tuple, payload))
        return (len(syllables), syllables)

    _assert_same_order(backend, [[list(s) for s in w] for w in words], old_key)


def test_random_product_orders_sort_as_the_syllable_key():
    rng = random.Random(63)
    for _ in range(20):
        orders = (2, 2)
        while orders == (2, 2):
            orders = (rng.randint(2, 63), rng.randint(2, 63))
        backend = FreeProductTree(orders)
        words = [_random_syllables(rng, orders, rng.randint(0, 4)) for _ in range(150)]
        _assert_same_order(backend, [[list(s) for s in w] for w in words],
                           lambda p: (len(p), tuple(map(tuple, p))))


def _letters(rank):
    """``rank`` distinct lowercase letters, past ASCII once it runs out,
    each with a one-letter uppercase form for its inverse."""
    pool = (chr(c) for c in range(ord("a"), 0x3000))
    return "".join([c for c in pool if c.isalpha() and c.islower()
                    and c.upper() != c and c.upper().lower() == c][:rank])


@pytest.mark.parametrize("rank", [1, 2, 5, 128])
def test_free_payloads_keep_the_signed_letter_json(rank):
    rng = random.Random(f"free-json/{rank}")
    backend = FreeGroupTree(rank, letters=_letters(rank))
    for _ in range(200):
        word = list(_random_free_word(rng, rank, rng.randint(0, 9)))
        canon = backend.canonical_from_payload(word)
        assert type(canon) is bytes and len(canon) == len(word)
        assert backend.canonical_payload(canon) == word
        point = backend.point_from_payload(json.loads(json.dumps(word)))
        assert point == Point(backend, canon)
        assert json.dumps(backend.point_payload(point)) == json.dumps(word)
        # the element a word string spells has the same canonical
        spelled = "".join(backend.letters[abs(v) - 1] if v > 0
                          else backend.letters[abs(v) - 1].upper() for v in word)
        assert backend.element(spelled).canonical == canon


@pytest.mark.parametrize("orders", [(2, 3), (3, 4), (2, 63), (63, 62)])
def test_product_payloads_keep_the_syllable_json(orders):
    rng = random.Random(f"product-json/{orders}")
    backend = FreeProductTree(orders)
    for _ in range(200):
        syllables = _random_syllables(rng, orders, rng.randint(0, 9))
        payload = [[f, e] for f, e in syllables]
        canon = backend.canonical_from_payload(payload)
        assert type(canon) is bytes and backend.syllables(canon) == syllables
        assert backend.canonical_payload(canon) == payload
        assert backend.normalize(syllables) == canon
        side = rng.randint(0, 1)
        rep = payload[:-1] if payload and payload[-1][0] == side else payload
        point = backend.point_from_payload(json.loads(json.dumps([rep, side])))
        assert point == backend.vertex(GroupElement(backend, canon), side)
        assert json.dumps(backend.point_payload(point)) == json.dumps([rep, side])
