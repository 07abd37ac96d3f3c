from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from agealgebra.subsets import MAX_GROUND, SetFamily, Subset, ksubsets, members, splits


def test_members_round_trip():
    s = Subset(6, 1 << 4 | 1 << 0 | 1 << 2)
    assert members(s.mask) == [0, 2, 4]
    assert sum(1 << i for i in members(s.mask)) == s.mask
    assert len(members(s.mask)) == 3
    assert 2 in members(s.mask) and 3 not in members(s.mask)
    assert members(0) == []
    assert repr(s) == "Subset([0, 2, 4], n=6)"


@given(st.integers(0, (1 << 64) - 1))
def test_members_lists_the_set_bits(mask):
    assert members(mask) == [i for i in range(64) if mask >> i & 1]


def test_mask_out_of_range_rejected():
    with pytest.raises(ValueError):
        Subset(3, 1 << 3)
    with pytest.raises(ValueError):
        Subset(MAX_GROUND + 1, 0)


def test_colex_order_on_pairs():
    # colex: compare largest differing element; on masks this is integer order
    pairs = ksubsets(4, 2)
    as_tuples = [tuple(members(p)) for p in pairs]
    assert as_tuples == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


def test_ksubsets_counts_and_edges():
    from math import comb

    for l in range(7):
        for k in range(l + 2):
            got = ksubsets(l, k)
            assert len(got) == (comb(l, k) if k <= l else 0)
    assert ksubsets(5, 0) == [0]


def test_ksubsets_are_the_sorted_masks_of_combinations():
    for l in range(11):
        for k in range(-1, l + 2):
            want = sorted(sum(1 << x for x in c) for c in combinations(range(l), k)) if k >= 0 else []
            assert ksubsets(l, k) == want, (l, k)


def test_splits_enumerates_ordered_partitions():
    q = Subset(5, 1 << 0 | 1 << 2 | 1 << 4)
    got = splits(q.mask, 1)
    assert len(got) == 3
    for p, rest in got:
        assert p & ~q.mask == 0 and rest & ~q.mask == 0
        assert p | rest == q.mask and not p & rest and p.bit_count() == 1
    with pytest.raises(ValueError):
        splits(-1, 0)


@given(st.integers(1, 10), st.data())
def test_splits_matches_combinations(l, data):
    mask = data.draw(st.integers(0, (1 << l) - 1))
    m = data.draw(st.integers(0, mask.bit_count()))
    got = {p for p, _ in splits(mask, m)}
    want = set()
    for combo in combinations(members(mask), m):
        pm = 0
        for x in combo:
            pm |= 1 << x
        want.add(pm)
    assert got == want


def test_family_sorted_and_duplicate_rejected():
    a = Subset(4, 1 << 3)
    b = Subset(4, 1 << 0 | 1 << 1)
    fam = SetFamily(4, [a, b])
    assert fam.masks() == sorted([a.mask, b.mask])
    with pytest.raises(ValueError):
        SetFamily(4, [a, a])
    with pytest.raises(ValueError):
        SetFamily(4, [Subset(5, 1 << 0)])
