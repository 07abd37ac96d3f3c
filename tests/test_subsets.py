from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from agealgebra.subsets import MAX_GROUND, SetFamily, Subset, ksubsets, splits


def test_from_indices_and_elements_round_trip():
    s = Subset.from_indices(6, [4, 0, 2])
    assert tuple(s.elements()) == (0, 2, 4)
    assert len(s) == 3
    assert 2 in s and 3 not in s


def test_mask_out_of_range_rejected():
    with pytest.raises(ValueError):
        Subset(3, 1 << 3)
    with pytest.raises(ValueError):
        Subset(MAX_GROUND + 1, 0)


def test_colex_order_on_pairs():
    # colex: compare largest differing element; on masks this is integer order
    pairs = ksubsets(4, 2)
    as_tuples = [tuple(p.elements()) for p in pairs]
    assert as_tuples == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


def test_ksubsets_counts_and_edges():
    from math import comb

    for l in range(7):
        for k in range(l + 2):
            got = ksubsets(l, k)
            assert len(got) == (comb(l, k) if k <= l else 0)
    assert ksubsets(5, 0) == [Subset(5, 0)]


def test_set_operations_respect_ground():
    a = Subset.from_indices(5, [0, 1])
    assert tuple(a.complement().elements()) == (2, 3, 4)
    assert tuple(Subset(6, 0b11).complement().elements()) == (2, 3, 4, 5)


def test_splits_enumerates_ordered_partitions():
    q = Subset.from_indices(5, [0, 2, 4])
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
    q = Subset(l, mask)
    m = data.draw(st.integers(0, len(q)))
    got = {p for p, _ in splits(mask, m)}
    want = set()
    for combo in combinations(q.elements(), m):
        pm = 0
        for x in combo:
            pm |= 1 << x
        want.add(pm)
    assert got == want


def test_family_sorted_and_duplicate_rejected():
    a = Subset.from_indices(4, [3])
    b = Subset.from_indices(4, [0, 1])
    fam = SetFamily(4, [a, b])
    assert [s.mask for s in fam] == sorted([a.mask, b.mask])
    with pytest.raises(ValueError):
        SetFamily(4, [a, a])
    with pytest.raises(ValueError):
        SetFamily(4, [Subset.from_indices(5, [0])])
