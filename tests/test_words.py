"""Word codings of layered subsets and the leading-term machinery."""

import random
from itertools import combinations, product as iproduct

import pytest
from hypothesis import assume, given, settings, strategies as st

from agealgebra.setfuncs import SetFunction, product
from agealgebra.subsets import ksubsets
from agealgebra.words import (
    HypothesisError,
    LayeredGround,
    Word,
    code,
    code_blind_function,
    code_classes,
    code_determined,
    lead,
    leading_product_check,
    make_code,
    max_shuffle,
    shuffle,
    shuffle_product,
)

EMPTY_WORD = Word()


def subwords(w):
    """All scattered subwords, the empty word and w itself included."""
    out = set()
    for k in range(len(w) + 1):
        for pos in combinations(range(len(w)), k):
            out.add(Word(w.letters[p] for p in pos))
    return out


def lead_word(f):
    """The radix-largest word of a word function's support, None for zero."""
    return max(f, key=Word.sort_key, default=None)


def flat_of(layered, v, c):
    """Flat index of grid point (v, c): F first, then the columns in order."""
    if not 0 <= v < layered.v_size or not 0 <= c < layered.chain_size:
        raise ValueError("grid point outside V x C")
    return layered.f_size + c * layered.v_size + v


def _columns_equivalent(layered, colorings, x, x0):
    mapping = {i: i for i in range(layered.f_size)}
    for c, c0 in zip(x, x0):
        for v in range(layered.v_size):
            mapping[flat_of(layered, v, c)] = flat_of(layered, v, c0)
    dom = sorted(mapping)
    for deg, colors in colorings:
        for combo in combinations(dom, deg):
            mask = 0
            img = 0
            for i in combo:
                mask |= 1 << i
                img |= 1 << mapping[i]
            if colors.get(mask, 0) != colors.get(img, 0):
                return False
    return True


def check_invariance(layered, f, g, r):
    """True iff all r-subsets of the chain look alike through the induced
    order-isomorphism maps, which must keep the signs of both f and g."""
    if f.n != layered.flat_size or g.n != layered.flat_size:
        raise ValueError("functions are not over this layered ground")
    if not 0 <= r <= layered.chain_size:
        raise ValueError("r exceeds the chain")
    # Sign colors as +-1, since absent keys read 0; den > 0 keeps each numerator's sign.
    colorings = [(h.degree, {s: 1 if v > 0 else -1 for s, v in h.terms.items()})
                 for h in (f, g)]
    cols = list(combinations(range(layered.chain_size), r))
    return all(_columns_equivalent(layered, colorings, x, cols[0]) for x in cols[1:])


def final_segment_ideal_check(down_closed, f, g):
    """If supp(f) avoids the down-closed set, so must supp(f * g).

    The predicate is first checked to be subword-closed on every word in
    sight (supports plus all their scattered subwords); a violation there
    is an error, not a False.  A premise that already fails makes the
    implication vacuously true.
    """
    prod = shuffle_product(f, g)
    universe = set()
    for fn in (f, g, prod):
        for w in fn:
            universe |= subwords(w)
    for w in universe:
        if down_closed(w):
            for s in subwords(w):
                if not down_closed(s):
                    raise ValueError("predicate not closed under subwords on the tested universe")
    if any(down_closed(w) for w in f):
        return True
    return not any(down_closed(w) for w in prod)


words_2letter = st.lists(st.sampled_from([1, 2]), min_size=0, max_size=5).map(Word)
words_upto6 = st.lists(st.integers(1, 7), min_size=0, max_size=6).map(Word)


def brute_max_shuffle(u, v):
    """Oracle: the radix-largest of all C(|u|+|v|, |u|) interleavings."""
    return max(
        (shuffle(u, pos, v) for pos in combinations(range(len(u) + len(v)), len(u))),
        key=Word.sort_key,
    )


@st.composite
def shuffle_pairs(draw):
    """Random pairs, plus pairs where one word is a prefix of the other."""
    u = draw(words_upto6)
    if draw(st.booleans()):
        v = draw(words_upto6)
    else:
        v = Word(u.letters[: draw(st.integers(0, len(u)))])
    return (v, u) if draw(st.booleans()) else (u, v)


def test_letters_must_be_nonempty():
    with pytest.raises(ValueError):
        Word([0])
    with pytest.raises(ValueError):
        Word([3, -1])


def test_radix_order_prefers_length_then_alphabet():
    assert Word([3]) < Word([1, 1])
    assert not Word([1, 2]) < Word([1, 2]) and Word([1, 2]) == Word([1, 2])
    # same length: compare letters by cardinality then mask
    assert Word([1]) < Word([2])
    assert Word([2]) < Word([3])


@settings(max_examples=80, deadline=None)
@given(words_2letter, words_2letter, words_2letter)
def test_radix_total_order(u, v, w):
    assert (u < v) + (v < u) + (u == v) == 1
    if not v < u and not w < v:
        assert not w < u


def test_shuffle_places_letters_by_position():
    u, v = Word([1, 2]), Word([3])
    assert shuffle(u, [0, 1], v).letters == (1, 2, 3)
    assert shuffle(u, [0, 2], v).letters == (1, 3, 2)
    assert shuffle(u, [1, 2], v).letters == (3, 1, 2)
    with pytest.raises(ValueError):
        shuffle(u, [0], v)
    with pytest.raises(ValueError):
        shuffle(u, [0, 5], v)


def test_max_shuffle_worked_example():
    big = max_shuffle(Word([3, 1]), Word([3]))
    assert [x.bit_count() for x in big] == [2, 2, 1]


def test_max_shuffle_dominates_every_interleaving():
    for lu in range(5):
        for lv in range(5 - lu):
            for u_letters in iproduct((1, 2), repeat=lu):
                for v_letters in iproduct((1, 2), repeat=lv):
                    u, v = Word(u_letters), Word(v_letters)
                    top = max_shuffle(u, v)
                    for pos in combinations(range(lu + lv), lu):
                        assert not top < shuffle(u, pos, v)


@settings(max_examples=300, deadline=None)
@given(shuffle_pairs())
def test_greedy_max_shuffle_matches_brute_force(pair):
    u, v = pair
    assert max_shuffle(u, v) == brute_max_shuffle(u, v)


def test_greedy_max_shuffle_edge_cases():
    cases = [
        (EMPTY_WORD, EMPTY_WORD),
        (EMPTY_WORD, Word([5, 1])),
        (Word([3]), Word([3, 1])),
        (Word([3, 1]), Word([3])),
        (Word([2, 2]), Word([2, 2, 1])),
        (Word([1, 7]), Word([1, 7, 1, 7])),
        (Word([6, 3, 6]), Word([6, 3])),
    ]
    for u, v in cases:
        assert max_shuffle(u, v) == brute_max_shuffle(u, v)
        assert max_shuffle(v, u) == brute_max_shuffle(u, v)


def test_strict_monotonicity_in_each_argument():
    # same-length replacement of either factor moves every shuffle the
    # same direction
    rng = random.Random(1)
    for _ in range(150):
        lu, lv = rng.randint(1, 3), rng.randint(0, 3)
        u1 = Word(rng.choice((1, 2, 3)) for _ in range(lu))
        u2 = Word(rng.choice((1, 2, 3)) for _ in range(lu))
        v = Word(rng.choice((1, 2, 3)) for _ in range(lv))
        if u1 == u2:
            continue
        low, high = (u1, u2) if u1 < u2 else (u2, u1)
        for pos in combinations(range(lu + lv), lu):
            a, b = shuffle(low, pos, v), shuffle(high, pos, v)
            assert a < b


def test_subwords_of_two_letter_word():
    got = subwords(Word([1, 2]))
    assert got == {EMPTY_WORD, Word([1]), Word([2]), Word([1, 2])}


def test_code_splits_fixed_part_from_column_traces():
    layered = LayeredGround(2, 2, 3)
    points = [0, flat_of(layered, 0, 0), flat_of(layered, 0, 2), flat_of(layered, 1, 2)]
    c = code(sum({1 << x for x in points}), layered)
    assert c.f_mask == 0b01
    assert list(c.word) == [0b01, 0b11]


def test_code_order_puts_larger_fixed_parts_first():
    a = make_code(0b11, Word([1]))
    b = make_code(0b01, Word([1]))
    c = make_code(0b00, Word([1]))
    d = make_code(0b10, Word([1]))
    assert a < b < d < c
    assert max([b, c, a]) == c and min([b, c, a]) == a
    # within one F-part, radix order on the words
    assert make_code(0, Word([3])) < make_code(0, Word([1, 1])) < make_code(0, Word([1, 2]))


def test_lead_of_zero_function_is_bottom():
    layered = LayeredGround(1, 1, 3)
    assert lead(SetFunction(layered.flat_size, 1, {}), layered) is None
    assert lead_word({}) is None


def test_flat_layout_is_column_major():
    layered = LayeredGround(1, 2, 3)
    assert [flat_of(layered, v, c) for c in range(3) for v in range(2)] == [1, 2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        flat_of(layered, 2, 0)


def test_code_blind_functions_are_code_determined():
    layered = LayeredGround(2, 2, 3)
    for seed in range(5):
        f = code_blind_function(layered, 2, seed=seed)
        assert not f.is_zero
        assert code_determined(f, layered)


@pytest.mark.parametrize("shape", [(0, 1, 4), (1, 2, 3), (2, 1, 3), (2, 2, 2)])
def test_code_classes_partition_subsets_by_code(shape):
    layered = LayeredGround(*shape)
    for degree in range(layered.flat_size + 2):
        classes = code_classes(layered, degree)
        masks = [s for cls in classes.values() for s in cls]
        assert sorted(masks) == ksubsets(layered.flat_size, degree)
        assert all(cls == sorted(cls) for cls in classes.values())
        firsts = [cls[0] for cls in classes.values()]
        assert firsts == sorted(firsts)
        # each class sits under its own code, so two subsets share a class
        # exactly when their codes agree
        assert all(code(s, layered) == c for c, cls in classes.items() for s in cls)


def test_invariance_of_blind_colorings_and_a_counterexample():
    layered = LayeredGround(1, 2, 4)
    f = code_blind_function(layered, 2, seed=0)
    g = code_blind_function(layered, 1, seed=1)
    assert all(check_invariance(layered, f, g, r) for r in range(layered.chain_size + 1))

    # color tied to one chosen column: already unequal at single columns
    single = LayeredGround(0, 1, 3)
    skew = SetFunction(3, 1, {0b001: 1})
    assert not check_invariance(single, skew, SetFunction(3, 1, {}), 1)


def test_check_invariance_rejects_other_grounds_and_long_r():
    layered = LayeredGround(1, 2, 3)
    f = code_blind_function(layered, 1, seed=0)
    g = code_blind_function(layered, 2, seed=1)
    other = SetFunction(layered.flat_size + 1, 1, {1: 1})
    for a, b in ((other, g), (f, other)):
        with pytest.raises(ValueError, match="not over this layered ground"):
            check_invariance(layered, a, b, 1)
    for r in (-1, layered.chain_size + 1):
        with pytest.raises(ValueError, match="r exceeds the chain"):
            check_invariance(layered, f, g, r)
    assert check_invariance(layered, f, g, layered.chain_size)


def test_invariance_is_hereditary_downward():
    layered = LayeredGround(1, 2, 5)
    for seed in range(4):
        f = code_blind_function(layered, 2, seed=seed)
        g = code_blind_function(layered, 2, seed=seed + 50)
        flags = [check_invariance(layered, f, g, r) for r in range(layered.chain_size + 1)]
        for r, flag in enumerate(flags):
            if flag:
                assert all(flags[: r + 1])


def test_leading_product_equations_on_blind_pairs():
    layered = LayeredGround(1, 2, 4)
    seen_ok = 0
    for seed in range(8):
        f = code_blind_function(layered, 2, seed=seed, need_pure_column_support=True)
        g = code_blind_function(layered, 2, seed=seed + 31)
        checks = leading_product_check(f, g, layered)
        assert all(checks.values()), checks
        assert checks["product_nonzero"]
        seen_ok += 1
    assert seen_ok == 8


def sign_flipped(g, index):
    """g with the value on its index-th subset (colex) negated, or set to 1."""
    terms = dict(g.terms)
    shapes = ksubsets(g.n, g.degree)
    s = shapes[index % len(shapes)]
    terms[s] = -terms.get(s, -1)
    return SetFunction(g.n, g.degree, terms)


def assert_passing_check_implies_invariance(layered, f, g):
    """Whenever the leading-term check passes, the colored structure is
    invariant at every chain size, so the check needs no invariance pass."""
    try:
        passed = all(leading_product_check(f, g, layered).values())
    except HypothesisError:
        passed = False
    if passed:
        assert all(check_invariance(layered, f, g, r) for r in range(layered.chain_size + 1))
    return passed


def test_passing_leading_check_implies_invariance_on_criterion_9_corpus():
    passed = refused = 0
    for f_size in (0, 1, 2):
        for v_size in (1, 2):
            for m, n in ((1, 1), (1, 2), (2, 2)):
                for chain in (m + n, min(6, m + n + 2)):
                    if f_size + v_size * chain > 12:
                        continue
                    layered = LayeredGround(f_size, v_size, chain)
                    for seed in range(3):
                        f = code_blind_function(layered, m, seed=seed, need_pure_column_support=True)
                        g = code_blind_function(layered, n, seed=seed + 1000)
                        assert assert_passing_check_implies_invariance(layered, f, g)
                        passed += 1
                        flipped = sign_flipped(g, seed)
                        refused += not assert_passing_check_implies_invariance(layered, f, flipped)
    assert passed == 102 and refused > 0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2), st.integers(1, 2), st.integers(1, 2), st.integers(1, 2),
    st.integers(0, 2), st.integers(0, 10**6), st.none() | st.integers(0, 200),
)
def test_passing_leading_check_implies_invariance(f_size, v_size, m, n, extra, seed, flip):
    chain = m + n + extra
    assume(f_size + v_size * chain <= 10)
    layered = LayeredGround(f_size, v_size, chain)
    f = code_blind_function(layered, m, seed=seed, need_pure_column_support=True)
    g = code_blind_function(layered, n, seed=seed + 1)
    assert_passing_check_implies_invariance(layered, f, g if flip is None else sign_flipped(g, flip))


def test_leading_check_requires_long_chain():
    layered = LayeredGround(0, 2, 3)
    f = code_blind_function(layered, 2, seed=1, need_pure_column_support=True)
    g = code_blind_function(layered, 2, seed=2)
    with pytest.raises(HypothesisError) as exc:
        leading_product_check(f, g, layered)
    assert exc.value.hypothesis == "chain_at_least_total_degree"


def test_leading_check_requires_code_constancy():
    layered = LayeredGround(0, 1, 4)
    f = code_blind_function(layered, 2, seed=1, need_pure_column_support=True)
    g = code_blind_function(layered, 2, seed=2)
    # break g on one subset: same code class, different value
    broken = dict(sorted(g.terms.items()))
    some = next(iter(broken)) if broken else None
    if some is None:
        pytest.skip("empty support cannot be broken")
    broken[some] = broken[some] + 1
    g2 = SetFunction(layered.flat_size, 2, broken)
    with pytest.raises(HypothesisError):
        leading_product_check(f, g2, layered)


def test_shuffle_product_matches_hand_expansion():
    a = Word([1])
    assert shuffle_product({a: 1}, {a: 1}) == {Word([1, 1]): 2}
    ab = shuffle_product({Word([1]): 1}, {Word([2]): 1})
    assert ab == {Word([1, 2]): 1, Word([2, 1]): 1}


def test_shuffle_product_drops_cancelled_coefficients():
    one, two = Word([1]), Word([2])
    got = shuffle_product({one: 1, two: 1}, {one: 1, two: -1})
    # (1)(2) and (2)(1) each arise once with +1 and once with -1
    assert got == {Word([1, 1]): 2, Word([2, 2]): -2}
    assert 0 not in got.values()


def test_shuffle_product_lead_is_max_shuffle_of_leads():
    rng = random.Random(9)
    letters = (1, 2, 3)
    for _ in range(60):
        terms_f = {
            Word(rng.choice(letters) for _ in range(rng.randint(0, 4))): rng.choice((-2, -1, 1, 2))
            for _ in range(rng.randint(1, 3))
        }
        terms_g = {
            Word(rng.choice(letters) for _ in range(rng.randint(0, 4))): rng.choice((-2, -1, 1, 2))
            for _ in range(rng.randint(1, 3))
        }
        prod = shuffle_product(terms_f, terms_g)
        assert prod and 0 not in prod.values()
        assert lead_word(prod) == max_shuffle(lead_word(terms_f), lead_word(terms_g))


def test_final_segment_avoidance_is_preserved():
    f = {Word([1, 1]): 1}
    g = {Word([2]): 1, Word([1, 2]): 1}
    assert final_segment_ideal_check(lambda w: len(w) <= 1, f, g)


def test_final_segment_check_rejects_non_closed_predicates():
    f = {Word([1, 2]): 1}
    g = {Word([2]): 1}
    with pytest.raises(ValueError, match="closed under subwords"):
        final_segment_ideal_check(lambda w: 2 in w.letters, f, g)
