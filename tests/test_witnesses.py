"""Explicit annihilating pairs: gadgets, certificates, and the bookkeeping
steps that turn their transversals into degree bounds."""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from agealgebra import witnesses
from agealgebra.hitting import is_minimal_transversal, is_transversal, tau
from agealgebra.linalg import nullspace_basis
from agealgebra.setfuncs import (
    SetFunction,
    mult_matrix,
    product,
    product_by_splits,
    singleton_ones,
)
from agealgebra.subsets import Subset, ksubsets, members
from agealgebra.witnesses import (
    NotAZeroDivisorPairError,
    WitnessPair,
    gadget_full_support,
    gadget_lower,
    gadget_tau1n,
    lower_bound_formula,
    pair_index,
    search_best,
    tau_upper_bound,
    two_squares,
    verify,
)

from test_setfuncs import (
    full_product_by_splits,
    restrict,
    same_values,
    set_function_to_dict,
    sparse_sf,
    subset,
)


def certificate_to_dict(cert):
    return {
        "f": set_function_to_dict(cert.pair.f),
        "g": set_function_to_dict(cert.pair.g),
        "tau": cert.transversal.size,
        "tau_witness": members(cert.transversal.witness.mask),
    }


# Checkable set-system forms of the two auxiliary reduction arguments.

def discharging_check(pair, a, inner_tau):
    """From a transversal A of supp(f), build a transversal B of supp(g)
    adding at most inner_tau fresh elements, and re-check every step.

    Either A plus a least-overlap member of supp(f) already works, or the
    pair is contracted through one shared element and a transversal of the
    contracted supports is grafted on.
    """
    f, g = pair.f, pair.g
    if not is_transversal(a.mask, f.support().masks()):
        raise ValueError("A must be a transversal of supp(f)")
    p0 = min(f.coeffs, key=lambda p: ((p.mask & a.mask).bit_count(), p.mask))
    if is_transversal(a.mask | p0.mask, g.support().masks()):
        b = Subset(f.n, a.mask | p0.mask)
        case = "augment"
    else:
        shared = p0.mask & a.mask
        if not shared:
            raise AssertionError("transversal misses a support member")
        x0 = (shared & -shared).bit_length() - 1
        keep = (~a.mask & ((1 << f.n) - 1)) | (shared & ~(1 << x0))
        f_contract = SetFunction(
            f.n,
            f.degree - 1,
            {
                Subset(f.n, p.mask ^ (1 << x0)): v
                for p, v in f.coeffs.items()
                if p.mask >> x0 & 1 and (p.mask ^ (1 << x0)) & ~keep == 0
            },
        )
        g_window = restrict(g, Subset(f.n, keep))
        if f_contract.is_zero or g_window.is_zero:
            raise AssertionError("contracted pair degenerated")
        if not product(f_contract, g_window).is_zero:
            raise AssertionError("contracted pair is not a zero-divisor pair")
        sub = tau(f_contract.support().union(g_window.support()))
        if sub.size > inner_tau:
            raise AssertionError("contracted transversal exceeds the inner bound")
        b = Subset(f.n, a.mask | sub.witness.mask)
        case = "contract"
    if not is_transversal(b.mask, g.support().masks()):
        raise AssertionError("constructed B misses supp(g)")
    added = (b.mask & ~a.mask).bit_count()
    if added > max(f.degree - 1, inner_tau):
        raise AssertionError("B adds more elements than the bound allows")
    return {"case": case, "b": b, "added": added}


def max_disjoint_packing(sets):
    """Exact maximum number of pairwise disjoint members (small inputs)."""
    masks = sorted({s.mask for s in sets})

    def go(i, used):
        best = 0
        for j in range(i, len(masks)):
            if not masks[j] & used:
                best = max(best, 1 + go(j + 1, used | masks[j]))
        return best

    return go(0, 0)


def disjoint_family_check(pair, fan_out, inner_tau):
    """When the pair's transversality beats n + m*(fan_out-1) + inner_tau,
    every member of supp(g) must leave fan_out pairwise disjoint members
    of supp(f) untouched.  Raises if the hypothesis itself fails."""
    f, g = pair.f, pair.g
    t = tau(f.support().union(g.support())).size
    if not t > g.degree + f.degree * (fan_out - 1) + inner_tau:
        raise ValueError("transversality hypothesis not met")
    for member in g.coeffs:
        clear = [p for p in f.coeffs if not p.mask & member.mask]
        if max_disjoint_packing(clear) < fan_out:
            return False
    return True


def test_pair_index_layout():
    # column-major grid on two rows
    assert [pair_index(h, c) for c in range(3) for h in range(2)] == [0, 1, 2, 3, 4, 5]


def test_half_split_gadget_small_values():
    for n in (1, 2, 3, 4):
        pair = gadget_tau1n(n)
        cert = verify(pair)
        assert cert.transversal.size == 2 * n, n


def test_half_split_signs_alternate_by_low_picks():
    g = gadget_tau1n(2).g
    vals = [g.value(s) for s in sorted(g.coeffs, key=lambda s: s.mask)]
    assert vals == [1, -1, -1, 1]


def test_half_split_mate_lies_in_the_multiplication_kernel():
    for n in (1, 2, 3):
        pair = gadget_tau1n(n)
        op = mult_matrix(pair.f, n)
        cols = ksubsets(2 * n, n)
        vec = [pair.g.value(Subset(2 * n, s)) for s in cols]
        assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in op.matrix.nums)


def test_half_split_equations_survive_point_deletion():
    # dropping any point keeps the annihilation on the smaller window and
    # the remaining support needs strictly fewer points to hit
    n = 2
    pair = gadget_tau1n(n)
    l = 2 * n
    for x in range(l):
        w = Subset(l, ((1 << l) - 1) ^ (1 << x))
        fw = restrict(pair.f, w)
        gw = restrict(pair.g, w)
        assert product(fw, gw).is_zero
        assert not gw.is_zero
        thin = tau(fw.support().union(gw.support())).size
        assert thin == 2 * n - 1


def test_full_support_mate_touches_every_shape():
    from math import comb

    for n in range(1, 8):
        mate = gadget_full_support(n)
        assert len(mate.support().sets) == comb(2 * n, n)
        assert product(singleton_ones(2 * n), mate).is_zero


def test_full_support_mate_hand_values():
    # g(S) = 12 / prod_{y in S, t not in S} (t - y) on the points 0..3,
    # 12 being the lcm of the products 12, -3, 4, 4, -3, 12
    want = {(0, 1): 1, (0, 2): -4, (0, 3): 3, (1, 2): 3, (1, 3): -4, (2, 3): 1}
    mate = gadget_full_support(2)
    assert {tuple(members(s.mask)): v for s, v in mate.coeffs.items()} == want


def test_full_support_mate_lies_in_the_kernel_basis_span():
    # the kernel route the closed form replaced stays as the oracle
    from agealgebra.linalg import IntMatrix, rank

    for n in range(1, 6):
        basis = nullspace_basis(mult_matrix(singleton_ones(2 * n), n).matrix)
        mate = gadget_full_support(n)
        cols = ksubsets(2 * n, n)
        vec = [mate.value(Subset(2 * n, s)) for s in cols]
        with_mate = IntMatrix(basis + [vec], len(cols))
        assert rank(with_mate) == rank(IntMatrix(basis, len(cols))) == len(basis), n


def test_block_gadget_formula_small():
    for m, n in ((1, 1), (1, 2), (2, 2)):
        pair = gadget_lower(m, n)
        cert = verify(pair)
        assert cert.transversal.size == lower_bound_formula(m, n), (m, n)


def test_lower_bound_formula_values():
    assert lower_bound_formula(1, 1) == 2
    assert lower_bound_formula(1, 3) == 6
    assert lower_bound_formula(2, 2) == 7
    assert lower_bound_formula(3, 3) == 14


def test_two_squares_certificate():
    pair = two_squares()
    prod = product_by_splits(pair.f, pair.g)
    assert prod.is_zero
    assert len(ksubsets(8, 4)) == 70
    cert = verify(pair)
    assert cert.transversal.size == 7
    masks = pair.f.support().union(pair.g.support()).masks()
    for x in range(8):
        co = ((1 << 8) - 1) ^ (1 << x)
        assert is_minimal_transversal(co, masks)


def test_verify_rejects_non_annihilating_pair():
    e = singleton_ones(3)
    with pytest.raises(NotAZeroDivisorPairError) as exc:
        verify(WitnessPair(e, e))
    assert exc.value.value == 2
    assert exc.value.offending.bit_count() == 2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_verify_reports_the_oracles_colex_least_offender(data):
    l = data.draw(st.integers(2, 6))
    dm = data.draw(st.integers(1, l - 1))
    dn = data.draw(st.integers(1, l - dm))
    f = sparse_sf(data.draw, l, dm)
    g = sparse_sf(data.draw, l, dn)
    assume(not f.is_zero and not g.is_zero)
    prod = full_product_by_splits(f, g)
    assume(prod)
    with pytest.raises(NotAZeroDivisorPairError) as exc:
        verify(WitnessPair(f, g))
    first = min(prod, key=lambda s: s.mask)
    assert exc.value.offending == first.mask
    assert exc.value.value == prod[first]


def filtered_gadget_lower(m, n):
    """The block gadget with f filtered out of all m-subsets of the ground."""
    ground = 2 * n * m
    block_masks = [((1 << (2 * n)) - 1) << (2 * n * i) for i in range(m)]
    f = {Subset(ground, a): 1 for a in ksubsets(ground, m) if all(a & bm for bm in block_masks)}
    inner = witnesses.gadget_full_support(n)
    g = {
        Subset(ground, s.mask << (2 * n * i)): v
        for i in range(m)
        for s, v in inner.coeffs.items()
    }
    return WitnessPair(SetFunction(ground, m, f), SetFunction(ground, n, g))


def test_gadget_lower_matches_the_filter_construction():
    for m, n in [(m, n) for m in range(1, 7) for n in range(1, 7) if 2 * m * n <= 12]:
        got, want = gadget_lower(m, n), filtered_gadget_lower(m, n)
        assert got.f == want.f and same_values(got.f, want.f.coeffs), (m, n)
        assert got.g == want.g and same_values(got.g, want.g.coeffs), (m, n)


def test_certificate_json_is_canonical():
    import json

    cert = verify(gadget_tau1n(2))
    blob = json.dumps(certificate_to_dict(cert), sort_keys=True, separators=(",", ":"))
    assert json.dumps(json.loads(blob), sort_keys=True, separators=(",", ":")) == blob


def test_search_is_deterministic_and_beats_nothing_at_tiny_grounds():
    a = search_best(1, 2, 4, strategy="all", seed=9)
    b = search_best(1, 2, 4, strategy="all", seed=9)
    assert a is not None and b is not None
    assert certificate_to_dict(a) == certificate_to_dict(b)
    assert a.transversal.size == 4


def test_search_random_strategy_finds_pairs_on_odd_grounds():
    cert = search_best(1, 2, 5, strategy="random", seed=3)
    if cert is not None:
        assert product(cert.pair.f, cert.pair.g).is_zero


def test_bound_expressions_frozen():
    assert tau_upper_bound(0, 9) == ("0", 0)
    assert tau_upper_bound(1, 0) == ("0", 0)
    assert tau_upper_bound(1, 1)[0] == "R^1_{5^4}(2)"
    assert tau_upper_bound(1, 2)[0] == "R^2_{5^10}(3) + 1"
    assert tau_upper_bound(1, 7) == ("R^7_{5^3446}(8) + 6", 14)
    assert tau_upper_bound(2, 2)[0] == "2*(R^2_{5^30}(4) + 2)"
    assert tau_upper_bound(3, 3)[0] == "3*R^3_{5^440}(6) + 2*R^3_{5^120}(5) + 7"
    assert tau_upper_bound(4, 4)[0] == (
        "4*R^4_{5^9690}(8) + 3*R^4_{5^2380}(7) + 2*R^4_{5^561}(6) + 11"
    )
    assert tau_upper_bound(2, 5)[0] == tau_upper_bound(5, 2)[0] == "2*R^5_{5^3108}(7) + 13"
    assert tau_upper_bound(6, 3)[0] == "3*R^6_{5^136620}(9) + 2*R^6_{5^18717}(8) + 19"


def test_bound_exact_values_when_known():
    assert tau_upper_bound(0, 5)[1] == 0
    assert tau_upper_bound(1, 4)[1] == 8
    assert tau_upper_bound(4, 1)[1] == 8  # symmetric in the degrees
    assert tau_upper_bound(2, 3)[1] is None


def test_bound_symmetry_via_swap():
    assert tau_upper_bound(3, 2) == tau_upper_bound(2, 3)


def test_max_disjoint_packing_hand_cases():
    sets = [subset(6, ix) for ix in ([0, 1], [1, 2], [3, 4], [4, 5], [2, 5])]
    assert max_disjoint_packing(sets) == 3  # {0,1}, {3,4}, {2,5}
    chain = [subset(4, ix) for ix in ([0, 1], [1, 2], [2, 3])]
    assert max_disjoint_packing(chain) == 2


def test_discharging_builds_cheap_transversal_of_the_mate():
    n = 2
    pair = gadget_tau1n(n)
    # A = the low half: hits every support member of f (all singletons? no,
    # f is degree 1 so any point of each singleton) -- use a real transversal
    a = subset(4, [0, 1, 2, 3])
    out = discharging_check(pair, a, inner_tau=0)
    assert out["case"] == "augment"
    assert out["added"] == 0


def test_discharging_on_two_squares_minimum_transversal():
    pair = two_squares()
    # covering both squares' sides and diagonals takes six points; the
    # harness must finish the job for the cross pairs within the allowance
    a = tau(pair.f.support()).witness
    assert a.mask.bit_count() == 6
    out = discharging_check(pair, a, inner_tau=4)
    assert out["case"] in ("augment", "contract")
    assert is_transversal(out["b"].mask, pair.g.support().masks())
    assert out["added"] <= max(pair.f.degree - 1, 4)


def test_disjoint_family_fan_out_tight_for_half_split():
    n = 3
    pair = gadget_tau1n(n)
    # tau = 2n = 6 > n + 1*(fan_out - 1) + 0 demands fan_out <= n
    assert disjoint_family_check(pair, fan_out=n, inner_tau=0)
    with pytest.raises(ValueError):
        disjoint_family_check(pair, fan_out=2 * n + 1, inner_tau=0)


def test_ground_cap_enforced():
    with pytest.raises(ValueError):
        gadget_lower(6, 6)  # 72 grid points exceed the bit-mask ground cap
