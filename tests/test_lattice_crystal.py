"""Crystal structure on finitely supported integer sequences."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from polyreal import (
    LatticeElement,
    enumerate_image,
    epsilon,
    etilde,
    format_element,
    ftilde,
    phi,
    sigma,
    weight_coeffs,
    weight_pairing,
)
from conftest import make_seq


def e(*indices):
    counts = {}
    for j in indices:
        counts[j] = counts.get(j, 0) + 1
    return LatticeElement(counts)


class TestLatticeElement:
    def test_zero_entries_dropped(self):
        a = LatticeElement({1: 0, 2: 5, 3: 0})
        assert a.items() == ((2, 5),)
        assert a.support() == (2,)

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            LatticeElement({0: 1})
        with pytest.raises(ValueError):
            LatticeElement({-3: 1})

    def test_zero(self):
        z = LatticeElement.zero()
        assert z.is_zero() and z.max_index() == 0 and z.total() == 0

    def test_bump(self):
        a = e(1).bump(1, 1).bump(4, -2)
        assert a.items() == ((1, 2), (4, -2))
        assert a.bump(4, 2).items() == ((1, 2),)
        assert a.bump(4, 2) == e(1, 1) and hash(a.bump(4, 2)) == hash(e(1, 1))
        with pytest.raises(ValueError):
            a.bump(0, 1)

    def test_repeated_positions_summed(self):
        # as LinearForm sums repeated terms; a zero value no longer hides the
        # value before it, and a sum of 0 drops the position
        assert LatticeElement([(1, 3), (1, 2)]) == LatticeElement({1: 5})
        assert LatticeElement([(1, 3), (1, 0)]) == LatticeElement({1: 3})
        assert LatticeElement([(1, 3), (2, 1), (1, -3)]).items() == ((2, 1),)
        assert LatticeElement.from_json([[2, 1], [2, 1]]) == LatticeElement({2: 2})

    def test_items_sorted(self):
        a = LatticeElement([(7, 1), (2, 3), (5, -1)])
        assert a.items() == ((2, 3), (5, -1), (7, 1))

    def test_json_round_trip(self):
        a = e(1, 1, 3)
        assert LatticeElement.from_json(a.to_json()) == a
        assert a.to_json() == [[1, 2], [3, 1]]

    def test_equality_hash(self):
        assert e(2, 2) == LatticeElement({2: 2})
        assert len({e(1), LatticeElement([(1, 1)])}) == 1


class TestOperatorsA1Rank2:
    """Word [1, 2]: position 1 has color 1, position 2 has color 2, and so on."""

    def test_ftilde_from_zero(self, a1_n2):
        zero = LatticeElement.zero()
        assert ftilde(a1_n2, zero, 1) == e(1)
        assert ftilde(a1_n2, zero, 2) == e(2)

    def test_ftilde_twice_same_color(self, a1_n2):
        assert ftilde(a1_n2, e(1), 1) == e(1, 1)
        assert ftilde(a1_n2, e(2), 2) == e(2, 2)

    def test_ftilde_mixed(self, a1_n2):
        assert ftilde(a1_n2, e(1), 2) == e(1, 2)
        assert ftilde(a1_n2, e(2), 1) == e(2, 3)

    def test_depth_two_image(self, a1_n2):
        got = enumerate_image(a1_n2, 2)
        want = {
            LatticeElement.zero(),
            e(1),
            e(2),
            e(1, 1),
            e(2, 2),
            e(1, 2),
            e(2, 3),
        }
        assert got == want

    def test_etilde_inverts(self, a1_n2):
        a = e(1, 2)
        assert etilde(a1_n2, a, 2) == e(1)
        assert etilde(a1_n2, e(1), 1) == LatticeElement.zero()

    def test_etilde_undefined_at_zero(self, a1_n2):
        zero = LatticeElement.zero()
        assert etilde(a1_n2, zero, 1) is None
        assert etilde(a1_n2, zero, 2) is None

    def test_epsilon_phi_golden(self, a1_n2):
        a = e(1, 2)
        assert epsilon(a1_n2, a, 1) == 0
        assert phi(a1_n2, a, 1) == 0
        assert epsilon(a1_n2, a, 2) == 1


class TestWeights:
    def test_weight_coeffs_zero(self, a1_n3):
        assert weight_coeffs(a1_n3, LatticeElement.zero()) == {1: 0, 2: 0, 3: 0}

    def test_weight_coeffs_counts_colors(self, a1_n3):
        a = e(1, 2, 2, 5)
        assert weight_coeffs(a1_n3, a) == {1: 3, 2: 1, 3: 0}

    def test_weight_pairing_cartan(self, a1_n2):
        a = e(1)
        assert weight_pairing(a1_n2, a, 1) == -2
        assert weight_pairing(a1_n2, a, 2) == 2

    def test_phi_formula(self, a2_n3):
        a = e(1, 3, 4)
        for i in a2_n3.root_system.index_set:
            assert phi(a2_n3, a, i) == weight_pairing(a2_n3, a, i) + epsilon(a2_n3, a, i)


class TestSigma:
    def test_sigma_at_zero(self, a1_n3):
        zero = LatticeElement.zero()
        for j in range(1, 8):
            assert sigma(a1_n3, zero, j) == 0

    def test_sigma_single_entry(self, a1_n3):
        a = e(1)
        assert sigma(a1_n3, a, 1) == 1
        assert sigma(a1_n3, a, 4) == 0

    def test_epsilon_is_max_sigma(self):
        # epsilon_i is the largest sigma over i-colored positions (at least
        # 0); ftilde_i acts at the first position reaching it, etilde_i at
        # the last one in the support
        for family in ("A1", "C1", "A2", "D2"):
            seq = make_seq(family, 3)
            elements = sorted(enumerate_image(seq, 4), key=LatticeElement.items) + [e(1, 2, 4)]
            for a in elements:
                for i in seq.root_system.index_set:
                    colored = [j for j in range(1, a.max_index() + 1) if seq.color_of(j) == i]
                    eps = max([0] + [sigma(seq, a, j) for j in colored])
                    first = next(
                        j
                        for j in itertools.count(1)
                        if seq.color_of(j) == i and sigma(seq, a, j) == eps
                    )
                    reached = [j for j in colored if sigma(seq, a, j) == eps]
                    assert epsilon(seq, a, i) == eps, (family, a, i)
                    assert ftilde(seq, a, i) == a.bump(first, 1), (family, a, i)
                    expected = a.bump(reached[-1], -1) if eps else None
                    assert etilde(seq, a, i) == expected, (family, a, i)


class TestEnumeration:
    def test_counts_a1_n2(self, a1_n2):
        assert len(enumerate_image(a1_n2, 0)) == 1
        assert len(enumerate_image(a1_n2, 1)) == 3
        assert len(enumerate_image(a1_n2, 2)) == 7

    def test_counts_a1_n3(self, a1_n3):
        assert len(enumerate_image(a1_n3, 1)) == 4

    def test_monotone_in_depth(self, a2_n3):
        small = enumerate_image(a2_n3, 2)
        large = enumerate_image(a2_n3, 3)
        assert small <= large

    def test_totals_bounded_by_depth(self, c1_n3):
        for a in enumerate_image(c1_n3, 3):
            assert 0 <= a.total() <= 3


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3]), max_size=5))
def test_kashiwara_relations_random_paths(ops):
    seq = make_seq("D2", 3)
    a = LatticeElement.zero()
    for i in ops:
        a = ftilde(seq, a, i)
    for i in seq.root_system.index_set:
        b = ftilde(seq, a, i)
        assert etilde(seq, b, i) == a
        assert epsilon(seq, b, i) == epsilon(seq, a, i) + 1
        assert phi(seq, b, i) == phi(seq, a, i) - 1
        assert b.total() == a.total() + 1


class TestFormat:
    def test_zero(self, a1_n3):
        assert format_element(a1_n3, LatticeElement.zero()) == "0"

    def test_coordinates(self, a1_n3):
        a = e(1, 1, 2)
        assert format_element(a1_n3, a) == "a[1]=a[1,2]=2  a[2]=a[1,1]=1"
