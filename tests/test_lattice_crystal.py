"""Crystal structure on finitely supported integer sequences."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from polyreal import (
    LatticeElement,
    RootDataError,
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
from polyreal.cli import default_word
from polyreal import lattice_crystal
from polyreal.forms import beta_pair, evaluate
from polyreal.lattice_crystal import _reach
from polyreal.root_data import AlgebraType, build_root_system, index_to_pair, reachable
from conftest import (
    NOT_ADAPTED,
    UncheckedAlternation,
    adapted_words,
    make_seq,
    permutation_seqs,
    shift_one_neighbour,
)


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

    def test_fractional_input_rejected(self):
        for entries in ({1: 1.5}, {1.9: 1}, [(2, 0.5)]):
            with pytest.raises(ValueError):
                LatticeElement(entries)
        with pytest.raises(ValueError):
            LatticeElement.from_json([[1, 2.5]])
        assert LatticeElement({2.0: 3.0}) == LatticeElement({2: 3})
        assert LatticeElement.from_json([[2.0, 3.0]]) == LatticeElement({2: 3})

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
        b = LatticeElement({2: 1, 5: 3, 9: -1})
        cases = [
            (b.bump(7, 2), {2: 1, 5: 3, 7: 2, 9: -1}),  # new position between two
            (b.bump(5, -3), {2: 1, 9: -1}),  # zeroes a middle entry
            (b.bump(4, 0), {2: 1, 5: 3, 9: -1}),  # zero delta at an absent position
        ]
        for got, entries in cases:
            fresh = LatticeElement(entries)
            assert got.items() == fresh.items()
            assert got == fresh and hash(got) == hash(fresh)

    def test_bump_rejects_fractional_input(self):
        # as __init__ does: nothing is truncated and no fractional position is made
        a = LatticeElement({1: 1, 2: 1})
        for j, delta in ((1, 1.5), (1.5, 1), (3, 0.5)):
            with pytest.raises(ValueError, match="expected an integer"):
                a.bump(j, delta)
        assert a.bump(2.0, 1.0) == a.bump(2, 1) == LatticeElement({1: 1, 2: 2})

    def test_get_rejects_non_integral_positions(self):
        # a position no entry can hold is an error, not a 0
        a = LatticeElement({1: 1, 2: 4})
        for j in (1.5, "2", None):
            with pytest.raises(RootDataError, match="expected an integer"):
                a.get(j)
        with pytest.raises(RootDataError):
            LatticeElement.zero().get(1.5)
        assert (a.get(2.0), a.get(2), a.get(3.0), a.get(3)) == (4, 4, 0, 0)

    def test_get_rejects_positions_below_one(self):
        # as bump rejects them: no entry can sit below position 1
        a = LatticeElement({1: 2})
        for j in (0, -3, 0.0):
            with pytest.raises(RootDataError, match="position must be >= 1"):
                a.get(j)
        with pytest.raises(ValueError, match="position must be >= 1"):
            a.bump(0, 1)
        assert (a.get(1), a.get(2)) == (2, 0)

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
        # the last one in the support.  Negative entries put the maximum
        # inside a gap, tie it across gaps or leave it in the gap above the
        # support.
        seqs = [make_seq(family, n) for family in ("A1", "C1", "A2", "D2") for n in (3, 4)]
        seqs += [make_seq(family, 4, [1, 2, 3, 4]) for family in ("A1", "C1", "A2", "D2")]
        seqs.append(make_seq("C1", 3, [2, 1, 3, 2, 3, 1]))
        for seq in seqs:
            family = seq.root_system.algebra.family
            image = sorted(enumerate_image(seq, 4), key=LatticeElement.items)
            elements = image + [e(1, 2, 4)]
            elements += [a.bump(j, d) for a in image for j in (1, 2, 5) for d in (-1, 2)]
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.dictionaries(st.integers(1, 12), st.integers(-3, 3), max_size=6),
    st.integers(1, 14),
    st.integers(-3, 3),
)
def test_bumped_matches_a_fresh_element(entries, j, delta):
    # the key kernel against __init__'s sort of the edited entries
    key = LatticeElement(entries).items()
    edited = dict(key)
    edited[j] = edited.get(j, 0) + delta
    fresh = LatticeElement(edited)
    assert lattice_crystal._bumped(key, j, delta) == fresh.items()
    assert lattice_crystal._element(fresh.items()) == fresh


class TestColorOutsideIndexSet:
    """The public operators reject a color outside the index set, and sigma a
    position that is not a positive integer, with a RootDataError."""

    @pytest.mark.parametrize(
        "op, arg",
        [
            (epsilon, 4),
            (ftilde, 0),
            (etilde, 1.5),
            (phi, 9),
            (weight_pairing, 9),
            (weight_pairing, 0),
            (sigma, 1.5),
            (sigma, 0),
        ],
    )
    def test_typed_error(self, a1_n3, op, arg):
        with pytest.raises(RootDataError) as info:
            op(a1_n3, e(1, 2), arg)
        assert "\n" not in str(info.value)


class TestOneSweep:
    """check_crystal_axioms reads each operator value off one `_reach` sweep,
    so the public operators must be exactly those views of it."""

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_operators_are_views_of_one_sweep(self, family):
        seq = make_seq(family, 3)
        for a in enumerate_image(seq, 4):
            ca = weight_coeffs(seq, a)
            for i in seq.root_system.index_set:
                eps, first, last = _reach(seq, a.items(), i)
                assert epsilon(seq, a, i) == eps
                pairing = -sum(seq.root_system.a(i, l) * c for l, c in ca.items())
                assert phi(seq, a, i) == pairing + eps
                assert ftilde(seq, a, i) == a.bump(first, 1)
                assert etilde(seq, a, i) == (a.bump(last, -1) if eps else None)


def a1_counts(n, depth):
    """q^h coefficients, h <= depth, of prod_h (1 - q^h)^(-N(h)), N(h) = n - 1 if n | h else n.

    This is the principally graded character of U_q^- of affine A_{n-1}: n
    positive real roots at each height not divisible by n, and the imaginary
    root of multiplicity n - 1 at each multiple of n.
    """
    c = [1] + [0] * depth
    for h in range(1, depth + 1):
        for _ in range(n - 1 if h % n == 0 else n):
            for t in range(h, depth + 1):
                c[t] += c[t - h]
    return c


def image_by_search(seq, depth):
    """The reference enumeration: a breadth-first search that lowers every
    element at every color and drops the repeats."""
    index_set = seq.root_system.index_set
    return reachable(
        {LatticeElement.zero()}, lambda a: [ftilde(seq, a, i) for i in index_set], depth
    )


def permutation_words(n):
    return [list(w) for w in itertools.permutations(range(1, n + 1))]


# Elements of each total, the graded dimensions of U_q^- at heights 0..depth,
# as (n, depth): counts; each is the same for every adapted word.
FAMILY_COUNTS = {
    "C1": {(3, 6): [1, 3, 8, 19, 41, 83, 161], (4, 5): [1, 4, 13, 36, 90, 208]},
    "A2": {(3, 6): [1, 3, 8, 19, 41, 82, 158], (4, 5): [1, 4, 13, 36, 90, 208]},
    "D2": {(3, 6): [1, 3, 8, 19, 41, 83, 161], (4, 5): [1, 4, 13, 36, 90, 208]},
}


class TestEnumeration:
    @pytest.mark.parametrize("n, depth", [(2, 7), (3, 7), (4, 6), (5, 6)])
    def test_a1_counts_by_total(self, n, depth):
        # every element of total h is h lowering steps from 0, so the image
        # to depth d holds all of B(infinity) up to height d
        for word in (list(range(1, n + 1)), default_word(n)):
            seq = make_seq("A1", n, word)
            totals = Counter(a.total() for a in enumerate_image(seq, depth))
            assert [totals[h] for h in range(depth + 1)] == a1_counts(n, depth), word

    @pytest.mark.parametrize(
        "family, n, depth", [(f, n, d) for f in FAMILY_COUNTS for (n, d) in FAMILY_COUNTS[f]]
    )
    def test_counts_by_total(self, family, n, depth):
        for word in permutation_words(n):
            totals = Counter(a.total() for a in enumerate_image(make_seq(family, n, word), depth))
            assert [totals[h] for h in range(depth + 1)] == FAMILY_COUNTS[family][n, depth], word

    def test_a1_counts_golden(self):
        assert a1_counts(3, 7) == [1, 3, 9, 21, 48, 99, 198, 375]

    @pytest.mark.parametrize("bound", [0, -1])
    def test_no_steps_gives_zero(self, a2_n3, bound):
        assert enumerate_image(a2_n3, bound) == {LatticeElement.zero()}

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


class TestCanonicalParentWalk:
    """enumerate_image makes each element once, from the parent that raising
    at the color of its largest index gives; the breadth-first search over
    every color is the reference."""

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    @pytest.mark.parametrize("n, depth", [(3, 6), (4, 5)])
    def test_permutation_words_match_search(self, family, n, depth):
        for word in permutation_words(n):
            seq = make_seq(family, n, word)
            assert enumerate_image(seq, depth) == image_by_search(seq, depth), word

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_rank_five_matches_search(self, family):
        # at n = 5 every top color has colors that are not its neighbours;
        # past the top entry their sum stays 0, so their early exit stops at
        # the first i-position below it
        seq = make_seq(family, 5, [1, 2, 3, 4, 5])
        assert enumerate_image(seq, 5) == image_by_search(seq, 5)

    def test_length_six_words_match_search(self):
        # A1 at n = 3 has none: its three colors are pairwise neighbors
        words = [(f, w) for f in ("A1", "C1", "A2", "D2") for w in adapted_words(f, 3, 6)]
        assert len(words) == 18
        for family, word in words:
            seq = make_seq(family, 3, word)
            assert enumerate_image(seq, 6) == image_by_search(seq, 6), (family, word)

    @pytest.mark.parametrize("word", [[1, 2], [2, 1]])
    def test_a1_rank_two_matches_search(self, word):
        # off-diagonal Cartan entries of -2
        seq = make_seq("A1", 2, word)
        assert seq.root_system.a(1, 2) == -2
        assert enumerate_image(seq, 7) == image_by_search(seq, 7)

    @pytest.mark.parametrize("depth", [-1, 0])
    def test_no_steps_match_search(self, a1_n3, depth):
        assert enumerate_image(a1_n3, depth) == image_by_search(a1_n3, depth)

    def test_each_element_made_once(self, d2_n3, monkeypatch):
        made = []
        element = lattice_crystal._element

        def recorded(key):
            made.append(element(key))
            return made[-1]

        monkeypatch.setattr(lattice_crystal, "_element", recorded)
        image = enumerate_image(d2_n3, 6)
        assert len(made) == len(set(made)) == len(image) - 1
        assert set(made) == image - {LatticeElement.zero()}

    def test_one_full_sweep_per_element(self, monkeypatch):
        # only the color of the largest index takes `_reach`; every other
        # color is answered by the early exit, so n sweeps per element fail
        calls = []
        reach = lattice_crystal._reach

        def counted(seq, key, i):
            calls.append(key)
            return reach(seq, key, i)

        monkeypatch.setattr(lattice_crystal, "_reach", counted)
        image = enumerate_image(make_seq("A1", 4), 6)
        assert sorted(calls) == sorted(a.items() for a in image if a.total() < 6)


@settings(max_examples=40, deadline=None, derandomize=True)
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


def beta_sigma_failures(seq):
    """(comparisons, failures) of beta_j(a) = sigma_j(a) - sigma_{j+}(a), with
    j+ the next position of j's color and beta_j built by beta_pair at j's
    double index, for every a of the image of depth 4 and every j up to
    max(max_index(a), L) + L."""
    checked = failed = 0
    for a in enumerate_image(seq, 4):
        for j in range(1, max(a.max_index(), seq.L) + seq.L + 1):
            jplus = j + 1
            while seq.color_of(jplus) != seq.color_of(j):
                jplus += 1
            beta = beta_pair(seq, *index_to_pair(seq, j))
            checked += 1
            failed += evaluate(seq, beta, a) != sigma(seq, a, j) - sigma(seq, a, jplus)
    return checked, failed


class TestBetaSigmaIdentity:
    """beta_j(a) = sigma_j(a) - sigma_{j+}(a) exactly, at every element of the
    image of depth 4 and every position up to one word past its support;
    check_sigma_difference samples 100 of these comparisons."""

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_holds_on_the_word_one_to_n(self, family, n):
        checked, failed = beta_sigma_failures(make_seq(family, n, list(range(1, n + 1))))
        assert checked >= 500 and failed == 0

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_holds_on_every_n3_permutation_word(self, family):
        for seq in permutation_seqs(family, 3):
            checked, failed = beta_sigma_failures(seq)
            assert checked > 0 and failed == 0, seq.word

    @pytest.mark.parametrize("family", ["A1", "C1"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_fails_with_a_shifted_neighbour(self, family, n, monkeypatch):
        seq = make_seq(family, n, list(range(1, n + 1)))
        shift_one_neighbour(monkeypatch, seq)
        _, failed = beta_sigma_failures(seq)
        assert failed > 0

    @pytest.mark.parametrize(
        "family,n,word",
        NOT_ADAPTED,
        ids=[f"{f}-{','.join(map(str, w))}" for f, _, w in NOT_ADAPTED],
    )
    def test_fails_on_words_that_do_not_alternate(self, family, n, word):
        seq = UncheckedAlternation(build_root_system(AlgebraType(family, n)), word)
        _, failed = beta_sigma_failures(seq)
        assert failed > 0


class TestFormat:
    def test_zero(self, a1_n3):
        assert format_element(a1_n3, LatticeElement.zero()) == "0"

    def test_coordinates(self, a1_n3):
        a = e(1, 1, 2)
        assert format_element(a1_n3, a) == "a[1]=a[1,2]=2  a[2]=a[1,1]=1"
