"""Root data: algebra types, Cartan matrices, folds, adaptedness, p and P tables."""

from collections import Counter
from itertools import product
from operator import ne

import pytest
from hypothesis import given, settings, strategies as st

from polyreal import (
    AlgebraType,
    NotAdaptedError,
    RootDataError,
    RootSystem,
    build_adapted,
    build_root_system,
    fold,
    index_to_pair,
    p_table,
    pair_to_index,
)
from polyreal import enumerate_image, weight_coeffs
from polyreal.root_data import (
    MAX_RANK,
    MIN_RANK,
    check_family,
    fold_table,
    reachable,
    weight_counts,
)
from conftest import make_seq


class TestAlgebraType:
    def test_valid(self):
        for fam, n in [("A1", 2), ("A1", 5), ("C1", 3), ("A2", 3), ("D2", 4)]:
            t = AlgebraType(fam, n)
            assert t.family == fam and t.n == n

    def test_bad_family(self):
        with pytest.raises(RootDataError):
            AlgebraType("B1", 3)

    def test_rank_too_small(self):
        with pytest.raises(RootDataError):
            AlgebraType("A1", 1)
        for fam in ("C1", "A2", "D2"):
            with pytest.raises(RootDataError):
                AlgebraType(fam, 2)

    def test_json_round_trip(self):
        t = AlgebraType("A2", 4)
        assert AlgebraType.from_json(t.to_json()) == t

    def test_fractional_rank_rejected(self):
        with pytest.raises(RootDataError):
            AlgebraType("A1", 3.5)
        with pytest.raises(RootDataError):
            AlgebraType("A1", None)
        with pytest.raises(RootDataError):
            AlgebraType.from_json({"family": "A1", "n": 3.7})

    def test_rank_above_the_largest_rejected(self):
        # refused before anything of size n is built
        for fam in ("A1", "C1", "A2", "D2"):
            assert AlgebraType(fam, MAX_RANK).n == MAX_RANK
            with pytest.raises(RootDataError, match=f"needs n <= {MAX_RANK}"):
                AlgebraType(fam, MAX_RANK + 1)

    def test_integral_float_rank_accepted(self):
        t = AlgebraType("A1", 3.0)
        assert t == AlgebraType("A1", 3) and type(t.n) is int
        assert build_root_system(t) == build_root_system(AlgebraType("A1", 3))

    def test_value_semantics(self):
        # immutable, compared and hashed by value
        t = AlgebraType("C1", 4)
        assert t == AlgebraType("C1", 4.0) and hash(t) == hash(AlgebraType("C1", 4))
        assert t != AlgebraType("C1", 5) and t != AlgebraType("D2", 4)
        assert len({t, AlgebraType("C1", 4), AlgebraType("D2", 4)}) == 2
        for name in ("family", "n", "other"):
            with pytest.raises(AttributeError):
                setattr(t, name, 3)
        assert repr(t) == "AlgebraType(family='C1', n=4)"


class TestRootSystem:
    def test_value_semantics(self):
        # immutable, compared and hashed by algebra and neighbors
        rs, same = (build_root_system(AlgebraType("A2", 4)) for _ in range(2))
        assert rs is not same and rs == same and hash(rs) == hash(same)
        assert RootSystem(rs.algebra, rs.neighbors) == rs
        assert rs != build_root_system(AlgebraType("D2", 4)) and rs != rs.neighbors
        assert len({rs, same, build_root_system(AlgebraType("A2", 5))}) == 2
        for name in ("algebra", "neighbors", "index_set", "other"):
            with pytest.raises(AttributeError):
                setattr(rs, name, None)
        with pytest.raises(AttributeError):
            del rs.algebra
        assert repr(build_root_system(AlgebraType("A1", 2))) == (
            "RootSystem(algebra=AlgebraType(family='A1', n=2), neighbors=(((2, -2),), ((1, -2),)))"
        )

    def test_index_set_kept_once(self):
        rs = build_root_system(AlgebraType("C1", 5))
        assert rs.index_set == (1, 2, 3, 4, 5) and rs.index_set is rs.index_set


class TestReachable:
    def test_rounds_grow_the_set_in_place(self):
        seen = {0}
        assert reachable(seen, lambda a: (a + 1, a + 3), 2) is seen
        assert seen == {0, 1, 2, 3, 4, 6}

    @pytest.mark.parametrize("depth", [0, -1])
    def test_no_rounds(self, depth):
        assert reachable({5, 7}, lambda a: (a + 1,), depth) == {5, 7}

    def test_each_round_steps_from_the_last_one_only(self):
        stepped = []

        def step(a):
            stepped.append(a)
            return ((a + 1) % 3,)

        assert reachable({0}, step, 5) == {0, 1, 2}
        assert stepped == [0, 1, 2]

    def test_successor_joins_as_it_is_yielded(self):
        # a step that reads the set sees the successors it yielded before
        seen = {0}
        looked = []

        def step(a):
            for b in (1, 2, 1):
                looked.append(b in seen)
                yield b

        reachable(seen, step, 1)
        assert looked == [False, False, True]


class TestCartan:
    def test_a1_rank2_doubled(self):
        rs = build_root_system(AlgebraType("A1", 2))
        assert rs.a(1, 2) == -2 and rs.a(2, 1) == -2
        assert rs.a(1, 1) == 2 and rs.a(2, 2) == 2

    def test_a1_cycle(self):
        rs = build_root_system(AlgebraType("A1", 4))
        assert rs.a(1, 2) == rs.a(2, 1) == -1
        assert rs.a(1, 4) == rs.a(4, 1) == -1
        assert rs.a(1, 3) == 0

    def test_c1_ends(self):
        rs = build_root_system(AlgebraType("C1", 3))
        assert (rs.a(1, 2), rs.a(2, 1)) == (-1, -2)
        assert (rs.a(2, 3), rs.a(3, 2)) == (-2, -1)

    def test_a2_ends(self):
        rs = build_root_system(AlgebraType("A2", 3))
        assert (rs.a(1, 2), rs.a(2, 1)) == (-1, -2)
        assert (rs.a(2, 3), rs.a(3, 2)) == (-1, -2)

    def test_d2_ends(self):
        rs = build_root_system(AlgebraType("D2", 3))
        assert (rs.a(1, 2), rs.a(2, 1)) == (-2, -1)
        assert (rs.a(2, 3), rs.a(3, 2)) == (-1, -2)

    def test_chain_interior(self):
        rs = build_root_system(AlgebraType("C1", 4))
        assert rs.a(2, 3) == rs.a(3, 2) == -1
        assert rs.a(1, 3) == 0

    def test_neighbor_pairs(self):
        rs = build_root_system(AlgebraType("A1", 3))
        assert set(rs.neighbor_pairs()) == {(1, 2), (1, 3), (2, 3)}
        rs = build_root_system(AlgebraType("A2", 3))
        assert set(rs.neighbor_pairs()) == {(1, 2), (2, 3)}

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_edges_are_the_dense_matrix(self, family):
        # every entry, row and neighbor pair read off the Dynkin edges
        # equals the dense Cartan matrix built entry by entry
        for n in range(max(2, MIN_RANK[family]), 8):
            rs = build_root_system(AlgebraType(family, n))
            dense = reference_cartan(family, n)
            assert [[rs.a(i, j) for j in rs.index_set] for i in rs.index_set] == dense
            assert [rs.row(i) for i in rs.index_set] == dense
            pairs = [(i, j) for i, j in product(rs.index_set, repeat=2) if i < j and rs.a(i, j)]
            assert rs.neighbor_pairs() == pairs

    @pytest.mark.parametrize(
        "i,j",
        [(0, 1), (1, 0), (4, 1), (1, 4), (1.5, 1), (1, 1.5), (-2, 1), ("1", 1), (None, 1)],
    )
    def test_entry_reads_only_colors(self, i, j):
        # a(0, 1) would wrap to a_{3,1} in a dense read, a(4, 1) overrun it
        # and a(1.5, 1) fail to index it
        rs = build_root_system(AlgebraType("A1", 3))
        with pytest.raises(RootDataError, match="needs colors in 1..3"):
            rs.a(i, j)
        if j == 1:
            with pytest.raises(RootDataError, match="not in index set 1..3"):
                rs.row(i)


def reference_cartan(family, n):
    """The n x n Cartan matrix of a family, entry by entry."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if family == "A1":
        if n == 2:
            a[0][1] = a[1][0] = -2
        else:
            a[0][n - 1] = a[n - 1][0] = -1
        return a
    ends = {"C1": (-1, -2, -2, -1), "A2": (-1, -2, -1, -2), "D2": (-2, -1, -1, -2)}[family]
    a[0][1], a[1][0], a[n - 2][n - 1], a[n - 1][n - 2] = ends
    return a


WEIGHT_COUNT_CASES = (
    [("A1", 2, 7)]
    + [(family, 3, 7) for family in ("A1", "C1", "A2", "D2")]
    + [(family, 4, 6) for family in ("A1", "C1", "A2", "D2")]
    + [(family, 5, 5) for family in ("C1", "A2", "D2")]
)


def reference_weight_counts(rs, max_height):
    """weight_counts by filter inversion: each beta, in order of height,
    sums over every denominator term gamma <= beta."""
    if max_height < 0:
        return {}
    n, zero = rs.n, (0,) * rs.n
    cartan = [[rs.a(i, j) for j in rs.index_set] for i in rs.index_set]
    denominator = {}
    level, sign = {zero: (1,) * n}, 1
    while level:
        grown = {}
        for beta, lam in level.items():
            denominator[beta] = sign
            for i, li in enumerate(lam):
                if li > 0 and sum(beta) + li <= max_height:
                    up = beta[:i] + (beta[i] + li,) + beta[i + 1 :]
                    if up not in grown:
                        grown[up] = tuple(lj - li * row[i] for lj, row in zip(lam, cartan))
        level, sign = grown, -sign
    del denominator[zero]
    counts, layer = {zero: 1}, [zero]
    for _ in range(max_height):
        layer = sorted({b[:i] + (b[i] + 1,) + b[i + 1 :] for b in layer for i in range(n)})
        for beta in layer:
            counts[beta] = -sum(
                d * counts[tuple(b - g for b, g in zip(beta, gamma))]
                for gamma, d in denominator.items()
                if all(g <= b for g, b in zip(gamma, beta))
            )
    return counts


REFERENCE_CASES = [("A1", 2, 7)] + [
    (family, n, height)
    for family in ("A1", "C1", "A2", "D2")
    for n, height in ((3, 8), (4, 6), (5, 5))
]


class TestWeightCounts:
    @pytest.mark.parametrize("family,n,height", REFERENCE_CASES)
    def test_equal_to_the_filter_inversion(self, family, n, height):
        # the same counts in the same key order; A1 at n = 2 has Cartan
        # entries of -2
        rs = build_root_system(AlgebraType(family, n))
        assert list(weight_counts(rs, height).items()) == list(
            reference_weight_counts(rs, height).items()
        )

    @pytest.mark.parametrize("family,n,height", WEIGHT_COUNT_CASES)
    def test_equal_to_the_image_histogram(self, family, n, height):
        # the crystal side, by weight, with zero counts for the weights the
        # image misses: every weight of Q+ up to the height is counted
        seq = make_seq(family, n)
        index_set = seq.root_system.index_set
        image = enumerate_image(seq, height)
        histogram = Counter(tuple(weight_coeffs(seq, a)[i] for i in index_set) for a in image)
        counts = weight_counts(seq.root_system, height)
        assert counts == {beta: histogram[beta] for beta in counts}
        assert set(histogram) <= set(counts)

    def test_small_heights(self):
        rs = build_root_system(AlgebraType("A1", 2))
        assert weight_counts(rs, -1) == {}
        assert weight_counts(rs, 0) == {(0, 0): 1}
        # f1 f2 and f2 f1 are the two elements of weight -(alpha_1 + alpha_2)
        assert weight_counts(rs, 2) == {
            (0, 0): 1, (0, 1): 1, (1, 0): 1, (0, 2): 1, (1, 1): 2, (2, 0): 1
        }


class TestFold:
    def test_overline_period_n(self):
        assert [fold("overline", 3, t) for t in range(-1, 5)] == [2, 3, 1, 2, 3, 1]

    def test_overline_zero_is_n(self):
        assert fold("overline", 3, 0) == 3
        assert fold("overline", 4, 0) == 4

    def test_pi_period(self):
        vals = [fold("pi", 3, t) for t in range(1, 6)]
        assert vals == [1, 2, 3, 2, 1]

    def test_pi1_period(self):
        vals = [fold("pi1", 3, t) for t in range(1, 7)]
        assert vals == [1, 2, 3, 2, 1, 1]

    def test_pi2_period(self):
        vals = [fold("pi2", 3, t) for t in range(1, 8)]
        assert vals == [1, 2, 3, 3, 2, 1, 1]

    def test_pi_prime_period(self):
        vals = [fold("pi_prime", 3, t) for t in range(1, 6)]
        assert vals == [1, 2, 3, 2, 1]

    def test_pi_prime_rejects_nonpositive(self):
        with pytest.raises(RootDataError):
            fold("pi_prime", 3, 0)

    @pytest.mark.parametrize(
        "kind,n,t,message",
        [
            ("overline", 3, 1.5, "expected an integer, got 1.5"),
            ("pi", 3, 2.5, "expected an integer, got 2.5"),
            ("pi1", 3.5, 1, "expected an integer, got 3.5"),
            ("pi1", 0, 1, "pi1 at n=0 has period -1"),
            ("overline", -3, 2, "overline at n=-3 has period -3"),
            ("pi", 1, 1, "pi at n=1 has period 0"),
            ("overline", 0, 1, "overline at n=0 has period 0"),
            ("bogus", 3, 1, "unknown folding map 'bogus'"),
        ],
    )
    def test_bad_input_rejected(self, kind, n, t, message):
        # a non-integral n or t, a period below 1 or an unknown map is an
        # error, never a non-color
        with pytest.raises(RootDataError, match=message):
            fold(kind, n, t)

    def test_integral_floats_accepted(self):
        assert fold("overline", 3.0, 4.0) == 1 and fold("pi2", 3.0, 4) == 3


class TestFoldTable:
    """fold_table(kind, n)[t % period] is fold(kind, n, t), and so is the
    entry at the key one or two below, as the readers use them."""

    @pytest.mark.parametrize("kind", ["overline", "pi", "pi1", "pi2"])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_entries_are_the_fold(self, kind, n):
        table = fold_table(kind, n)
        period = table.period
        assert period == {"overline": n, "pi": 2 * n - 2, "pi1": 2 * n - 1, "pi2": 2 * n}[kind]
        for t in range(-3 * period, 3 * period + 1):
            assert table[t % period] == fold(kind, n, t), t
            assert table[t % period - 1] == fold(kind, n, t - 1), t
            assert table[t % period - 2] == fold(kind, n, t - 2), t
        assert set(table) == set(range(-2, period))
        assert fold_table(kind, n) is table

    @pytest.mark.parametrize("kind", ["pi_prime", "sigma"])
    def test_no_table_for_a_one_sided_or_unknown_map(self, kind):
        with pytest.raises(RootDataError, match="no table"):
            fold_table(kind, 3)

    @pytest.mark.parametrize(
        "kind,n,message",
        [
            ("pi1", 0, "pi1 at n=0 has period -1"),
            ("pi", 1, "pi at n=1 has period 0"),
            ("overline", 0, "overline at n=0 has period 0"),
            ("overline", 2.5, "expected an integer, got 2.5"),
        ],
    )
    def test_no_table_below_period_one(self, kind, n, message):
        with pytest.raises(RootDataError, match=message):
            fold_table(kind, n)

    def test_a_large_rank_fills_only_what_is_read(self):
        table = fold_table("pi2", 2**62)
        assert table[5] == 5 and table[-1] == 2 and len(table) == 2


class TestAdapted:
    def test_standard_words(self):
        make_seq("A1", 2)
        make_seq("A1", 3)
        make_seq("A2", 3)
        make_seq("C1", 4)
        make_seq("D2", 4)

    def test_repr(self):
        assert repr(make_seq("A2", 3)) == "AdaptedSequence(A2, n=3, word=[2, 1, 3])"

    def test_repeated_letter_rejected(self):
        rs = build_root_system(AlgebraType("A1", 3))
        with pytest.raises(NotAdaptedError):
            build_adapted(rs, [1, 2, 1, 3])

    def test_missing_letter_rejected(self):
        rs = build_root_system(AlgebraType("A1", 3))
        with pytest.raises(RootDataError):
            build_adapted(rs, [1, 2])

    def test_out_of_range_letter_rejected(self):
        rs = build_root_system(AlgebraType("A1", 3))
        with pytest.raises(RootDataError):
            build_adapted(rs, [1, 2, 4])

    def test_empty_rejected(self):
        rs = build_root_system(AlgebraType("A1", 3))
        with pytest.raises(RootDataError):
            build_adapted(rs, [])

    def test_fractional_letter_rejected(self):
        rs = build_root_system(AlgebraType("A1", 3))
        with pytest.raises(RootDataError):
            build_adapted(rs, [2.5, 1, 3])
        assert build_adapted(rs, [2.0, 1, 3.0]).word == (2, 1, 3)

    def test_missing_indices_listed_up_to_ten(self):
        for n, tail in ((13, "13]"), (14, "13] and 1 more"), (400, "13] and 387 more")):
            rs = build_root_system(AlgebraType("A1", n))
            with pytest.raises(RootDataError) as info:
                build_adapted(rs, [1, 2, 3])
            message = f"indices [4, 5, 6, 7, 8, 9, 10, 11, 12, {tail} missing from word"
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "family,n", [("A1", 2), ("A1", 3), ("C1", 3), ("A2", 3), ("D2", 3), ("A1", 4)]
    )
    def test_alternation_error_is_the_rescan_error(self, family, n):
        # the one pass raises what a rescan of the doubled word per neighbor
        # pair, in increasing pair order, raises first
        rs = build_root_system(AlgebraType(family, n))
        colors = range(1, n + 1)
        for size in range(n, 7 if n < 4 else 6):
            for word in product(colors, repeat=size):
                if set(word) == set(colors) and all(map(ne, word, word[1:] + word[:1])):
                    check_alternation_error(rs, word)

    def test_tables_fill_by_color_on_first_read(self):
        seq = make_seq("C1", 5)
        assert not seq._sweep
        # word 2, 1, 3, 4, 5: a_{4,c(j)}, then the distances to the next and
        # the previous 4
        assert seq._sweep[4] == ((0, 0, -1, 2, -2), (3, 2, 1, 0, 4), (2, 3, 4, 0, 1))
        assert list(seq._sweep) == [4]

    def test_color_of_is_periodic(self, a1_n3):
        for j in range(1, 20):
            assert a1_n3.color_of(j) == a1_n3.word[(j - 1) % 3]


class TestPValues:
    def test_a1_n3_word_213(self, a1_n3):
        assert a1_n3.p == {
            (1, 2): 0,
            (2, 1): 1,
            (2, 3): 1,
            (3, 2): 0,
            (1, 3): 1,
            (3, 1): 0,
        }

    def test_a1_n2_word_12(self, a1_n2):
        assert a1_n2.p == {(1, 2): 1, (2, 1): 0}

    def test_a2_n3_word_213(self, a2_n3):
        assert a2_n3.p == {(1, 2): 0, (2, 1): 1, (2, 3): 1, (3, 2): 0}

    @pytest.mark.parametrize("family,n", [("A1", 3), ("A2", 3), ("C1", 3), ("D2", 3)])
    def test_p_complementary(self, family, n):
        seq = make_seq(family, n, [3, 1, 2])
        for (i, j), v in seq.p.items():
            assert v + seq.p[(j, i)] == 1


class TestIndexing:
    def test_explicit_pairs(self, a1_n3):
        assert index_to_pair(a1_n3, 1) == (1, 2)
        assert index_to_pair(a1_n3, 2) == (1, 1)
        assert index_to_pair(a1_n3, 3) == (1, 3)
        assert index_to_pair(a1_n3, 4) == (2, 2)
        assert index_to_pair(a1_n3, 5) == (2, 1)

    @settings(derandomize=True)
    @given(st.integers(min_value=1, max_value=200))
    def test_round_trip(self, j):
        seq = make_seq("A1", 3)
        s, l = index_to_pair(seq, j)
        assert pair_to_index(seq, s, l) == j

    def test_bad_index(self, a1_n3):
        with pytest.raises(RootDataError):
            index_to_pair(a1_n3, 0)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda seq: seq.color_of(1.5), id="color_of"),
            pytest.param(lambda seq: seq.color_of("1"), id="color_of-str"),
            pytest.param(lambda seq: index_to_pair(seq, 1.5), id="index_to_pair"),
            pytest.param(lambda seq: index_to_pair(seq, None), id="index_to_pair-none"),
            pytest.param(lambda seq: pair_to_index(seq, 1.5, 1), id="pair_to_index-s"),
            pytest.param(lambda seq: pair_to_index(seq, 1, [1]), id="pair_to_index-list"),
            pytest.param(lambda seq: pair_to_index(seq, 1, 1.5), id="pair_to_index-l"),
        ],
    )
    def test_non_integral_arguments_rejected(self, a1_n3, call):
        # a RootDataError, as sigma, beta_pair and beta_index raise it
        with pytest.raises(RootDataError) as info:
            call(a1_n3)
        assert "\n" not in str(info.value)

    def test_integral_arguments_read_as_ints(self, a1_n3):
        assert a1_n3.color_of(4.0) == a1_n3.color_of(4) == 2
        assert index_to_pair(a1_n3, 5.0) == index_to_pair(a1_n3, 5) == (2, 1)
        assert pair_to_index(a1_n3, 2.0, 1.0) == pair_to_index(a1_n3, 2, 1) == 5


class TestPTables:
    def test_a1_n3_printed_values(self, a1_n3):
        assert [p_table(a1_n3, "overline", 1, t) for t in (-1, 0, 1, 2, 3)] == [1, 0, 0, 1, 1]
        assert [p_table(a1_n3, "overline", 2, t) for t in (0, 1, 2, 3, 4)] == [0, 0, 0, 0, 1]
        assert [p_table(a1_n3, "overline", 3, t) for t in (1, 2, 3, 4, 5)] == [1, 1, 0, 1, 2]

    def test_a2_n3_printed_values(self, a2_n3):
        assert [p_table(a2_n3, "pi_prime", 1, t) for t in (1, 2, 3, 4)] == [0, 1, 1, 2]
        assert [p_table(a2_n3, "pi1", 2, t) for t in (0, 1, 2, 3, 4)] == [0, 0, 0, 0, 1]
        assert [p_table(a2_n3, "pi1", 3, t) for t in (1, 2, 3, 4, 5)] == [1, 1, 0, 1, 1]

    def test_anchor_is_zero(self, a1_n3, a2_n3, c1_n3):
        for seq, variant in [(a1_n3, "overline"), (a2_n3, "pi1"), (c1_n3, "pi2")]:
            for k in seq.root_system.index_set:
                assert p_table(seq, variant, k, k) == 0

    def test_pi_prime_one_sided(self, a2_n3):
        with pytest.raises(RootDataError):
            p_table(a2_n3, "pi_prime", 2, 1)

    def test_non_integral_arguments_rejected(self, a1_n3):
        # the fill walk steps by 1, so from 2.5 it would never meet the
        # filled interval around k
        for k, t in [(1, 2.5), (1.5, 3)]:
            with pytest.raises(RootDataError, match="expected an integer"):
                p_table(a1_n3, "overline", k, t)
        assert p_table(a1_n3, "overline", 1, 3.0) == p_table(a1_n3, "overline", 1, 3) == 1

    def test_cached_walk_consistency(self, a1_n3):
        far = p_table(a1_n3, "overline", 1, 40)
        again = p_table(a1_n3, "overline", 1, 40)
        assert far == again
        step_sum = sum(
            p_table(a1_n3, "overline", 1, t + 1) - p_table(a1_n3, "overline", 1, t)
            for t in range(1, 40)
        )
        assert step_sum == far

    def test_equal_folded_colors_contribute_zero(self, a2_n3):
        assert p_table(a2_n3, "pi1", 2, 0) == p_table(a2_n3, "pi1", 2, 1)

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_scrambled_queries_match_the_recurrence(self, family, n):
        """Every variant and k, asked at t out of order on a fresh sequence, gives
        the recurrence summed directly from k, or raises where it has no value."""
        seq = make_seq(family, n)

        def direct(variant, k, t):
            if variant == "pi_prime" and t < k:
                return None
            step, total = (1 if t > k else -1), 0
            for u in range(k + step, t + step, step):
                a, b = fold(variant, n, u), fold(variant, n, u - step)
                if a != b and (a, b) not in seq.p:
                    return None  # a step between colors that are not neighbours
                total += 0 if a == b else seq.p[(a, b)]
            return total

        for variant in ("overline", "pi", "pi1", "pi2", "pi_prime"):
            for k in range(1, n + 1):
                for t in (7, -5, 3, -9, 12, 0, 1, 20, -15):
                    expected = direct(variant, k, t)
                    if expected is None:
                        with pytest.raises(RootDataError):
                            p_table(seq, variant, k, t)
                    else:
                        assert p_table(seq, variant, k, t) == expected, (variant, k, t)

    def test_non_neighbour_step_leaves_the_table_usable(self):
        """overline on C1 joins colors n and 1, which are not neighbours."""
        seq = make_seq("C1", 3)
        with pytest.raises(RootDataError):
            p_table(seq, "overline", 1, 4)
        assert [p_table(seq, "overline", 1, t) for t in (3, 2, 1)] == [
            seq.p[(3, 2)] + seq.p[(2, 1)],
            seq.p[(2, 1)],
            0,
        ]
        for t in (0, 5):
            with pytest.raises(RootDataError):
                p_table(seq, "overline", 1, t)


    def test_errors_survive_a_filled_table(self):
        """A filled entry is returned before the checks, so a filled table
        must hold no entry that a fresh call would reject."""
        seq = make_seq("C1", 4)
        for k in range(1, 5):
            for t in range(k, k + 30):
                p_table(seq, "pi_prime", k, t)
        for k in range(1, 5):
            for t in range(k - 8, k):
                with pytest.raises(RootDataError, match="pi_prime table needs"):
                    p_table(seq, "pi_prime", k, t)
        for variant in ("pi_primed", "Overline", ""):
            with pytest.raises(RootDataError, match="unknown table variant"):
                p_table(seq, variant, 1, 3)

    def test_filled_answers_equal_fresh_ones(self):
        """Asked twice on one sequence, and once on a fresh sequence each time,
        every variant, k and t gives the same value or the same error."""

        def outcome(seq, variant, k, t):
            try:
                return p_table(seq, variant, k, t)
            except RootDataError as e:
                return str(e)

        filled = make_seq("C1", 4)
        queries = [
            (variant, k, t)
            for variant in ("overline", "pi", "pi1", "pi2", "pi_prime", "bogus")
            for k in range(0, 6)
            for t in (9, -4, 2, -10, 14, 0, 1, 5)
        ]
        first = [outcome(filled, *q) for q in queries]
        assert [outcome(filled, *q) for q in queries] == first
        assert [outcome(make_seq("C1", 4), *q) for q in queries] == first


class TestCheckFamily:
    def test_family_and_rank(self, a2_n3):
        check_family(a2_n3, "A2")
        check_family(a2_n3, "A2", 3, "diagram")
        with pytest.raises(RootDataError, match="needs family C1, got A2"):
            check_family(a2_n3, "C1")
        with pytest.raises(RootDataError, match="rank mismatch: diagram n=4, sequence n=3"):
            check_family(a2_n3, "A2", 4, "diagram")


class TestSequenceBasics:
    def test_json(self, a1_n3):
        data = a1_n3.to_json()
        assert data == {"word": [2, 1, 3]}

    def test_equality_and_hash(self):
        s1 = make_seq("A1", 3)
        s2 = make_seq("A1", 3)
        assert s1 == s2 and hash(s1) == hash(s2)
        assert s1 != make_seq("A1", 3, [1, 2, 3])


def check_alternation_error(rs, word):
    """build_adapted raises, for a word with every color and no cyclic
    repeat, the first alternation error that a scan of the doubled word once
    per neighbor pair, in increasing pair order, finds; or nothing if none."""
    L, doubled, expected = len(word), word * 2, None
    for i, j in sorted(rs.neighbor_pairs()):
        sub = [(m, c) for m, c in enumerate(doubled) if c in (i, j)]
        bad = [(m1, m2, c1) for (m1, c1), (m2, c2) in zip(sub, sub[1:]) if c1 == c2]
        if bad:
            m1, m2, c = bad[0]
            expected = (
                f"word is not adapted: neighbor pair ({i},{j}) sees color {c} "
                f"twice in a row at cyclic positions {m1 % L + 1},{m2 % L + 1}"
            )
            break
    try:
        build_adapted(rs, word)
    except NotAdaptedError as exc:
        assert str(exc) == expected, word
    else:
        assert expected is None, word
