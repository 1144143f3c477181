"""Linear forms, beta forms, the operator S', and closure sets."""

from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from polyreal import (
    LatticeElement,
    LinearForm,
    RootDataError,
    beta_index,
    beta_pair,
    check_xi_positivity,
    closure,
    evaluate,
    index_to_pair,
    pair_to_index,
    s_prime,
)
from polyreal import forms, verify
from polyreal.forms import site_form
from polyreal.root_data import FAMILIES, MIN_RANK, reachable
from conftest import adapted_words, make_seq, permutation_seqs

x = LinearForm.x


def top_index(seq, form):
    """The largest single index of a nonzero term of the form, 0 for the zero form."""
    return max((pair_to_index(seq, s, l) for (s, l), _ in form.items()), default=0)


class TestLinearForm:
    def test_algebra(self):
        f = x(1, 1) + x(2, 1) - 2 * x(1, 2)
        assert f.coeff(1, 1) == 1
        assert f.coeff(1, 2) == -2
        assert f.coeff(5, 1) == 0

    def test_cancellation(self):
        f = x(1, 1) - x(1, 1)
        assert f.is_zero() and f == LinearForm.zero()

    def test_scalar(self):
        f = 3 * x(2, 2)
        assert f == x(2, 2) * 3
        assert (-1) * f == -f

    def test_str(self):
        f = x(1, 1) + 2 * x(2, 1) - x(3, 1)
        assert str(f) == "x[1,1] + 2 x[2,1] - x[3,1]"
        assert str(LinearForm.zero()) == "0"
        assert str(-x(1, 2)) == "-x[1,2]"

    def test_occurrence_below_one_rejected(self):
        with pytest.raises(ValueError):
            LinearForm({(0, 1): 1})

    def test_json_round_trip(self):
        f = 2 * x(1, 3) - x(4, 2)
        assert LinearForm.from_json(f.to_json()) == f

    def test_sort_key_orders_terms(self):
        forms = [x(2, 1), x(1, 2), x(1, 1)]
        assert sorted(forms, key=LinearForm.sort_key) == [x(1, 1), x(1, 2), x(2, 1)]

    @pytest.mark.parametrize(
        "terms",
        [{(1, 1): 1.5}, {(1.9, 1): 1}, {(1, 2.5): 1}, [((2, 1), 0.5)]],
        ids=["coefficient", "occurrence", "color", "pairs"],
    )
    def test_fractional_input_rejected(self, terms):
        with pytest.raises(ValueError):
            LinearForm(terms)

    def test_fractional_scalar_rejected(self):
        with pytest.raises(ValueError):
            x(1, 1) * 2.5
        with pytest.raises(ValueError):
            0.5 * x(1, 1)

    def test_integral_floats_accepted(self):
        assert LinearForm({(1.0, 2.0): 3.0}) == 3 * x(1, 2)
        assert x(1, 1) * 2.0 == 2 * x(1, 1)
        f = LinearForm.from_json({"terms": [{"s": 2.0, "l": 1, "c": -1.0}]})
        assert f == -x(2, 1) and LinearForm.from_json(f.to_json()) == f

    # (a, b) with shared, cancelling and disjoint terms
    PAIRS = [
        ({(1, 1): 1, (2, 1): 2}, {(2, 1): 3, (1, 2): -1}),
        ({(1, 1): 1, (2, 1): 2}, {(2, 1): -2, (3, 3): 4}),
        ({(1, 1): 1}, {(4, 2): -5}),
        ({(1, 1): 2, (2, 3): -1}, {(1, 1): 2, (2, 3): -1}),
        ({}, {(2, 2): 1}),
    ]

    @pytest.mark.parametrize("a,b", PAIRS)
    def test_arithmetic_equals_public_build(self, a, b):
        fa, fb = LinearForm(a), LinearForm(b)
        cases = [
            (fa + fb, {p: a.get(p, 0) + b.get(p, 0) for p in {**a, **b}}),
            (fa - fb, {p: a.get(p, 0) - b.get(p, 0) for p in {**a, **b}}),
            (-fa, {p: -c for p, c in a.items()}),
        ]
        for got, terms in cases:
            built = LinearForm(terms)
            assert got.items() == built.items()
            assert got == built and hash(got) == hash(built)
            assert all(c for _, c in got.items())

    def test_difference_cancels_to_zero(self):
        f = LinearForm({(1, 1): 2, (3, 2): -1})
        for got in (f - f, f + (-f), -f + f):
            assert got.items() == () and got.is_zero()
            assert got == LinearForm.zero() and hash(got) == hash(LinearForm.zero())

    def test_scalar_is_checked_not_the_products(self):
        # every product of 0.5 with 2 x[1,1] is integral, yet the scalar is not
        with pytest.raises(ValueError):
            (2 * x(1, 1)) * 0.5

    @pytest.mark.parametrize("a,b", PAIRS)
    def test_scalar_multiple_equals_public_build(self, a, b):
        for f in (LinearForm(a), LinearForm(b)):
            for c in (-3, -1, 0, 1, 2, 2.0):
                got = f * c
                built = LinearForm({p: c * v for p, v in f.items()})
                assert got.items() == built.items()
                assert got == built and hash(got) == hash(built)
                assert all(type(v) is int and v for _, v in got.items())
            assert (f * 0).is_zero() and (0 * f).items() == ()

    def test_site_form_sums_and_cancels(self):
        sites = [(1, 0, 1), (2, 0, 1), (1, 1, 2), (-1, 1, 2), (-1, 2, 3)]
        f = site_form(sites, 2)
        built = LinearForm({(2, 1): 3, (4, 3): -1})
        assert f.items() == built.items() and f == built and hash(f) == hash(built)
        assert site_form([], 1).is_zero()

    def test_site_form_below_one_rejected(self):
        with pytest.raises(ValueError, match="occurrence index must be >= 1"):
            site_form([(1, 0, 1), (1, -1, 2)], 1)
        # the term below 1 cancels, yet the site is still rejected
        with pytest.raises(ValueError):
            site_form([(1, -2, 1), (-1, -2, 1)], 2)
        assert site_form([(1, -1, 2)], 2) == x(1, 2)


class TestBeta:
    def test_a1_rank2_golden(self, a1_n2):
        assert beta_pair(a1_n2, 1, 1) == x(1, 1) + x(2, 1) - 2 * x(1, 2)
        assert beta_pair(a1_n2, 1, 2) == x(1, 2) + x(2, 2) - 2 * x(2, 1)

    def test_a2_n3_golden(self, a2_n3):
        for s in (1, 2, 3):
            assert beta_pair(a2_n3, s, 1) == x(s, 1) + x(s + 1, 1) - x(s + 1, 2)
            assert beta_pair(a2_n3, s + 1, 2) == (
                x(s + 1, 2) + x(s + 2, 2) - 2 * x(s + 1, 1) - x(s + 1, 3)
            )

    def test_s_below_one_rejected(self, a1_n3):
        with pytest.raises(RootDataError):
            beta_pair(a1_n3, 0, 1)

    def test_non_integral_s_rejected(self, a1_n3):
        with pytest.raises(RootDataError, match="expected an integer, got 1.5"):
            beta_pair(a1_n3, 1.5, 1)

    @pytest.mark.parametrize(
        "build, args",
        [(beta_pair, (1, 4)), (beta_pair, (1, 1.5)), (beta_pair, (1, 0)), (beta_index, (1.5,))],
    )
    def test_color_or_index_outside_rejected(self, a1_n3, build, args):
        with pytest.raises(RootDataError):
            build(a1_n3, *args)

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_equals_public_build(self, family):
        seq = make_seq(family, 4)
        rs = seq.root_system
        for s in (1, 2, 5):
            for l in rs.index_set:
                terms = [((s, l), 1), ((s + 1, l), 1)]
                terms += [
                    ((s + seq.p[(j, l)], j), rs.a(l, j))
                    for j in rs.index_set
                    if j != l and rs.a(l, j) < 0
                ]
                got, built = beta_pair(seq, s, l), LinearForm(terms)
                assert got.items() == built.items()
                assert got == built and hash(got) == hash(built)

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_single_and_double_index_agree(self, family):
        seq = make_seq(family, 3)
        for j in range(1, 31):
            s, l = index_to_pair(seq, j)
            assert beta_index(seq, j) == beta_pair(seq, s, l)


class TestSPrime:
    def test_positive_coefficient_subtracts(self, a1_n2):
        f = x(1, 1)
        assert s_prime(a1_n2, f, (1, 1)) == f - beta_pair(a1_n2, 1, 1)

    def test_negative_coefficient_deeper_adds(self, a1_n2):
        f = -x(2, 1)
        assert s_prime(a1_n2, f, (2, 1)) == f + beta_pair(a1_n2, 1, 1)

    def test_negative_coefficient_at_first_is_identity(self, a1_n2):
        f = -x(1, 1)
        assert s_prime(a1_n2, f, (1, 1)) == f

    def test_zero_coefficient_is_identity(self, a1_n2):
        f = x(1, 1)
        assert s_prime(a1_n2, f, (3, 2)) == f

    @pytest.mark.parametrize(
        "d", [(1, 9), (1.5, 1), ("a", 1), (0, 1)], ids=["color-9", "s-1.5", "s-a", "s-0"]
    )
    def test_index_read_as_beta_pair_reads_it(self, a1_n3, d):
        # a color outside the index set, a non-integral or non-numeric
        # occurrence, and an occurrence below 1 each raise, as beta_pair does
        with pytest.raises(RootDataError):
            s_prime(a1_n3, LinearForm({(1, 9): 1}), d)
        with pytest.raises(RootDataError):
            beta_pair(a1_n3, *d)


def field_code(vector, width):
    """The code of a coefficient vector, entry f at field f, packed as the
    sites (c, f, 0)."""
    return forms.pack([(c, f, 0) for f, c in enumerate(vector)], width, lambda f, _: f, {})


class TestCodeWidth:
    """code_width states the balanced-digit lemma that the closure, step and
    closure-equality codes rest on: at code_width(m) every vector with
    entries in [-m, m] has its own code, and one bit less is too few."""

    @pytest.mark.parametrize("m", range(1, 6))
    def test_codes_are_distinct(self, m):
        vectors = list(product(range(-m, m + 1), repeat=3))
        width = forms.code_width(m)
        assert len({field_code(v, width) for v in vectors}) == len(vectors)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_one_bit_less_collides(self, m):
        narrow = m.bit_length()
        assert forms.code_width(m) == narrow + 1
        assert field_code((m, 0, 0), narrow) == field_code((m - 2**narrow, 1, 0), narrow)

    def test_pack_sums_the_sites_at_a_field(self):
        # the code of sites is that of their merged site map, here (3, 0)
        sites = [(2, 0, 1), (-1, 1, 1), (1, 0, 1), (1, 1, 1)]
        assert forms.pack(sites, 3, lambda f, _: f, {}) == field_code((3, 0), 3) == 3


class TestClosure:
    def test_depth_zero_is_seeds(self, a1_n3):
        seeds = {x(1, 1), x(1, 2)}
        got, pruned = closure(a1_n3, seeds, 0)
        assert got == seeds and pruned == 0

    def test_grows_with_depth(self, a2_n3):
        small, _ = closure(a2_n3, [x(1, 2)], 1)
        large, _ = closure(a2_n3, [x(1, 2)], 2)
        assert small <= large and len(small) < len(large)

    def test_deterministic(self, c1_n3):
        runs = [closure(c1_n3, [x(1, 3)], 3) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_negative_depth_is_seeds(self, a1_n3):
        seeds = {x(1, 1), x(2, 3)}
        got, pruned = closure(a1_n3, seeds, -1)
        assert got == seeds and pruned == 0

    def test_capped_pruned_counts(self, a1_n3):
        # distinct forms dropped from x[1,1] at depth 4 under caps 4..8
        counts = [closure(a1_n3, [x(1, 1)], 4, index_bound=b)[1] for b in range(4, 9)]
        assert counts == [1, 2, 2, 2, 1]

    def test_cap_tested_once_per_new_form(self, a1_n3, monkeypatch):
        # codes already seen or already dropped skip the cap, which reads
        # the code and never the form
        tested = []
        top_index = forms._top_index

        def counted(code, width):
            tested.append(code)
            return top_index(code, width)

        monkeypatch.setattr(forms, "_top_index", counted)
        for bound in (6, 9, 12):
            tested.clear()
            closed, pruned = closure(a1_n3, [x(1, 1)], 5, index_bound=bound)
            assert len(tested) == len(set(tested)) == len(closed) - 1 + pruned
        tested.clear()
        closure(a1_n3, [x(1, 1)], 5)
        assert tested == []

    def test_top_index_reads_the_bit_length(self):
        # every balanced digit vector d_1..d_3 at field widths 2..4, each
        # |d| < 2^(W-1): the top index is the last nonzero digit's, 0 for
        # none.  The extremes of _top_index's bound are among them, such as
        # a top digit 1 over lower digits 1 - 2^(W-1).
        for width in (2, 3, 4):
            half = 1 << (width - 1)
            for digits in product(range(1 - half, half), repeat=3):
                code = sum(d << (width * j) for j, d in enumerate(digits, 1))
                top = max((j for j, d in enumerate(digits, 1) if d), default=0)
                assert forms._top_index(code, width) == top, (width, digits)

    def test_tiny_bound_prunes(self, a1_n3):
        _, pruned = closure(a1_n3, [x(1, 1)], 4, index_bound=4)
        assert pruned > 0

    def test_uncapped_closure_no_pruning(self, a1_n3):
        # without an index_bound the closure has no cap to prune at
        for k in (1, 2, 3):
            _, pruned = closure(a1_n3, [x(1, k)], 4)
            assert pruned == 0

    def test_round_raises_top_index_by_at_most_l(self):
        # the growth bound of closure's docstring, on every non-periodic
        # adapted word of lengths n and 2n at n <= 4: no S' application of
        # a depth-3 closure raises a form's largest single index by more
        # than L.  Those applications act on the forms of the depth-2 closure.
        grid = [
            make_seq(family, n, word)
            for family in ("A1", "C1", "A2", "D2")
            for n in range(MIN_RANK[family], 5)
            for length in (n, 2 * n)
            for word in adapted_words(family, n, length)
        ]
        assert len(grid) == 524
        applications = 0
        for seq in grid:
            seeds = [x(s, k) for k in seq.root_system.index_set for s in (1, 3)]
            closed, pruned = closure(seq, seeds, 2)
            assert pruned == 0
            for f in closed:
                top = top_index(seq, f) + seq.L
                for pair, _ in f.items():
                    g = s_prime(seq, f, pair)
                    applications += 1
                    assert top_index(seq, g) <= top, (seq, f, pair, g)
        assert applications == 33828

    def test_equal_to_the_reference(self):
        # the closed set and the pruned count of the closure by forms, on
        # word 1..n of the four families at n = 3 and 4 and on the
        # non-periodic length-6 words at n = 3, from x[s,k] at depths 0..6
        # with no cap and with caps 2L..4L; from seeds whose coefficients
        # are large against the code's field width; and at depth 12.  The
        # last seed pair, 8 x_1 and x_2 - 8 x_1 at single indices 1 and 2,
        # has one code at a field width of 4 bits, one bit short of the
        # width at depth 0..3 when beta's coefficients are at most 2
        grid = [make_seq(family, n, list(range(1, n + 1))) for family in FAMILIES for n in (3, 4)]
        large = grid[:]
        grid += [make_seq(family, 3, word) for family in FAMILIES for word in adapted_words(family, 3, 6)]
        inputs = [
            (seq, [x(s, k)], depth, cap)
            for seq in grid
            for k in seq.root_system.index_set
            for s in (1, 2, 3)
            for depth in range(7)
            for cap in (None, 2 * seq.L, 3 * seq.L, 4 * seq.L)
        ]
        mixed = [
            [7 * x(1, 1) - 5 * x(2, 2)],
            [9 * x(2, 3) - 6 * x(1, 2) + 4 * x(3, 1)],
            [-8 * x(2, 1), 3 * x(1, 3) - 11 * x(2, 2)],
            [8 * x(1, 1), x(1, 2) - 8 * x(1, 1)],
        ]
        inputs += [
            (seq, seeds, depth, cap)
            for seq in large
            for seeds in mixed
            for depth in range(7)
            for cap in (None, 3 * seq.L)
        ]
        deep = make_seq("C1", 4, [1, 2, 3, 4])
        inputs += [(deep, [x(1, k)], 12, deep.L * 14) for k in (1, 4)]
        assert len(grid) == 26 and len(inputs) == 7338
        for seq, seeds, depth, cap in inputs:
            got = closure(seq, seeds, depth, index_bound=cap)
            assert got == reference_closure(seq, seeds, depth, cap), (seq, seeds, depth, cap)

    def test_forms_built_only_at_new_codes(self, a1_n3, monkeypatch):
        # S' applications that land on a form already seen or already
        # dropped build no form, and neither does a code the cap drops
        built = []
        make = LinearForm._of

        def counted(d):
            built.append(d)
            return make(d)

        monkeypatch.setattr(LinearForm, "_of", staticmethod(counted))
        seeds = [x(1, 1), x(2, 3), x(1, 1), 3 * x(2, 2) - x(1, 2)]
        for bound in (None, 6, 9, 12):
            built.clear()
            closed, pruned = closure(a1_n3, seeds, 5, index_bound=bound)
            assert len(built) == len(closed) - len(set(seeds))
            assert pruned or bound in (None, 12)


class TestEvaluate:
    def test_golden(self, a1_n3):
        f = x(1, 2) + 2 * x(1, 1) - x(2, 2)
        a = LatticeElement({1: 3, 2: 1, 4: 5})
        assert evaluate(a1_n3, f, a) == 3 + 2 * 1 - 5

    def test_zero_form(self, a1_n3):
        a = LatticeElement({1: 9})
        assert evaluate(a1_n3, LinearForm.zero(), a) == 0

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
    def test_linear_in_form(self, c1, c2):
        seq = make_seq("A1", 3)
        f, g = x(1, 1), x(2, 2)
        a = LatticeElement({1: 2, 5: 1})
        assert evaluate(seq, c1 * f + c2 * g, a) == c1 * evaluate(seq, f, a) + c2 * evaluate(seq, g, a)


def box(m, total):
    """The nonnegative vectors of length m with sum at most total, in
    lexicographic order, walked by the total left after each position."""
    if m == 0:
        yield ()
        return
    for v in range(total + 1):
        for rest in box(m - 1, total - v):
            yield (v,) + rest


def box_filter(rows, size, max_total):
    """The weight box walked in lexicographic order, kept where every row,
    read straight off its (position, coeff) terms, is >= 0; size 0 holds the
    empty tuple alone, whatever max_total is."""
    return [
        v for v in box(size, max_total) if all(sum(c * v[p] for p, c in row) >= 0 for row in rows)
    ]


@st.composite
def search_systems(draw, coeffs, max_total):
    """A size up to 6, up to 6 rows of (position, coeff) terms at distinct
    positions below it, in the order drawn, some of them repeated with their
    terms reversed, and a total bound from -1 to max_total."""
    size = draw(st.integers(0, 6))
    terms = st.dictionaries(st.integers(0, max(size - 1, 0)), coeffs, max_size=min(size, 4))
    rows = [list(t.items()) for t in draw(st.lists(terms, max_size=6))]
    if rows:
        rows += [row[::-1] for row in draw(st.lists(st.sampled_from(rows), max_size=3))]
    return size, rows, draw(st.integers(-1, max_total))


class TestWindowSearch:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(search_systems(st.sampled_from([-2, -1, 1, 2]), 4))
    # an empty window, whatever the bound
    @example((0, [[]], 2))
    @example((0, [], -1))
    # a negative bound on a nonempty window
    @example((2, [[(0, -1), (1, 1)]], -1))
    # three rows ending at position 2, one of them twice, its terms
    # reversed, and two rows with no negative term
    @example(
        (
            3,
            [
                [(0, 1), (2, -1)],
                [(1, 2), (2, -1)],
                [(0, -1), (1, 1), (2, 1)],
                [(2, -1), (0, 1)],
                [(0, 1), (1, 1)],
                [(2, 1)],
            ],
            4,
        )
    )
    # x_0 = x_1: at x_0 = 1 the value 0 at position 1 fails the first row
    # while the second, negative there, holds, so the scan must go on to 1
    @example((2, [[(0, -1), (1, 1)], [(0, 1), (1, -1)]], 2))
    def test_matches_box_filter(self, system):
        size, rows, max_total = system
        assert forms.window_search(rows, size, max_total) == box_filter(rows, size, max_total)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(search_systems(st.integers(-7, 7).filter(bool), 7))
    # At the width bound: max|c| = 7 and total 7.  Values summing to 7 take
    # the row ending at 5 to -7 * 7 at position 0 and the one ending at 2 to
    # +7 * 7 at position 1, the scan's last add takes them to -7 * 8 and
    # +7 * 8, and a carry or borrow would land in a neighbouring field.
    @example(
        (
            6,
            [
                [(0, -7), (5, 7)],
                [(0, 7), (1, 7), (2, -1)],
                [(1, -7), (4, 7), (5, -1)],
                [(0, -7), (1, 1), (3, 7)],
            ],
            7,
        )
    )
    @example((2, [[(0, 7), (1, -7)], [(0, -7), (1, 7)], [(0, -7)]], 7))
    def test_wide_coefficients_match_box_filter(self, system):
        size, rows, max_total = system
        assert forms.window_search(rows, size, max_total) == box_filter(rows, size, max_total)


class TestXiPositivity:
    def test_clean_set_passes(self, a1_n3):
        forms, _ = closure(a1_n3, [x(1, 2)], 3)
        ok, witnesses = check_xi_positivity(a1_n3, forms)
        assert ok and witnesses == []

    def test_flags_negative_first_occurrence(self, a1_n3):
        bad = x(2, 1) - x(1, 3)
        ok, witnesses = check_xi_positivity(a1_n3, [bad])
        assert not ok
        assert witnesses == [(bad, (1, 3), -1)]


def reference_s_prime(seq, form, d):
    """s_prime as it was before the direct sum: through a beta_pair form."""
    s, l = d
    c = form.coeff(s, l)
    if c > 0:
        return form - beta_pair(seq, s, l)
    if c < 0 and s > 1:
        return form + beta_pair(seq, s - 1, l)
    return form


def reference_closure(seq, seeds, depth, index_bound=None):
    """closure as it was before it searched by codes: S' through
    reference_s_prime at every term, forms deduplicated by their terms."""
    seen = set(seeds)
    pruned = set()

    def images(f):
        for pair, _ in f.items():
            g = reference_s_prime(seq, f, pair)
            if g not in seen and g not in pruned:
                if index_bound is None or top_index(seq, g) <= index_bound:
                    yield g
                else:
                    pruned.add(g)

    return reachable(seen, images, depth), len(pruned)


class TestSPrimeDirectSum:
    """s_prime adds beta's sites straight into the form's terms; it equals
    the beta_pair reference, sorted terms and term map alike, at every term of
    the assigned form at s = 1 of every generator object up to size 6, and at
    a pair off the form, on every permutation word of the four families at
    n = 3 and 4."""

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_equal_to_the_beta_pair_reference(self, family, n):
        seqs = permutation_seqs(family, n)
        objects = [
            (verify.MODULES[kind], obj)
            for kind, k in verify.generator_kinds(seqs[0])
            for obj, _, _ in verify.generator_objects(seqs[0], kind, k, 6)
        ]
        for seq in seqs:
            for f in {site_form(module.sites(seq, obj), 1) for module, obj in objects}:
                for d in [pair for pair, _ in f.items()] + [(1, n)]:
                    got, expected = s_prime(seq, f, d), reference_s_prime(seq, f, d)
                    assert got.items() == expected.items(), (seq, f, d)
                    assert got._terms == expected._terms
