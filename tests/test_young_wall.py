"""Young walls: properness, sites, block toggles, forms."""

import pytest

from polyreal import LinearForm, RootDataError
from polyreal import young_wall
from polyreal.forms import site_move
from polyreal.young_wall import (
    WallError,
    WallKind,
    WallSite,
    YoungWall,
    assign_wall,
    classify_sites,
    enumerate_walls,
    ground_wall,
    legal_single_adds,
    legal_single_removes,
    make_wall,
    render_wall,
    toggle_block,
    validate_proper,
)
from conftest import make_seq, object_moves, permutation_seqs

# Every entry point that reads a wall against a sequence checks the sequence first.
SEQUENCE_CALLS = (
    lambda seq, Y: assign_wall(seq, Y, 1),
    young_wall.sites,
    lambda seq, Y: object_moves(seq, "wall", Y),
)

x = LinearForm.x

A2_KIND = WallKind("A2wall", 3, 1)


class TestWallKind:
    def test_a2_ground_must_be_one(self):
        WallKind("A2wall", 3, 1)
        with pytest.raises(WallError):
            WallKind("A2wall", 3, 3)

    def test_d2_ground_one_or_n(self):
        WallKind("D2wall", 3, 1)
        WallKind("D2wall", 3, 3)
        with pytest.raises(WallError):
            WallKind("D2wall", 3, 2)

    def test_unknown_family(self):
        with pytest.raises(WallError):
            WallKind("C1wall", 3, 1)

    def test_rank_too_small(self):
        with pytest.raises(WallError):
            WallKind("A2wall", 2, 1)

    def test_fractional_parameters_rejected(self):
        with pytest.raises(WallError):
            WallKind("A2wall", 3.5, 1)
        with pytest.raises(WallError):
            WallKind("D2wall", 3, 1.5)

    def test_integral_floats_accepted(self):
        kind = WallKind("D2wall", 3.0, 3.0)
        assert kind == WallKind("D2wall", 3, 3) and type(kind.n) is type(kind.ground) is int

    def test_row_colors_fold(self):
        assert [A2_KIND.row_color(l) for l in range(1, 6)] == [1, 2, 3, 2, 1]

    def test_split_rows_a2(self):
        assert [A2_KIND.is_split(l) for l in range(1, 6)] == [True, False, False, False, True]

    def test_split_rows_d2(self):
        kind = WallKind("D2wall", 3, 1)
        assert [kind.is_split(l) for l in range(1, 6)] == [True, False, True, False, True]

    def test_row_of_half(self):
        assert [A2_KIND.row_of_half(m) for m in (1, 2, 3, 4, 5)] == [1, 1, 2, 2, 3]
        deep = WallKind("D2wall", 3, 3)
        assert deep.row_of_half(1) == 3 and deep.row_of_half(3) == 4


class TestConstruction:
    def test_trailing_ground_columns_trimmed(self):
        assert make_wall(A2_KIND, [2, 1, 1]).halves == (2,)
        assert make_wall(A2_KIND, []).halves == ()

    def test_increasing_heights_rejected(self):
        with pytest.raises(WallError):
            make_wall(A2_KIND, [2, 4])

    def test_equal_full_columns_rejected(self):
        with pytest.raises(WallError):
            make_wall(A2_KIND, [2, 2])
        with pytest.raises(WallError):
            make_wall(A2_KIND, [4, 4])

    def test_odd_stop_at_unit_row_rejected(self):
        with pytest.raises(WallError):
            make_wall(A2_KIND, [3])

    def test_odd_stop_at_split_row_allowed(self):
        kind = WallKind("D2wall", 3, 1)
        assert make_wall(kind, [5]).halves == (5,)
        with pytest.raises(WallError):
            make_wall(WallKind("D2wall", 3, 1), [3])

    def test_below_ground_rejected(self):
        with pytest.raises(WallError):
            make_wall(A2_KIND, [0])

    def test_validate_proper(self):
        assert validate_proper(YoungWall(A2_KIND, (2, 2))) != []
        assert validate_proper(make_wall(A2_KIND, [4, 2])) == []

    def test_json_round_trip(self):
        Y = make_wall(A2_KIND, [4, 2])
        assert YoungWall.from_json(Y.to_json()) == Y

    def test_fractional_heights_rejected(self):
        with pytest.raises(WallError):
            make_wall(A2_KIND, [2.9])
        data = {"family": "A2wall", "n": 3, "ground": 1, "halves": [4, 2.5]}
        with pytest.raises(WallError):
            YoungWall.from_json(data)
        with pytest.raises(WallError):
            YoungWall.from_json({**data, "n": 3.2, "halves": [2]})

    def test_integral_float_heights_accepted(self):
        Y = make_wall(A2_KIND, [4.0, 2.0, 1.0])
        assert Y == make_wall(A2_KIND, [4, 2]) and all(type(h) is int for h in Y.halves)


class TestCounts:
    def test_block_count(self):
        assert make_wall(A2_KIND, [8, 4, 2]).block_count() == 7
        assert ground_wall(A2_KIND).block_count() == 0

    def test_added_halves(self):
        assert make_wall(A2_KIND, [8, 4, 2]).added_halves() == 11

    @pytest.mark.parametrize(
        "kind",
        [A2_KIND, WallKind("D2wall", 3, 1), WallKind("D2wall", 3, 3)],
    )
    def test_peeling_matches_block_count(self, kind):
        for Y in enumerate_walls(kind, 6):
            steps = 0
            cur = Y
            while True:
                removes = legal_single_removes(cur)
                if not removes:
                    break
                cur = toggle_block(cur, removes[0])
                steps += 1
            assert cur == ground_wall(kind)
            assert steps == Y.block_count()


class TestSites:
    def test_ground(self):
        assert classify_sites(ground_wall(A2_KIND)) == [WallSite("slot", 1, 1, 1, 1, 1)]

    def test_one_full_ground_row(self):
        Y = make_wall(A2_KIND, [2])
        assert classify_sites(Y) == [
            WallSite("slot", 1, 2, 1, 2, 2),
            WallSite("block", 1, 1, 1, 1, 1),
        ]

    def test_two_rows(self):
        Y = make_wall(A2_KIND, [4])
        assert classify_sites(Y) == [
            WallSite("slot", 1, 3, 1, 3, 2),
            WallSite("block", 1, 2, 1, 2, 2),
            WallSite("slot", 2, 1, 1, 1, 1),
        ]

    def test_properness_prunes_sites(self):
        Y = make_wall(A2_KIND, [4, 2])
        assert classify_sites(Y) == [
            WallSite("slot", 1, 3, 1, 3, 2),
            WallSite("block", 2, 1, 1, 1, 1),
        ]

    def test_double_site_at_split_row(self):
        Y = make_wall(A2_KIND, [8, 4, 2])
        sites = classify_sites(Y)
        assert WallSite("slot", 1, 5, 2, 1, 2) in sites
        assert WallSite("block", 1, 4, 1, 2, 2) in sites

    def test_d2_ground_n(self):
        kind = WallKind("D2wall", 3, 3)
        assert classify_sites(ground_wall(kind)) == [WallSite("slot", 1, 3, 1, 3, 1)]


class TestToggles:
    def test_add_then_remove_round_trip(self):
        for Y in enumerate_walls(A2_KIND, 6):
            for site in legal_single_adds(Y):
                Y2 = toggle_block(Y, site)
                assert Y2.added_halves() == Y.added_halves() + site.halves
                back = WallSite("block", site.column, site.row, 1, site.color, site.halves)
                assert toggle_block(Y2, back) == Y

    def test_toggle_to_improper_rejected(self):
        Y = make_wall(A2_KIND, [2])
        with pytest.raises(WallError):
            toggle_block(Y, WallSite("slot", 2, 1, 1, 1, 1))


class TestAssignment:
    @pytest.mark.parametrize("s", [1, 2])
    def test_small_forms_a2_rank3(self, a2_n3, s):
        goldens = [
            ([], x(s, 1)),
            ([2], x(s + 1, 2) - x(s + 1, 1)),
            ([4], x(s + 1, 3) + x(s + 1, 1) - x(s + 2, 2)),
            ([4, 2], x(s + 1, 3) - x(s + 2, 1)),
            ([6], x(s + 2, 2) + x(s + 1, 1) - x(s + 2, 3)),
        ]
        for halves, expected in goldens:
            assert assign_wall(a2_n3, make_wall(A2_KIND, halves), s) == expected

    def test_d2_ground_n_form(self, c1_n3):
        kind = WallKind("D2wall", 3, 3)
        assert assign_wall(c1_n3, ground_wall(kind), 1) == x(1, 3)

    def test_family_mismatch_rejected(self, a1_n3):
        for call in SEQUENCE_CALLS:
            with pytest.raises(RootDataError):
                call(a1_n3, ground_wall(A2_KIND))

    def test_rank_mismatch_rejected(self):
        seq = make_seq("A2", 4, [2, 1, 3, 4])
        for call in SEQUENCE_CALLS:
            with pytest.raises(RootDataError):
                call(seq, ground_wall(A2_KIND))


def walls_oracle(kind, max_halves):
    """Weakly decreasing height tuples that pass the properness rules."""
    out = set()

    def extend(prefix, budget, cap):
        out.add(YoungWall(kind, tuple(prefix)))
        for h in range(2, min(cap, budget + 1) + 1):
            cand = prefix + [h]
            if not validate_proper(YoungWall(kind, tuple(cand))):
                extend(cand, budget - (h - 1), h)

    extend([], max_halves, max_halves + 1)
    return out


class TestEnumeration:
    @pytest.mark.parametrize(
        "kind",
        [A2_KIND, WallKind("D2wall", 3, 1), WallKind("D2wall", 3, 3)],
    )
    def test_matches_direct_oracle(self, kind):
        got = set(enumerate_walls(kind, 8))
        want = walls_oracle(kind, 8)
        assert got == want

    @pytest.mark.parametrize("bound", [0])
    def test_no_halves_gives_the_ground(self, bound):
        kind = WallKind("D2wall", 4, 4)
        assert enumerate_walls(kind, bound) == [ground_wall(kind)]

    @pytest.mark.parametrize("kind", [WallKind("D2wall", 4, 4), A2_KIND], ids=["D2wall", "A2wall"])
    def test_negative_bound_gives_none(self, kind):
        assert enumerate_walls(kind, -1) == []

    def test_sorted_and_distinct(self):
        out = enumerate_walls(A2_KIND, 8)
        assert out[0] == ground_wall(A2_KIND)
        assert len(set(out)) == len(out)
        keys = [(Y.added_halves(), Y.halves) for Y in out]
        assert keys == sorted(keys)


class TestRender:
    def test_ground(self):
        assert render_wall(ground_wall(A2_KIND)) == "(ground row 1, color 1)"

    def test_three_column_picture(self):
        Y = make_wall(A2_KIND, [8, 4, 2])
        assert render_wall(Y) == "\n".join(
            [
                "        [==]  row 4 color 2",
                "        [==]  row 3 color 3",
                "    [==][==]  row 2 color 2",
                "[==][==][==]  row 1 color 1",
                "~~~~~~~~~~~~  ground row 1",
            ]
        )

    def test_half_filled_cell_marked(self):
        kind = WallKind("D2wall", 3, 1)
        text = render_wall(make_wall(kind, [5]))
        assert "[__]" in text


def _reference_single(Y, j, remove):
    """The one-block move at column j as listed before the one column rule."""
    kind = Y.kind
    h = Y.height(j)
    if remove and h <= 1:
        return None
    l = kind.row_of_half(h if remove else h + 1)
    delta = 2 if (h % 2 == 0 and not kind.is_split(l)) else 1
    if not reference_can_set(Y, j, h - delta if remove else h + delta):
        return None
    return WallSite("block" if remove else "slot", j, l, 1, kind.row_color(l), delta)


def _reference_site(Y, j, remove):
    """The double move when the row is split and the double is legal, else the single."""
    kind = Y.kind
    h = Y.height(j)
    l = kind.row_of_half(h if remove else h + 1)
    if h % 2 == 0 and kind.is_split(l) and reference_can_set(Y, j, h - 2 if remove else h + 2):
        return WallSite("block" if remove else "slot", j, l, 2, kind.row_color(l), 2)
    return _reference_single(Y, j, remove)


def reference_listing(seq, Y):
    """classify_sites, legal_single_adds, legal_single_removes and moves as
    listed before the one column rule, each column tried once per function."""
    cols = range(1, len(Y.halves) + 2)
    sites = [_reference_site(Y, j, r) for j in cols for r in (False, True)]
    sites = [site for site in sites if site]
    adds = [m for m in (_reference_single(Y, j, False) for j in cols) if m]
    removes = [m for m in (_reference_single(Y, j, True) for j in cols) if m]
    doubles = [site for site in sites if site.multiplicity == 2]
    move_list = []
    for site in adds + removes + doubles:
        address = young_wall._address(seq, Y, site)
        move_list.append(site_move(toggle_block(Y, site), address[0], address))
    return sites, adds, removes, move_list


class TestColumnRule:
    """One rule gives each column's single and double move; the listings
    agree, in order, with the two rules they replace."""

    @pytest.mark.parametrize("family", ["A2wall", "D2wall"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_equal_to_the_reference_listing(self, family, n):
        seq = make_seq("A2" if family == "A2wall" else "C1", n)
        for ground in (1,) if family == "A2wall" else (1, n):
            # 12 halves reach the D2wall (10, 4): its remove double, in column
            # 1, comes before the add double of column 2
            for Y in enumerate_walls(WallKind(family, n, ground), 12 if n == 3 else 10):
                listing = (
                    classify_sites(Y),
                    legal_single_adds(Y),
                    legal_single_removes(Y),
                    object_moves(seq, "wall", Y),
                )
                assert listing == reference_listing(seq, Y)


def _full_scan_can_set(Y, j, new_h):
    """Whether column j may be set to new_h: a copy of the wall and a scan of every column."""
    vals = list(Y.halves)
    while len(vals) < j:
        vals.append(1)
    vals[j - 1] = new_h
    while vals and vals[-1] == 1:
        vals.pop()
    return not young_wall._violations(Y.kind, vals)


class TestLocalProperness:
    """_fits tests only the changed column's neighbours; it must answer as
    the full scan does on every proper wall."""

    @pytest.mark.parametrize("family", ["A2wall", "D2wall"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_equal_to_the_full_scan(self, family, n):
        for ground in (1,) if family == "A2wall" else (1, n):
            walls = enumerate_walls(WallKind(family, n, ground), 12 if n == 3 else 10)
            for Y in walls:
                for j in range(1, len(Y.halves) + 2):
                    h = Y.height(j)
                    for new_h in range(h - 2, h + 3):
                        right = Y.height(j - 1) if j > 1 else young_wall._NO_BOUND
                        fits = young_wall._fits(Y.kind, new_h, Y.height(j + 1), right)
                        assert fits == _full_scan_can_set(
                            Y, j, new_h
                        ), (Y.halves, j, new_h)


def reference_can_set(Y, j, h):
    """_can_set as it was before the neighbours were read once per column."""
    left = Y.height(j + 1)
    right = Y.height(j - 1) if j > 1 else h + 1  # column 1 has no right neighbour
    if not right >= h >= left:
        return False
    if h % 2:
        return h == 1 or Y.kind.is_split(Y.kind.row_of_half(h))
    return h != left and h != right


def reference_column_move(Y, j, remove):
    """_column_move as it was before the kind's row table: a fold per site."""
    kind, h = Y.kind, Y.height(j)
    l = kind.row_of_half(h if remove else h + 1)
    split = h % 2 == 0 and kind.is_split(l)
    sign, delta = (-1 if remove else 1), (1 if split or h % 2 else 2)
    role, c = ("block" if remove else "slot"), kind.row_color(l)
    fits = reference_can_set(Y, j, h + sign * delta)
    single = WallSite(role, j, l, 1, c, delta) if fits else None
    fits = split and reference_can_set(Y, j, h + 2 * sign)
    double = WallSite(role, j, l, 2, c, 2) if fits else None
    return single, double


def reference_toggle_block(Y, site):
    """toggle_block as it was before the splice: a padded list, trimmed."""
    j = site.column
    if j < 1 or site not in reference_column_move(Y, j, site.role == "block"):
        raise WallError(f"{site} is not a legal move of {Y}")
    vals = list(Y.halves) + [1] * (j - len(Y.halves))
    vals[j - 1] += site.halves if site.role == "slot" else -site.halves
    while vals and vals[-1] == 1:
        vals.pop()
    return YoungWall(Y.kind, tuple(vals))


class TestRowTableKernels:
    """_column_move reads the kind's row table and each column once, and
    toggle_block splices the one changed height; both agree with the
    references on every wall up to 6 blocks of every ground at n = 3 and 4,
    on every column of each, and moves on every permutation word."""

    @pytest.mark.parametrize("family", ["A2wall", "D2wall"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_equal_to_the_references(self, family, n):
        seqs = permutation_seqs(young_wall.WALL_FAMILIES[family], n)
        for ground in (1,) if family == "A2wall" else (1, n):
            walls = enumerate_walls(WallKind(family, n, ground), 12)
            for Y in [Y for Y in walls if Y.block_count() <= 6]:
                listed = []
                for j in range(1, len(Y.halves) + 3):
                    for remove in (False, True):
                        pair = young_wall._column_move(Y, j, remove)
                        assert pair == reference_column_move(Y, j, remove), (Y, j, remove)
                        listed += [site for site in pair if site]
                for site in listed:
                    assert toggle_block(Y, site) == reference_toggle_block(Y, site), (Y, site)
                for seq in seqs:
                    assert object_moves(seq, "wall", Y) == reference_listing(seq, Y)[3], (seq, Y)

    def test_row_table_is_the_fold(self):
        for kind in (WallKind("A2wall", 4, 1), WallKind("D2wall", 4, 4)):
            for l in range(1, 20):
                assert kind.row(l) == (kind.row_color(l), kind.is_split(l))
