"""Extended Young diagrams, corner toggles, and their assigned forms."""

import pytest

from polyreal import LinearForm, fold, p_table
from polyreal import eyd
from polyreal.forms import site_move
from polyreal.eyd import (
    Corner,
    EYDError,
    ExtendedYoungDiagram,
    assign_a1,
    assign_d2,
    corners,
    enumerate_eyd,
    make_eyd,
    render_eyd,
    toggle_corner,
)
from conftest import object_moves, permutation_seqs, reference_partitions

x = LinearForm.x


def shapes_for_charge(k):
    """The six smallest diagrams of charge k, empty first."""
    return [
        make_eyd(k, []),
        make_eyd(k, [k - 1]),
        make_eyd(k, [k - 1, k - 1]),
        make_eyd(k, [k - 2]),
        make_eyd(k, [k - 2, k - 1]),
        make_eyd(k, [k - 2, k - 2]),
    ]


def expected_small_forms(k, s):
    """Assignments of the six smallest diagrams for the cyclic rank 3 case."""
    table = {
        1: [
            x(s, 1),
            x(s + 1, 2) + x(s, 3) - x(s + 1, 1),
            x(s + 1, 3) + x(s, 3) - x(s + 2, 2),
            2 * x(s + 1, 2) - x(s + 1, 3),
            x(s + 1, 2) + x(s + 1, 1) - x(s + 2, 2),
            x(s + 1, 2) + x(s + 1, 3) - x(s + 2, 1),
        ],
        2: [
            x(s, 2),
            x(s, 1) + x(s, 3) - x(s + 1, 2),
            x(s, 1) + x(s + 1, 1) - x(s + 1, 3),
            2 * x(s, 3) - x(s + 1, 1),
            x(s, 3) + x(s + 1, 2) - x(s + 1, 3),
            x(s, 3) + x(s + 1, 1) - x(s + 2, 2),
        ],
        3: [
            x(s, 3),
            x(s + 1, 1) + x(s + 1, 2) - x(s + 1, 3),
            x(s + 2, 2) + x(s + 1, 2) - x(s + 2, 1),
            2 * x(s + 1, 1) - x(s + 2, 2),
            x(s + 1, 1) + x(s + 1, 3) - x(s + 2, 1),
            x(s + 1, 1) + x(s + 2, 2) - x(s + 2, 3),
        ],
    }
    return table[k]


class TestConstruction:
    def test_trailing_charge_columns_trimmed(self):
        assert make_eyd(2, [1, 2, 2]).ys == (1,)
        assert make_eyd(0, [0, 0]).ys == ()

    def test_decreasing_rejected(self):
        with pytest.raises(EYDError):
            make_eyd(1, [0, -1])

    def test_above_charge_rejected(self):
        with pytest.raises(EYDError):
            make_eyd(1, [2])

    def test_y_extends_with_charge(self):
        T = make_eyd(3, [1])
        assert T.y(0) == 1 and T.y(1) == 3 and T.y(7) == 3

    def test_negative_column_rejected(self):
        with pytest.raises(EYDError):
            make_eyd(1, [-1, 0]).y(-1)

    def test_boxes(self):
        assert make_eyd(1, [-3, -2, -1, -1, 0]).boxes() == 12
        assert make_eyd(5, []).boxes() == 0

    def test_json_round_trip(self):
        for T in [make_eyd(2, [0, 1]), *enumerate_eyd(1, 5)]:
            assert ExtendedYoungDiagram.from_json(T.to_json()) == T

    def test_fractional_input_rejected(self):
        with pytest.raises(EYDError):
            make_eyd(1, [-1.5, 0.7])
        with pytest.raises(EYDError):
            make_eyd(1.5, [0])
        with pytest.raises(EYDError):
            make_eyd("x", [])
        with pytest.raises(EYDError):
            ExtendedYoungDiagram.from_json({"charge": 1.5, "ys": [0]})

    def test_integral_floats_accepted(self):
        T = make_eyd(1.0, [-1.0, 0.0])
        assert T == make_eyd(1, [-1, 0]) and type(T.charge) is int


class TestValueObject:
    """A diagram is an immutable tuple of its fields, compared and hashed as one."""

    def test_equal_builds_are_equal_and_hash_equal(self):
        built = [
            make_eyd(2, [0, 1]),
            ExtendedYoungDiagram.from_json({"charge": 2, "ys": [0, 1, 2]}),
            eyd._toggle(make_eyd(2, [0]), Corner("concave", 1, 2)),
            next(T for T in enumerate_eyd(2, 3) if T.ys == (0, 1)),
        ]
        assert all(T == built[0] and hash(T) == hash(built[0]) for T in built)
        assert len(set(built)) == 1

    def test_repr(self):
        assert repr(make_eyd(2, [0, 1])) == "ExtendedYoungDiagram(charge=2, ys=(0, 1))"

    def test_fields_cannot_be_assigned(self):
        T = make_eyd(2, [0, 1])
        with pytest.raises(AttributeError):
            T.charge = 3
        with pytest.raises(AttributeError):
            T.extra = 1


class TestCorners:
    def test_empty_diagram(self):
        assert corners(make_eyd(4, [])) == [Corner("concave", 0, 4)]

    def test_staircase_example(self):
        T = make_eyd(1, [-3, -2, -1, -1, 0])
        got = corners(T)
        concave = {(c.x, c.y) for c in got if c.kind == "concave"}
        convex = {(c.x, c.y) for c in got if c.kind == "convex"}
        assert concave == {(0, -3), (1, -2), (2, -1), (4, 0), (5, 1)}
        assert convex == {(1, -3), (2, -2), (4, -1), (5, 0)}

    def test_diagonal(self):
        assert Corner("concave", 2, -1).diagonal == 1


class TestToggles:
    @pytest.mark.parametrize("ys", [[], [0], [-1, 0], [-2, -1, -1]])
    def test_add_then_remove_round_trip(self, ys):
        T = make_eyd(1, ys)
        for c in corners(T):
            if c.kind != "concave":
                continue
            bigger = toggle_corner(T, c)
            assert bigger.boxes() == T.boxes() + 1
            back = toggle_corner(bigger, Corner("convex", c.x + 1, c.y - 1))
            assert back == T

    def test_remove_then_add_round_trip(self):
        T = make_eyd(1, [-1, 0])
        for c in corners(T):
            if c.kind != "convex":
                continue
            smaller = toggle_corner(T, c)
            assert smaller.boxes() == T.boxes() - 1
            assert toggle_corner(smaller, Corner("concave", c.x - 1, c.y + 1)) == T

    def test_non_corner_rejected(self):
        T = make_eyd(1, [0])
        with pytest.raises(EYDError):
            toggle_corner(T, Corner("concave", 3, 1))
        with pytest.raises(EYDError):
            toggle_corner(T, Corner("convex", 1, 1))

    def test_wrong_kind_rejected(self):
        """A listed corner's (x, y) with the other kind is not a corner."""
        T = make_eyd(1, [0])
        other = {"concave": "convex", "convex": "concave"}
        listed = corners(T)
        assert {c.kind for c in listed} == set(other)
        for c in listed:
            with pytest.raises(EYDError):
                toggle_corner(T, Corner(other[c.kind], c.x, c.y))


class TestAssignment:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2])
    def test_small_forms_cyclic_rank3(self, a1_n3, k, s):
        got = [assign_a1(a1_n3, T, s) for T in shapes_for_charge(k)]
        assert got == expected_small_forms(k, s)

    def test_empty_diagram_d2(self, d2_n3):
        for k in (1, 2, 3):
            assert assign_d2(d2_n3, make_eyd(k, []), 1) == x(1, k)

    def test_family_mismatch_rejected(self, a1_n3, d2_n3, a2_n3):
        from polyreal import RootDataError

        T = make_eyd(1, [])
        with pytest.raises(RootDataError):
            assign_d2(a1_n3, T, 1)
        with pytest.raises(RootDataError):
            assign_a1(d2_n3, T, 1)
        with pytest.raises(RootDataError, match="^assignment needs family A1 or D2, got A2$"):
            eyd.sites(a2_n3, T)


def partition_count_oracle(max_boxes):
    """Cumulative partition counts via the classical coin DP."""
    counts = [1] + [0] * max_boxes
    for part in range(1, max_boxes + 1):
        for m in range(part, max_boxes + 1):
            counts[m] += counts[m - part]
    total = 0
    out = []
    for m in range(max_boxes + 1):
        total += counts[m]
        out.append(total)
    return out


class TestEnumeration:
    def test_counts_match_partition_numbers(self):
        oracle = partition_count_oracle(6)
        assert oracle == [1, 2, 4, 7, 12, 19, 30]
        for charge in (1, 3):
            for b in range(7):
                assert len(enumerate_eyd(charge, b)) == oracle[b]

    def test_negative_bound_gives_none(self):
        assert enumerate_eyd(2, -1) == []

    def test_partitions_in_the_reference_order(self):
        for m in range(21):
            assert [tuple(p) for p in eyd._partitions(m)] == list(reference_partitions(m, m)), m

    def test_diagrams_in_the_reference_order(self):
        for charge in (0, 2):
            assert enumerate_eyd(charge, 8) == [
                make_eyd(charge, [charge - d for d in depths])
                for m in range(9)
                for depths in reference_partitions(m, m)
            ]

    def test_all_distinct_and_within_bound(self):
        diagrams = enumerate_eyd(2, 5)
        assert len(set(diagrams)) == len(diagrams)
        assert all(T.boxes() <= 5 for T in diagrams)


class TestRender:
    def test_empty(self):
        assert render_eyd(make_eyd(3, [])) == "(empty)"

    def test_staircase_picture(self):
        T = make_eyd(1, [-3, -2, -1, -1, 0])
        assert render_eyd(T) == "\n".join(
            [
                "[][][][][]   y=1..0",
                "[][][][]   y=0..-1",
                "[][]   y=-1..-2",
                "[]   y=-2..-3",
            ]
        )


def reference_sites(seq, T):
    """sites as it was before the one-pass read: a Corner per corner, each
    addressed by its own p_table and fold calls."""
    fold_kind, n, out = eyd._fold_kind(seq), seq.root_system.n, []
    for c in corners(T):
        d = c.x + c.y
        offset = p_table(seq, fold_kind, T.charge, d) + min(T.charge - c.y, c.x)
        out.append((1 if c.kind == "concave" else -1, offset, fold(fold_kind, n, d)))
    return out


class TestOnePassSites:
    """sites reads the corners off the stored values in one pass; it and
    moves agree with the corner-based reference on every permutation word at
    n = 3 and 4, every charge and every diagram up to 6 boxes."""

    @pytest.mark.parametrize("family", ["A1", "D2"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_equal_to_the_corner_reference(self, family, n):
        diagrams = [T for k in range(1, n + 1) for T in enumerate_eyd(k, 6)]
        toggled = {T: [toggle_corner(T, c) for c in corners(T)] for T in diagrams}
        for seq in permutation_seqs(family, n):
            for T in diagrams:
                expected = reference_sites(seq, T)
                assert eyd.sites(seq, T) == expected, (seq, T)
                moves = [site_move(T2, a[0], a) for T2, a in zip(toggled[T], expected)]
                assert object_moves(seq, "eyd", T) == moves, (seq, T)
