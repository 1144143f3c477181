"""Revised extended Young diagrams: windows, marked points, forms, toggles."""

import pytest

from polyreal import LinearForm, RootDataError, p_table
from polyreal.reyd import (
    MarkedPoint,
    REYDError,
    RevisedEYD,
    assign,
    classify_points,
    enumerate_reyd,
    make_reyd,
    phi_reyd,
    render_reyd,
    toggle_point,
    validate,
)
from conftest import make_seq

x = LinearForm.x


class TestParameters:
    def test_unknown_flavor(self):
        with pytest.raises(REYDError):
            make_reyd("B2", 3, 2, 0, [2])

    def test_charge_range_a2(self):
        phi_reyd("A2", 3, 2)
        phi_reyd("A2", 3, 3)
        for k in (1, 4):
            with pytest.raises(REYDError):
                phi_reyd("A2", 3, k)

    def test_charge_range_d2target(self):
        phi_reyd("D2target", 3, 2)
        for k in (1, 3):
            with pytest.raises(REYDError):
                phi_reyd("D2target", 3, k)

    def test_rank_too_small(self):
        with pytest.raises(REYDError):
            phi_reyd("A2", 2, 2)


class TestShapes:
    def test_phi_window(self):
        T = phi_reyd("A2", 3, 2)
        assert (T.t_lo, T.ys) == (0, (2,))
        assert T.units() == 0
        assert T.y(-4) == -2 and T.y(0) == 2 and T.y(9) == 2

    def test_modulus(self):
        assert phi_reyd("A2", 3, 2).modulus == 5
        assert phi_reyd("D2target", 3, 2).modulus == 6

    def test_canonicalization_trims_redundant_window(self):
        wide = make_reyd("A2", 3, 2, -3, [-1, 0, 1, 1, 2, 2, 2])
        assert wide == make_reyd("A2", 3, 2, -1, [1, 1, 2])
        all_trivial = make_reyd("A2", 3, 2, -3, [-1, 0, 1, 2, 2, 2])
        assert all_trivial == phi_reyd("A2", 3, 2)

    def test_forbidden_drop_rejected(self):
        with pytest.raises(REYDError):
            make_reyd("A2", 3, 2, -1, [1, 0, 2])

    def test_too_steep_rise_rejected(self):
        with pytest.raises(REYDError):
            make_reyd("A2", 3, 2, 0, [0, 2])

    def test_validate_reports_violations(self):
        bad = RevisedEYD("A2", 3, 2, 0, (0, 2))
        assert validate(bad)
        # charge 3 relaxes position 0 for n = 3; the charge is reported first
        assert validate(RevisedEYD("D2target", 3, 3, 0, (3,))) == [
            "flavor D2target needs charge in 2..2, got 3"
        ]
        assert validate(phi_reyd("A2", 3, 2)) == []

    def test_units(self):
        assert make_reyd("A2", 3, 2, -1, [1, 1, 2]).units() == 1
        assert make_reyd("A2", 3, 2, -2, [0, 0, 1, 2]).units() == 2

    def test_json_round_trip(self):
        T = make_reyd("A2", 3, 2, -2, [0, 0, 1, 1, 2])
        assert RevisedEYD.from_json(T.to_json()) == T


class TestClassification:
    def test_one_unit_diagram_marked_points(self):
        T = make_reyd("A2", 3, 2, -1, [1, 1, 2])
        pts = {(p.role, p.x, p.y, p.multiplicity, p.color) for p in classify_points(T)}
        assert pts == {
            ("admissible", -1, 1, 2, 1),
            ("admissible", 1, 2, 1, 3),
            ("removable", 1, 1, 1, 2),
        }

    def test_phi_has_no_removable(self):
        for flavor, k in [("A2", 2), ("A2", 3), ("D2target", 2)]:
            pts = classify_points(phi_reyd(flavor, 3, k))
            assert all(p.role == "admissible" for p in pts)


REYD_FORM_GOLDENS = [
    (2, 0, [2], lambda s: x(s, 2)),
    (2, -1, [1, 1, 2], lambda s: 2 * x(s, 1) + x(s, 3) - x(s + 1, 2)),
    (2, -2, [0, 0, 1, 2], lambda s: x(s, 1) + x(s, 3) - x(s + 1, 1)),
    (
        2,
        -2,
        [0, 0, 1, 1, 2],
        lambda s: x(s, 1) + 2 * x(s + 1, 2) - x(s + 1, 3) - x(s + 1, 1),
    ),
    (
        2,
        -1,
        [0, 0, 1, 2],
        lambda s: x(s + 1, 1) + x(s + 1, 2) + x(s, 1) - x(s + 2, 2),
    ),
    (2, -1, [-1, 0, 1, 2], lambda s: x(s, 1) + x(s + 1, 2) - x(s + 2, 1)),
    (3, 0, [3], lambda s: x(s, 3)),
    (3, -1, [2, 2, 3], lambda s: 2 * x(s + 1, 2) - x(s + 1, 3)),
    (3, -1, [2, 2, 2, 3], lambda s: 2 * x(s + 1, 1) + x(s + 1, 2) - x(s + 2, 2)),
]


class TestAssignment:
    @pytest.mark.parametrize("k,t_lo,ys,expected", REYD_FORM_GOLDENS)
    @pytest.mark.parametrize("s", [1, 2])
    def test_small_forms_a2_rank3(self, a2_n3, k, t_lo, ys, expected, s):
        T = make_reyd("A2", 3, k, t_lo, ys)
        assert assign(a2_n3, T, s) == expected(s)

    def test_phi_d2target(self, c1_n3):
        assert assign(c1_n3, phi_reyd("D2target", 3, 2), 1) == x(1, 2)

    def test_family_mismatch_rejected(self, a1_n3):
        with pytest.raises(RootDataError):
            assign(a1_n3, phi_reyd("A2", 3, 2), 1)

    def test_rank_mismatch_rejected(self):
        seq = make_seq("A2", 4, [2, 1, 3, 4])
        with pytest.raises(RootDataError):
            assign(seq, phi_reyd("A2", 3, 2), 1)

    @pytest.mark.parametrize("flavor,k", [("A2", 2), ("A2", 3), ("D2target", 2)])
    def test_occurrence_offsets_nonnegative(self, flavor, k):
        family = "A2" if flavor == "A2" else "C1"
        variant = "pi1" if flavor == "A2" else "pi2"
        seq = make_seq(family, 3)
        for T in enumerate_reyd(flavor, 3, k, 4):
            for pt in classify_points(T):
                if pt.role == "admissible":
                    off = p_table(seq, variant, k, pt.x + k) + min(pt.x, 0) + (k - pt.y)
                    assert off >= 0
                else:
                    off = p_table(seq, variant, k, pt.x + k - 1) + min(pt.x - 1, 0) + (k - pt.y)
                    assert off >= 1


class TestToggles:
    @pytest.mark.parametrize("flavor,k", [("A2", 2), ("A2", 3), ("D2target", 2)])
    def test_lower_then_raise_round_trip(self, flavor, k):
        for T in enumerate_reyd(flavor, 3, k, 3):
            for pt in classify_points(T):
                if pt.role != "admissible":
                    continue
                T2 = toggle_point(T, pt)
                assert T2.units() == T.units() + 1
                back = MarkedPoint("removable", pt.x + 1, pt.y - 1, pt.multiplicity, pt.color)
                assert toggle_point(T2, back) == T

    def test_invalid_toggle_rejected(self):
        T = phi_reyd("A2", 3, 2)
        with pytest.raises(REYDError):
            toggle_point(T, MarkedPoint("removable", 1, 1, 1, 2))
        with pytest.raises(REYDError):
            toggle_point(T, MarkedPoint("admissible", 0, 5, 1, 2))


class TestEnumeration:
    @pytest.mark.parametrize("flavor,k", [("A2", 2), ("A2", 3), ("D2target", 2)])
    def test_sorted_valid_and_bounded(self, flavor, k):
        out = enumerate_reyd(flavor, 3, k, 4)
        assert out[0] == phi_reyd(flavor, 3, k)
        assert len(set(out)) == len(out)
        assert all(T.units() <= 4 for T in out)
        assert all(validate(T) == [] for T in out)
        keys = [(T.units(), T.t_lo, T.ys) for T in out]
        assert keys == sorted(keys)

    def test_monotone_in_bound(self):
        small = set(enumerate_reyd("A2", 3, 2, 2))
        large = set(enumerate_reyd("A2", 3, 2, 3))
        assert small <= large and len(small) < len(large)


class TestRender:
    def test_mentions_marked_points(self):
        text = render_reyd(make_reyd("A2", 3, 2, -1, [1, 1, 2]))
        assert "admissible (-1,1) color 1 double" in text
        assert "removable (1,1) color 2" in text
        assert text.splitlines()[0].startswith("t:")
