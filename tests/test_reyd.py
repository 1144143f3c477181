"""Revised extended Young diagrams: windows, marked points, forms, toggles."""

from itertools import product

import pytest

from polyreal import LinearForm, RootDataError, fold, p_table
from polyreal import reyd
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
from conftest import make_seq, object_moves

# Every entry point that reads a diagram against a sequence checks the sequence first.
SEQUENCE_CALLS = (
    lambda seq, T: assign(seq, T, 1),
    reyd.sites,
    lambda seq, T: object_moves(seq, "reyd", T),
)

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

    @pytest.mark.parametrize(
        "n,k,t_lo,ys",
        [
            (3.9, 2, 0, [2]),
            (3, 2.5, 0, [2]),
            (3, 2, 0.5, [2]),
            (3, 2, -1, [1, 2.2]),
            (3, 2, 1.5, []),
        ],
        ids=["rank", "charge", "t_lo", "value", "t_lo_no_values"],
    )
    def test_fractional_input_rejected(self, n, k, t_lo, ys):
        with pytest.raises(REYDError):
            make_reyd("A2", n, k, t_lo, ys)
        data = {"flavor": "A2", "n": n, "k": k, "t_lo": t_lo, "ys": ys}
        with pytest.raises(REYDError):
            RevisedEYD.from_json(data)

    def test_fractional_parameters_rejected(self):
        with pytest.raises(REYDError):
            phi_reyd("A2", 3.5, 2)
        assert validate(RevisedEYD("A2", 3.9, 2, 0, (2,))) != []

    def test_integral_floats_accepted(self):
        T = make_reyd("A2", 3.0, 2.0, -1.0, [1.0, 1.0, 2.0])
        assert T == make_reyd("A2", 3, 2, -1, [1, 1, 2])
        assert all(type(v) is int for v in (T.n, T.k, T.t_lo, *T.ys))
        assert phi_reyd("A2", 3.0, 2.0) == phi_reyd("A2", 3, 2)


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

    def test_t_lo_out_of_range_rejected(self):
        # m values fit only a t_lo in -m..1; phi takes no values, so any t_lo
        assert make_reyd("A2", 3, 2, 1, [2]) == phi_reyd("A2", 3, 2)
        assert make_reyd("A2", 3, 2, -3, [-1, 0, 1]) == phi_reyd("A2", 3, 2)
        assert make_reyd("A2", 3, 2, 9, []) == phi_reyd("A2", 3, 2)
        for t_lo, ys in ((2, [2]), (-4, [-1, 0, 1]), (-2**63 + 1, [1]), (2**63 - 1, [1])):
            with pytest.raises(REYDError, match=rf"^t_lo must lie in -{len(ys)}\.\.1 .*{t_lo}$"):
                make_reyd("A2", 3, 2, t_lo, ys)

    @pytest.mark.parametrize("flavor", ["A2", "D2target"])
    def test_no_valid_diagram_outside_the_t_lo_range(self, flavor):
        # the raw windows that make_reyd no longer pads are all invalid
        k = 2
        for size in range(1, 4):
            for ys in product(range(k - 4, k + 3), repeat=size):
                for t_lo in [*range(-size - 4, -size), *range(2, 6)]:
                    with pytest.raises(REYDError):
                        reyd._validate(reyd._trimmed(flavor, 3, k, t_lo, ys))

    def test_units(self):
        assert make_reyd("A2", 3, 2, -1, [1, 1, 2]).units() == 1
        assert make_reyd("A2", 3, 2, -2, [0, 0, 1, 2]).units() == 2

    def test_json_round_trip(self):
        for T in [make_reyd("A2", 3, 2, -2, [0, 0, 1, 1, 2]), *enumerate_reyd("A2", 4, 3, 4)]:
            assert RevisedEYD.from_json(T.to_json()) == T


class TestValueObject:
    """A diagram is an immutable tuple of its fields, compared and hashed as one."""

    def test_equal_builds_are_equal_and_hash_equal(self):
        phi = phi_reyd("D2target", 4, 2)
        built = [
            make_reyd("D2target", 4, 2, -1, [1, 1, 2]),
            RevisedEYD.from_json({"flavor": "D2target", "n": 4, "k": 2, "t_lo": -1, "ys": [1, 1]}),
            reyd._toggle(phi, MarkedPoint("admissible", 0, 2, 1, 2)),
            next(T for T in enumerate_reyd("D2target", 4, 2, 1) if T != phi),
        ]
        assert all(T == built[0] and hash(T) == hash(built[0]) for T in built)
        assert len(set(built)) == 1

    def test_repr(self):
        assert repr(phi_reyd("D2target", 4, 2)) == (
            "RevisedEYD(flavor='D2target', n=4, k=2, t_lo=0, ys=(2,))"
        )

    def test_fields_cannot_be_assigned(self):
        T = phi_reyd("A2", 3, 2)
        with pytest.raises(AttributeError):
            T.k = 3
        with pytest.raises(AttributeError):
            T.extra = 1


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
        for call in SEQUENCE_CALLS:
            with pytest.raises(RootDataError):
                call(a1_n3, phi_reyd("A2", 3, 2))

    def test_rank_mismatch_rejected(self):
        seq = make_seq("A2", 4, [2, 1, 3, 4])
        for call in SEQUENCE_CALLS:
            with pytest.raises(RootDataError):
                call(seq, phi_reyd("A2", 3, 2))

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

    @pytest.mark.parametrize("bound", [0])
    def test_no_units_gives_the_highest_diagram(self, bound):
        assert enumerate_reyd("D2target", 4, 3, bound) == [phi_reyd("D2target", 4, 3)]

    @pytest.mark.parametrize("flavor,n,k", [("D2target", 4, 3), ("A2", 3, 2)])
    def test_negative_bound_gives_none(self, flavor, n, k):
        assert enumerate_reyd(flavor, n, k, -1) == []

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


def reference_validate(T):
    """validate as it was before the window argument: every step up to one
    modulus past the window is tested."""
    try:
        reyd._check_parameters(T.flavor, T.n, T.k)
    except REYDError as e:
        return [str(e)]
    if T.y(T.t_lo) != T.k + T.t_lo or T.y(T.t_hi) != T.k:
        return [f"window endpoints must meet the staircase and the charge: {T}"]
    M = T.modulus
    for t in range(T.t_lo - M - 1, T.t_hi + M + 1):
        if not reyd._pair_ok(T, t, T.y(t), T.y(t + 1)):
            return [f"step {T.y(t)} -> {T.y(t + 1)} at position {t} violates the conditions"]
    return []


def lower_ok(T, i):
    yi = T.y(i) - 1
    return reyd._pair_ok(T, i - 1, T.y(i - 1), yi) and reyd._pair_ok(T, i, yi, T.y(i + 1))


def raise_ok(T, i):
    yi1 = T.y(i - 1) + 1
    return reyd._pair_ok(T, i - 2, T.y(i - 2), yi1) and reyd._pair_ok(T, i - 1, yi1, T.y(i))


def double_adm(T, i):
    if not (T.y(i - 1) < T.y(i) == T.y(i + 1)):
        return False
    return (i > 0 and reyd._special(T, i + T.k)) or (i < 0 and reyd._special(T, i + T.k - 1))


def double_rem(T, i):
    if not (T.y(i - 2) == T.y(i - 1) < T.y(i)):
        return False
    return (i > 1 and reyd._special(T, i + T.k - 2)) or (i < 1 and reyd._special(T, i + T.k - 1))


def reference_classify_points(T):
    """classify_points as it was before the window argument: every position
    up to one modulus past the window is tried, each value read through T.y."""
    M, variant = T.modulus, reyd.FLAVORS[T.flavor][1]
    out = []
    for i in range(T.t_lo - M - 1, T.t_hi + M + 2):
        if lower_ok(T, i):
            mult = 2 if double_adm(T, i) else 1
            out.append(MarkedPoint("admissible", i, T.y(i), mult, fold(variant, T.n, i + T.k)))
        if raise_ok(T, i):
            mult = 2 if double_rem(T, i) else 1
            color = fold(variant, T.n, i + T.k - 1)
            out.append(MarkedPoint("removable", i, T.y(i - 1), mult, color))
    return out


def reference_address(seq, T, pt):
    """The (coeff, offset, color) term of a point as it was addressed before
    the read took P^k from the sequence's table: +mult when admissible and
    -mult when removable, at offset P^k(t + k) + min(t, 0) + k - y, with t
    = x for an admissible point and x - 1 for a removable one."""
    k = T.k
    t = pt.x if pt.role == "admissible" else pt.x - 1
    offset = p_table(seq, reyd.FLAVORS[T.flavor][1], k, t + k) + min(t, 0) + k - pt.y
    coeff = pt.multiplicity if pt.role == "admissible" else -pt.multiplicity
    return coeff, offset, pt.color


class TestResidueTables:
    """The color and special-flag tables of each flavor at n = 3..8 agree
    with fold and with the special residues (0, and n for D2target) at every
    t in -3M..3M, M the modulus, read at the residue of t and at the keys one
    and two below it, as classify_points reads them.  The modulus is the
    period of the flavor's fold."""

    @pytest.mark.parametrize("flavor", ["A2", "D2target"])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_entries_are_fold_and_special(self, flavor, n):
        colors, special = reyd._residues(flavor, n)
        M = colors.period
        assert M == special.period == phi_reyd(flavor, n, 2).modulus
        assert M == (2 * n - 1 if flavor == "A2" else 2 * n)
        residues = {0, n} if flavor == "D2target" else {0}
        variant = reyd.FLAVORS[flavor][1]
        for t in range(-3 * M, 3 * M + 1):
            for below in (0, 1, 2):
                assert colors[t % M - below] == fold(variant, n, t - below), (t, below)
                assert special[t % M - below] == ((t - below) % M in residues), (t, below)


class TestWindowScans:
    """validate and classify_points read only the canonical window; the
    scans one modulus past it agree on every diagram and on every one-value
    change of a diagram."""

    @pytest.mark.parametrize("flavor", ["A2", "D2target"])
    def test_equal_to_the_wide_scans(self, flavor):
        for n in (3, 4, 5):
            for k in range(2, (n if flavor == "A2" else n - 1) + 1):
                for T in enumerate_reyd(flavor, n, k, 5):
                    assert validate(T) == reference_validate(T) == []
                    assert classify_points(T) == reference_classify_points(T)
                    for m in range(len(T.ys)):
                        for d in (-2, -1, 1, 2):
                            ys = T.ys[:m] + (T.ys[m] + d,) + T.ys[m + 1 :]
                            U = RevisedEYD(flavor, n, k, T.t_lo, ys)
                            assert validate(U) == reference_validate(U)
                            if not validate(U):
                                assert classify_points(U) == reference_classify_points(U)


def trimmed(raw):
    """_trimmed of a raw diagram's fields."""
    return reyd._trimmed(raw.flavor, raw.n, raw.k, raw.t_lo, raw.ys)


def reference_trimmed(raw):
    """_trimmed as it was before the one-tuple read: each value through raw.y."""
    k, t, u = raw.k, min(raw.t_lo, 0), max(raw.t_hi, 0)
    while t <= 0 and raw.y(t) == k + t:
        t += 1
    while u >= 0 and raw.y(u) == k:
        u -= 1
    lo, hi = min(t - 1, 0), max(u + 1, 0)
    return RevisedEYD(raw.flavor, raw.n, k, lo, tuple(raw.y(v) for v in range(lo, hi + 1)))


def reference_can_set(T, t, before, value, after):
    """Whether y_t = value keeps both steps beside it allowed, given y_{t-1}
    and y_{t+1}: the test that toggle_point made before it read classify_points."""
    return reyd._pair_ok(T, t - 1, before, value) and reyd._pair_ok(T, t, value, after)


def reference_toggle_point(T, point):
    """toggle_point as it was before the splice: the two steps beside the
    changed value tested, and the window rebuilt through T.y."""
    t, delta = (point.x, -1) if point.role == "admissible" else (point.x - 1, 1)
    legal = point.role in ("admissible", "removable") and T.y(t) == point.y
    if not (legal and reference_can_set(T, t, T.y(t - 1), point.y + delta, T.y(t + 1))):
        raise REYDError(f"{point} is not an admissible or removable point of {T}")
    lo = min(T.t_lo, t)
    ys = [T.y(u) for u in range(lo, max(T.t_hi, t) + 1)]
    ys[t - lo] += delta
    return reference_trimmed(RevisedEYD(T.flavor, T.n, T.k, lo, tuple(ys)))


class TestOnePassKernels:
    """classify_points, toggle_point and _trimmed read the stored tuple in one
    pass; they agree with the per-position references on every diagram up to
    6 units of every charge at n = 3 and 4, on every move of each, and on
    raw windows around each."""

    @pytest.mark.parametrize("flavor", ["A2", "D2target"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_equal_to_the_references(self, flavor, n):
        # none of the three reads a sequence, so no word is needed
        for k in range(2, (n if flavor == "A2" else n - 1) + 1):
            for T in enumerate_reyd(flavor, n, k, 6):
                points = classify_points(T)
                assert points == reference_classify_points(T)
                for pt in points:
                    assert toggle_point(T, pt) == reference_toggle_point(T, pt), (T, pt)
                # raw windows: shifted ends, and one value changed
                for a in range(-2, 3):
                    for b in range(-2, 3):
                        lo, hi = T.t_lo + a, T.t_hi + b
                        U = RevisedEYD(flavor, n, k, lo, tuple(T.y(t) for t in range(lo, hi + 1)))
                        assert trimmed(U) == reference_trimmed(U)
                        if a <= 0 <= b:
                            assert trimmed(U) == T
                for m in range(len(T.ys)):
                    for d in (-1, 1):
                        ys = T.ys[:m] + (T.ys[m] + d,) + T.ys[m + 1 :]
                        U = RevisedEYD(flavor, n, k, T.t_lo, ys)
                        assert trimmed(U) == reference_trimmed(U)

    @pytest.mark.parametrize("flavor", ["A2", "D2target"])
    def test_trimmed_off_zero_and_empty(self, flavor):
        """Windows that miss position 0, or hold no value, are cut as before."""
        k = 2
        for lo in range(-4, 5):
            for size in range(3):
                for ys in product(range(k - 3, k + 3), repeat=size):
                    U = RevisedEYD(flavor, 3, k, lo, ys)
                    assert trimmed(U) == reference_trimmed(U), U
