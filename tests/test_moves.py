"""Generator moves are decided once, by each module's local rule.

A toggle checks only the values it changes and builds its result without a
whole-object check; these tests pin both halves of that: every move is a
valid object, no whole-object validator runs while moves are made, and a
toggle succeeds exactly where the classifier lists the move.
"""

import pytest

from polyreal import eyd, reyd, verify, young_wall
from polyreal.eyd import Corner, EYDError, corners, enumerate_eyd, toggle_corner
from polyreal.reyd import MarkedPoint, REYDError, classify_points, enumerate_reyd, toggle_point
from polyreal.young_wall import (
    WallError,
    WallKind,
    WallSite,
    classify_sites,
    enumerate_walls,
    legal_single_adds,
    legal_single_removes,
    toggle_block,
)
from conftest import enumerate_objects, make_seq, object_moves


def _forbidden(*args, **kwargs):
    raise AssertionError("a whole-object validator ran while moves were made")


class TestMovesAreBuiltValid:
    """Every move of every object up to the bounds, made by object_moves or
    by the walk, equals the validating constructor applied to its values, and is
    made with the whole-object validators patched to raise; the walk and the
    enumeration run under that patch too."""

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_moves_without_a_whole_object_check(self, monkeypatch, family, n):
        seq = make_seq(family, n)
        bounds = {"eyd": 5, "reyd": 5, "wall": 10}
        objects = {
            (kind, k): enumerate_objects(seq, kind, k, bounds[kind])
            for kind, k in verify.generator_kinds(seq)
        }
        with monkeypatch.context() as m:
            m.setattr(reyd, "_validate", _forbidden)
            m.setattr(young_wall, "_violations", _forbidden)
            m.setattr(eyd, "make_eyd", _forbidden)
            moved = [
                move[0]
                for (kind, _), objs in objects.items()
                for obj in objs
                for move in object_moves(seq, kind, obj)
            ]
            for (kind, k), objs in objects.items():
                assert enumerate_objects(seq, kind, k, bounds[kind]) == objs
                walked = list(
                    verify.walk_objects(seq, kind, k, bounds[kind], kind == "wall", every=True)
                )
                assert [obj for obj, _, _ in walked] == objs
                moved += [move[0] for _, _, moves in walked for move in moves]
        assert moved
        for obj in moved:
            assert type(obj).from_json(obj.to_json()) == obj


def _succeeds(toggle, obj, move, error):
    try:
        toggle(obj, move)
    except error:
        return False
    return True


class TestTogglesRejectExactlyTheNonMoves:
    """For every object up to a small bound and every move in a box around
    it, the public toggle succeeds exactly when the classifier lists it."""

    @pytest.mark.parametrize("charge", [-1, 0, 2])
    def test_eyd_corners(self, charge):
        for T in enumerate_eyd(charge, 5):
            listed = set(corners(T))
            ys = range(T.y(0) - 2, charge + 3)
            for x in range(-2, len(T.ys) + 3):
                for y in ys:
                    for kind in ("concave", "convex"):
                        c = Corner(kind, x, y)
                        assert _succeeds(toggle_corner, T, c, EYDError) == (c in listed), (T, c)

    @pytest.mark.parametrize("flavor", ["A2", "D2target"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_reyd_points(self, flavor, n):
        for k in range(2, (n if flavor == "A2" else n - 1) + 1):
            for T in enumerate_reyd(flavor, n, k, 3):
                listed = {(p.role, p.x, p.y) for p in classify_points(T)}
                ys = range(min(*T.ys, k + T.t_lo - 3) - 1, max(*T.ys, k) + 2)
                for x in range(T.t_lo - 3, T.t_hi + 4):
                    for y in ys:
                        for role in ("admissible", "removable", "other"):
                            pt = MarkedPoint(role, x, y, 1, 0)
                            ok = _succeeds(toggle_point, T, pt, REYDError)
                            assert ok == ((role, x, y) in listed), (T, pt)

    @pytest.mark.parametrize("family", ["A2wall", "D2wall"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_wall_sites(self, family, n):
        for ground in (1,) if family == "A2wall" else (1, n):
            kind = WallKind(family, n, ground)
            for Y in enumerate_walls(kind, 8):
                doubles = [site for site in classify_sites(Y) if site.multiplicity == 2]
                listed = set(legal_single_adds(Y) + legal_single_removes(Y) + doubles)
                rows = range(ground, kind.row_of_half(max(Y.halves, default=1)) + 3)
                for column in range(0, len(Y.halves) + 3):
                    for row in rows:
                        for role in ("slot", "block"):
                            for mult in (1, 2):
                                for halves in range(0, 5):
                                    color = kind.row_color(row)
                                    site = WallSite(role, column, row, mult, color, halves)
                                    ok = _succeeds(toggle_block, Y, site, WallError)
                                    assert ok == (site in listed), (Y, site)
