"""Extended Young diagrams and their assignment maps.

An extended Young diagram of charge k is a weakly increasing integer sequence
(y_t)_{t>=0} with y_t <= k and y_t = k for large t; column t has depth
k - y_t.  Corners live on diagonals d = x + y: a concave corner sits at
(0, y_0) and at every (t+1, y_{t+1}) with y_t < y_{t+1}; the matching convex
corner sits at (t+1, y_t).  The assignment map sends a diagram to the sum of
x_{s + P^k(x+y) + min(k-y, x), c(x+y)} over concave corners minus the same
expression over convex corners, with c the folded color; _read reads those
terms and their corners off the stored values in one pass.
A move is decided once, by the corners at one column (_corners_at), for
corners and for toggle_corner alike.  The one toggle adds a box at a concave
corner (x, y_x) by lowering y_x, or removes one at a convex corner
(x, y_{x-1}) by raising y_{x-1}; it changes one value and keeps the diagram
valid (_toggle, for a listed corner, skips the test), and only make_eyd and
from_json check a whole diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Sequence, Tuple

from .root_data import AdaptedSequence, RootDataError, check_family, exact_int, fold, p_table
from .forms import LinearForm, Point, Site, site_form


class EYDError(ValueError):
    """Invalid extended Young diagram data."""


class Corner(NamedTuple):
    kind: str  # "concave" or "convex"
    x: int
    y: int

    @property
    def diagonal(self) -> int:
        return self.x + self.y


@dataclass(frozen=True)
class ExtendedYoungDiagram:
    """Charge plus the stored column values, trimmed of trailing charges."""

    charge: int
    ys: Tuple[int, ...]

    def y(self, t: int) -> int:
        """The value of column t >= 0: the charge past the stored columns."""
        if t < 0:
            raise EYDError(f"column index must be >= 0, got {t}")
        return self.ys[t] if t < len(self.ys) else self.charge

    def boxes(self) -> int:
        return sum(self.charge - v for v in self.ys)

    def columns(self) -> List[int]:
        """Depths of the nonempty columns."""
        return [self.charge - v for v in self.ys]

    def to_json(self) -> dict:
        return {"charge": self.charge, "ys": list(self.ys)}

    @classmethod
    def from_json(cls, data: dict) -> "ExtendedYoungDiagram":
        return make_eyd(data["charge"], data["ys"])


def make_eyd(charge: int, ys: Sequence[int]) -> ExtendedYoungDiagram:
    """Validate and canonicalize column values."""
    charge = exact_int(charge, EYDError)
    vals = [exact_int(v, EYDError) for v in ys]
    for a, b in zip(vals, vals[1:]):
        if a > b:
            raise EYDError(f"column values must be weakly increasing, got {vals}")
    if vals and vals[-1] > charge:
        raise EYDError(f"column values must not exceed the charge {charge}")
    while vals and vals[-1] == charge:
        vals.pop()
    return ExtendedYoungDiagram(charge, tuple(vals))


def _corners_at(T: ExtendedYoungDiagram, x: int) -> List[Corner]:
    """The corners at x: concave (0, y_0), and where column x ends above
    column x - 1, concave (x, y_x) then convex (x, y_{x-1})."""
    if x == 0:
        return [Corner("concave", 0, T.y(0))]
    if x < 0 or T.y(x - 1) >= T.y(x):
        return []
    return [Corner("concave", x, T.y(x)), Corner("convex", x, T.y(x - 1))]


def corners(T: ExtendedYoungDiagram) -> List[Corner]:
    """All corners ordered by x, concave before convex at equal x."""
    return [c for x in range(len(T.ys) + 1) for c in _corners_at(T, x)]


_FOLDS = {"A1": "overline", "D2": "pi"}


def _fold_kind(seq: AdaptedSequence) -> str:
    fam = seq.root_system.algebra.family
    if fam not in _FOLDS:
        raise RootDataError(f"assignment needs family A1 or D2, got {fam}")
    return _FOLDS[fam]


def _read(seq: AdaptedSequence, T: ExtendedYoungDiagram) -> Tuple[List[Site], List[Point]]:
    """T's sites and move points, from one pass over ys + (charge,): one
    site per corner, in the order of corners, +1 at a concave corner (x, y)
    and -1 at a convex one, with offset P^k(x+y) + min(charge - y, x) and the
    folded color of x+y; each corner, a plain tuple, is also a point."""
    fold_kind, n, charge = _fold_kind(seq), seq.root_system.n, T.charge
    out: List[Site] = []
    points: List[Point] = []
    before = None  # y_{x-1}
    for x, y in enumerate(T.ys + (charge,)):
        if x == 0 or before < y:
            for coeff, z in ((1, y), (-1, before)) if x else ((1, y),):
                d = x + z
                offset = p_table(seq, fold_kind, charge, d) + min(charge - z, x)
                site = (coeff, offset, fold(fold_kind, n, d))
                out.append(site)
                points.append((("concave" if coeff > 0 else "convex", x, z), coeff, site))
        before = y
    return out, points


def sites(seq: AdaptedSequence, T: ExtendedYoungDiagram) -> List[Site]:
    """One (coeff, offset, color) term per corner, in the order of corners."""
    return _read(seq, T)[0]


def _assign(seq: AdaptedSequence, T: ExtendedYoungDiagram, s: int, family: str) -> LinearForm:
    check_family(seq, family)
    return site_form(sites(seq, T), s)


def assign_a1(seq: AdaptedSequence, T: ExtendedYoungDiagram, s: int) -> LinearForm:
    """Assignment map for the cyclic family, folding diagonals with period n."""
    return _assign(seq, T, s, "A1")


def assign_d2(seq: AdaptedSequence, T: ExtendedYoungDiagram, s: int) -> LinearForm:
    """Assignment map for the D2 family, folding diagonals with period 2n-2."""
    return _assign(seq, T, s, "D2")


def toggle_corner(T: ExtendedYoungDiagram, corner: Corner) -> ExtendedYoungDiagram:
    """Add a box at a concave corner, lowering y_x, or remove the box at a
    convex corner, raising y_{x-1}; only a corner that _corners_at lists,
    kind included, is toggled."""
    if corner not in _corners_at(T, corner.x):
        raise EYDError(f"{corner} is not a corner of {T}")
    return _toggle(T, corner)


def _toggle(T: ExtendedYoungDiagram, corner: Corner) -> ExtendedYoungDiagram:
    kind, x, _ = corner
    t, delta = (x, -1) if kind == "concave" else (x - 1, 1)
    vals = list(T.ys) + [T.charge] * (t + 1 - len(T.ys))
    vals[t] += delta
    while vals and vals[-1] == T.charge:
        vals.pop()
    return ExtendedYoungDiagram(T.charge, tuple(vals))


def _partitions(m: int, largest: int) -> Iterator[Tuple[int, ...]]:
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def enumerate_eyd(charge: int, max_boxes: int) -> List[ExtendedYoungDiagram]:
    """All diagrams of the given charge with at most max_boxes boxes, built
    from partitions with no check; none for a negative max_boxes."""
    charge = exact_int(charge, EYDError)
    return [
        ExtendedYoungDiagram(charge, tuple([charge - d for d in depths]))
        for m in range(max_boxes + 1)
        for depths in _partitions(m, m)
    ]


def _seeds(flavor: None, n: int, k: int, bound: int) -> List[ExtendedYoungDiagram]:
    return enumerate_eyd(k, bound)


_key = None  # the walk lists the seeds and grows nothing


def render_eyd(T: ExtendedYoungDiagram) -> str:
    """ASCII picture, top row at height charge, one cell per box."""
    if not T.ys:
        return "(empty)"
    lines = []
    for level in range(T.charge, min(T.ys), -1):
        width = sum(1 for v in T.ys if v <= level - 1)
        lines.append("[]" * width + f"   y={level}..{level - 1}")
    return "\n".join(lines)
