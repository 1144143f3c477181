"""Extended Young diagrams and their assignment maps.

An extended Young diagram of charge k is a weakly increasing integer sequence
(y_t)_{t>=0} with y_t <= k and y_t = k for large t; column t has depth
k - y_t.  Corners live on diagonals d = x + y: a concave corner sits at
(0, y_0) and at every (t+1, y_{t+1}) with y_t < y_{t+1}; the matching convex
corner sits at (t+1, y_t).  The assignment map sends a diagram to the sum of
x_{s + P^k(x+y) + min(k-y, x), c(x+y)} over concave corners minus the same
expression over convex corners, with c the folded color; _read reads those
terms and their corners off the stored values in one pass, each color from
the fold's table.
A move is decided once, by one pass over the values (_corners), for _read,
corners and toggle_corner alike.  The one toggle adds a box at a concave
corner (x, y_x) by lowering y_x, or removes one at a convex corner
(x, y_{x-1}) by raising y_{x-1}; it changes one value and keeps the diagram
valid (_toggle, for a listed corner, skips the test), and only make_eyd and
from_json check a whole diagram.  The diagrams of at most m boxes are the
partitions of 0, ..., m boxes as column depths; enumerate_eyd lists them by
the loop of ZS1 in reverse lexicographic order, one array changed in place
from each partition to the next, with no recursion.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Sequence, Tuple

from .root_data import AdaptedSequence, RootDataError, check_family, exact_int, fold_table, p_row
from .forms import LinearForm, Point, Site, site_form


_new = tuple.__new__  # a diagram from its fields, built in C with no check


class EYDError(ValueError):
    """Invalid extended Young diagram data."""


class Corner(NamedTuple):
    kind: str  # "concave" or "convex"
    x: int
    y: int

    @property
    def diagonal(self) -> int:
        return self.x + self.y


class ExtendedYoungDiagram(NamedTuple):
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


def _corners(T: ExtendedYoungDiagram) -> List[Tuple[str, int, int]]:
    """The corners as plain (kind, x, y) tuples, from one pass over
    ys + (charge,), ordered by x: concave (0, y_0), and where column x ends
    above column x - 1, concave (x, y_x) then convex (x, y_{x-1})."""
    out = [("concave", 0, T.y(0))]
    for x, (before, y) in enumerate(zip(T.ys, T.ys[1:] + (T.charge,)), 1):
        if before < y:
            out += (("concave", x, y), ("convex", x, before))
    return out


def corners(T: ExtendedYoungDiagram) -> List[Corner]:
    """All corners ordered by x, concave before convex at equal x."""
    return [Corner._make(c) for c in _corners(T)]


_FOLDS = {"A1": "overline", "D2": "pi"}


def _fold_kind(seq: AdaptedSequence) -> str:
    fam = seq.root_system.algebra.family
    if fam not in _FOLDS:
        raise RootDataError(f"assignment needs family A1 or D2, got {fam}")
    return _FOLDS[fam]


def _read(seq: AdaptedSequence, T: ExtendedYoungDiagram) -> Tuple[List[Site], List[Point]]:
    """T's sites and move points, one of each per corner of _corners: +1 at
    a concave corner (x, y) and -1 at a convex one, with offset P^k(x+y) +
    min(charge - y, x) and the folded color of x+y; each corner, a plain
    tuple, is also a point."""
    fold_kind, charge = _fold_kind(seq), T.charge
    colors = fold_table(fold_kind, seq.root_system.n)
    N = colors.period
    row = p_row(seq, fold_kind, charge)
    out: List[Site] = []
    points: List[Point] = []
    for corner in _corners(T):
        kind, x, y = corner
        d = x + y
        offset = row[d] + min(charge - y, x)
        site = (1 if kind == "concave" else -1, offset, colors[d % N])
        out.append(site)
        points.append((corner, site[0], site))
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
    convex corner, raising y_{x-1}; only a corner that _corners lists,
    kind included, is toggled."""
    if corner not in _corners(T):
        raise EYDError(f"{corner} is not a corner of {T}")
    return _toggle(T, corner)


def _toggle(T: ExtendedYoungDiagram, corner: Corner) -> ExtendedYoungDiagram:
    charge, ys = T
    kind, x, _ = corner
    t, delta = (x, -1) if kind == "concave" else (x - 1, 1)
    vals = list(ys) + [charge] * (t + 1 - len(ys))
    vals[t] += delta
    while vals and vals[-1] == charge:
        vals.pop()
    return _new(ExtendedYoungDiagram, (charge, tuple(vals)))


def _partitions(m: int) -> Iterator[List[int]]:
    """The partitions of m >= 0, each a new list of parts in weakly
    decreasing order, in reverse lexicographic order, by the loop of ZS1
    (Zoghbi and Stojmenovic, Int. J. Comput. Math. 70, 1998); the tests
    compare it with a listing by recursion on the first part.

    x holds the parts and then 1s, and h is the index of the last part above
    1.  A part 2 at h becomes 1 + 1.  Otherwise x[h] drops by one, to r, and
    the t = parts - h units from h on (the one taken off x[h] and the 1s
    after it) are refilled as parts r while t >= r, then as one part t.
    """
    x = [1] * m
    if not m:
        yield x
        return
    x[0], parts, h = m, 1, 0
    yield x[:parts]
    while x[0] != 1:
        if x[h] == 2:
            x[h], parts, h = 1, parts + 1, h - 1
        else:
            r = x[h] - 1
            t = parts - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            parts = h + 1 + (t > 0)
            if t > 1:
                h += 1
                x[h] = t
        yield x[:parts]


def enumerate_eyd(charge: int, max_boxes: int) -> List[ExtendedYoungDiagram]:
    """All diagrams of the given charge with at most max_boxes boxes, built
    with no check from the partitions of 0, 1, ... boxes, each in _partitions'
    order; none for a negative max_boxes."""
    charge, max_boxes = exact_int(charge, EYDError), exact_int(max_boxes, EYDError)
    return [
        _new(ExtendedYoungDiagram, (charge, tuple([charge - d for d in depths])))
        for m in range(max_boxes + 1)
        for depths in _partitions(m)
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
