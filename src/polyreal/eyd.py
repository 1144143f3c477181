"""Extended Young diagrams and their assignment maps.

An extended Young diagram of charge k is a weakly increasing integer sequence
(y_t)_{t>=0} with y_t <= k and y_t = k for large t; column t has depth
k - y_t.  Corners live on diagonals d = x + y: a concave corner sits at
(0, y_0) and at every (t+1, y_{t+1}) with y_t < y_{t+1}; the matching convex
corner sits at (t+1, y_t).  The assignment map sends a diagram to the sum of
x_{s + P^k(x+y) + min(k-y, x), c(x+y)} over concave corners minus the same
expression over convex corners, with c the folded color.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Sequence, Tuple

from .root_data import AdaptedSequence, RootDataError, fold, p_table
from .forms import LinearForm, Move, Site, site_form, site_move


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
        return make_eyd(int(data["charge"]), [int(v) for v in data["ys"]])


def make_eyd(charge: int, ys: Sequence[int]) -> ExtendedYoungDiagram:
    """Validate and canonicalize column values."""
    vals = [int(v) for v in ys]
    for a, b in zip(vals, vals[1:]):
        if a > b:
            raise EYDError(f"column values must be weakly increasing, got {vals}")
    if vals and vals[-1] > charge:
        raise EYDError(f"column values must not exceed the charge {charge}")
    while vals and vals[-1] == charge:
        vals.pop()
    return ExtendedYoungDiagram(charge, tuple(vals))


def corners(T: ExtendedYoungDiagram) -> List[Corner]:
    """All corners ordered by x, concave before convex at equal x."""
    out = [Corner("concave", 0, T.y(0))]
    for t in range(len(T.ys)):
        if T.y(t) < T.y(t + 1):
            out.append(Corner("concave", t + 1, T.y(t + 1)))
            out.append(Corner("convex", t + 1, T.y(t)))
    return out


_FOLDS = {"A1": "overline", "D2": "pi"}


def _fold_kind(seq: AdaptedSequence) -> str:
    fam = seq.root_system.algebra.family
    if fam not in _FOLDS:
        raise RootDataError(f"assignment needs family A1 or D2, got {fam}")
    return _FOLDS[fam]


def _address(seq: AdaptedSequence, fold_kind: str, charge: int, c: Corner) -> Site:
    """The (coeff, offset, color) term of a corner: +1 when concave, -1 when convex."""
    d = c.x + c.y
    offset = p_table(seq, fold_kind, charge, d) + min(charge - c.y, c.x)
    return (1 if c.kind == "concave" else -1), offset, fold(fold_kind, seq.root_system.n, d)


def sites(seq: AdaptedSequence, T: ExtendedYoungDiagram) -> List[Site]:
    """One term per corner; the assigned form at s is their site_form at s."""
    fold_kind = _fold_kind(seq)
    return [_address(seq, fold_kind, T.charge, c) for c in corners(T)]


def moves(seq: AdaptedSequence, T: ExtendedYoungDiagram) -> Iterator[Move]:
    """One (T2, coeff, offset, color) per corner toggle.

    assign(T2, s) = assign(T, s) - coeff * beta_{s+offset, color}, with coeff
    +1 for adding a box at a concave corner and -1 for removing one at a
    convex corner.
    """
    fold_kind = _fold_kind(seq)
    for c in corners(T):
        site = _address(seq, fold_kind, T.charge, c)
        toggle = toggle_concave if c.kind == "concave" else toggle_convex
        yield site_move(toggle(T, c), site[0], site)


def _assign(seq: AdaptedSequence, T: ExtendedYoungDiagram, s: int, family: str) -> LinearForm:
    fam = seq.root_system.algebra.family
    if fam != family:
        raise RootDataError(f"assignment needs family {family}, got {fam}")
    return site_form(sites(seq, T), s)


def assign_a1(seq: AdaptedSequence, T: ExtendedYoungDiagram, s: int) -> LinearForm:
    """Assignment map for the cyclic family, folding diagonals with period n."""
    return _assign(seq, T, s, "A1")


def assign_d2(seq: AdaptedSequence, T: ExtendedYoungDiagram, s: int) -> LinearForm:
    """Assignment map for the D2 family, folding diagonals with period 2n-2."""
    return _assign(seq, T, s, "D2")


def toggle_concave(T: ExtendedYoungDiagram, corner: Corner) -> ExtendedYoungDiagram:
    """Add a box at a concave corner."""
    if corner not in corners(T) or corner.kind != "concave":
        raise EYDError(f"{corner} is not a concave corner of {T}")
    vals = list(T.ys)
    while len(vals) <= corner.x:
        vals.append(T.charge)
    vals[corner.x] -= 1
    return make_eyd(T.charge, vals)


def toggle_convex(T: ExtendedYoungDiagram, corner: Corner) -> ExtendedYoungDiagram:
    """Remove the box at a convex corner."""
    if corner not in corners(T) or corner.kind != "convex":
        raise EYDError(f"{corner} is not a convex corner of {T}")
    vals = list(T.ys)
    vals[corner.x - 1] += 1
    return make_eyd(T.charge, vals)


def _partitions(m: int, largest: int) -> Iterator[Tuple[int, ...]]:
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def enumerate_eyd(charge: int, max_boxes: int) -> List[ExtendedYoungDiagram]:
    """All diagrams of the given charge with at most max_boxes boxes."""
    out = []
    for m in range(max_boxes + 1):
        for depths in _partitions(m, m):
            out.append(make_eyd(charge, [charge - d for d in depths]))
    return out


def render_eyd(T: ExtendedYoungDiagram) -> str:
    """ASCII picture, top row at height charge, one cell per box."""
    if not T.ys:
        return "(empty)"
    lines = []
    for level in range(T.charge, min(T.ys), -1):
        width = sum(1 for v in T.ys if v <= level - 1)
        lines.append("[]" * width + f"   y={level}..{level - 1}")
    return "\n".join(lines)
