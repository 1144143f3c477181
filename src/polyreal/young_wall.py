"""Young walls built on a half-unit ground row, and their assignment maps.

A wall is a weakly decreasing stack of columns counted from the right; the
stored value of a column is its height in half-units including the ground
half.  Row l >= k (k the ground row) carries the folded color of l with
period 2n-2; rows whose color is special (color 1, and color n for the
D2wall family) are split into two half-unit blocks, all other rows are
single unit blocks.  A column of odd height is allowed only when its top
half sits in a split row.  A wall is proper when no two columns of even
(full) height coincide.

An admissible slot is a position where one block fits; a removable block is
one that can be taken away; each keeps the wall proper.  On a split row
above the ground, a move of both halves at once is a double site and counts
its coordinate twice.  The assignment map sends a slot at column i (0-based
from the right) in row l to +x_{s+P^k(l)+i, c(l)} and a removable block to
-x_{s+P^k(l)+i+1, c(l)}, weighted by multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .root_data import AdaptedSequence, RootDataError, fold, p_table
from .forms import LinearForm, Move, Site, site_form, site_move

WALL_FAMILIES = ("A2wall", "D2wall")

_SEQ_FAMILY = {"A2wall": "A2", "D2wall": "C1"}


class WallError(ValueError):
    """Invalid Young wall data."""


@dataclass(frozen=True)
class WallKind:
    """Wall family, rank parameter, and ground row."""

    family: str
    n: int
    ground: int

    def __post_init__(self) -> None:
        if self.family not in WALL_FAMILIES:
            raise WallError(f"unknown wall family {self.family!r}")
        if self.n < 3:
            raise WallError(f"need n >= 3, got {self.n}")
        allowed = (1,) if self.family == "A2wall" else (1, self.n)
        if self.ground not in allowed:
            raise WallError(f"family {self.family} allows ground in {allowed}, got {self.ground}")

    def row_color(self, l: int) -> int:
        return fold("pi_prime", self.n, l)

    def is_split(self, l: int) -> bool:
        color = self.row_color(l)
        return color == 1 or (self.family == "D2wall" and color == self.n)

    def row_of_half(self, m: int) -> int:
        """The row containing half-unit level m >= 1 (the ground half is m = 1)."""
        return self.ground + (m - 1) // 2


@dataclass(frozen=True)
class YoungWall:
    """Stored column heights in half-units, trimmed of bare-ground columns."""

    kind: WallKind
    halves: Tuple[int, ...]

    def height(self, j: int) -> int:
        return self.halves[j - 1] if 1 <= j <= len(self.halves) else 1

    def added_halves(self) -> int:
        return sum(h - 1 for h in self.halves)

    def columns(self) -> List[int]:
        """Halves added above the ground in each nonbare column."""
        return [h - 1 for h in self.halves]

    def block_count(self) -> int:
        """Number of blocks above the ground, counting a unit row once."""
        total = 0
        for h in self.halves:
            for m in range(2, h + 1):
                if self.kind.is_split(self.kind.row_of_half(m)):
                    total += 1
                elif m % 2 == 0:
                    total += 1
        return total

    def to_json(self) -> dict:
        return {
            "family": self.kind.family,
            "n": self.kind.n,
            "ground": self.kind.ground,
            "halves": list(self.halves),
        }

    @classmethod
    def from_json(cls, data: dict) -> "YoungWall":
        kind = WallKind(str(data["family"]), int(data["n"]), int(data["ground"]))
        return make_wall(kind, [int(h) for h in data["halves"]])


class WallSite(NamedTuple):
    role: str  # "slot" (add) or "block" (remove)
    column: int  # 1-based from the right
    row: int
    multiplicity: int
    color: int
    halves: int  # half-units moved by the toggle


def _violations(kind: WallKind, halves: Sequence[int]) -> List[str]:
    out = []
    for h in halves:
        if h < 1:
            out.append(f"column height {h} below the ground")
    for a, b in zip(halves, halves[1:]):
        if a < b:
            out.append(f"heights must weakly decrease to the left end: {list(halves)}")
            break
    for j, h in enumerate(halves, 1):
        if h % 2 == 1 and h > 1 and not kind.is_split(kind.row_of_half(h)):
            out.append(f"column {j} stops at a half-filled unit row (height {h})")
    evens = [h for h in halves if h % 2 == 0]
    if len(evens) != len(set(evens)):
        out.append(f"two full columns share a height: {list(halves)}")
    return out


def make_wall(kind: WallKind, halves: Sequence[int]) -> YoungWall:
    """Validate and canonicalize a list of column heights."""
    vals = [int(h) for h in halves]
    while vals and vals[-1] == 1:
        vals.pop()
    problems = _violations(kind, vals)
    if problems:
        raise WallError("; ".join(problems))
    return YoungWall(kind, tuple(vals))


def ground_wall(kind: WallKind) -> YoungWall:
    return YoungWall(kind, ())


def validate_proper(Y: YoungWall) -> List[str]:
    """Violation messages; empty for a valid proper wall."""
    return _violations(Y.kind, Y.halves)


def _can_set(Y: YoungWall, j: int, new_h: int) -> bool:
    vals = list(Y.halves)
    while len(vals) < j:
        vals.append(1)
    vals[j - 1] = new_h
    while vals and vals[-1] == 1:
        vals.pop()
    return not _violations(Y.kind, vals)


def _single_move(Y: YoungWall, j: int, remove: bool) -> Optional[WallSite]:
    """The one-block move at column j: a unit block, or one half of a split row."""
    kind = Y.kind
    h = Y.height(j)
    if remove and h <= 1:
        return None
    l = kind.row_of_half(h if remove else h + 1)
    delta = 2 if (h % 2 == 0 and not kind.is_split(l)) else 1
    if not _can_set(Y, j, h - delta if remove else h + delta):
        return None
    return WallSite("block" if remove else "slot", j, l, 1, kind.row_color(l), delta)


def _site(Y: YoungWall, j: int, remove: bool) -> Optional[WallSite]:
    """The double move when the row is split and the double is legal, else the single move."""
    kind = Y.kind
    h = Y.height(j)
    l = kind.row_of_half(h if remove else h + 1)
    if h % 2 == 0 and kind.is_split(l) and _can_set(Y, j, h - 2 if remove else h + 2):
        return WallSite("block" if remove else "slot", j, l, 2, kind.row_color(l), 2)
    return _single_move(Y, j, remove)


def classify_sites(Y: YoungWall) -> List[WallSite]:
    """Admissible slots and removable blocks, doubles merged."""
    sites: List[WallSite] = []
    for j in range(1, len(Y.halves) + 2):
        for remove in (False, True):
            site = _site(Y, j, remove)
            if site:
                sites.append(site)
    return sites


def _one_block_moves(Y: YoungWall, remove: bool) -> List[WallSite]:
    cols = range(1, len(Y.halves) + 2)
    return [m for m in (_single_move(Y, j, remove) for j in cols) if m]


def legal_single_adds(Y: YoungWall) -> List[WallSite]:
    """Every way to add one block (a unit block, or one half of a split row)."""
    return _one_block_moves(Y, remove=False)


def legal_single_removes(Y: YoungWall) -> List[WallSite]:
    """Every way to remove one block."""
    return _one_block_moves(Y, remove=True)


def toggle_block(Y: YoungWall, site: WallSite) -> YoungWall:
    """Apply a site: add at a slot, remove at a block; doubles move both halves."""
    j = site.column
    delta = site.halves if site.role == "slot" else -site.halves
    vals = list(Y.halves)
    while len(vals) < j:
        vals.append(1)
    vals[j - 1] += delta
    return make_wall(Y.kind, vals)


def _check_sequence(seq: AdaptedSequence, Y: YoungWall) -> None:
    kind = Y.kind
    fam = seq.root_system.algebra.family
    if fam != _SEQ_FAMILY[kind.family]:
        raise RootDataError(
            f"wall family {kind.family} needs sequence family {_SEQ_FAMILY[kind.family]}, got {fam}"
        )
    if seq.root_system.n != kind.n:
        raise RootDataError(f"rank mismatch: wall n={kind.n}, sequence n={seq.root_system.n}")


def _address(seq: AdaptedSequence, Y: YoungWall, site: WallSite) -> Site:
    """The (coeff, offset, color) term of a site: +mult at a slot, -mult at a block."""
    offset = p_table(seq, "pi_prime", Y.kind.ground, site.row) + site.column - 1
    if site.role == "slot":
        return site.multiplicity, offset, site.color
    return -site.multiplicity, offset + 1, site.color


def sites(seq: AdaptedSequence, Y: YoungWall) -> List[Site]:
    """One term per classified site; the assigned form at s is their site_form at s."""
    _check_sequence(seq, Y)
    return [_address(seq, Y, site) for site in classify_sites(Y)]


def moves(seq: AdaptedSequence, Y: YoungWall) -> Iterator[Move]:
    """One (Y2, coeff, offset, color) per single-block move and per double site.

    assign(Y2, s) = assign(Y, s) - coeff * beta_{s+offset, color}, with coeff
    +multiplicity for adding at a slot and -multiplicity for removing a block.
    """
    _check_sequence(seq, Y)
    singles = legal_single_adds(Y) + legal_single_removes(Y)
    doubles = [site for site in classify_sites(Y) if site.multiplicity == 2]
    for site in singles + doubles:
        address = _address(seq, Y, site)
        yield site_move(toggle_block(Y, site), address[0], address)


def assign_wall(seq: AdaptedSequence, Y: YoungWall, s: int) -> LinearForm:
    """The form attached to a wall at base occurrence s."""
    return site_form(sites(seq, Y), s)


def enumerate_walls(kind: WallKind, max_halves: int) -> List[YoungWall]:
    """All proper walls with at most max_halves half-units above the ground."""
    start = ground_wall(kind)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt: List[YoungWall] = []
        for Y in frontier:
            for site in legal_single_adds(Y):
                if Y.added_halves() + site.halves > max_halves:
                    continue
                Y2 = toggle_block(Y, site)
                if Y2 not in seen:
                    seen.add(Y2)
                    nxt.append(Y2)
        frontier = nxt
    return sorted(seen, key=lambda Y: (Y.added_halves(), Y.halves))


def render_wall(Y: YoungWall) -> str:
    """ASCII picture, one text row per wall row, columns growing to the left."""
    kind = Y.kind
    if not Y.halves:
        return f"(ground row {kind.ground}, color {kind.row_color(kind.ground)})"
    ncols = len(Y.halves)
    top = max(Y.halves)
    lines = []
    for m_top in range(top if top % 2 == 0 else top + 1, 1, -2):
        l = kind.row_of_half(m_top)
        cells = []
        for j in range(ncols, 0, -1):
            h = Y.height(j)
            if h >= m_top:
                cells.append("[==]")
            elif h == m_top - 1:
                cells.append("[__]")
            else:
                cells.append("    ")
        lines.append("".join(cells) + f"  row {l} color {kind.row_color(l)}")
    lines.append("~~~~" * ncols + f"  ground row {kind.ground}")
    return "\n".join(lines)
