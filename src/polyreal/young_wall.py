"""Young walls built on a half-unit ground row, and their assignment maps.

A wall is a weakly decreasing stack of columns counted from the right; the
stored value of a column is its height in half-units including the ground
half.  Row l >= k (k the ground row) carries the folded color of l with
period 2n-2; rows whose color is special (color 1, and color n for the
D2wall family) are split into two half-unit blocks, all other rows are
single unit blocks.  A column of odd height is allowed only when its top
half sits in a split row.  A wall is proper when no two columns of even
(full) height coincide; a move changes one column, so it is tested at that
column's neighbours, where equal heights of a decreasing wall must meet.

An admissible slot is a position where one block fits; a removable block is
one that can be taken away; each keeps the wall proper.  On a split row above
the ground, a move of both halves at once is a double site and counts its
coordinate twice.  One rule (_column_move) gives each column's single and
double move, to _read and to toggle_block alike (_toggle makes a listed
move with no test); only make_wall, from_json and validate_proper scan a
whole wall.  The assignment map sends a slot at column i (0-based from the
right) in row l to +x_{s+P^k(l)+i, c(l)} and a removable block to
-x_{s+P^k(l)+i+1, c(l)}, weighted by multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .root_data import AdaptedSequence, check_family, exact_int, fold, p_table
from .forms import LinearForm, Point, Site, site_form, walk

# Each wall family's sequence family.
WALL_FAMILIES = {"A2wall": "A2", "D2wall": "C1"}
_NO_BOUND = float("inf")  # the height bound right of column 1


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
        object.__setattr__(self, "n", exact_int(self.n, WallError))
        object.__setattr__(self, "ground", exact_int(self.ground, WallError))
        if self.n < 3:
            raise WallError(f"need n >= 3, got {self.n}")
        allowed = (1,) if self.family == "A2wall" else (1, self.n)
        if self.ground not in allowed:
            raise WallError(f"family {self.family} allows ground in {allowed}, got {self.ground}")
        # (row_color(l), is_split(l)) by (l - 1) mod 2n - 2, the period of pi_prime
        rows = tuple((self.row_color(l), self.is_split(l)) for l in range(1, 2 * self.n - 1))
        object.__setattr__(self, "_rows", rows)

    def row_color(self, l: int) -> int:
        return fold("pi_prime", self.n, l)

    def is_split(self, l: int) -> bool:
        color = self.row_color(l)
        return color == 1 or (self.family == "D2wall" and color == self.n)

    def row(self, l: int) -> Tuple[int, bool]:
        """row_color(l) and is_split(l) for a row l >= 1, read from the kind's table."""
        return self._rows[(l - 1) % len(self._rows)]

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
        return sum(self.halves) - len(self.halves)

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
        kind = WallKind(str(data["family"]), data["n"], data["ground"])
        return make_wall(kind, data["halves"])


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
    vals = [exact_int(h, WallError) for h in halves]
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


def _fits(kind: WallKind, h: int, left: int, right: float) -> bool:
    """Whether a column of height h keeps a proper wall proper between columns
    of heights left and right: heights weakly decrease there (so h >= 1), an
    odd h > 1 ends in a split row, and an even h equals neither neighbour."""
    if not right >= h >= left:
        return False
    if h % 2:
        return h == 1 or kind.row(kind.row_of_half(h))[1]
    return h != left and h != right


def _column_move(Y: YoungWall, j: int, remove: bool) -> Tuple[Optional[WallSite], ...]:
    """The (single, double) move of column j, None when illegal.

    A single move is a unit block or one half of a split row, a double both halves
    of a split row at even height; _fits alone decides legality, bare columns
    included.  The column and its neighbours are read once for both moves.
    """
    kind, h, left = Y.kind, Y.height(j), Y.height(j + 1)
    right = Y.height(j - 1) if j > 1 else _NO_BOUND
    l = kind.row_of_half(h if remove else h + 1)
    c, split_row = kind.row(l)
    split = h % 2 == 0 and split_row
    sign, delta = (-1 if remove else 1), (1 if split or h % 2 else 2)
    role, one, two = ("block" if remove else "slot"), h + sign * delta, h + 2 * sign
    single = WallSite(role, j, l, 1, c, delta) if _fits(kind, one, left, right) else None
    double = WallSite(role, j, l, 2, c, 2) if split and _fits(kind, two, left, right) else None
    return single, double


def _column_moves(Y: YoungWall, remove: bool) -> List[Tuple[Optional[WallSite], ...]]:
    """The (single, double) moves of columns 1..len+1; no column past the first bare one has one."""
    return [_column_move(Y, j, remove) for j in range(1, len(Y.halves) + 2)]


def _classified(both: Iterable) -> List[WallSite]:
    """Each column's (add, remove) pair read as slots and blocks, a legal
    double in place of its single."""
    return [double or single for pair in both for single, double in pair if double or single]


def classify_sites(Y: YoungWall) -> List[WallSite]:
    """Admissible slots and removable blocks, a legal double in place of its single."""
    return _classified(zip(_column_moves(Y, False), _column_moves(Y, True)))


def legal_single_adds(Y: YoungWall) -> List[WallSite]:
    """Every way to add one block (a unit block, or one half of a split row)."""
    return [single for single, _ in _column_moves(Y, False) if single]


def legal_single_removes(Y: YoungWall) -> List[WallSite]:
    """Every way to remove one block."""
    return [single for single, _ in _column_moves(Y, True) if single]


def toggle_block(Y: YoungWall, site: WallSite) -> YoungWall:
    """Apply a site: add at a slot, remove at a block; doubles move both halves.
    Only a move that _column_move lists is applied, so the result stays proper."""
    j = site.column
    if j < 1 or site not in _column_move(Y, j, site.role == "block"):
        raise WallError(f"{site} is not a legal move of {Y}")
    return _toggle(Y, site)


def _toggle(Y: YoungWall, site: WallSite) -> YoungWall:
    # a legal move is at most one column past the stored ones, and only the
    # last stored column can fall to the bare ground, which is trimmed
    j = site.column
    h = Y.height(j) + (site.halves if site.role == "slot" else -site.halves)
    return YoungWall(Y.kind, Y.halves[: j - 1] + ((h,) if h > 1 else ()) + Y.halves[j:])


def _address(seq: AdaptedSequence, Y: YoungWall, site: WallSite) -> Site:
    """The (coeff, offset, color) term of a site: +mult at a slot, -mult at a block."""
    offset = p_table(seq, "pi_prime", Y.kind.ground, site.row) + site.column - 1
    if site.role == "slot":
        return site.multiplicity, offset, site.color
    return -site.multiplicity, offset + 1, site.color


def _read(seq: AdaptedSequence, Y: YoungWall) -> Tuple[List[Site], List[Point]]:
    """Y's classified sites, addressed, and its move points, every single
    move (adds, then removes) and then every double, from one read of each
    column; coeff is +multiplicity at a slot and -multiplicity at a block."""
    check_family(seq, WALL_FAMILIES[Y.kind.family], Y.kind.n, f"wall family {Y.kind.family}")
    adds, removes = _column_moves(Y, False), _column_moves(Y, True)
    both = list(zip(adds, removes))
    sites = [_address(seq, Y, site) for site in _classified(both)]
    doubles = [double for pair in both for _, double in pair]
    points = []
    for site in filter(None, [single for single, _ in adds + removes] + doubles):
        address = _address(seq, Y, site)
        points.append((site, address[0], address))
    return sites, points


def sites(seq: AdaptedSequence, Y: YoungWall) -> List[Site]:
    """One term per classified site; the assigned form at s is their site_form at s."""
    return _read(seq, Y)[0]


def assign_wall(seq: AdaptedSequence, Y: YoungWall, s: int) -> LinearForm:
    """The form attached to a wall at base occurrence s."""
    return site_form(sites(seq, Y), s)


def _seeds(flavor: str, n: int, k: int, bound: int) -> List[YoungWall]:
    return [ground_wall(WallKind(flavor, n, k))]


def _key(Y: YoungWall) -> tuple:
    return Y.added_halves(), Y.halves


def _adds(Y: YoungWall) -> Tuple[List[Site], List[Point]]:
    return [], [(site, 1, None) for site in legal_single_adds(Y)]


def enumerate_walls(kind: WallKind, max_halves: int) -> List[YoungWall]:
    """All proper walls within max_halves half-units above the ground, walked
    by single adds in _key order; none for a negative max_halves."""
    walked = walk([ground_wall(kind)], _adds, _toggle, _key, max_halves, halves=True)
    return [Y for Y, _, _ in walked]


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
