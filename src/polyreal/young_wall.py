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
-x_{s+P^k(l)+i+1, c(l)}, weighted by multiplicity; _column_move reads each
row's color and split flag from the table of the kind's family and rank
(_rows), and _read addresses each legal move once.

A WallKind, like a YoungWall, is a tuple of its fields, hashed and compared
in C; built by name it validates them.  The moves build walls and sites
from fields already valid with tuple.__new__, which skips that check.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .root_data import AdaptedSequence, ResidueTable, check_family, exact_int, fold, p_row
from .forms import LinearForm, Point, Site, site_form, walk

# Each wall family's sequence family.
WALL_FAMILIES = {"A2wall": "A2", "D2wall": "C1"}
_NO_BOUND = float("inf")  # the height bound right of column 1
_new = tuple.__new__  # a wall, kind or site from its fields, built in C with no check


class WallError(ValueError):
    """Invalid Young wall data."""


class _KindFields(NamedTuple):
    family: str
    n: int
    ground: int


class WallKind(_KindFields):
    """Wall family, rank parameter, and ground row: a tuple of the three,
    checked when built by name, and compared and hashed as its field tuple."""

    __slots__ = ()

    def __new__(cls, family: str, n: int, ground: int) -> "WallKind":
        if family not in WALL_FAMILIES:
            raise WallError(f"unknown wall family {family!r}")
        n, ground = exact_int(n, WallError), exact_int(ground, WallError)
        if n < 3:
            raise WallError(f"need n >= 3, got {n}")
        allowed = (1,) if family == "A2wall" else (1, n)
        if ground not in allowed:
            raise WallError(f"family {family} allows ground in {allowed}, got {ground}")
        return _new(cls, (family, n, ground))

    def row_color(self, l: int) -> int:
        return fold("pi_prime", self.n, l)

    def is_split(self, l: int) -> bool:
        color = self.row_color(l)
        return color == 1 or (self.family == "D2wall" and color == self.n)

    def row_of_half(self, m: int) -> int:
        """The row containing half-unit level m >= 1 (the ground half is m = 1)."""
        return self.ground + (m - 1) // 2


@lru_cache(maxsize=None)
def _rows(family: str, n: int) -> ResidueTable:
    """(row_color(l), is_split(l)) by (l - 1) mod 2n - 2, the period of
    pi_prime, one table per family and rank; each entry is filled on its
    first read, so a large n builds nothing up front."""
    kind = WallKind(family, n, 1)
    return ResidueTable(lambda r: (kind.row_color(r + 1), kind.is_split(r + 1)), 2 * n - 2)


class YoungWall(NamedTuple):
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


def _fits(h: int, left: int, right: float) -> bool:
    """Whether column height h keeps a proper wall proper between heights left
    and right; an odd h, a target of _column_move, ends in a split row (see there)."""
    return right >= h >= left and (h % 2 == 1 or (h != left and h != right))


def _column_move(Y: YoungWall, j: int, remove: bool) -> Tuple[Optional[WallSite], ...]:
    """The (single, double) move of column j, None when illegal.

    A single move is a unit block or one half of a split row, a double both halves
    of a split row at even height; _fits alone decides legality, bare columns
    included.  The column and its neighbours are read once for both moves,
    from Y.halves, and the row table once; a column past the stored ones,
    such as toggle_block may name, has height 1.

    An odd target needs no row read: a double, from an even h, stays even,
    and a single is odd only as one half from an even h in a split row l
    (see delta), and its top half is in l: adding half h + 1 gives row
    ground + h/2 = l; removing half h leaves half h - 1, in ground + h/2 - 1 = l.
    """
    kind, halves = Y
    last = len(halves)  # columns past it are bare, of height 1
    h = halves[j - 1] if j <= last else 1
    left = halves[j] if j < last else 1
    right = _NO_BOUND if j == 1 else halves[j - 2] if j <= last + 1 else 1
    l = kind.ground + (h - 1 if remove else h) // 2  # the row of the half moved first
    rows = _rows(kind.family, kind.n)
    c, split_row = rows[(l - 1) % rows.period]
    split = h % 2 == 0 and split_row
    sign, delta = (-1 if remove else 1), (1 if split or h % 2 else 2)
    role, one, two = ("block" if remove else "slot"), h + sign * delta, h + 2 * sign
    single = _new(WallSite, (role, j, l, 1, c, delta)) if _fits(one, left, right) else None
    fits = split and _fits(two, left, right)
    return single, (_new(WallSite, (role, j, l, 2, c, 2)) if fits else None)


def _column_moves(Y: YoungWall, remove: bool) -> List[Tuple[Optional[WallSite], ...]]:
    """The (single, double) moves of columns 1..len+1; no column past the first bare one has one."""
    return [_column_move(Y, j, remove) for j in range(1, len(Y.halves) + 2)]


def classify_sites(Y: YoungWall) -> List[WallSite]:
    """Admissible slots and removable blocks, a legal double in place of its single."""
    both = zip(_column_moves(Y, False), _column_moves(Y, True))
    return [double or single for pair in both for single, double in pair if double or single]


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
    kind, halves = Y
    role, j, _, _, _, moved = site
    h = (halves[j - 1] if j <= len(halves) else 1) + (moved if role == "slot" else -moved)
    return _new(YoungWall, (kind, halves[: j - 1] + ((h,) if h > 1 else ()) + halves[j:]))


def _read(seq: AdaptedSequence, Y: YoungWall) -> Tuple[List[Site], List[Point]]:
    """Y's classified sites, addressed, and its move points, every single
    move (adds, then removes) and then every double, from one read of each
    column.  Each legal move is addressed once: a slot at column j in row l
    is +multiplicity x_{s + P^k(l) + j - 1, c(l)}, and a block is
    -multiplicity at the offset one higher."""
    kind, rs = Y.kind, seq.root_system
    family = WALL_FAMILIES[kind.family]
    if rs.algebra.family != family or rs.n != kind.n:  # the check raises, naming the wall
        check_family(seq, family, kind.n, f"wall family {kind.family}")
    row = p_row(seq, "pi_prime", kind.ground)

    def address(site: WallSite) -> Site:
        pk = row[site.row]
        if site.role == "slot":
            return site.multiplicity, pk + site.column - 1, site.color
        return -site.multiplicity, pk + site.column, site.color

    sites: List[Site] = []
    singles: Tuple[List[Point], List[Point]] = ([], [])
    doubles: List[Point] = []
    for pair in zip(_column_moves(Y, False), _column_moves(Y, True)):
        for (single, double), listed in zip(pair, singles):
            # the classified site is the double when legal, else the single
            term = None
            if single:
                term = address(single)
                listed.append((single, term[0], term))
            if double:
                term = address(double)
                doubles.append((double, term[0], term))
            if term:
                sites.append(term)
    return sites, singles[0] + singles[1] + doubles


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
