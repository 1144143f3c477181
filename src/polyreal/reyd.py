"""Revised extended Young diagrams and their assignment maps.

A revised diagram of charge k is a two-sided integer sequence (y_t) equal to
the staircase k + t left of its canonical window [t_lo, t_hi], which holds
position 0, and to k right of it.  Steps y_{t+1} - y_t must lie in {0, 1}
except at congruence-relaxed positions: when k + t falls in the special
residue class, the step is only bounded below (t > 0) or above by 1 (t < 0).
The A2 flavor has modulus 2n-1 and special residue {0}; the D2target flavor
has modulus 2n and special residues {0, n}.  The modulus is the period of
the flavor's fold (pi1, pi2), so one table per flavor and rank gives each
residue's color and one its special flag (_residues).

A point (i, y_i) is admissible when lowering y_i keeps the diagram valid;
(i, y_{i-1}) is removable when raising y_{i-1} does.  A marking is double
when the neighboring values form the flat pattern and i sits in the special
congruence class; a double contributes its coordinate twice to the form.
Diagrams are validated and classified on their window alone: outside it
every step is 1 or 0, and no point can lie there (see classify_points).
A move is decided once, by classify_points, which reads the two steps
beside each changed value off the window in one pass: _read addresses its
points, toggle_point moves only at a point that it lists, and _toggle
makes a listed move with no test, building the moved diagram once; only
make_reyd, from_json and validate check a whole diagram.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

from .root_data import AdaptedSequence, ResidueTable, check_family, exact_int, fold_table, p_row
from .forms import LinearForm, Point, Site, site_form, walk

# Each flavor's sequence family and the fold of its colors and P^k table.
FLAVORS = {"A2": ("A2", "pi1"), "D2target": ("C1", "pi2")}


_new = tuple.__new__  # a diagram or point from its fields, built in C with no check


class REYDError(ValueError):
    """Invalid revised extended Young diagram data."""


class MarkedPoint(NamedTuple):
    role: str  # "admissible" or "removable"
    x: int
    y: int
    multiplicity: int
    color: int


class RevisedEYD(NamedTuple):
    """Canonical window [t_lo, t_hi] with stored values; staircase/flat outside."""

    flavor: str
    n: int
    k: int
    t_lo: int
    ys: Tuple[int, ...]

    @property
    def t_hi(self) -> int:
        return self.t_lo + len(self.ys) - 1

    @property
    def modulus(self) -> int:
        """The period of the flavor's fold: 2n - 1 for pi1 (A2), 2n for pi2 (D2target)."""
        return fold_table(FLAVORS[self.flavor][1], self.n).period

    def y(self, t: int) -> int:
        i = t - self.t_lo
        if i < 0:
            return self.k + t
        if i >= len(self.ys):
            return self.k
        return self.ys[i]

    def units(self) -> int:
        """The sum of k + min(t, 0) - y_t over the window."""
        negatives = sum(range(self.t_lo, min(self.t_hi, -1) + 1))
        return self.k * len(self.ys) + negatives - sum(self.ys)

    def columns(self) -> List[int]:
        """Depths of the columns lowered below the highest diagram."""
        depths = (self.k + min(t, 0) - v for t, v in enumerate(self.ys, self.t_lo))
        return [d for d in depths if d > 0]

    def to_json(self) -> dict:
        return {
            "flavor": self.flavor,
            "n": self.n,
            "k": self.k,
            "t_lo": self.t_lo,
            "ys": list(self.ys),
        }

    @classmethod
    def from_json(cls, data: dict) -> "RevisedEYD":
        return make_reyd(str(data["flavor"]), data["n"], data["k"], data["t_lo"], data["ys"])


def _check_parameters(flavor: str, n: int, k: int) -> Tuple[int, int]:
    """n and k as ints; a REYDError unless they are integers that suit the flavor."""
    if flavor not in FLAVORS:
        raise REYDError(f"unknown flavor {flavor!r}, expected one of {tuple(FLAVORS)}")
    n, k = exact_int(n, REYDError), exact_int(k, REYDError)
    if n < 3:
        raise REYDError(f"need n >= 3, got {n}")
    hi = n if flavor == "A2" else n - 1
    if not 2 <= k <= hi:
        raise REYDError(f"flavor {flavor} needs charge in 2..{hi}, got {k}")
    return n, k


@lru_cache(maxsize=None)
def _residues(flavor: str, n: int) -> Tuple[ResidueTable, ResidueTable]:
    """The folded color and the special flag of a value, each by its residue
    mod the flavor's modulus, one pair of tables per flavor and rank.  The
    modulus is the period of the flavor's fold, so one residue addresses
    both.  A value is special when it is 0 mod the modulus, or n mod it for
    D2target."""
    colors = fold_table(FLAVORS[flavor][1], n)
    special = (0, n) if flavor == "D2target" else (0,)
    return colors, ResidueTable(lambda r: r % colors.period in special, colors.period)


def _special(T: RevisedEYD, value: int) -> bool:
    """Whether value is special for T's flavor, read from its table."""
    return _residues(T.flavor, T.n)[1][value % T.modulus]


def _pair_ok(T: RevisedEYD, t: int, yt: int, yt1: int) -> bool:
    """Whether the step from y_t to y_{t+1} is allowed at position t.

    Steps 0 and 1 are allowed everywhere.  At a relaxed position, one whose
    k + t is special, the step is only bounded below by 0 (t > 0) or above
    by 1 (t < 0); no valid charge relaxes position 0.
    """
    step = yt1 - yt
    if step in (0, 1):
        return True
    return _special(T, T.k + t) and (step >= 0 if t > 0 else step <= 1)


def make_reyd(flavor: str, n: int, k: int, t_lo: int, ys: Sequence[int]) -> RevisedEYD:
    """Validate and canonicalize a windowed value list; no values give phi.

    No valid diagram stores m >= 1 values from a t_lo outside -m..1, so such
    a t_lo is rejected before the values are padded out to position 0.  A
    step at a negative position rises by at most 1, so from y_{t_lo-1} =
    k + t_lo - 1 on, y_t <= k + t up to t = 0; with t_lo < -m, the first
    place past the window, t_lo + m < 0, would need y = k.  A step at a
    positive position never falls, so with t_lo > 1 every y_t from t = t_lo -
    1 >= 1 on stays at least k + t_lo - 1 > k, and never meets the charge.
    """
    n, k = _check_parameters(flavor, n, k)
    t_lo = exact_int(t_lo, REYDError)
    vals = tuple(exact_int(v, REYDError) for v in ys)
    if not vals:
        return phi_reyd(flavor, n, k)
    m = len(vals)
    if not -m <= t_lo <= 1:
        raise REYDError(f"t_lo must lie in -{m}..1 for a window of length {m}, got {t_lo}")
    return _validate(_trimmed(flavor, n, k, t_lo, vals))


def _trimmed(flavor: str, n: int, k: int, t_lo: int, ys: Tuple[int, ...]) -> RevisedEYD:
    """The diagram of the values ys from t_lo, cut to its canonical window
    and built once; nothing is validated.  The values are padded one place
    past both ends and past 0, so the two scans and the cut read one tuple."""
    lo, hi = t_lo, t_lo + len(ys) - 1
    start, stop = min(lo, 0) - 1, max(hi, 0) + 1
    vals = tuple(range(k + start, k + lo)) + ys + (k,) * (stop - hi)
    t, u = start + 1, stop - 1
    while t <= 0 and vals[t - start] == k + t:
        t += 1
    while u >= 0 and vals[u - start] == k:
        u -= 1
    lo, hi = min(t - 1, 0), max(u + 1, 0)
    return _new(RevisedEYD, (flavor, n, k, lo, vals[lo - start : hi - start + 1]))


def _validate(T: RevisedEYD) -> RevisedEYD:
    """T, or a REYDError when it is invalid.  Below t_lo every step is 1 and
    from t_hi on every step is 0, allowed anywhere, so past the endpoint test
    only the steps at t_lo..t_hi-1 can fail."""
    if T.y(T.t_lo) != T.k + T.t_lo or T.y(T.t_hi) != T.k:
        raise REYDError(f"window endpoints must meet the staircase and the charge: {T}")
    for t, (yt, yt1) in enumerate(zip(T.ys, T.ys[1:]), T.t_lo):
        if not _pair_ok(T, t, yt, yt1):
            raise REYDError(f"step {yt} -> {yt1} at position {t} violates the conditions")
    return T


def phi_reyd(flavor: str, n: int, k: int) -> RevisedEYD:
    """The highest diagram: pure staircase joined to the flat charge line."""
    n, k = _check_parameters(flavor, n, k)
    return RevisedEYD(flavor, n, k, 0, (k,))


def validate(T: RevisedEYD) -> List[str]:
    """Violation messages for a diagram built by hand; empty when valid."""
    try:
        _check_parameters(T.flavor, T.n, T.k)
        _validate(T)
    except REYDError as e:
        return [str(e)]
    return []


def classify_points(T: RevisedEYD) -> List[MarkedPoint]:
    """All admissible and removable points with multiplicities and colors.

    Only t_lo..t_hi can hold one.  Lowering or raising a value below t_lo
    makes a step of 2 at a negative position (t_lo <= 0); lowering one above
    t_hi, or raising one from t_hi on, makes a step of -1 at a position >= 0
    (t_hi >= 0).  _pair_ok allows neither: a relaxed position bounds a step
    by 1 above when negative and by 0 below when positive, and no valid
    charge relaxes position 0.

    This is the one move rule: a point is listed exactly when its one-unit
    move keeps both steps beside the changed value allowed by _pair_ok, read
    in one pass with no call.  A step of T that is not 0 or 1 is relaxed, and
    a one-unit move keeps it on its allowed side, so a move fails only where
    it turns a step 0 into -1 (only a negative relaxed position allows it)
    or 1 into 2 (only a positive one).

    Colors and special flags are read from the flavor's tables (_residues),
    by the residue r of k + i at each position i; r - 1 and r - 2 are those
    of k + i - 1 and k + i - 2.
    """
    out: List[MarkedPoint] = []
    lo, k = T.t_lo, T.k
    colors, special = _residues(T.flavor, T.n)
    M = colors.period
    v = [k + lo - 2, k + lo - 1, *T.ys, k]  # y_{t_lo-2} .. y_{t_hi+1}, read once
    for i, (a, b, c, d) in enumerate(zip(v, v[1:], v[2:], v[3:]), lo):  # y_{i-2} .. y_{i+1}
        r = (k + i) % M
        # the step y_{i-1} -> y_i may go from 0 to -1 only at a negative relaxed position
        flat_ok = b != c or (i < 1 and special[r - 1])
        if flat_ok and (d != c + 1 or (i > 0 and special[r])):
            double = b < c == d and ((i > 0 and special[r]) or (i < 0 and special[r - 1]))
            out.append(_new(MarkedPoint, ("admissible", i, c, 2 if double else 1, colors[r])))
        if flat_ok and (b != a + 1 or (i > 2 and special[r - 2])):
            double = a == b < c and ((i > 1 and special[r - 2]) or (i < 1 and special[r - 1]))
            out.append(_new(MarkedPoint, ("removable", i, b, 2 if double else 1, colors[r - 1])))
    return out


def _read(seq: AdaptedSequence, T: RevisedEYD) -> Tuple[List[Site], List[Point]]:
    """T's sites and move points, one of each per marked point of one
    classify_points pass; a toggle moves one unit, so a point's coeff is +1
    when admissible and -1 when removable, even at a double point.

    A point's column t is x when admissible and x - 1 when removable.  Its
    site is (+mult or -mult, P^k(t + k) + min(t, 0) + k - y, color).
    """
    flavor, n, k = T.flavor, T.n, T.k
    family, variant = FLAVORS[flavor]
    rs = seq.root_system
    if rs.algebra.family != family or rs.n != n:  # the check raises, naming the flavor
        check_family(seq, family, n, f"flavor {flavor}")
    row = p_row(seq, variant, k)
    sites: List[Site] = []
    points: List[Point] = []
    for pt in classify_points(T):
        role, x, y, multiplicity, color = pt
        if role == "admissible":  # t = x
            site = (multiplicity, row[x + k] + (x if x < 0 else 0) + k - y, color)
            points.append((pt, 1, site))
        else:  # t = x - 1
            site = (-multiplicity, row[x - 1 + k] + (x - 1 if x < 1 else 0) + k - y, color)
            points.append((pt, -1, site))
        sites.append(site)
    return sites, points


def sites(seq: AdaptedSequence, T: RevisedEYD) -> List[Site]:
    """One term per marked point; the assigned form at s is their site_form at s."""
    return _read(seq, T)[0]


def assign(seq: AdaptedSequence, T: RevisedEYD, s: int) -> LinearForm:
    """The form attached to a revised diagram at base occurrence s."""
    return site_form(sites(seq, T), s)


def toggle_point(T: RevisedEYD, point: MarkedPoint) -> RevisedEYD:
    """Lower at an admissible point or raise at a removable one; only a point
    that classify_points lists, matched by role, x and y, is toggled."""
    if (point.role, point.x, point.y) not in {pt[:3] for pt in classify_points(T)}:
        raise REYDError(f"{point} is not an admissible or removable point of {T}")
    return _toggle(T, point)


def _toggle(T: RevisedEYD, point: MarkedPoint) -> RevisedEYD:
    """T moved at a point that classify_points lists, built once.

    A legal move changes a value inside the window (see classify_points).  A
    move two or more places inside both ends keeps T's window: the first
    departure from the staircase (at t_lo + 1 when t_lo < 0) and the last
    from the charge (at t_hi - 1 when t_hi > 0) stay where they are, so only
    a move near an end is trimmed.
    """
    flavor, n, k, t_lo, ys = T
    role, x, y, _, _ = point
    t, delta = (x, -1) if role == "admissible" else (x - 1, 1)
    i = t - t_lo
    ys = ys[:i] + (y + delta,) + ys[i + 1 :]
    if 1 < i < len(ys) - 2:
        return _new(RevisedEYD, (flavor, n, k, t_lo, ys))
    return _trimmed(flavor, n, k, t_lo, ys)


def _seeds(flavor: str, n: int, k: int, bound: int) -> List[RevisedEYD]:
    return [phi_reyd(flavor, n, k)]


def _key(T: RevisedEYD) -> tuple:
    return T.units(), T.t_lo, T.ys


def _lowerings(T: RevisedEYD) -> Tuple[List[Site], List[Point]]:
    return [], [(pt, 1, None) for pt in classify_points(T) if pt.role == "admissible"]


def enumerate_reyd(flavor: str, n: int, k: int, max_units: int) -> List[RevisedEYD]:
    """All diagrams within max_units boxes below the highest one, walked by
    lowerings at admissible points in _key order; none for a negative max_units."""
    return [T for T, _, _ in walk([phi_reyd(flavor, n, k)], _lowerings, _toggle, _key, max_units)]


def render_reyd(T: RevisedEYD) -> str:
    """Value rows over the stored window with the marked points listed."""
    lo, hi = T.t_lo - 1, T.t_hi + 1
    header = "t: " + " ".join(f"{t:>3}" for t in range(lo, hi + 1))
    values = "y: " + " ".join(f"{T.y(t):>3}" for t in range(lo, hi + 1))
    marks = [
        f"{pt.role} ({pt.x},{pt.y}) color {pt.color}" + (" double" if pt.multiplicity == 2 else "")
        for pt in classify_points(T)
    ]
    return "\n".join([header, values] + marks)
