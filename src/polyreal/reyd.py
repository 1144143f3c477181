"""Revised extended Young diagrams and their assignment maps.

A revised diagram of charge k is a two-sided integer sequence (y_t) equal to
the staircase k + t left of its canonical window [t_lo, t_hi], which holds
position 0, and to k right of it.  Steps y_{t+1} - y_t must lie in {0, 1}
except at congruence-relaxed positions: when k + t falls in the special
residue class, the step is only bounded below (t > 0) or above by 1 (t < 0).
The A2 flavor has modulus 2n-1 and special residue {0}; the D2target flavor
has modulus 2n and special residues {0, n}.

A point (i, y_i) is admissible when lowering y_i keeps the diagram valid;
(i, y_{i-1}) is removable when raising y_{i-1} does.  A marking is double
when the neighboring values form the flat pattern and i sits in the special
congruence class; a double contributes its coordinate twice to the form.
Diagrams are validated and classified on their window alone: outside it
every step is 1 or 0, and no point can lie there (see classify_points).
A move is decided by the two steps beside the changed value: toggle_point
tests them with _can_set, and classify_points reads the same rule off the
window in one pass (_read addresses them, and _toggle makes a listed move
with no test); only make_reyd, from_json and validate check a whole diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

from .root_data import AdaptedSequence, check_family, exact_int, fold, p_table
from .forms import LinearForm, Point, Site, site_form, walk

# Each flavor's sequence family and the fold of its colors and P^k table.
FLAVORS = {"A2": ("A2", "pi1"), "D2target": ("C1", "pi2")}


class REYDError(ValueError):
    """Invalid revised extended Young diagram data."""


class MarkedPoint(NamedTuple):
    role: str  # "admissible" or "removable"
    x: int
    y: int
    multiplicity: int
    color: int


@dataclass(frozen=True)
class RevisedEYD:
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
        return 2 * self.n - 1 if self.flavor == "A2" else 2 * self.n

    @property
    def special(self) -> Tuple[int, ...]:
        """The special residues mod the modulus: 0, and n for D2target."""
        return (0, self.n) if self.flavor == "D2target" else (0,)

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


def _special(T: RevisedEYD, value: int) -> bool:
    """Whether value is 0 mod the modulus, or n mod it for D2target."""
    return value % T.modulus in T.special


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


def _can_set(T: RevisedEYD, t: int, before: int, value: int, after: int) -> bool:
    """Whether y_t = value keeps both steps beside it allowed, given y_{t-1} and y_{t+1}."""
    return _pair_ok(T, t - 1, before, value) and _pair_ok(T, t, value, after)


def make_reyd(flavor: str, n: int, k: int, t_lo: int, ys: Sequence[int]) -> RevisedEYD:
    """Validate and canonicalize a windowed value list."""
    n, k = _check_parameters(flavor, n, k)
    t_lo = exact_int(t_lo, REYDError)
    vals = tuple(exact_int(v, REYDError) for v in ys)
    if not vals:
        return phi_reyd(flavor, n, k)
    return _validate(_trimmed(RevisedEYD(flavor, n, k, t_lo, vals)))


def _trimmed(raw: RevisedEYD) -> RevisedEYD:
    """Cut a raw diagram to its canonical window; nothing is validated.  The
    values are padded one place past both ends and past 0, so the two scans
    and the cut read one tuple."""
    k, lo, hi = raw.k, raw.t_lo, raw.t_hi
    start, stop = min(lo, 0) - 1, max(hi, 0) + 1
    vals = tuple(range(k + start, k + lo)) + raw.ys + (k,) * (stop - hi)
    t, u = start + 1, stop - 1
    while t <= 0 and vals[t - start] == k + t:
        t += 1
    while u >= 0 and vals[u - start] == k:
        u -= 1
    lo, hi = min(t - 1, 0), max(u + 1, 0)
    return RevisedEYD(raw.flavor, raw.n, k, lo, vals[lo - start : hi - start + 1])


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

    One pass decides each move as _can_set would, with no call.  A step of T
    that is not 0 or 1 is relaxed, and a one-unit move keeps it on its
    allowed side, so a move fails only where it turns a step 0 into -1 (only
    a negative relaxed position allows it) or 1 into 2 (only a positive one).
    """
    out: List[MarkedPoint] = []
    lo, k, n, M, special = T.t_lo, T.k, T.n, T.modulus, T.special
    variant = FLAVORS[T.flavor][1]
    v = [k + lo - 2, k + lo - 1, *T.ys, k]  # y_{t_lo-2} .. y_{t_hi+1}, read once
    for i, (a, b, c, d) in enumerate(zip(v, v[1:], v[2:], v[3:]), lo):  # y_{i-2} .. y_{i+1}
        # the step y_{i-1} -> y_i may go from 0 to -1 only at a negative relaxed position
        flat_ok = b != c or (i < 1 and (k + i - 1) % M in special)
        if flat_ok and (d != c + 1 or (i > 0 and (k + i) % M in special)):
            double = b < c == d and (
                (i > 0 and (k + i) % M in special) or (i < 0 and (k + i - 1) % M in special)
            )
            color = fold(variant, n, i + k)
            out.append(MarkedPoint("admissible", i, c, 2 if double else 1, color))
        if flat_ok and (b != a + 1 or (i > 2 and (k + i - 2) % M in special)):
            double = a == b < c and (
                (i > 1 and (k + i - 2) % M in special) or (i < 1 and (k + i - 1) % M in special)
            )
            color = fold(variant, n, i + k - 1)
            out.append(MarkedPoint("removable", i, b, 2 if double else 1, color))
    return out


def _address(seq: AdaptedSequence, T: RevisedEYD, pt: MarkedPoint) -> Site:
    """The (coeff, offset, color) term of a point, +mult when admissible, -mult when removable.

    The point's column t is x for an admissible point and x - 1 for a
    removable one; the offset is P^k(t + k) + min(t, 0) + k - y.
    """
    k = T.k
    t = pt.x if pt.role == "admissible" else pt.x - 1
    offset = p_table(seq, FLAVORS[T.flavor][1], k, t + k) + min(t, 0) + k - pt.y
    coeff = pt.multiplicity if pt.role == "admissible" else -pt.multiplicity
    return coeff, offset, pt.color


def _read(seq: AdaptedSequence, T: RevisedEYD) -> Tuple[List[Site], List[Point]]:
    """T's sites and move points, one of each per marked point of one
    classify_points pass; a toggle moves one unit, so a point's coeff is +1
    when admissible and -1 when removable, even at a double point."""
    check_family(seq, FLAVORS[T.flavor][0], T.n, f"flavor {T.flavor}")
    points = [
        (pt, 1 if pt.role == "admissible" else -1, _address(seq, T, pt)) for pt in classify_points(T)
    ]
    return [site for _, _, site in points], points


def sites(seq: AdaptedSequence, T: RevisedEYD) -> List[Site]:
    """One term per marked point; the assigned form at s is their site_form at s."""
    return _read(seq, T)[0]


def assign(seq: AdaptedSequence, T: RevisedEYD, s: int) -> LinearForm:
    """The form attached to a revised diagram at base occurrence s."""
    return site_form(sites(seq, T), s)


def toggle_point(T: RevisedEYD, point: MarkedPoint) -> RevisedEYD:
    """Lower at an admissible point or raise at a removable one; only the two
    steps beside the changed value are checked, by the rule of classify_points."""
    t, delta = (point.x, -1) if point.role == "admissible" else (point.x - 1, 1)
    legal = point.role in ("admissible", "removable") and T.y(t) == point.y
    if not (legal and _can_set(T, t, T.y(t - 1), point.y + delta, T.y(t + 1))):
        raise REYDError(f"{point} is not an admissible or removable point of {T}")
    return _toggle(T, point)


def _toggle(T: RevisedEYD, point: MarkedPoint) -> RevisedEYD:
    # a legal move changes a value inside the window (see classify_points)
    t, delta = (point.x, -1) if point.role == "admissible" else (point.x - 1, 1)
    i = t - T.t_lo
    ys = T.ys[:i] + (point.y + delta,) + T.ys[i + 1 :]
    return _trimmed(RevisedEYD(T.flavor, T.n, T.k, T.t_lo, ys))


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
