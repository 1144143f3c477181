"""Revised extended Young diagrams and their assignment maps.

A revised diagram of charge k is a two-sided integer sequence (y_t) equal to
the staircase k + t far left and to k far right.  Steps y_{t+1} - y_t must
lie in {0, 1} except at congruence-relaxed positions: when k + t falls in
the relaxed residue class, the step is only bounded below (t > 0) or above
by 1 (t < 0).  The A2 flavor has modulus 2n-1 and relaxed residue {0}; the
D2target flavor has modulus 2n and relaxed residues {0, n}.

A point (i, y_i) is admissible when lowering y_i keeps the diagram valid;
(i, y_{i-1}) is removable when raising y_{i-1} does.  A marking is double
when the neighboring values form the flat pattern and i sits in the special
congruence class; a double contributes its coordinate twice to the form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .root_data import AdaptedSequence, RootDataError, fold, p_table
from .forms import LinearForm, Move, Site, site_form, site_move

FLAVORS = ("A2", "D2target")

_VARIANT = {"A2": "pi1", "D2target": "pi2"}
_FAMILY = {"A2": "A2", "D2target": "C1"}


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

    def y(self, t: int) -> int:
        if t < self.t_lo:
            return self.k + t
        if t > self.t_hi:
            return self.k
        return self.ys[t - self.t_lo]

    def units(self) -> int:
        return sum(self.k + min(t, 0) - self.y(t) for t in range(self.t_lo, self.t_hi + 1))

    def columns(self) -> List[int]:
        """Depths of the columns lowered below the highest diagram."""
        depths = (self.k + min(t, 0) - self.y(t) for t in range(self.t_lo, self.t_hi + 1))
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
        return make_reyd(
            str(data["flavor"]),
            int(data["n"]),
            int(data["k"]),
            int(data["t_lo"]),
            [int(v) for v in data["ys"]],
        )


def _check_parameters(flavor: str, n: int, k: int) -> None:
    if flavor not in FLAVORS:
        raise REYDError(f"unknown flavor {flavor!r}, expected one of {FLAVORS}")
    if n < 3:
        raise REYDError(f"need n >= 3, got {n}")
    hi = n if flavor == "A2" else n - 1
    if not 2 <= k <= hi:
        raise REYDError(f"flavor {flavor} needs charge in 2..{hi}, got {k}")


def _relaxed(flavor: str, n: int, k: int, t: int) -> bool:
    if flavor == "A2":
        return (k + t) % (2 * n - 1) == 0
    return (k + t) % (2 * n) in (0, n)


def _pair_ok(flavor: str, n: int, k: int, t: int, yt: int, yt1: int) -> bool:
    """Whether the step from y_t to y_{t+1} is allowed at position t.

    No valid charge relaxes position 0, so a relaxed t is nonzero.
    """
    if not _relaxed(flavor, n, k, t):
        return yt1 - yt in (0, 1)
    if t > 0:
        return yt1 >= yt
    return yt1 <= yt + 1


def make_reyd(flavor: str, n: int, k: int, t_lo: int, ys: Sequence[int]) -> RevisedEYD:
    """Validate and canonicalize a windowed value list."""
    _check_parameters(flavor, n, k)
    vals = [int(v) for v in ys]
    if not vals:
        return phi_reyd(flavor, n, k)
    ydict = {t_lo + m: v for m, v in enumerate(vals)}
    return _canonical(flavor, n, k, ydict)


def _canonical(flavor: str, n: int, k: int, ydict: Dict[int, int]) -> RevisedEYD:
    a0, b0 = min(ydict), max(ydict)
    lo_scan = min(a0, 0) - 1
    hi_scan = max(b0, 0) + 1
    full = {}
    for u in range(lo_scan, hi_scan + 1):
        if u in ydict:
            full[u] = ydict[u]
        else:
            full[u] = k + u if u < a0 else k
    t = lo_scan
    while t <= 0 and full[t] == k + t:
        t += 1
    lo = min(t - 1, 0)
    t = hi_scan
    while t >= 0 and full[t] == k:
        t -= 1
    hi = max(t + 1, 0)
    vals = tuple(full[u] for u in range(lo, hi + 1))
    T = RevisedEYD(flavor, n, k, lo, vals)
    _validate(T)
    return T


def _validate(T: RevisedEYD) -> None:
    if T.y(T.t_lo) != T.k + T.t_lo or T.y(T.t_hi) != T.k:
        raise REYDError(f"window endpoints must meet the staircase and the charge: {T}")
    M = T.modulus
    for t in range(T.t_lo - M - 1, T.t_hi + M + 1):
        if not _pair_ok(T.flavor, T.n, T.k, t, T.y(t), T.y(t + 1)):
            raise REYDError(
                f"step {T.y(t)} -> {T.y(t + 1)} at position {t} violates the conditions"
            )


def phi_reyd(flavor: str, n: int, k: int) -> RevisedEYD:
    """The highest diagram: pure staircase joined to the flat charge line."""
    _check_parameters(flavor, n, k)
    return RevisedEYD(flavor, n, k, 0, (k,))


def validate(T: RevisedEYD) -> List[str]:
    """Violation messages for a diagram built by hand; empty when valid."""
    try:
        _check_parameters(T.flavor, T.n, T.k)
        _validate(T)
    except REYDError as e:
        return [str(e)]
    return []


def _lower_ok(T: RevisedEYD, i: int) -> bool:
    yi = T.y(i) - 1
    return _pair_ok(T.flavor, T.n, T.k, i - 1, T.y(i - 1), yi) and _pair_ok(
        T.flavor, T.n, T.k, i, yi, T.y(i + 1)
    )


def _raise_ok(T: RevisedEYD, i: int) -> bool:
    yi1 = T.y(i - 1) + 1
    return _pair_ok(T.flavor, T.n, T.k, i - 2, T.y(i - 2), yi1) and _pair_ok(
        T.flavor, T.n, T.k, i - 1, yi1, T.y(i)
    )


def _double_residue(T: RevisedEYD, value: int, side: int) -> bool:
    """side +1: the residue test for i > 0; side -1: the shifted test for i < 0."""
    M = T.modulus
    specials = (0,) if T.flavor == "A2" else (0, T.n)
    for l in specials:
        target = l if side > 0 else l + 1
        if value % M == target % M:
            return True
    return False


def _double_adm(T: RevisedEYD, i: int) -> bool:
    if not (T.y(i - 1) < T.y(i) == T.y(i + 1)):
        return False
    if i > 0 and _double_residue(T, i + T.k, +1):
        return True
    return i < 0 and _double_residue(T, i + T.k, -1)


def _double_rem(T: RevisedEYD, i: int) -> bool:
    if not (T.y(i - 2) == T.y(i - 1) < T.y(i)):
        return False
    if i > 1 and _double_residue(T, i + T.k - 1, -1):
        return True
    return i < 1 and _double_residue(T, i + T.k - 1, +1)


def classify_points(T: RevisedEYD) -> List[MarkedPoint]:
    """All admissible and removable points with multiplicities and colors."""
    M = T.modulus
    out: List[MarkedPoint] = []
    for i in range(T.t_lo - M - 1, T.t_hi + M + 2):
        if _lower_ok(T, i):
            mult = 2 if _double_adm(T, i) else 1
            out.append(
                MarkedPoint("admissible", i, T.y(i), mult, fold(_VARIANT[T.flavor], T.n, i + T.k))
            )
        if _raise_ok(T, i):
            mult = 2 if _double_rem(T, i) else 1
            out.append(
                MarkedPoint(
                    "removable", i, T.y(i - 1), mult, fold(_VARIANT[T.flavor], T.n, i + T.k - 1)
                )
            )
    return out


def _check_sequence(seq: AdaptedSequence, T: RevisedEYD) -> None:
    fam = seq.root_system.algebra.family
    if fam != _FAMILY[T.flavor]:
        raise RootDataError(f"flavor {T.flavor} needs family {_FAMILY[T.flavor]}, got {fam}")
    if seq.root_system.n != T.n:
        raise RootDataError(f"rank mismatch: diagram n={T.n}, sequence n={seq.root_system.n}")


def _address(seq: AdaptedSequence, T: RevisedEYD, pt: MarkedPoint) -> Site:
    """The (coeff, offset, color) term of a point, +mult when admissible, -mult when removable.

    The point's column t is x for an admissible point and x - 1 for a
    removable one; the offset is P^k(t + k) + min(t, 0) + k - y.
    """
    k = T.k
    t = pt.x if pt.role == "admissible" else pt.x - 1
    offset = p_table(seq, _VARIANT[T.flavor], k, t + k) + min(t, 0) + k - pt.y
    coeff = pt.multiplicity if pt.role == "admissible" else -pt.multiplicity
    return coeff, offset, pt.color


def sites(seq: AdaptedSequence, T: RevisedEYD) -> List[Site]:
    """One term per marked point; the assigned form at s is their site_form at s."""
    _check_sequence(seq, T)
    return [_address(seq, T, pt) for pt in classify_points(T)]


def moves(seq: AdaptedSequence, T: RevisedEYD) -> Iterator[Move]:
    """One (T2, coeff, offset, color) per marked point toggle.

    assign(T2, s) = assign(T, s) - coeff * beta_{s+offset, color}.  A toggle
    moves one unit, so coeff is +1 at an admissible point and -1 at a
    removable one, even at a double point.
    """
    _check_sequence(seq, T)
    for pt in classify_points(T):
        site = _address(seq, T, pt)
        yield site_move(toggle_point(T, pt), 1 if site[0] > 0 else -1, site)


def assign(seq: AdaptedSequence, T: RevisedEYD, s: int) -> LinearForm:
    """The form attached to a revised diagram at base occurrence s."""
    return site_form(sites(seq, T), s)


def toggle_point(T: RevisedEYD, point: MarkedPoint) -> RevisedEYD:
    """Lower at an admissible point or raise at a removable one."""
    if point.role == "admissible":
        if not (_lower_ok(T, point.x) and T.y(point.x) == point.y):
            raise REYDError(f"{point} is not an admissible point of {T}")
        target, delta = point.x, -1
    elif point.role == "removable":
        if not (_raise_ok(T, point.x) and T.y(point.x - 1) == point.y):
            raise REYDError(f"{point} is not a removable point of {T}")
        target, delta = point.x - 1, 1
    else:
        raise REYDError(f"unknown role {point.role!r}")
    lo = min(T.t_lo, target - 1) - 1
    hi = max(T.t_hi, target + 1) + 1
    ydict = {t: T.y(t) for t in range(lo, hi + 1)}
    ydict[target] += delta
    return _canonical(T.flavor, T.n, T.k, ydict)


def enumerate_reyd(flavor: str, n: int, k: int, max_units: int) -> List[RevisedEYD]:
    """All diagrams with at most max_units boxes below the highest one."""
    start = phi_reyd(flavor, n, k)
    seen = {start}
    frontier = [start]
    for _ in range(max_units):
        nxt: List[RevisedEYD] = []
        for T in frontier:
            for pt in classify_points(T):
                if pt.role != "admissible":
                    continue
                T2 = toggle_point(T, pt)
                if T2 not in seen:
                    seen.add(T2)
                    nxt.append(T2)
        frontier = nxt
    return sorted(seen, key=lambda T: (T.units(), T.t_lo, T.ys))


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
