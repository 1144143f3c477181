"""Integer linear forms in the variables x_{s,l}, beta forms, and the S' closure.

A form is a finite integer combination of coordinates x_{s,l} addressed by
double indices (s, l): the s-th occurrence of color l.  The beta form at
(s, l) is x_{s,l} + x_{s+1,l} + sum over neighbors j of l of
a_{l,j} x_{s+p_{j,l}, j}.  The operator S'_d subtracts beta_d at a positive
coefficient, adds the predecessor beta at a negative one (identity at s = 1),
and fixes the form at a zero coefficient.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .root_data import AdaptedSequence, RootDataError, index_to_pair, pair_to_index
from .lattice_crystal import LatticeElement

Pair = Tuple[int, int]
# (coeff, offset, color): a generator object's term coeff * x_{s+offset, color}
# in its form at s.
Site = Tuple[int, int, int]
# (obj2, coeff, offset, color): a toggle of obj with
# form(obj2, s) = form(obj, s) - coeff * beta_{s+offset, color}.
Move = Tuple[object, int, int, int]
Terms = Union[Dict[Pair, int], Iterable[Tuple[Pair, int]], None]


class LinearForm:
    """An integer linear form sum c_{s,l} x_{s,l} with finitely many terms."""

    __slots__ = ("_terms", "_key")

    def __init__(self, terms: Terms = None):
        d: Dict[Pair, int] = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for (s, l), c in items:
            s, l, c = int(s), int(l), int(c)
            if s < 1:
                raise ValueError(f"occurrence index must be >= 1, got {s}")
            if c:
                d[(s, l)] = d.get((s, l), 0) + c
                if not d[(s, l)]:
                    del d[(s, l)]
        self._terms = d
        self._key = tuple(sorted(d.items()))

    @classmethod
    def zero(cls) -> "LinearForm":
        return cls()

    @classmethod
    def x(cls, s: int, l: int) -> "LinearForm":
        return cls({(s, l): 1})

    def coeff(self, s: int, l: int) -> int:
        return self._terms.get((s, l), 0)

    def items(self) -> Tuple[Tuple[Pair, int], ...]:
        return self._key

    def is_zero(self) -> bool:
        return not self._key

    def sort_key(self) -> tuple:
        return self._key

    def __add__(self, other: "LinearForm") -> "LinearForm":
        d = dict(self._terms)
        for pair, c in other._key:
            d[pair] = d.get(pair, 0) + c
        return LinearForm(d)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + (-other)

    def __neg__(self) -> "LinearForm":
        return LinearForm({pair: -c for pair, c in self._key})

    def __mul__(self, scalar: int) -> "LinearForm":
        return LinearForm({pair: scalar * c for pair, c in self._key})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinearForm) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"LinearForm({self})"

    def __str__(self) -> str:
        if not self._key:
            return "0"
        parts: List[str] = []
        for (s, l), c in self._key:
            mag = abs(c)
            term = f"x[{s},{l}]" if mag == 1 else f"{mag} x[{s},{l}]"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {"terms": [{"s": s, "l": l, "c": c} for (s, l), c in self._key]}

    @classmethod
    def from_json(cls, data: dict) -> "LinearForm":
        return cls([((int(t["s"]), int(t["l"])), int(t["c"])) for t in data["terms"]])


def site_form(sites: Iterable[Site], s: int) -> LinearForm:
    """The form sum of coeff * x_{s+offset, color} over (coeff, offset, color) sites."""
    return LinearForm([((s + offset, color), coeff) for coeff, offset, color in sites])


def site_move(obj2: object, coeff: int, site: Site) -> Move:
    """The move to obj2 that toggles a site by coeff units.

    An add (coeff > 0) shifts the form by beta at the site's address; a
    remove shifts it by beta one occurrence below.
    """
    _, offset, color = site
    return obj2, coeff, (offset if coeff > 0 else offset - 1), color


def beta_pair(seq: AdaptedSequence, s: int, l: int) -> LinearForm:
    """beta_{s,l} in double-index coordinates."""
    if s < 1:
        raise RootDataError(f"beta needs s >= 1, got {s}")
    rs = seq.root_system
    terms: Dict[Pair, int] = {(s, l): 1}
    terms[(s + 1, l)] = terms.get((s + 1, l), 0) + 1
    for j in rs.index_set:
        if j != l and rs.a(l, j) < 0:
            pair = (s + seq.p[(j, l)], j)
            terms[pair] = terms.get(pair, 0) + rs.a(l, j)
    return LinearForm(terms)


def beta_index(seq: AdaptedSequence, j: int) -> LinearForm:
    """beta at single index j: x_j + x_{j+} plus Cartan-weighted terms between."""
    l = seq.color_of(j)
    jplus = j + 1
    while seq.color_of(jplus) != l:
        jplus += 1
    terms: Dict[Pair, int] = {index_to_pair(seq, j): 1, index_to_pair(seq, jplus): 1}
    cart = seq.root_system.a
    for j2 in range(j + 1, jplus):
        c = cart(l, seq.color_of(j2))
        if c:
            pair = index_to_pair(seq, j2)
            terms[pair] = terms.get(pair, 0) + c
    return LinearForm(terms)


def s_prime(seq: AdaptedSequence, form: LinearForm, d: Pair) -> LinearForm:
    """Apply S'_d: subtract beta_d, add the predecessor beta, or do nothing."""
    s, l = d
    c = form.coeff(s, l)
    if c > 0:
        return form - beta_pair(seq, s, l)
    if c < 0 and s > 1:
        return form + beta_pair(seq, s - 1, l)
    return form


def max_single_index(seq: AdaptedSequence, form: LinearForm) -> int:
    """Largest single index carrying a nonzero coefficient (0 for the zero form)."""
    return max((pair_to_index(seq, s, l) for (s, l), _ in form.items()), default=0)


def closure(
    seq: AdaptedSequence,
    seeds: Iterable[LinearForm],
    depth: int,
    index_bound: Optional[int] = None,
) -> Tuple[Set[LinearForm], int]:
    """Iterate S' from the seeds for the given number of rounds.

    S' is applied at every nonzero coefficient position of every known form.
    Forms whose support exceeds index_bound (default L * (depth + 2)) are
    dropped; the count of distinct dropped forms is returned alongside the
    closed set.
    """
    if index_bound is None:
        index_bound = seq.L * (depth + 2)
    seen: Set[LinearForm] = set(seeds)
    pruned: Set[LinearForm] = set()
    frontier = list(seen)
    for _ in range(depth):
        nxt: List[LinearForm] = []
        for f in sorted(frontier, key=LinearForm.sort_key):
            for pair, _ in f.items():
                g = s_prime(seq, f, pair)
                if g == f or g in seen or g in pruned:
                    continue
                if max_single_index(seq, g) > index_bound:
                    pruned.add(g)
                    continue
                seen.add(g)
                nxt.append(g)
        frontier = nxt
    return seen, len(pruned)


def evaluate(seq: AdaptedSequence, form: LinearForm, a: LatticeElement) -> int:
    """Value of the form on a lattice element."""
    return sum(c * a.get(pair_to_index(seq, s, l)) for (s, l), c in form.items())


def check_xi_positivity(
    seq: AdaptedSequence, forms: Iterable[LinearForm]
) -> Tuple[bool, List[Tuple[LinearForm, Pair, int]]]:
    """No form may carry a negative coefficient at a first-occurrence position."""
    witnesses: List[Tuple[LinearForm, Pair, int]] = []
    for f in forms:
        for (s, l), c in f.items():
            if s == 1 and c < 0:
                witnesses.append((f, (s, l), c))
    return not witnesses, witnesses
