"""Integer linear forms in the variables x_{s,l}, beta forms, the S' closure,
and the one walk over generator objects.

A form is a finite integer combination of coordinates x_{s,l} addressed by
double indices (s, l): the s-th occurrence of color l.  The beta form at
(s, l) is x_{s,l} + x_{s+1,l} + sum over neighbors j of l of
a_{l,j} x_{s+p_{j,l}, j}.  The operator S'_d subtracts beta_d at a positive
coefficient, adds the predecessor beta at a negative one (identity at s = 1),
and fixes the form at a zero coefficient.  The constructor checks its terms;
sums, differences, scalar multiples (whose scalar is checked), site and beta
forms, whose terms are checked, skip that.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .root_data import (
    AdaptedSequence, RootDataError, exact_int, index_to_pair, pair_to_index, reachable
)
from .lattice_crystal import LatticeElement

Pair = Tuple[int, int]
# (coeff, offset, color): a generator object's term coeff * x_{s+offset, color}
# in its form at s.
Site = Tuple[int, int, int]
# (obj2, coeff, offset, color): a toggle of obj with
# form(obj2, s) = form(obj, s) - coeff * beta_{s+offset, color}.
Move = Tuple[object, int, int, int]
# (point, coeff, site): a move read but not made, with its toggle's argument.
Point = Tuple[object, int, Site]
Terms = Union[Dict[Pair, int], Iterable[Tuple[Pair, int]], None]


def _occurring(terms: List[Tuple[Pair, int]]) -> List[Tuple[Pair, int]]:
    """The (pair, c) terms, after a ValueError if one lies at an occurrence below 1."""
    if terms and min(terms)[0][0] < 1:
        raise ValueError(f"occurrence index must be >= 1, got {min(terms)[0][0]}")
    return terms


def _accumulate(d: Dict[Pair, int], terms: Iterable[Tuple[Pair, int]], sign: int = 1) -> dict:
    """d with sign * c added at each (pair, c) of terms; a pair summing to 0 is dropped."""
    for pair, c in terms:
        c = d.get(pair, 0) + sign * c
        if c:
            d[pair] = c
        else:
            d.pop(pair, None)
    return d


class LinearForm:
    """An integer linear form sum c_{s,l} x_{s,l} with finitely many terms."""

    __slots__ = ("_terms", "_key")

    def __init__(self, terms: Terms = None):
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        checked = [((exact_int(s), exact_int(l)), exact_int(c)) for (s, l), c in items]
        self._terms = _accumulate({}, _occurring(checked))
        self._key = tuple(sorted(self._terms.items()))

    @staticmethod
    def _of(d: Dict[Pair, int]) -> "LinearForm":
        """The form of d, whose terms are integer, nonzero and at s >= 1, taken as is."""
        f = object.__new__(LinearForm)
        f._terms, f._key = d, tuple(sorted(d.items()))
        return f

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
        return LinearForm._of(_accumulate(dict(self._terms), other._key))

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm._of(_accumulate(dict(self._terms), other._key, -1))

    def __neg__(self) -> "LinearForm":
        return LinearForm._of({pair: -c for pair, c in self._key})

    def __mul__(self, scalar: int) -> "LinearForm":
        scalar = exact_int(scalar)
        return LinearForm._of({pair: scalar * c for pair, c in self._key} if scalar else {})

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
        return cls([((t["s"], t["l"]), t["c"]) for t in data["terms"]])


def site_form(sites: Iterable[Site], s: int) -> LinearForm:
    """The form sum of coeff * x_{s+offset, color} over (coeff, offset, color) sites."""
    terms = [((s + offset, color), coeff) for coeff, offset, color in sites]
    return LinearForm._of(_accumulate({}, _occurring(terms)))


def site_move(obj2: object, coeff: int, site: Site) -> Move:
    """The move to obj2 that toggles a site by coeff units.

    An add (coeff > 0) shifts the form by beta at the site's address; a
    remove shifts it by beta one occurrence below.
    """
    _, offset, color = site
    return obj2, coeff, (offset if coeff > 0 else offset - 1), color


def walk(
    seeds: Iterable,
    read: Callable[[object], Tuple[List[Site], List[Point]]],
    toggle: Callable[[object, object], object],
    key: Optional[Callable[[object], tuple]],
    bound: int,
    halves: bool = False,
    every: bool = False,
) -> Iterator[Tuple[object, List[Site], List[Move]]]:
    """(obj, sites, moves) for each generator object within the bound, in
    enumeration order, each read once: (sites, points) = read(obj).

    With a key, the walk grows from the seeds by unit adds (points of coeff
    +1, made by toggle), and the bound counts adds or, with halves, bounds
    the size, the key's first entry, which an add raises by point.halves.
    Every add raises the size, so a size is taken, sorted by key, only once
    all its objects are listed.  With key None the seeds are listed in order
    and only read.  With every, each point is toggled and moves lists its
    move; otherwise moves is empty and no site is looked at.  A negative
    bound gives nothing.  This is the one maker of generator moves: one
    object's moves are those of walk([obj], read, toggle, None, 0, every=True).
    """
    grows = key is not None
    listed = list(seeds) if bound >= 0 else []
    sizes = {0: [(key(obj) if grows else i, 0, obj) for i, obj in enumerate(listed)]}
    seen = set(listed)
    while sizes:
        for size, steps, obj in sorted(sizes.pop(min(sizes))):
            sites, points = read(obj)
            moves = []
            if grows or every:
                room = bound - (size[0] if halves else steps)
                for point, coeff, site in points:
                    grow = grows and coeff == 1 and (point.halves if halves else 1) <= room
                    if grow or every:
                        obj2 = toggle(obj, point)
                        if every:
                            moves.append(site_move(obj2, coeff, site))
                        if grow and obj2 not in seen:
                            seen.add(obj2)
                            key2 = key(obj2)
                            sizes.setdefault(key2[0], []).append((key2, steps + 1, obj2))
            yield obj, sites, moves


def beta_sites(seq: AdaptedSequence, l: int) -> Tuple[Site, ...]:
    """The sites of beta_{s,l} relative to s, the same at every s: x_{s,l},
    x_{s+1,l} and a_{l,j} x_{s+p_{j,l}, j} for each neighbor j of l.  The
    sequence builds them once per color."""
    return seq._beta[l]


def beta_pair(seq: AdaptedSequence, s: int, l: int) -> LinearForm:
    """beta_{s,l} in double-index coordinates."""
    if s < 1:
        raise RootDataError(f"beta needs s >= 1, got {s}")
    # the neighbor sites have distinct colors j != l, so no two sites meet
    return LinearForm._of({(s + offset, j): c for c, offset, j in seq._beta[l]})


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
    """Apply S'_d: subtract beta_d, add the predecessor beta, or do nothing.
    beta's sites go straight into a copy of the form's terms, sorted once."""
    s, l = d
    c = form.coeff(s, l)
    if c > 0:
        sign, base = -1, s
    elif c < 0 and s > 1:
        sign, base = 1, s - 1
    else:
        return form
    beta = (((base + offset, j), coeff) for coeff, offset, j in seq._beta[l])
    return LinearForm._of(_accumulate(dict(form._terms), beta, sign))


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
    Without index_bound there is no cap.  With it, forms whose support
    passes the bound are dropped, and the count of distinct dropped forms
    is returned alongside the closed set.  The cap is tested only on forms
    neither seen nor dropped before.

    No cap is needed: a round raises a form's largest single index by at
    most L.  S' at (s, l), single index j in the support, subtracts
    beta_{s,l} or adds beta_{s-1,l}.  beta_{s,l} ends at x_{s+1,l}, the next
    occurrence of l, at most j + L; its neighbor terms lie between the two
    occurrences, as beta_index lists them.  beta_{s-1,l} ends at j itself.
    """
    seen: Set[LinearForm] = set(seeds)
    pruned: Set[LinearForm] = set()

    def images(f: LinearForm) -> Iterator[LinearForm]:
        for pair, _ in f.items():
            g = s_prime(seq, f, pair)
            if g not in seen and g not in pruned:
                if index_bound is None or max_single_index(seq, g) <= index_bound:
                    yield g
                else:
                    pruned.add(g)

    return reachable(seen, images, depth), len(pruned)


def evaluate(seq: AdaptedSequence, form: LinearForm, a: LatticeElement) -> int:
    """Value of the form on a lattice element."""
    return sum(c * a.get(pair_to_index(seq, s, l)) for (s, l), c in form.items())


def window_solutions(
    seq: AdaptedSequence,
    forms: Iterable[LinearForm],
    window: Sequence[int],
    max_total: int,
) -> List[Tuple[int, ...]]:
    """The nonnegative vectors on the window with total <= max_total on which
    every form is >= 0, as tuples of window values in lexicographic order.

    Each form is compiled once to its terms at window positions (a term off
    the window reads 0), with each pair's position read once per call; a
    form without a negative term is dropped, and so is a repeated term list.
    A depth-first search then assigns the window in order, holding every
    form in a field of W bits of one int: form k's field, at bit k*W, holds
    2^(W-1) plus the form's partial sum over the values assigned so far.
    Position p has a column, the form coefficients at p packed the same way,
    so raising the value at p by one is the one add `acc += column[p]`.  A
    form that ends at p is >= 0 once p is assigned exactly when its field's
    top bit is set.  So p also has the mask of those top bits (`need`), and
    within it the top bits of the forms whose coefficient at p is negative
    (`cap`).  The search scans the values at p upward from 0: it enters a
    value at which every bit of `need` is set, and stops at the first value
    that clears a bit of `cap`, since a larger value only lowers those forms.
    An empty window holds one vector, the empty tuple, whatever max_total is.

    No carry or borrow crosses a field.  The values assigned sum to at most
    max_total, and the scan adds at most one value past it, so every partial
    sum lies within M = max|c| * (max_total + 1) of 0.  W is
    bit_length(M) + 2, so M < 2^(W-2) and each field lies strictly between
    2^(W-2) and 3 * 2^(W-2), inside [0, 2^W).  acc is then the sum of its
    fields times powers of 2^W with every digit in [0, 2^W): that is its
    base-2^W expansion, so each field's bits are exactly its value, and its
    top bit is set exactly when the field is >= 2^(W-1), the sum >= 0.
    """
    place = {j: p for p, j in enumerate(window)}
    at: Dict[Pair, Optional[int]] = {}
    compiled: Set[Tuple[Tuple[int, int], ...]] = set()
    for f in forms:
        terms = []
        for pair, c in f.items():
            if pair not in at:
                at[pair] = place.get(pair_to_index(seq, *pair))
            if at[pair] is not None:
                terms.append((at[pair], c))
        # a form without a negative term is >= 0 on every nonnegative vector
        if any(c < 0 for _, c in terms):
            compiled.add(tuple(sorted(terms)))
    most = max((abs(c) for terms in compiled for _, c in terms), default=0)
    width = (most * (max_total + 1)).bit_length() + 2
    top = 1 << (width - 1)
    column, need, cap = [0] * len(window), [0] * len(window), [0] * len(window)
    start = 0
    for k, terms in enumerate(compiled):
        shift = k * width
        start |= top << shift
        for p, c in terms:
            column[p] += c << shift
        last, c = terms[-1]
        need[last] |= top << shift
        if c < 0:
            cap[last] |= top << shift
    values = [0] * len(window)
    found: List[Tuple[int, ...]] = []

    def search(p: int, remaining: int, acc: int) -> None:
        if p == len(values):
            found.append(tuple(values))
            return
        step, needed, capped = column[p], need[p], cap[p]
        for v in range(remaining + 1):
            bits = acc & needed
            if bits == needed:
                values[p] = v
                search(p + 1, remaining - v, acc)
            elif bits & capped != capped:
                break
            acc += step

    search(0, max_total, start)
    return found


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
