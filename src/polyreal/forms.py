"""Integer linear forms in the variables x_{s,l}, beta forms, the S' closure,
the one walk over generator objects, and the window search over a sampled
system of forms.

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
# A sampled inequality system: each site key, the sorted ((offset, color),
# coeff) items of a form shifted to lowest offset 0, with the set of first
# occurrences at which the system holds it (system_forms).
Key = Tuple[Tuple[Pair, int], ...]
System = Dict[Key, Set[int]]


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


def _site_map(sites: List[Site]) -> Dict[Pair, int]:
    """Sites merged to {(offset, color): coeff}, a sum of 0 kept as 0."""
    merged: Dict[Pair, int] = {}
    for c, offset, l in sites:
        pair = offset, l
        merged[pair] = merged[pair] + c if pair in merged else c
    return merged


def code_width(most: int) -> int:
    """The field width W = bit_length(most) + 1, at which two integer vectors
    whose entries are at most most in size have equal codes only if equal.

    A vector's code is the one int sum of c_f * 2^(W*f) over its entries c_f
    at fields f >= 0.  As |c_f| <= most < 2^(W-1), it is a base-2^W number
    with balanced digits in (-2^(W-1), 2^(W-1)), and such digits are unique:
    the lowest is the code's residue mod 2^W, read in that range, and the
    rest follow from (code - digit) / 2^W.
    """
    return most.bit_length() + 1


def pack(sites: Iterable[Site], width: int, field: Callable[[int, int], int], packed: dict) -> int:
    """The code at field width W of the (coeff, offset, color) sites: the sum
    of coeff * 2^(W*f) over them, at f = field(offset, color) >= 0, each
    distinct site's term made once and kept in packed.  With field one-to-one
    on the (offset, color) met, it is the code of the site map (code_width)."""
    code = 0
    for site in sites:
        term = packed.get(site)
        if term is None:
            c, offset, color = site
            term = packed[site] = c << (width * field(offset, color))
        code += term
    return code


def _most(site_lists: Iterable[Sequence[Site]]) -> Tuple[int, int]:
    """(most, lowest): the largest sum of |coeff| over one site list, which no
    entry of its site map passes, and the lowest offset of a site, 0 when
    there is none; one pass over the sites."""
    most, lowest = 0, float("inf")
    for sites in site_lists:
        total = 0
        for c, offset, _ in sites:
            total += c if c > 0 else -c
            if offset < lowest:
                lowest = offset
        if total > most:
            most = total
    return most, (0 if lowest == float("inf") else lowest)


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
    bound = exact_int(bound, RootDataError)
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


def _occurrence(seq: AdaptedSequence, s: int, l: int) -> Pair:
    """(s, l) as ints, an occurrence s >= 1 of a color l of seq; a RootDataError otherwise."""
    s = exact_int(s, RootDataError)
    if s < 1:
        raise RootDataError(f"beta needs s >= 1, got {s}")
    return s, seq.check_color(l)


def beta_pair(seq: AdaptedSequence, s: int, l: int) -> LinearForm:
    """beta_{s,l} in double-index coordinates."""
    s, l = _occurrence(seq, s, l)
    # the neighbor sites have distinct colors j != l, so no two sites meet
    return LinearForm._of({(s + offset, j): c for c, offset, j in seq._beta[l]})


def beta_index(seq: AdaptedSequence, j: int) -> LinearForm:
    """beta at single index j: x_j + x_{j+} plus Cartan-weighted terms between."""
    j = exact_int(j, RootDataError)
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
    # index_to_pair gives int pairs at s >= 1, one per index, and every c is nonzero
    return LinearForm._of(terms)


def _s_prime_rule(s: int, c: int) -> Optional[Tuple[int, int]]:
    """(sign, base) where S' at occurrence s of a coefficient c adds sign *
    beta at occurrence base of the same color; None where it fixes the form."""
    if c > 0:
        return -1, s
    if c < 0 and s > 1:
        return 1, s - 1
    return None


def s_prime(seq: AdaptedSequence, form: LinearForm, d: Pair) -> LinearForm:
    """Apply S'_d, d read as beta_pair reads (s, l): subtract beta_d, add the
    predecessor beta, or do nothing; beta's sites go into a copy of the terms."""
    s, l = _occurrence(seq, *d)
    rule = _s_prime_rule(s, form.coeff(s, l))
    if rule is None:
        return form
    sign, base = rule
    beta = (((base + offset, j), coeff) for coeff, offset, j in seq._beta[l])
    return LinearForm._of(_accumulate(dict(form._terms), beta, sign))


def _top_index(code: int, width: int) -> int:
    """The top field J of a code at field width W: the largest field f with
    c_f != 0, 0 for the zero code.  It is bit_length(|code|) // W.

    The code is sum c_f 2^(W*f) over fields f = 0..J, each |c_f| <
    2^(W-1) and c_J != 0 (code_width).  As (2^(W-1) - 1) / (2^W - 1) <
    1/2, the terms below J sum to less than 2^(W*J-1) in size, and all J
    terms to less than 2^(W*J+W-1).  So 2^(W*J-1) < |code| < 2^(W*J+W-1),
    and |code| has W*J to W*J + W - 1 bits.
    """
    return abs(code).bit_length() // width


def closure_codes(
    seq: AdaptedSequence,
    seeds: Iterable[LinearForm],
    depth: int,
    index_bound: Optional[int] = None,
    coeff_bound: int = 0,
    floor: Optional[int] = None,
) -> Tuple[Dict[int, Dict[Pair, int]], int, int, Callable[[int, int], int]]:
    """The search behind closure, over codes: (terms, pruned, W, index).

    terms maps each kept code to its form's terms {(s, l): c}, the seeds'
    codes first, then the others in the order found; pruned counts the
    distinct codes dropped at index_bound.  A form's code is the pack of its
    terms c x_{s,l}, as sites (c, s, l) with field index(s, l), the single
    index less an origin.  W is code_width(max(C0 + depth * Bmax,
    coeff_bound)), with C0 the largest |c| of a seed and Bmax that of a
    beta (AdaptedSequence._beta_most): a form of round r <= depth, kept or
    dropped, has every |c| <= C0 + r * Bmax.  So two forms of the closure,
    or of a caller's whose every |c| is at most coeff_bound and whose every
    occurrence is at least floor, are equal exactly when their codes are,
    and a caller can compare its own forms, packed with W and index, against
    the closure's without building either.

    The origin is one below the lowest single index of the lowest occurrence
    either side reaches, so a code has about W * (J - origin) bits for a form
    whose largest single index is J, and a seed at a large occurrence costs
    what one near depth does.  S' at occurrence s adds a beta at occurrence s
    or s - 1, whose terms lie at that occurrence and above, so a round lowers
    a form's lowest occurrence by at most 1, and the closure lies at
    occurrences of at least max(1, s0 - depth), with s0 the lowest
    occurrence of a seed.

    S' at a term is one add to the code, of sign * beta_{base,l} packed the
    same way.  Each beta_{base,l} is packed once per call, and each (pair,
    sign of c) picks its move once.  The cap is tested only at a code neither
    seen nor dropped, on the code itself: its bit length gives the form's
    top field (_top_index), and with the origin added back its largest
    single index; the zero code has no term to pass the cap.  A kept code's terms
    are made once, from its parent's, and a dropped code's never.

    No cap is needed: a round raises a form's largest single index by at
    most L.  S' at (s, l), single index j in the support, subtracts
    beta_{s,l} or adds beta_{s-1,l}.  beta_{s,l} ends at x_{s+1,l}, the next
    occurrence of l, at most j + L; its neighbor terms lie between the two
    occurrences, as beta_index lists them.  beta_{s-1,l} ends at j itself.
    """
    seeds = list(seeds)
    depth = exact_int(depth, RootDataError)
    most = max((abs(c) for f in seeds for _, c in f.items()), default=0)
    width = code_width(max(most + max(depth, 0) * seq._beta_most, coeff_bound))
    lowest = min((s for f in seeds for (s, _), _ in f.items()), default=1) - max(depth, 0)
    lowest = max(1, lowest if floor is None else min(lowest, floor))
    # single index 1 is the first occurrence of its color
    origin = min(pair_to_index(seq, lowest, l) for l in seq._occ) - 1 if lowest > 1 else 0

    def index(s: int, l: int) -> int:
        return pair_to_index(seq, s, l) - origin

    packed: Dict[Site, int] = {}
    betas: Dict[Pair, Tuple[int, Tuple[Tuple[Pair, int], ...]]] = {}

    def s_prime_move(pair: Pair, c: int) -> Tuple[int, int, Tuple[Tuple[Pair, int], ...]]:
        # (move, sign, beta terms) of S' at a term; the identity moves the
        # code by 0, so it lands on a code already seen
        s, l = pair
        rule = _s_prime_rule(s, c)
        if rule is None:
            return 0, 0, ()
        sign, base = rule
        if (base, l) not in betas:
            sites = [(b, base + offset, j) for b, offset, j in seq._beta[l]]
            beta = tuple(((t, j), b) for b, t, j in sites)
            betas[base, l] = pack(sites, width, index, packed), beta
        move, beta = betas[base, l]
        return sign * move, sign, beta

    terms: Dict[int, Dict[Pair, int]] = {
        pack([(c, s, l) for (s, l), c in f.items()], width, index, packed): f._terms for f in seeds
    }
    pruned: Set[int] = set()
    # the packed moves at a pair, for a negative and a positive coefficient
    moves: Tuple[Dict[Pair, Tuple[int, int, Tuple[Tuple[Pair, int], ...]]], ...] = ({}, {})

    def images(a: int) -> Iterator[int]:
        t = terms[a]
        for pair, c in t.items():
            table = moves[c > 0]
            move = table.get(pair)
            if move is None:
                move = table[pair] = s_prime_move(pair, c)
            b = a + move[0]
            if b not in terms and b not in pruned:
                if index_bound is None or not b or _top_index(b, width) + origin <= index_bound:
                    terms[b] = _accumulate(dict(t), move[2], move[1])
                    yield b
                else:
                    pruned.add(b)

    reachable(set(terms), images, depth)
    return terms, len(pruned), width, index


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
    neither seen nor dropped before, and a dropped form is never built.  The
    search runs over codes (closure_codes); a form is built only at a kept
    code that is not a seed's.
    """
    seeds = set(seeds)
    terms, pruned, _, _ = closure_codes(seq, seeds, depth, index_bound)
    found = list(terms.values())[len(seeds):]
    return seeds | {LinearForm._of(t) for t in found}, pruned


def evaluate(seq: AdaptedSequence, form: LinearForm, a: LatticeElement) -> int:
    """Value of the form on a lattice element."""
    return sum(c * a.get(pair_to_index(seq, s, l)) for (s, l), c in form.items())


def system_forms(system: System) -> Set[Key]:
    """The forms of a system, as term tuples: each key shifted to each of its
    firsts, (offset, color) -> (first + offset, color).  A shift keeps the
    key's order, so a tuple is what LinearForm.items() gives; the empty key
    is the zero form, ()."""
    return {
        tuple([((first + o, l), c) for (o, l), c in key])
        for key, firsts in system.items()
        for first in firsts
    }


def system_rows(
    seq: AdaptedSequence, system: System, window: Sequence[int]
) -> Iterator[List[Tuple[int, int]]]:
    """The window rows (window_search) of a system's forms, made from each
    key and first with no term tuple.  Each window position is read once, by
    index_to_pair, into tables[color][occurrence], so the term ((offset,
    color), c) lies at position tables[color].get(first + offset), None off
    the window.

    window_search drops a row without a negative term, so none is made past
    a key's limit, the largest top - offset over its negative terms, with
    top the color's highest occurrence on the window."""
    tables: Dict[int, Dict[int, int]] = {l: {} for l in seq._occ}
    top = dict.fromkeys(tables, 0)
    for p, j in enumerate(window):  # a color's occurrences rise along the window
        s, l = index_to_pair(seq, j)
        tables[l][s], top[l] = p, s
    for key, firsts in system.items():
        limit = max((top[l] - o for (o, l), c in key if c < 0), default=0)
        for first in firsts:
            if first <= limit:
                yield [(p, c) for (o, l), c in key if (p := tables[l].get(first + o)) is not None]


def window_solutions(
    seq: AdaptedSequence,
    forms: Iterable[Sequence[Tuple[Pair, int]]],
    window: Sequence[int],
    max_total: int,
) -> List[Tuple[int, ...]]:
    """The nonnegative vectors on the window with total <= max_total on which
    every form is >= 0, as tuples of window values in lexicographic order.
    Each form is given by its ((s, l), c) terms, as LinearForm.items() gives
    them, with no pair repeated.  A form is the system key that system_forms
    shifts to itself at first 0, so its row, its terms at window positions
    (a term off the window reads 0), is system_rows' row of that key."""
    rows = system_rows(seq, dict.fromkeys(map(tuple, forms), {0}), window)
    return window_search(rows, len(window), max_total)


def window_search(
    rows: Iterable[Sequence[Tuple[int, int]]], size: int, max_total: int
) -> List[Tuple[int, ...]]:
    """The nonnegative vectors of the given size with total <= max_total on
    which every row, a form given by its (position, coeff) terms with no
    position repeated, is >= 0, as tuples in lexicographic order.

    A row without a negative term is dropped, and so is a repeated term
    list.  A depth-first search then assigns the positions in order, holding
    every row in a field of W bits of one int: row k's field, at bit k*W,
    holds 2^(W-1) plus the row's partial sum over the values assigned so
    far.  Position p has a column, the row coefficients at p packed the same
    way, so raising the value at p by one is the one add `acc += column[p]`.
    A row that ends at p is >= 0 once p is assigned exactly when its field's
    top bit is set.  So p also has the mask of those top bits (`need`), and
    within it the top bits of the rows whose coefficient at p is negative
    (`cap`).  The search scans the values at p upward from 0: it enters a
    value at which every bit of `need` is set, and stops at the first value
    that clears a bit of `cap`, since a larger value only lowers those rows.
    Size 0 holds one vector, the empty tuple, whatever max_total is.

    No carry or borrow crosses a field.  The values assigned sum to at most
    max_total, and the scan adds at most one value past it, so every partial
    sum lies within M = max|c| * (max_total + 1) of 0.  W is
    bit_length(M) + 2, so M < 2^(W-2) and each field lies strictly between
    2^(W-2) and 3 * 2^(W-2), inside [0, 2^W).  acc is then the sum of its
    fields times powers of 2^W with every digit in [0, 2^W): that is its
    base-2^W expansion, so each field's bits are exactly its value, and its
    top bit is set exactly when the field is >= 2^(W-1), the sum >= 0.
    """
    # a row without a negative term is >= 0 on every nonnegative vector
    compiled = {tuple(sorted(row)) for row in rows if any(c < 0 for _, c in row)}
    most = max((abs(c) for terms in compiled for _, c in terms), default=0)
    width = (most * (max_total + 1)).bit_length() + 2
    top = 1 << (width - 1)
    column, need, cap = [0] * size, [0] * size, [0] * size
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
    values = [0] * size
    found: List[Tuple[int, ...]] = []

    def search(p: int, remaining: int, acc: int) -> None:
        if p == size:
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
