"""The crystal structure on finitely supported sequences over an adapted word.

Elements are integer sequences (a_j)_{j>=1} with finite support, position j
colored by the word.  The operators are defined through the local quantities
sigma_j(a) = a_j + sum_{j' > j} a_{c(j),c(j')} a_{j'}; the raising and
lowering operators act at the extremal positions where sigma attains
epsilon_i, lowering at the smallest and raising at the largest.

The operators find these positions in one right-to-left pass over the
support.  Between two supported positions sigma is the same at every
i-colored position, so the pass reads only the supported i-positions and
the first and last i-position of each gap.  `enumerate_image` makes each
element of the image once, from the one parent that raising at the color of
its largest index m gives.  Of every other color i it asks only whether
lowering bumps a position above m.  sigma is 0 at every i-position above m,
and one lies in m+1..m+L, so that holds iff sigma < 0 at every i-position
up to m: a pass from the right stops at the first one whose sigma is >= 0.

The sweep (`_reach`), the bump (`_bumped`) and the weight read (`_weight`)
work on an element's sorted (j, v) key, and `_element` wraps a key into an
element unchecked.  The public operators check their color and are views
over these kernels; `enumerate_image` and the crystal-axioms check work on
keys and build an element only where one is returned or reported.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import mul
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .root_data import AdaptedSequence, RootDataError, exact_int, index_to_pair

Entries = Union[Dict[int, int], Iterable[Tuple[int, int]], None]
# an element's sorted (position, value) pairs, every value nonzero
Key = Tuple[Tuple[int, int], ...]


class LatticeElement:
    """A finitely supported integer sequence indexed by positions j >= 1.

    The values given for a repeated position are summed.
    """

    __slots__ = ("_key",)

    def __init__(self, entries: Entries = None):
        d: Dict[int, int] = {}
        items = entries.items() if isinstance(entries, dict) else (entries or ())
        for j, v in items:
            j, v = exact_int(j), exact_int(v)
            if j < 1:
                raise ValueError(f"position must be >= 1, got {j}")
            if v:
                d[j] = d.get(j, 0) + v
                if not d[j]:
                    del d[j]
        self._key = tuple(sorted(d.items()))

    @classmethod
    def zero(cls) -> "LatticeElement":
        return cls()

    def get(self, j: int) -> int:
        """The value at position j; a RootDataError unless j is an integer >= 1."""
        key = self._key
        try:
            k = bisect_left(key, (j,))
        except TypeError:  # j does not compare with the positions
            k = len(key)
        if k < len(key) and key[k][0] == j:
            return key[k][1]
        if j.__class__ is not int:  # only a miss can be at a non-integral j
            j = exact_int(j, RootDataError)
        if j < 1:  # nor at a position below 1
            raise RootDataError(f"position must be >= 1, got {j}")
        return 0

    def items(self) -> Key:
        return self._key

    def support(self) -> Tuple[int, ...]:
        return tuple(j for j, _ in self._key)

    def max_index(self) -> int:
        return self._key[-1][0] if self._key else 0

    def total(self) -> int:
        return sum(v for _, v in self._key)

    def bump(self, j: int, delta: int) -> "LatticeElement":
        """This element with delta added at position j."""
        j, delta = exact_int(j), exact_int(delta)
        if j < 1:
            raise ValueError(f"position must be >= 1, got {j}")
        return _element(_bumped(self._key, j, delta))

    def is_zero(self) -> bool:
        return not self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LatticeElement) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        if not self._key:
            return "LatticeElement(0)"
        body = ", ".join(f"{j}: {v}" for j, v in self._key)
        return f"LatticeElement({{{body}}})"

    def to_json(self) -> list:
        return [[j, v] for j, v in self._key]

    @classmethod
    def from_json(cls, data: Iterable[Iterable[int]]) -> "LatticeElement":
        return cls([(j, v) for j, v in data])


def _element(key: Key) -> LatticeElement:
    """The element whose sorted key is key, unchecked: the kernels below keep
    their keys sorted, integral and free of zeros."""
    out = LatticeElement.__new__(LatticeElement)
    out._key = key
    return out


def _bumped(key: Key, j: int, delta: int) -> Key:
    """key with delta added at position j: the one entry changes in place of
    a sort, and an entry that reaches 0 is dropped."""
    k = bisect_left(key, (j,))
    if k < len(key) and key[k][0] == j:
        v = key[k][1] + delta
        return key[:k] + ((j, v),) + key[k + 1 :] if v else key[:k] + key[k + 1 :]
    return key[:k] + ((j, delta),) + key[k:] if delta else key


def sigma(seq: AdaptedSequence, a: LatticeElement, j: int) -> int:
    """sigma_j(a) = a_j + sum over supported j' > j of a_{c(j),c(j')} a_{j'}."""
    j = exact_int(j, RootDataError)
    i = seq.color_of(j)
    cart = seq.root_system.a
    val = a.get(j)
    for j2, v in a.items():
        if j2 > j:
            val += cart(i, seq.color_of(j2)) * v
    return val


def _reach(seq: AdaptedSequence, key: Key, i: int) -> Tuple[int, int, int]:
    """epsilon_i(a) and the first and last i-positions in 1..max_index+L where
    sigma reaches it, for the element a whose sorted key is key.

    Every color occurs in each L consecutive positions, and sigma is 0 past
    the support, so the maximum is at least 0 and is reached at least once.
    One pass from the right keeps s, the sum over the supported positions
    already passed of a_{i,c(j')} a_{j'}.  At every i-position of the gap
    below them sigma equals s, so of a gap only its first and last
    i-position are read; a supported i-position j reads a_j + s.
    """
    L = seq.L
    row, nxt, prv = seq._sweep[i]
    # hi is the lowest position above the current gap; the gap above the
    # support is hi..hi+L-1, where sigma is 0
    hi = key[-1][0] + 1 if key else 1
    eps, first, last = 0, hi + nxt[(hi - 1) % L], hi + L - 1 - prv[(hi - 2) % L]
    s = 0
    for j, v in reversed(key):
        lo = j + 1 + nxt[j % L]
        if lo < hi:
            if s > eps:
                eps, first, last = s, lo, hi - 1 - prv[(hi - 2) % L]
            elif s == eps:
                first = lo
        r = (j - 1) % L
        if not nxt[r]:
            t = v + s
            if t > eps:
                eps, first, last = t, j, j
            elif t == eps:
                first = j
        s += row[r] * v
        hi = j
    lo = 1 + nxt[0]
    if lo < hi:
        if s > eps:
            eps, first, last = s, lo, hi - 1 - prv[(hi - 2) % L]
        elif s == eps:
            first = lo
    return eps, first, last


def epsilon(seq: AdaptedSequence, a: LatticeElement, i: int) -> int:
    """epsilon_i(a) = max(0, max sigma over i-colored positions)."""
    return _reach(seq, a.items(), seq.check_color(i))[0]


def _weight(seq: AdaptedSequence, key: Key) -> List[int]:
    """c_1..c_n, with wt(a) = -sum_i c_i alpha_i, for the element a whose sorted key is key."""
    c = [0] * seq.root_system.n
    word, L = seq.word, seq.L
    for j, v in key:
        c[word[(j - 1) % L] - 1] += v
    return c


def weight_coeffs(seq: AdaptedSequence, a: LatticeElement) -> Dict[int, int]:
    """Coefficients c_i with wt(a) = -sum_i c_i alpha_i."""
    return dict(zip(seq.root_system.index_set, _weight(seq, a.items())))


def weight_pairing(seq: AdaptedSequence, a: LatticeElement, i: int) -> int:
    """<h_i, wt(a)> = -sum_l a_{i,l} c_l."""
    row = seq.root_system.row(seq.check_color(i))
    return -sum(map(mul, row, _weight(seq, a.items())))


def phi(seq: AdaptedSequence, a: LatticeElement, i: int) -> int:
    """phi_i(a) = <h_i, wt(a)> + epsilon_i(a)."""
    return weight_pairing(seq, a, i) + epsilon(seq, a, i)


def ftilde(seq: AdaptedSequence, a: LatticeElement, i: int) -> LatticeElement:
    """Lowering operator: add 1 at the smallest i-position where sigma = epsilon_i."""
    key = a.items()
    return _element(_bumped(key, _reach(seq, key, seq.check_color(i))[1], 1))


def etilde(seq: AdaptedSequence, a: LatticeElement, i: int) -> Optional[LatticeElement]:
    """Raising operator: subtract 1 at the largest i-position where sigma = epsilon_i.

    Returns None when epsilon_i(a) = 0.
    """
    key = a.items()
    eps, _, last = _reach(seq, key, seq.check_color(i))
    return _element(_bumped(key, last, -1)) if eps else None


def enumerate_image(seq: AdaptedSequence, max_word_length: int) -> Set[LatticeElement]:
    """All elements reachable from 0 by at most max_word_length lowering steps;
    {0}, as at 0, for a negative max_word_length.

    Each lowering adds 1 to the total, so the elements of total t are those
    t steps from 0, and the walk goes one total at a time.  It makes each
    element once, from one canonical parent (Avis and Fukuda's reverse
    search), with no set probe: of the b = ftilde_i(a) for a of the last
    total, it keeps only those where i is the color c of b's largest index
    q.  With p the position ftilde_i bumps, q is p when p > max_index(a) and
    max_index(a) otherwise.

    Every b != 0 of total t is made exactly once.  Its entries are positive,
    since every lowering adds 1, and nothing is supported above q, so
    sigma_q(b) = b_q > 0 and etilde_c(b) exists.  It lies in the image, a
    copy of B(infinity) and so closed under raising, has total t - 1, and
    ftilde_c maps it back to b.  Because etilde_c ftilde_c = id, it is the
    only a with ftilde_c(a) = b.

    Only the color c(m) of m = max_index(a) needs the full sweep of
    `_reach`.  For any other color i the one question is whether p > m.
    sigma is 0 at every i-position above m, and one of them lies in
    m+1..m+L, so p > m iff sigma < 0 at every i-position <= m, and then p is
    that first i-position above m, m + 1 + nxt[m % L], with nxt the
    distances of `seq._sweep[i]`.  So a pass from the right, like
    `_reach`'s, stops at the first i-position <= m whose sigma is >= 0, and
    each element takes one full sweep.  At a = 0, m = 0: no position is
    read and every color lowers at its first i-position.

    The walk runs on keys: the top color's child is `_bumped` at the
    sweep's first position, and any other kept child, whose new entry lies
    above m, is the key with (p, 1) appended.  Each kept child is wrapped
    into an element once, by `_element`, as it joins the image.
    """
    max_word_length = exact_int(max_word_length, RootDataError)
    word, L = seq.word, seq.L
    colors = [(i, *seq._sweep[i][:2]) for i in seq.root_system.index_set]
    level = [()]
    image = {LatticeElement.zero()}
    for _ in range(max_word_length):
        lowered = []
        for key in level:
            m, vm = key[-1] if key else (0, 0)
            rm = (m - 1) % L
            top = word[rm]
            below = key[-2::-1]
            for i, row, nxt in colors:
                if i == top:
                    lowered.append(_bumped(key, _reach(seq, key, i)[1], 1))
                    continue
                # p > m iff sigma < 0 at every i-position below m (m has
                # the color top): walk down as _reach does, to the first
                # i-position with sigma >= 0
                s, hi = row[rm] * vm, m
                for j, v in below:
                    if s >= 0 and j + 1 + nxt[j % L] < hi:
                        break
                    r = (j - 1) % L
                    if not nxt[r] and v + s >= 0:
                        break
                    s += row[r] * v
                    hi = j
                else:
                    if s < 0 or 1 + nxt[0] >= hi:
                        lowered.append(key + ((m + 1 + nxt[m % L], 1),))
        image.update(map(_element, lowered))
        level = lowered
    return image


def format_element(seq: AdaptedSequence, a: LatticeElement) -> str:
    """Human-readable coordinates in single- and double-index form."""
    if a.is_zero():
        return "0"
    parts = []
    for j, v in a.items():
        s, l = index_to_pair(seq, j)
        parts.append(f"a[{j}]=a[{s},{l}]={v}")
    return "  ".join(parts)
