"""The crystal structure on finitely supported sequences over an adapted word.

Elements are integer sequences (a_j)_{j>=1} with finite support, position j
colored by the word.  The operators are defined through the local quantities
sigma_j(a) = a_j + sum_{j' > j} a_{c(j),c(j')} a_{j'}; the raising and
lowering operators act at the extremal positions where sigma attains
epsilon_i, lowering at the smallest and raising at the largest.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .root_data import AdaptedSequence, index_to_pair

Entries = Union[Dict[int, int], Iterable[Tuple[int, int]], None]


class LatticeElement:
    """A finitely supported integer sequence indexed by positions j >= 1.

    The values given for a repeated position are summed.
    """

    __slots__ = ("_entries", "_key")

    def __init__(self, entries: Entries = None):
        d: Dict[int, int] = {}
        items = entries.items() if isinstance(entries, dict) else (entries or ())
        for j, v in items:
            j, v = int(j), int(v)
            if j < 1:
                raise ValueError(f"position must be >= 1, got {j}")
            if v:
                d[j] = d.get(j, 0) + v
                if not d[j]:
                    del d[j]
        self._entries = d
        self._key = tuple(sorted(d.items()))

    @classmethod
    def zero(cls) -> "LatticeElement":
        return cls()

    def get(self, j: int) -> int:
        return self._entries.get(j, 0)

    def items(self) -> Tuple[Tuple[int, int], ...]:
        return self._key

    def support(self) -> Tuple[int, ...]:
        return tuple(j for j, _ in self._key)

    def max_index(self) -> int:
        return self._key[-1][0] if self._key else 0

    def total(self) -> int:
        return sum(v for _, v in self._key)

    def bump(self, j: int, delta: int) -> "LatticeElement":
        """This element with delta added at position j."""
        if j < 1:
            raise ValueError(f"position must be >= 1, got {j}")
        d = dict(self._entries)
        d[j] = d.get(j, 0) + delta
        if not d[j]:
            del d[j]
        # every ftilde and etilde bumps, so skip __init__'s pass over entries
        # that are already checked
        out = LatticeElement.__new__(LatticeElement)
        out._entries = d
        out._key = tuple(sorted(d.items()))
        return out

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
        return cls([(int(j), int(v)) for j, v in data])


def sigma(seq: AdaptedSequence, a: LatticeElement, j: int) -> int:
    """sigma_j(a) = a_j + sum over supported j' > j of a_{c(j),c(j')} a_{j'}."""
    i = seq.color_of(j)
    cart = seq.root_system.a
    val = a.get(j)
    for j2, v in a.items():
        if j2 > j:
            val += cart(i, seq.color_of(j2)) * v
    return val


def _reach(seq: AdaptedSequence, a: LatticeElement, i: int) -> Tuple[int, List[int]]:
    """epsilon_i(a) and the i-colored positions in 1..max_index+L where sigma reaches it.

    Every color occurs in each L consecutive positions, and sigma is 0 past
    the support, so the maximum is at least 0 and is reached at least once.
    """
    values = [
        (j, sigma(seq, a, j))
        for j in range(1, a.max_index() + seq.L + 1)
        if seq.color_of(j) == i
    ]
    eps = max(v for _, v in values)
    return eps, [j for j, v in values if v == eps]


def epsilon(seq: AdaptedSequence, a: LatticeElement, i: int) -> int:
    """epsilon_i(a) = max(0, max sigma over i-colored positions)."""
    return _reach(seq, a, i)[0]


def weight_coeffs(seq: AdaptedSequence, a: LatticeElement) -> Dict[int, int]:
    """Coefficients c_i with wt(a) = -sum_i c_i alpha_i."""
    c = {i: 0 for i in seq.root_system.index_set}
    for j, v in a.items():
        c[seq.color_of(j)] += v
    return c


def weight_pairing(seq: AdaptedSequence, a: LatticeElement, i: int) -> int:
    """<h_i, wt(a)> = -sum_l a_{i,l} c_l."""
    cart = seq.root_system.a
    return -sum(cart(i, l) * cl for l, cl in weight_coeffs(seq, a).items())


def phi(seq: AdaptedSequence, a: LatticeElement, i: int) -> int:
    """phi_i(a) = <h_i, wt(a)> + epsilon_i(a)."""
    return weight_pairing(seq, a, i) + epsilon(seq, a, i)


def ftilde(seq: AdaptedSequence, a: LatticeElement, i: int) -> LatticeElement:
    """Lowering operator: add 1 at the smallest i-position where sigma = epsilon_i."""
    return a.bump(_reach(seq, a, i)[1][0], 1)


def etilde(seq: AdaptedSequence, a: LatticeElement, i: int) -> Optional[LatticeElement]:
    """Raising operator: subtract 1 at the largest i-position where sigma = epsilon_i.

    Returns None when epsilon_i(a) = 0.
    """
    eps, positions = _reach(seq, a, i)
    return a.bump(positions[-1], -1) if eps else None


def enumerate_image(seq: AdaptedSequence, max_word_length: int) -> Set[LatticeElement]:
    """All elements reachable from 0 by at most max_word_length lowering steps."""
    zero = LatticeElement.zero()
    seen: Set[LatticeElement] = {zero}
    frontier: Set[LatticeElement] = {zero}
    for _ in range(max_word_length):
        nxt: Set[LatticeElement] = set()
        for a in frontier:
            for i in seq.root_system.index_set:
                b = ftilde(seq, a, i)
                if b not in seen:
                    nxt.add(b)
        seen |= nxt
        frontier = nxt
    return seen


def format_element(seq: AdaptedSequence, a: LatticeElement) -> str:
    """Human-readable coordinates in single- and double-index form."""
    if a.is_zero():
        return "0"
    parts = []
    for j, v in a.items():
        s, l = index_to_pair(seq, j)
        parts.append(f"a[{j}]=a[{s},{l}]={v}")
    return "  ".join(parts)
