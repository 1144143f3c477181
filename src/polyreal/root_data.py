"""Root data for four affine families, folding maps, and adapted sequences.

The supported families are labeled A1, C1, A2, D2.  Each comes with a rank
parameter n, an index set I = {1, ..., n}, and an integer Cartan matrix
(a_{i,j}).  A cyclic word on I induces the crystal lattice; the word must be
"adapted": its restriction to any Dynkin-neighbor pair strictly alternates.
The alternation is recorded by the orientation data p_{i,j} in {0, 1} with
p_{i,j} + p_{j,i} = 1, and accumulated along folded color paths by the
P^k tables that every assignment map uses for its s-offsets.  `reachable`, a
breadth-first search, grows the S' closures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

FAMILIES = ("A1", "C1", "A2", "D2")

FOLD_KINDS = ("overline", "pi", "pi1", "pi2", "pi_prime")

MIN_RANK = {"A1": 2, "C1": 3, "A2": 3, "D2": 3}


class RootDataError(ValueError):
    """Invalid root-system, folding, or sequence input."""


class NotAdaptedError(RootDataError):
    """The word fails the alternation condition for some neighbor pair."""


def exact_int(v: object, error: type = ValueError) -> int:
    """v as an int; error, a ValueError, when it is not integral, so nothing is truncated."""
    try:
        if int(v) == v:
            return int(v)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"expected an integer, got {v!r}")


def reachable(seen: set, step: Callable[[Any], Iterable], depth: int) -> set:
    """seen, grown in place by everything reached from it in at most depth
    rounds of step; a successor joins seen as soon as step yields it."""
    frontier = list(seen)
    for _ in range(depth):
        nxt = []
        for a in frontier:
            for b in step(a):
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


@dataclass(frozen=True)
class AlgebraType:
    """One of the four supported affine families at rank parameter n."""

    family: str
    n: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise RootDataError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        object.__setattr__(self, "n", exact_int(self.n, RootDataError))
        if self.n < MIN_RANK[self.family]:
            raise RootDataError(
                f"family {self.family} needs n >= {MIN_RANK[self.family]}, got {self.n}"
            )

    def to_json(self) -> dict:
        return {"family": self.family, "n": self.n}

    @classmethod
    def from_json(cls, data: dict) -> "AlgebraType":
        return cls(str(data["family"]), data["n"])


# Edge multiplicities (a_{1,2}, a_{2,1}) and (a_{n-1,n}, a_{n,n-1}) at the two
# chain ends; interior edges are single bonds.
_END_ARROWS = {
    "C1": ((-1, -2), (-2, -1)),
    "A2": ((-1, -2), (-1, -2)),
    "D2": ((-2, -1), (-1, -2)),
}


@dataclass(frozen=True)
class RootSystem:
    """An algebra type together with its Cartan matrix."""

    algebra: AlgebraType
    cartan: Tuple[Tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.algebra.n

    @cached_property
    def index_set(self) -> Tuple[int, ...]:
        # kept in the instance dict, outside the fields, equality and hash
        return tuple(range(1, self.n + 1))

    def a(self, i: int, j: int) -> int:
        """Cartan entry a_{i,j} = <h_i, alpha_j>."""
        return self.cartan[i - 1][j - 1]

    def neighbor_pairs(self) -> List[Tuple[int, int]]:
        """Unordered Dynkin edges as pairs (i, j) with i < j."""
        n = self.n
        return [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if self.a(i, j) < 0
        ]


def build_root_system(algebra: AlgebraType) -> RootSystem:
    """Construct the Cartan matrix of the given algebra type."""
    n = algebra.n
    fam = algebra.family
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    if fam == "A1":
        if n == 2:
            a[0][1] = a[1][0] = -2
        else:
            for i in range(n):
                j = (i + 1) % n
                a[i][j] = a[j][i] = -1
    else:
        for i in range(n - 1):
            a[i][i + 1] = a[i + 1][i] = -1
        (a12, a21), (afl, alf) = _END_ARROWS[fam]
        a[0][1], a[1][0] = a12, a21
        a[n - 2][n - 1], a[n - 1][n - 2] = afl, alf
    return RootSystem(algebra, tuple(tuple(row) for row in a))


def fold(map_kind: str, n: int, t: int) -> int:
    """Fold an integer t onto the index set {1, ..., n}.

    overline has period n; pi and pi_prime have period 2n-2; pi1 has period
    2n-1; pi2 has period 2n.  pi_prime is pi restricted to t >= 1.
    """
    if map_kind == "overline":
        return (t - 1) % n + 1
    if map_kind in ("pi", "pi_prime"):
        if map_kind == "pi_prime" and t < 1:
            raise RootDataError(f"pi_prime needs t >= 1, got {t}")
        r = (t - 1) % (2 * n - 2) + 1
        return r if r <= n else 2 * n - r
    if map_kind == "pi1":
        r = (t - 1) % (2 * n - 1) + 1
        return r if r <= n else 2 * n - r
    if map_kind == "pi2":
        r = (t - 1) % (2 * n) + 1
        return r if r <= n else 2 * n + 1 - r
    raise RootDataError(f"unknown folding map {map_kind!r}, expected one of {FOLD_KINDS}")


class AdaptedSequence:
    """A cyclic word on the index set whose neighbor subsequences alternate.

    The word (i_1, ..., i_L) lists the sequence left to right starting from
    the first letter; position j >= 1 carries color i_{(j-1 mod L)+1}.
    """

    def __init__(self, root_system: RootSystem, word: Sequence[int]):
        self.root_system = root_system
        self.word = tuple(exact_int(c, RootDataError) for c in word)
        self.L = len(self.word)
        self._validate()
        self._occ: Dict[int, Tuple[int, ...]] = {
            i: tuple(m for m, c in enumerate(self.word) if c == i)
            for i in root_system.index_set
        }
        self.p = self._orientation()
        # For each color i and residue r = (j-1) mod L: a_{i,c(j)}, and the
        # distances from position j to the nearest i-position at or after it
        # and at or before it (the sigma sweep of lattice_crystal reads these)
        self._row: Dict[int, Tuple[int, ...]] = {}
        self._next: Dict[int, Tuple[int, ...]] = {}
        self._prev: Dict[int, Tuple[int, ...]] = {}
        # For each color i, the sites (coeff, offset, color) of beta_{s,i}
        # relative to s (forms.beta_sites, beta_pair and s_prime read them): x_{s,i},
        # x_{s+1,i} and a_{i,j} x_{s+p_{j,i}, j} for each neighbor j of i
        self._beta: Dict[int, Tuple[Tuple[int, int, int], ...]] = {}
        for i in root_system.index_set:
            self._row[i] = tuple(root_system.a(i, c) for c in self.word)
            self._next[i] = _distances(self.word, i)
            self._prev[i] = _distances(self.word[::-1], i)[::-1]
            # a_{i,i} = 2, so the negative entries of row i are its neighbors
            self._beta[i] = ((1, 0, i), (1, 1, i)) + tuple(
                (c, self.p[(j, i)], j) for j, c in enumerate(root_system.cartan[i - 1], 1) if c < 0
            )
        self._pt_cache: Dict[Tuple[str, int], Dict[int, int]] = {}

    def _validate(self) -> None:
        n = self.root_system.n
        if not self.word:
            raise RootDataError("word must be nonempty")
        bad = [c for c in self.word if not 1 <= c <= n]
        if bad:
            raise RootDataError(f"letters {sorted(set(bad))} outside index set 1..{n}")
        missing = set(range(1, n + 1)) - set(self.word)
        if missing:
            raise RootDataError(f"indices {sorted(missing)} missing from word")
        L = self.L
        for m in range(L):
            if self.word[m] == self.word[(m + 1) % L]:
                raise RootDataError(
                    f"color {self.word[m]} repeats at cyclic positions {m + 1},{(m + 1) % L + 1}"
                )
        doubled = self.word * 2
        for i, j in self.root_system.neighbor_pairs():
            sub = [(m, c) for m, c in enumerate(doubled) if c in (i, j)]
            for (m1, c1), (m2, c2) in zip(sub, sub[1:]):
                if c1 == c2:
                    raise NotAdaptedError(
                        f"word is not adapted: neighbor pair ({i},{j}) sees color {c1} "
                        f"twice in a row at cyclic positions {m1 % L + 1},{m2 % L + 1}"
                    )

    def _orientation(self) -> Dict[Tuple[int, int], int]:
        p: Dict[Tuple[int, int], int] = {}
        for i, j in self.root_system.neighbor_pairs():
            first_i = self.word.index(i)
            first_j = self.word.index(j)
            p[(i, j)] = 1 if first_i < first_j else 0
            p[(j, i)] = 1 - p[(i, j)]
        return p

    def color_of(self, j: int) -> int:
        """Color of position j >= 1."""
        if j < 1:
            raise RootDataError(f"position must be >= 1, got {j}")
        return self.word[(j - 1) % self.L]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AdaptedSequence)
            and self.root_system == other.root_system
            and self.word == other.word
        )

    def __hash__(self) -> int:
        return hash((self.root_system, self.word))

    def __repr__(self) -> str:
        alg = self.root_system.algebra
        return f"AdaptedSequence({alg.family}, n={alg.n}, word={list(self.word)})"

    def to_json(self) -> dict:
        return {"word": list(self.word)}


def _distances(word: Tuple[int, ...], i: int) -> Tuple[int, ...]:
    """For each cyclic position of word, the distance to the next i at or after it."""
    L = len(word)
    out = [0] * L
    d = 0
    # the first lap only finds an i; every color occurs in the word
    for r in range(2 * L - 1, -1, -1):
        d = 0 if word[r % L] == i else d + 1
        if r < L:
            out[r] = d
    return tuple(out)


def build_adapted(root_system: RootSystem, word: Sequence[int]) -> AdaptedSequence:
    """Validate a word and package it with its orientation data."""
    return AdaptedSequence(root_system, word)


def check_family(seq: AdaptedSequence, family: str, n: int | None = None, what: str = "") -> None:
    """A RootDataError naming what unless seq has this family and, if n is given, rank n."""
    fam, rank = seq.root_system.algebra.family, seq.root_system.n
    if fam != family:
        raise RootDataError(f"{what or 'assignment'} needs family {family}, got {fam}")
    if n is not None and rank != n:
        raise RootDataError(f"rank mismatch: {what} n={n}, sequence n={rank}")


def index_to_pair(seq: AdaptedSequence, j: int) -> Tuple[int, int]:
    """Single index j >= 1 to the double index (s, l): s-th occurrence of color l."""
    if j < 1:
        raise RootDataError(f"position must be >= 1, got {j}")
    q, r = divmod(j - 1, seq.L)
    color = seq.word[r]
    occ = seq._occ[color]
    s = q * len(occ) + occ.index(r) + 1
    return s, color


def pair_to_index(seq: AdaptedSequence, s: int, l: int) -> int:
    """Double index (s, l) to the single index of the s-th occurrence of l."""
    if s < 1:
        raise RootDataError(f"occurrence count must be >= 1, got {s}")
    occ = seq._occ.get(l)
    if not occ:
        raise RootDataError(f"color {l} not in index set")
    q, rem = divmod(s - 1, len(occ))
    return q * seq.L + occ[rem] + 1


def p_table(seq: AdaptedSequence, variant: str, k: int, t: int) -> int:
    """Accumulated orientation table P^k(t) along the folded color path.

    P^k(k) = 0; going up, P^k(t) = P^k(t-1) + p_{c(t),c(t-1)}; going down,
    P^k(t) = P^k(t+1) + p_{c(t),c(t+1)}, where c folds via the variant map
    and equal folded colors contribute 0.  The pi_prime variant is one-sided
    and only defined for t >= k.  An entry is filled only by a call that
    passed the checks below, so a filled entry is returned before them.
    """
    try:
        return seq._pt_cache[variant, k][t]
    except (KeyError, TypeError):  # not filled, or unhashable: the checks below decide
        pass
    if variant not in FOLD_KINDS:
        raise RootDataError(f"unknown table variant {variant!r}")
    if variant == "pi_prime" and t < k:
        raise RootDataError(f"pi_prime table needs t >= {k}, got {t}")
    n = seq.root_system.n
    cache = seq._pt_cache.setdefault((variant, k), {k: 0})
    # the filled entries are one interval around k: step back into it from t, fill out to t
    step = 1 if t > k else -1
    u = t
    while u not in cache:
        u -= step
    while u != t:
        u += step
        here, back = fold(variant, n, u), fold(variant, n, u - step)
        cache[u] = cache[u - step] + _p_contrib(seq, here, back)
    return cache[t]


def _p_contrib(seq: AdaptedSequence, a: int, b: int) -> int:
    if a == b:
        return 0
    try:
        return seq.p[(a, b)]
    except KeyError:
        raise RootDataError(f"colors {a},{b} are not neighbors") from None
