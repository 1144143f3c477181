"""Root data for four affine families, folding maps, and adapted sequences.

The supported families are labeled A1, C1, A2, D2.  Each comes with a rank
parameter n, an index set I = {1, ..., n}, and an integer Cartan matrix
(a_{i,j}), kept as its Dynkin edges.  A cyclic word on I induces the crystal
lattice; the word must be "adapted": its restriction to any Dynkin-neighbor
pair strictly alternates.  The alternation is recorded by the orientation
data p_{i,j} in {0, 1} with p_{i,j} + p_{j,i} = 1, and accumulated along
folded color paths by the P^k tables that every assignment map uses for its
s-offsets.  `reachable`, a breadth-first search, grows the S' closures.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache, partial
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

FAMILIES = ("A1", "C1", "A2", "D2")

FOLD_KINDS = ("overline", "pi", "pi1", "pi2", "pi_prime")

MIN_RANK = {"A1": 2, "C1": 3, "A2": 3, "D2": 3}

# The largest rank of every family, refused before anything of its size is built
MAX_RANK = 200_000


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


class _AlgebraFields(NamedTuple):
    family: str
    n: int


class AlgebraType(_AlgebraFields):
    """One of the four supported affine families at rank parameter n: a
    tuple of the two, checked when built, and compared and hashed as its
    field tuple."""

    __slots__ = ()

    def __new__(cls, family: str, n: int) -> "AlgebraType":
        if family not in FAMILIES:
            raise RootDataError(f"unknown family {family!r}, expected one of {FAMILIES}")
        n = exact_int(n, RootDataError)
        low = MIN_RANK[family]
        if not low <= n <= MAX_RANK:
            bound = f">= {low}" if n < low else f"<= {MAX_RANK}"
            raise RootDataError(f"family {family} needs n {bound}, got {n}")
        return tuple.__new__(cls, (family, n))

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


class RootSystem:
    """An algebra type together with its Dynkin diagram: neighbors[i - 1]
    lists the neighbors of color i as (j, a_{i,j}), a_{i,j} < 0, in
    increasing j.  a_{i,i} = 2 and every other entry is 0, so no n x n table
    is kept.  Immutable, and compared and hashed by algebra and neighbors;
    index_set, the colors 1..n, is kept beside them."""

    __slots__ = ("algebra", "neighbors", "index_set")

    def __init__(self, algebra: AlgebraType, neighbors: Tuple[Tuple[Tuple[int, int], ...], ...]):
        index_set = tuple(range(1, algebra.n + 1))
        for name, value in zip(self.__slots__, (algebra, neighbors, index_set)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.algebra == other.algebra and self.neighbors == other.neighbors

    def __hash__(self) -> int:
        return hash((self.algebra, self.neighbors))

    def __repr__(self) -> str:
        return f"RootSystem(algebra={self.algebra!r}, neighbors={self.neighbors!r})"

    @property
    def n(self) -> int:
        return self.algebra.n

    def _slot(self, i: int) -> int:
        """i - 1 for a color i, an int; a RootDataError otherwise, with no scan of the index set."""
        if i.__class__ is int and 0 < i <= self.algebra.n:
            return i - 1
        raise RootDataError(f"color {i!r} not in index set 1..{self.algebra.n}")

    def a(self, i: int, j: int) -> int:
        """Cartan entry a_{i,j} = <h_i, alpha_j>; a RootDataError unless i and j are colors."""
        n = self.algebra.n
        if i.__class__ is j.__class__ is int and 0 < i <= n and 0 < j <= n:
            for k, c in self.neighbors[i - 1]:
                if k == j:
                    return c
            return 2 if i == j else 0
        raise RootDataError(f"Cartan entry a({i!r}, {j!r}) needs colors in 1..{n}")

    def row(self, i: int) -> List[int]:
        """Row i of the Cartan matrix, a_{i,1}..a_{i,n}, built on each read."""
        slot = self._slot(i)
        row = [0] * self.n
        row[slot] = 2
        for j, c in self.neighbors[slot]:
            row[j - 1] = c
        return row

    def neighbor_pairs(self) -> List[Tuple[int, int]]:
        """Unordered Dynkin edges as pairs (i, j) with i < j, in increasing order."""
        return [(i, j) for i, edges in enumerate(self.neighbors, 1) for j, _ in edges if i < j]


def build_root_system(algebra: AlgebraType) -> RootSystem:
    """The Dynkin diagram of the given algebra type: a cycle for A1, with a
    double edge at n = 2, and a chain with the _END_ARROWS otherwise."""
    n = algebra.n
    if (algebra.family, n) == ("A1", 2):
        return RootSystem(algebra, (((2, -2),), ((1, -2),)))
    edges = [[(i - 1, -1), (i + 1, -1)] for i in range(1, n + 1)]
    if algebra.family == "A1":  # the cycle joins n and 1
        edges[0], edges[-1] = [(2, -1), (n, -1)], [(1, -1), (n - 1, -1)]
    else:
        (a12, a21), (afl, alf) = _END_ARROWS[algebra.family]
        edges[0], edges[1][0] = [(2, a12)], (1, a21)
        edges[-1], edges[-2][1] = [(n - 1, alf)], (n, afl)
    return RootSystem(algebra, tuple(map(tuple, edges)))


def weight_counts(rs: RootSystem, max_height: int) -> Dict[Tuple[int, ...], int]:
    """K(beta) = |B(infinity)_{-beta}| for every beta in Q+ of height at most
    max_height, keyed by beta's coefficients on alpha_1..alpha_n; an empty
    dict for a negative max_height.  Only the Cartan matrix is read.

    The graded character of B(infinity) is 1 / prod_{alpha > 0} (1 -
    e^{-alpha})^{mult alpha}, and the Weyl-Kac denominator identity (Kac,
    Infinite-dimensional Lie algebras, ch. 10) writes that product as
    sum_{w in W} sign(w) e^{w rho - rho}, so no root multiplicity is needed.
    The Weyl group is walked from lambda = rho = (1, ..., 1) in
    fundamental-weight coordinates, with beta = rho - lambda: s_i sends lambda
    to lambda - lambda_i times column i of the Cartan matrix and adds
    lambda_i to beta_i.  It is taken only where lambda_i > 0, where it
    lengthens w by one, so each round of the walk flips the sign and every
    step raises the height.  rho is regular, so beta determines w, and each
    beta is kept once.

    K is that truncated series inverted over Q+, by pushing: the weights are
    taken in order of height, and once counts[beta] is final, -d
    counts[beta] is pushed onto beta + gamma for each term d e^{-gamma} of
    the denominator.  The terms are sorted by height, so the push stops at
    the first gamma that no longer fits under max_height.  Each beta is
    coded as one int, with digit beta_i in base max_height + 1, so beta +
    gamma is a sum of codes.  It cannot carry, because every pushed beta +
    gamma has height at most max_height, and so every digit stays below the
    base.
    """
    max_height = exact_int(max_height, RootDataError)
    if max_height < 0:
        return {}
    n, zero = rs.n, (0,) * rs.n
    # column i of the Cartan matrix by its nonzero entries (j - 1, a_{j,i})
    columns = [
        [(i - 1, 2)] + [(j - 1, rs.a(j, i)) for j, _ in edges]
        for i, edges in enumerate(rs.neighbors, 1)
    ]
    denominator: Dict[Tuple[int, ...], int] = {}
    level, sign = {zero: (1,) * n}, 1  # level: beta -> lambda, for w of one length
    while level:
        grown: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for beta, lam in level.items():
            denominator[beta] = sign
            for i, li in enumerate(lam):
                if li > 0 and sum(beta) + li <= max_height:
                    up = beta[:i] + (beta[i] + li,) + beta[i + 1 :]
                    if up not in grown:
                        reflected = list(lam)
                        for j, c in columns[i]:
                            reflected[j] -= li * c
                        grown[up] = tuple(reflected)
        level, sign = grown, -sign
    del denominator[zero]
    # alpha_1 is the most significant digit, so codes sort as the tuples do
    base = max_height + 1
    place = [base ** k for k in range(n - 1, -1, -1)]
    terms = sorted(
        (sum(gamma), sum(g * p for g, p in zip(gamma, place)), d)
        for gamma, d in denominator.items()
    )
    layers = [[0]]
    for _ in range(max_height):
        layers.append(sorted({c + p for c in layers[-1] for p in place}))
    counts = {c: 0 for layer in layers for c in layer}
    counts[0] = 1
    for height, layer in enumerate(layers):
        room = max_height - height
        for c in layer:
            k = counts[c]
            for h, g, d in terms:
                if h > room:
                    break
                counts[c + g] -= d * k
    return {tuple(c // p % base for p in place): k for c, k in counts.items()}


def fold(map_kind: str, n: int, t: int) -> int:
    """Fold an integer t onto the index set {1, ..., n}.

    overline has period n; pi and pi_prime have period 2n-2; pi1 has period
    2n-1; pi2 has period 2n.  pi_prime is pi restricted to t >= 1.  A
    RootDataError unless n and t are integers and the period is at least 1.
    """
    if map_kind not in FOLD_KINDS:
        raise RootDataError(f"unknown folding map {map_kind!r}, expected one of {FOLD_KINDS}")
    n, t = exact_int(n, RootDataError), exact_int(t, RootDataError)
    period = {"overline": n, "pi1": 2 * n - 1, "pi2": 2 * n}.get(map_kind, 2 * n - 2)
    if period < 1:
        raise RootDataError(f"{map_kind} at n={n} has period {period}, need at least 1")
    if map_kind == "pi_prime" and t < 1:
        raise RootDataError(f"pi_prime needs t >= 1, got {t}")
    r = (t - 1) % period + 1
    if map_kind == "overline" or r <= n:
        return r
    return 2 * n + 1 - r if map_kind == "pi2" else 2 * n - r


class ResidueTable(dict):
    """The values of a rule, kept by key: table[r] is rule(r), computed on
    the first read of r and then kept; so a read is one dict lookup, and a
    table holds one entry per key read, however many keys there are.  A rule
    of a period is read at t % table.period, or at a key next to it such as
    r - 1, which the period makes equal; a table by color has no period."""

    def __init__(self, rule: Callable[[int], Any], period: Optional[int] = None):
        super().__init__()
        self.period, self.rule = period, rule

    def __missing__(self, key: int) -> Any:
        value = self[key] = self.rule(key)
        return value


@lru_cache(maxsize=None)
def fold_table(map_kind: str, n: int) -> ResidueTable:
    """fold(map_kind, n, t) as table[t % table.period], one table per map
    kind and rank, shared by every caller and filled by fold itself.
    pi_prime, defined only for t >= 1, has no table: its residue 0 stands for
    t = 2n - 2, 4n - 4, ..., but fold would read it as t = 0.  A RootDataError,
    as fold raises it, unless n is an integer and the period is at least 1."""
    n = exact_int(n, RootDataError)
    periods = {"overline": n, "pi": 2 * n - 2, "pi1": 2 * n - 1, "pi2": 2 * n}
    if map_kind not in periods:
        raise RootDataError(f"no table for folding map {map_kind!r}, expected one of {tuple(periods)}")
    if periods[map_kind] < 1:
        raise RootDataError(f"{map_kind} at n={n} has period {periods[map_kind]}, need at least 1")
    return ResidueTable(partial(fold, map_kind, n), periods[map_kind])


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
        self._occ: Dict[int, List[int]] = {i: [] for i in root_system.index_set}
        for m, c in enumerate(self.word):
            self._occ[c].append(m)
        # p_{i,j} = 1 when i occurs before its neighbor j in the word, else 0
        pairs = [(i, j) for i, edges in enumerate(root_system.neighbors, 1) for j, _ in edges]
        self.p = {(i, j): 1 if self._occ[i][0] < self._occ[j][0] else 0 for i, j in pairs}

        def sweep(i: int) -> Tuple[Tuple[int, ...], ...]:
            # by residue r = (j-1) mod L: a_{i,c(j)}, and the distances from r to the
            # nearest i-position at or after it and at or before it, perhaps a lap away
            occ, L = self._occ[i], self.L
            up, down = occ + [occ[0] + L], [occ[-1] - L] + occ
            return (
                tuple(root_system.a(i, c) for c in self.word),
                tuple(up[bisect_left(up, r)] - r for r in range(L)),
                tuple(r - down[bisect_right(down, r) - 1] for r in range(L)),
            )

        # the sigma sweep's tables (lattice_crystal._reach), filled per color on first read
        self._sweep = ResidueTable(sweep)
        # For each color i, the sites of beta_{s,i} relative to s (forms.beta_sites)
        self._beta: Dict[int, Tuple[Tuple[int, int, int], ...]] = {
            i: ((1, 0, i), (1, 1, i)) + tuple((c, self.p[(j, i)], j) for j, c in edges)
            for i, edges in enumerate(root_system.neighbors, 1)
        }
        # the largest |c| of a beta site: the most one beta moves a coefficient
        self._beta_most = max(abs(c) for sites in self._beta.values() for c, _, _ in sites)
        self._pt_cache: Dict[Tuple[str, int], PRow] = {}

    def _validate(self) -> None:
        n, L = self.root_system.n, self.L
        if not self.word:
            raise RootDataError("word must be nonempty")
        bad = [c for c in self.word if not 1 <= c <= n]
        if bad:
            raise RootDataError(f"letters {sorted(set(bad))} outside index set 1..{n}")
        missing = sorted(set(range(1, n + 1)) - set(self.word))
        if missing:
            more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
            raise RootDataError(f"indices {missing[:10]}{more} missing from word")
        for m in range(L):
            if self.word[m] == self.word[(m + 1) % L]:
                raise RootDataError(
                    f"color {self.word[m]} repeats at cyclic positions {m + 1},{(m + 1) % L + 1}"
                )
        # one pass: pair (c, j) sees c twice at m when c's last position is after j's
        last = [-1] * (n + 1)
        first: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        for m, c in enumerate(self.word * 2):
            for j, _ in self.root_system.neighbors[c - 1]:
                if last[c] > last[j]:
                    first.setdefault((min(c, j), max(c, j)), (c, last[c], m))
            last[c] = m
        if first:
            (i, j), (c, m1, m2) = min(first.items())
            raise NotAdaptedError(
                f"word is not adapted: neighbor pair ({i},{j}) sees color {c} "
                f"twice in a row at cyclic positions {m1 % L + 1},{m2 % L + 1}"
            )

    def color_of(self, j: int) -> int:
        """Color of position j >= 1; a RootDataError unless j is an integer."""
        try:
            if j < 1:
                raise RootDataError(f"position must be >= 1, got {j}")
            return self.word[(j - 1) % self.L]
        except TypeError:  # j is not an int: read again as one, if it is integral
            return self.color_of(exact_int(j, RootDataError))

    def check_color(self, i: int) -> int:
        """i as an int, when it is a color of the index set; a RootDataError otherwise."""
        return self.root_system._slot(i if i.__class__ is int else exact_int(i, RootDataError)) + 1

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
    """Single index j >= 1 to the double index (s, l): s-th occurrence of color l.
    A RootDataError unless j is an integer."""
    try:
        if j < 1:
            raise RootDataError(f"position must be >= 1, got {j}")
        q, r = divmod(j - 1, seq.L)
        color = seq.word[r]
        occ = seq._occ[color]
        return q * len(occ) + occ.index(r) + 1, color
    except TypeError:  # j is not an int: read again as one, if it is integral
        return index_to_pair(seq, exact_int(j, RootDataError))


def pair_to_index(seq: AdaptedSequence, s: int, l: int) -> int:
    """Double index (s, l) to the single index of the s-th occurrence of l.
    A RootDataError unless s is an integer and l a color."""
    try:
        if s < 1:
            raise RootDataError(f"occurrence count must be >= 1, got {s}")
        occ = seq._occ.get(l)
        if not occ:
            raise RootDataError(f"color {l} not in index set")
        q, rem = divmod(s - 1, len(occ))
        return q * seq.L + occ[rem] + 1
    except TypeError:  # s is not an int or l not hashable: read again as ints, if they are
        return pair_to_index(seq, exact_int(s, RootDataError), seq.check_color(l))


class PRow(dict):
    """P^k along the folded color path of one variant, for one k and one
    sequence: row[t] = P^k(t).

    P^k(k) = 0; going up, P^k(t) = P^k(t-1) + p_{c(t),c(t-1)}; going down,
    P^k(t) = P^k(t+1) + p_{c(t),c(t+1)}, where c folds via the variant map
    and equal folded colors contribute 0.  The pi_prime variant is one-sided
    and only defined for t >= k.  The filled entries are one interval around
    k: a read that misses checks t, walks from t back into the interval and
    fills outward to t.  An entry is filled only once its checks pass, so a
    read that hits needs none, and a reader takes row[t] with no other branch.
    """

    def __init__(self, seq: AdaptedSequence, variant: str, k: int):
        super().__init__({k: 0})
        self.p, self.n, self.variant, self.k = seq.p, seq.root_system.n, variant, k

    def __missing__(self, t: int) -> int:
        # the fill walk steps by 1 from t, so it meets the interval around k only from an integer
        t, k = exact_int(t, RootDataError), self.k
        if self.variant == "pi_prime" and t < k:
            raise RootDataError(f"pi_prime table needs t >= {k}, got {t}")
        step = 1 if t > k else -1
        u = t
        while u not in self:
            u -= step
        while u != t:
            u += step
            here, back = fold(self.variant, self.n, u), fold(self.variant, self.n, u - step)
            p = 0 if here == back else self.p.get((here, back))
            if p is None:
                raise RootDataError(f"colors {here},{back} are not neighbors")
            self[u] = self[u - step] + p
        return self[t]


def p_row(seq: AdaptedSequence, variant: str, k: int) -> PRow:
    """The PRow of variant and k, made on seq's first read of it and kept; a
    RootDataError for an unknown variant or a k that is not an integer."""
    try:
        return seq._pt_cache[variant, k]
    except (KeyError, TypeError):  # not made, or unhashable: the checks below decide
        pass
    if variant not in FOLD_KINDS:
        raise RootDataError(f"unknown table variant {variant!r}")
    k = exact_int(k, RootDataError)
    return seq._pt_cache.setdefault((variant, k), PRow(seq, variant, k))


def p_table(seq: AdaptedSequence, variant: str, k: int, t: int) -> int:
    """P^k(t), read from p_row(seq, variant, k) with every check of PRow."""
    return p_row(seq, variant, k)[exact_int(t, RootDataError)]
