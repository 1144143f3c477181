"""Verification suites tying the combinatorial families to the closure machinery.

Each check returns a VerificationReport with a status of "pass", "fail", or
"inconclusive", counters, and witness strings for the first MAX_WITNESSES
failures; a check counts every failure.
A report passes only when something was examined and nothing failed.  A
sampling limit is inconclusive rather than a silent pass: the converse half
of the image check can only be sampled at finite generator bounds.  Closures
have no cap unless a caller passes index_bound to the closure check, which
reports the forms pruned at it as failures.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from math import comb
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .root_data import AdaptedSequence, RootDataError, exact_int, index_to_pair, weight_counts
from .lattice_crystal import (
    LatticeElement,
    _bumped,
    _element,
    _reach,
    _weight,
    enumerate_image,
    etilde,
    sigma,
)
from .forms import (
    Key,
    LinearForm,
    Move,
    Pair,
    Site,
    System,
    _most,
    _site_map,
    beta_index,
    beta_pair,
    beta_sites,
    check_xi_positivity,
    closure,
    closure_codes,
    code_width,
    evaluate,
    pack,
    site_form,
    system_forms,
    system_rows,
    walk,
    window_search,
)
from . import eyd as eyd_mod
from . import reyd as reyd_mod
from . import young_wall as wall_mod

MAX_WITNESSES = 10


class VerificationReport:
    """A check's name, parameters, status, counters and witnesses; mutable,
    compared by value and unhashable.  counts and witnesses default to a
    new empty dict and list."""

    __slots__ = ("check", "params", "status", "counts", "witnesses")

    def __init__(
        self,
        check: str,
        params: dict,
        status: str,
        counts: Optional[Dict[str, int]] = None,
        witnesses: Optional[List[str]] = None,
    ):
        self.check, self.params, self.status = check, params, status
        self.counts = {} if counts is None else counts
        self.witnesses = [] if witnesses is None else witnesses

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.to_json() == other.to_json()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.to_json().items())
        return f"VerificationReport({fields})"

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def summary(self) -> str:
        counts = " ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"{self.check}: {self.status} ({counts})"


def _report(
    check: str,
    seq: AdaptedSequence,
    params: dict,
    counts: Dict[str, int],
    witnesses: List[str],
    failed: int,
    examined: int,
    doubtful: bool = False,
) -> VerificationReport:
    """The one verdict rule: "fail" when anything failed, else "inconclusive"
    when a sampling limit was hit or nothing was examined, else "pass".  The
    first MAX_WITNESSES witnesses are kept."""
    status = "fail" if failed else "inconclusive" if doubtful or examined == 0 else "pass"
    rs = seq.root_system
    params = {"family": rs.algebra.family, "n": rs.n, "word": list(seq.word), **params}
    return VerificationReport(check, params, status, counts, witnesses[:MAX_WITNESSES])


# The module of each generator kind, with sites and the parts of its walk
# (_read, _toggle, _seeds, _key); forms.walk makes every move from them.  Each
# is held as a module so that a call finds a function rebound on it, as the
# benchmark's tracer rebinds them.
MODULES = {"eyd": eyd_mod, "reyd": reyd_mod, "wall": wall_mod}


def family_generators(family: str, n: int) -> Dict[str, Tuple[Optional[str], Sequence[int]]]:
    """The (flavor, charges) of each generator kind of an algebra family at rank n.

    The flavor is the reyd flavor or the wall family.  Diagrams of kind eyd
    have none: their fold (overline for A1, pi for D2) follows from the
    sequence's family.
    """
    return {
        "A1": {"eyd": (None, range(1, n + 1))},
        "D2": {"eyd": (None, range(1, n + 1))},
        "A2": {"wall": ("A2wall", [1]), "reyd": ("A2", range(2, n + 1))},
        "C1": {"wall": ("D2wall", [1, n]), "reyd": ("D2target", range(2, n))},
    }[family]


def generator_kinds(seq: AdaptedSequence) -> List[Tuple[str, int]]:
    """The (kind, charge) pairs whose assignment images generate the system."""
    rs = seq.root_system
    generators = family_generators(rs.algebra.family, rs.n)
    return [(kind, k) for kind, (_, ks) in generators.items() for k in ks]


def charge_kind(seq: AdaptedSequence, k: int) -> str:
    """The generator kind of charge k; a ValueError names the valid charges."""
    kinds = dict((c, kind) for kind, c in generator_kinds(seq))
    if k not in kinds:
        rs = seq.root_system
        raise ValueError(
            f"k={k} has no generator family for {rs.algebra.family} n={rs.n}; "
            f"valid charges: {sorted(kinds)}"
        )
    return kinds[k]


def generator_objects(
    seq: AdaptedSequence,
    kind: str,
    k: int,
    bound: int,
    halves: bool = False,
    every: bool = False,
) -> List[Tuple[object, List[Site], List[Move]]]:
    """The (object, sites, moves) of one kind and charge, as forms.walk lists
    them from the module's _seeds, each object read once, by the module's
    _read.  The bound counts steps, or with halves bounds a wall's halves; a
    single block add raises a wall's block count by exactly 1, so its steps
    are blocks.  A negative bound gives an empty list."""
    rs = seq.root_system
    flavor, _ = family_generators(rs.algebra.family, rs.n)[kind]
    module = MODULES[kind]
    seeds, reader = module._seeds(flavor, rs.n, k, bound), partial(module._read, seq)
    return list(walk(seeds, reader, module._toggle, module._key, bound, halves, every))


def generator_system(seq: AdaptedSequence, size_bound: int, s_values: Iterable[int]) -> System:
    """The sampled inequality system over all kinds, charges, and base
    offsets, as {site key: set of first occurrences} (forms.system_forms).

    s_values is read once.  Each object's sites, from one walk per kind and
    charge, are merged once, to a key of sorted ((offset, color), coeff)
    items shifted so that its lowest offset is 0.  Its form at s is the key
    at first occurrence low + s, low its lowest merged offset, and a nonzero
    form determines its key and first.  A ValueError is raised, as site_form
    raises it, at the first (object, s) whose sites reach an occurrence below 1.
    """
    s_values = list(s_values)
    if not s_values:
        return {}
    smallest = min(s_values)
    lows: System = {}
    for kind, k in generator_kinds(seq):
        for _, sites, _ in generator_objects(seq, kind, k, size_bound):
            terms = _site_map(sites)
            merged = sorted(terms.items())
            lowest = merged[0][0][0] if merged else 0
            if merged and smallest + lowest < 1:
                s = next(s for s in s_values if s + lowest < 1)
                raise ValueError(f"occurrence index must be >= 1, got {s + lowest}")
            if 0 in terms.values():
                merged = [term for term in merged if term[1]]
            low = merged[0][0][0] if merged else 0
            key = tuple([((offset - low, l), c) for (offset, l), c in merged])
            lows.setdefault(key, set()).add(low)
    return {key: {low + s for low in offsets for s in s_values} for key, offsets in lows.items()}


def generator_forms(seq: AdaptedSequence, size_bound: int, s_values: Iterable[int]) -> Set[Key]:
    """generator_system's forms, as term tuples, as LinearForm.items() gives them."""
    return system_forms(generator_system(seq, size_bound, s_values))


def check_step_identities(
    seq: AdaptedSequence, size_bound: int = 6, wall_halves: int = 8
) -> VerificationReport:
    """Every legal toggle shifts the assigned form by exactly minus or plus beta.

    Walls are walked up to wall_halves halves, the other kinds up to
    size_bound steps; a negative size_bound walks nothing.  A toggle counts
    once per s of 1 and 2, and so does a failure; its witness states the
    forms at that s, and forms are built only for witnesses.  Each kind and
    charge is walked first, to a list of (object, sites, moves), each object
    read once by the walk; a target past the bound is then read once, by its
    module's sites, so each object is read once per call.  Codes are kept by object.

    Each toggle is checked once, in site coordinates, because the identity
    holds at every s or at none.  An object's form at s is site_form(sites,
    s): its sites merged to a map {(offset, color): coeff}, carried by
    (offset, color) -> (s + offset, color).  beta_{s+offset, color} is
    beta_sites(seq, color) with offset added to each site's offset, carried
    by the same map.  That map is one-to-one, so form(obj2, s) = form(obj,
    s) - coeff * beta_{s+offset, color} holds exactly when the site map of
    obj2 equals that of obj less coeff times the shifted beta sites, and that
    equation does not mention s.

    The site maps are compared as codes (forms.pack), with a field for each
    (offset, color) in the order met, so a toggle is the one comparison
    code(obj2) == code(obj) - coeff * code(beta shifted by offset).  Per kind
    and charge, W is code_width(most + coeff_most * beta_most): most bounds
    an object's entries (forms._most, over the objects walked or target),
    coeff_most is the largest |coeff| of a move and beta_most bounds a
    beta's shift of an entry (AdaptedSequence._beta_most).
    """
    size_bound = exact_int(size_bound, RootDataError)
    wall_halves = exact_int(wall_halves, RootDataError)
    s_values = (1, 2)
    checked = failed = 0
    witnesses: List[str] = []
    for kind, k in generator_kinds(seq):
        walls = kind == "wall"
        bound = wall_halves if walls and size_bound >= 0 else size_bound
        walked = generator_objects(seq, kind, k, bound, walls, True)
        read = {obj: sites for obj, sites, _ in walked}
        coeff_most = 0
        for _, _, moves in walked:
            for obj2, coeff, _, _ in moves:
                if coeff > coeff_most or -coeff > coeff_most:
                    coeff_most = abs(coeff)
                if obj2 not in read:
                    read[obj2] = MODULES[kind].sites(seq, obj2)
        width = code_width(_most(read.values())[0] + coeff_most * seq._beta_most)
        fields: Dict[Pair, int] = {}

        def field_of(offset: int, color: int) -> int:
            return fields.setdefault((offset, color), len(fields))

        packed: Dict[Site, int] = {}
        codes = {obj: pack(sites, width, field_of, packed) for obj, sites in read.items()}
        shifted: Dict[Pair, int] = {}
        for obj, sites, moves in walked:
            checked += len(s_values) * len(moves)
            code = codes[obj]
            for obj2, coeff, offset, color in moves:
                beta = shifted.get((offset, color))
                if beta is None:
                    beta_shifted = [(b, offset + o, j) for b, o, j in beta_sites(seq, color)]
                    beta = shifted[offset, color] = pack(beta_shifted, width, field_of, packed)
                if codes[obj2] == code - coeff * beta:
                    continue
                failed += len(s_values)
                for s in s_values[: MAX_WITNESSES - len(witnesses)]:
                    got = site_form(read[obj2], s)
                    expected = site_form(sites, s) - coeff * beta_pair(seq, s + offset, color)
                    witnesses.append(f"{obj} -> {obj2} s={s}: got {got}, expected {expected}")

    return _report(
        "step-identities",
        seq,
        {"size_bound": size_bound},
        {"toggles_checked": checked, "failures": failed},
        witnesses,
        failed,
        checked,
    )


def check_closure_equality(
    seq: AdaptedSequence,
    k: int,
    depth: int = 4,
    s: int = 1,
    index_bound: Optional[int] = None,
) -> VerificationReport:
    """Closure of {x_{s,k}} equals the assignment image of size-bounded generators.

    The closure has no cap unless index_bound is given; forms pruned at it fail.
    The seed is the image of the highest object, of 0 steps, so a negative
    depth compares two empty sets and is inconclusive.

    The two sets are compared as packed codes, and forms are built only for
    the witnesses.  The generators are walked first, and one forms._most pass
    over their sites gives a bound on the image forms' coefficients and the
    image's lowest occurrence, both passed to closure_codes, so that its width and
    index reader then pack each object's sites at s (forms.pack) one-to-one
    too, with fields counted from the lowest single index either side
    reaches.  Only the codes in the symmetric difference are built as forms,
    the closure's from its terms and the image's by site_form from the first
    object of the code.
    """
    k, depth, s = (exact_int(v, RootDataError) for v in (k, depth, s))
    if index_bound is not None:
        index_bound = exact_int(index_bound, RootDataError)
    seeds = [LinearForm.x(s, k)] if depth >= 0 else []
    walked = [sites for _, sites, _ in generator_objects(seq, charge_kind(seq, k), k, depth)]
    most, lowest = _most(walked)
    closed, pruned, width, index = closure_codes(seq, seeds, depth, index_bound, most, s + lowest)

    def field_of(offset: int, color: int) -> int:
        return index(s + offset, color)

    packed: Dict[Site, int] = {}
    images: Dict[int, List[Site]] = {}
    for sites in walked:
        try:
            code = pack(sites, width, field_of, packed)
        except RootDataError:  # a site below occurrence 1, which site_form names
            site_form(sites, s)
            raise
        images.setdefault(code, sites)
    extra = sorted(
        (LinearForm._of(closed[c]) for c in closed.keys() - images.keys()),
        key=LinearForm.sort_key,
    )
    missing = sorted(
        (site_form(images[c], s) for c in images.keys() - closed.keys()),
        key=LinearForm.sort_key,
    )
    witnesses = [f"{pruned} forms pruned at index bound {index_bound}"] if pruned else []
    witnesses += [f"closure-only: {f}" for f in extra] + [f"image-only: {f}" for f in missing]
    difference = len(extra) + len(missing)
    return _report(
        "closure-equality",
        seq,
        {"k": k, "s": s, "depth": depth},
        {
            "closure_size": len(closed),
            "image_size": len(images),
            "pruned": pruned,
            "symmetric_difference": difference,
        },
        witnesses,
        difference + pruned,
        len(closed),
    )


def check_image_equality(
    seq: AdaptedSequence, max_weight: int = 4, size_bound: Optional[int] = None
) -> VerificationReport:
    """Reachable elements and inequality solutions agree up to the weight
    bound, with the inequalities sampled at s = 1..max_weight + 1.

    Forward: every reachable element satisfies every sampled inequality.
    Converse: every solution of the sampled system within the support window
    of the reachable set is itself reachable; a miss is inconclusive since it
    may only reflect the finite sample.

    The box is every nonnegative vector on the window with total at most
    max_weight; `candidates` counts it in closed form, C(max_weight + m, m)
    for a window of length m, and `forms.window_search` lists the solutions
    in it, from the system's window rows (forms.system_rows), without walking
    the whole box.  `forms` counts the system's (key, first) pairs, the empty
    key once.  Each image element's tuple is filled from its entries.
    Witnesses come in the lexicographic order of the box, and a forward
    witness names the first form, in sorted order, that the element violates:
    only then is the system expanded to LinearForms, and they are sorted.
    """
    max_weight = exact_int(max_weight, RootDataError)
    size_bound = max_weight + 2 if size_bound is None else exact_int(size_bound, RootDataError)
    s_bound = max_weight + 1
    image = enumerate_image(seq, max_weight)
    system = generator_system(seq, size_bound, range(1, s_bound + 1))
    forms = sum(len(firsts) if key else 1 for key, firsts in system.items())
    # Every image element lies in the box: it is nonnegative, its total is at
    # most max_weight (each lowering step adds 1), and its support lies in the
    # window.
    window = sorted({j for a in image for j in a.support()})
    place = {j: p for p, j in enumerate(window)}
    reached = {}
    for a in image:
        values = [0] * len(window)
        for j, v in a.items():
            values[place[j]] = v
        reached[tuple(values)] = a
    solved = set(window_search(system_rows(seq, system, window), len(window), max_weight))
    forward = [t for t in reached if t not in solved]
    converse = [t for t in solved if t not in reached]
    witnesses: List[str] = []
    ordered: List[LinearForm] = []  # the forms in sorted order, made for a forward witness
    for t in sorted(forward + converse)[:MAX_WITNESSES]:
        if t in reached:
            a = reached[t]
            if not ordered:
                expanded = (LinearForm._of(dict(f)) for f in system_forms(system))
                ordered = sorted(expanded, key=LinearForm.sort_key)
            bad = next(f for f in ordered if evaluate(seq, f, a) < 0)
            witnesses.append(f"reachable {a} violates {bad}")
        else:
            a = LatticeElement(zip(window, t))
            witnesses.append(f"unreachable {a} satisfies all {forms} sampled forms")
    # A negative max_weight leaves the window empty, and the box then holds
    # the zero vector alone, as the search finds.
    m = len(window)
    return _report(
        "image-equality",
        seq,
        {"max_weight": max_weight, "size_bound": size_bound, "s_bound": s_bound},
        {
            "image_size": len(image),
            "forms": forms,
            "candidates": comb(max(max_weight, 0) + m, m),
            "forward_violations": len(forward),
            "converse_misses": len(converse),
        },
        witnesses,
        len(forward),
        forms,
        doubtful=bool(converse),
    )


def check_crystal_axioms(seq: AdaptedSequence, depth: int = 4) -> VerificationReport:
    """Kashiwara axioms and operator inverses on the reachable set.

    The check works on the elements' sorted keys with the kernels that the
    public operators are views of.  Each element's weight is read once, by
    `_weight`, and for each color i the check reads one sigma sweep
    (`_reach`, which epsilon, ftilde and etilde each read once per call)
    per element it needs, taking every operator value from it with the
    operators' own expressions:

    - sweep(a) gives epsilon_i(a), phi_i(a) (the weight pairing plus
      epsilon), b = ftilde_i(a) and e = etilde_i(a), the first raise;
    - sweep(b) gives etilde_i(b), epsilon_i(b) and phi_i(b), whose weight
      is read again from b;
    - sweep(e) gives ftilde_i(e) and etilde_i(e), the second raise.

    b, e and their images are `_bumped` keys, compared as keys.  The raise
    chain starts from e, and only its third and later raises call the
    public etilde, from the second raise wrapped by `_element`.

    The image is a copy of B(infinity) truncated at depth, so it holds
    K(beta) = |B(infinity)_{-beta}| elements of weight -beta for each beta of
    height at most depth (root_data.weight_counts; at a negative depth the
    image is still {0}, so K is taken at depth 0).  The elements are counted
    per weight from the same weight reads, and each weight whose count
    differs from K is one more failure.
    """
    depth = exact_int(depth, RootDataError)
    image = sorted(enumerate_image(seq, depth), key=LatticeElement.items)
    weights = [_weight(seq, a.items()) for a in image]
    found = Counter(map(tuple, weights))
    # color by color, so that one Cartan row is built at a time; each element
    # keeps its own failures, and they are listed element by element
    failed: List[List[str]] = [[] for _ in image]
    for i in seq.root_system.index_set:
        row = seq.root_system.row(i)
        for a, ca, failures in zip(image, weights, failed):
            key = a.items()
            eps, first, last = _reach(seq, key, i)
            ph = eps - sum(map(mul, row, ca))
            b = _bumped(key, first, 1)
            eps_b, _, last_b = _reach(seq, b, i)
            if not eps_b or _bumped(b, last_b, -1) != key:
                failures.append(f"etilde_{i} ftilde_{i} != id at {a}")
            cb = _weight(seq, b)
            if eps_b != eps + 1 or eps_b - sum(map(mul, row, cb)) != ph - 1:
                failures.append(f"epsilon/phi do not step under ftilde_{i} at {a}")
            cb[i - 1] -= 1  # b's coefficients less alpha_i's are a's
            if cb != ca:
                failures.append(f"weight does not drop by alpha_{i} under ftilde_{i} at {a}")
            raises = 0
            if eps:
                e = _bumped(key, last, -1)
                eps_e, first_e, last_e = _reach(seq, e, i)
                if _bumped(e, first_e, 1) != key:
                    failures.append(f"ftilde_{i} etilde_{i} != id at {a}")
                raises = 1
                if eps_e:
                    x, raises = _element(_bumped(e, last_e, -1)), 2
                    while raises <= eps + 1:
                        x = etilde(seq, x, i)
                        if x is None:
                            break
                        raises += 1
            if raises != eps:
                failures.append(f"epsilon_{i}({a}) = {eps} but {raises} raises apply")
    failures = [f for fs in failed for f in fs]
    checked = len(image) * seq.root_system.n
    expected = weight_counts(seq.root_system, max(depth, 0))
    for weight in sorted(found.keys() | expected.keys()):
        got, want = found.get(weight, 0), expected.get(weight, 0)
        if got != want:
            failures.append(f"beta={weight}: {got} image elements of weight -beta, K(beta)={want}")
    return _report(
        "crystal-axioms",
        seq,
        {"depth": depth},
        {"elements": len(image), "pairs_checked": checked, "failures": len(failures)},
        failures,
        len(failures),
        checked,
    )


def check_positivity(seq: AdaptedSequence, depth: int = 6) -> VerificationReport:
    """No closure form of a seed x[s,k], s = 1 or 2, carries a negative
    coefficient at a first occurrence."""
    depth = exact_int(depth, RootDataError)
    failures: List[str] = []
    total = 0
    for k in seq.root_system.index_set:
        for s in (1, 2):
            closed, _ = closure(seq, [LinearForm.x(s, k)], depth)
            total += len(closed)
            ok, bad = check_xi_positivity(seq, closed)
            if not ok:
                for f, pair, c in bad:
                    failures.append(f"seed x[{s},{k}]: {f} has coefficient {c} at {pair}")
    return _report(
        "xi-positivity",
        seq,
        {"depth": depth, "s_max": 2},
        {"forms_checked": total, "failures": len(failures)},
        failures,
        len(failures),
        total,
    )


def check_beta_agreement(seq: AdaptedSequence) -> VerificationReport:
    """The single- and double-index beta constructions coincide at j = 1..30."""
    failures: List[str] = []
    indices = range(1, 31)
    for j in indices:
        s, l = index_to_pair(seq, j)
        if beta_index(seq, j) != beta_pair(seq, s, l):
            failures.append(f"beta mismatch at j={j} (s={s}, l={l})")
    return _report(
        "beta-agreement",
        seq,
        {"max_index": 30},
        {"indices_checked": len(indices), "failures": len(failures)},
        failures,
        len(failures),
        len(indices),
    )


def check_sigma_difference(seq: AdaptedSequence) -> VerificationReport:
    """beta_j(a) = sigma_j(a) - sigma_{j+}(a) on 100 elements drawn, with
    seed 7, from the image of depth 6."""
    import random  # only here, so that importing polyreal stays cheap

    rng = random.Random(7)
    pool = sorted(enumerate_image(seq, 6), key=LatticeElement.items)
    failures: List[str] = []
    checked = 0
    for _ in range(100):
        a = pool[rng.randrange(len(pool))]
        j = rng.randrange(1, max(a.max_index(), seq.L) + 1)
        jplus = j + 1
        while seq.color_of(jplus) != seq.color_of(j):
            jplus += 1
        value = evaluate(seq, beta_index(seq, j), a)
        diff = sigma(seq, a, j) - sigma(seq, a, jplus)
        checked += 1
        if value != diff:
            failures.append(f"sigma difference mismatch at j={j} on {a}")
    return _report(
        "sigma-difference",
        seq,
        {"samples": 100},
        {"samples_checked": checked, "failures": len(failures)},
        failures,
        len(failures),
        checked,
    )
