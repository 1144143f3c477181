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

import random
from dataclasses import dataclass, field
from functools import partial
from math import comb
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .root_data import AdaptedSequence, index_to_pair
from .lattice_crystal import (
    LatticeElement,
    _reach,
    enumerate_image,
    etilde,
    sigma,
    weight_coeffs,
)
from .forms import (
    LinearForm,
    Move,
    Pair,
    Site,
    _accumulate,
    beta_index,
    beta_pair,
    beta_sites,
    check_xi_positivity,
    closure,
    evaluate,
    site_form,
    walk,
    window_solutions,
)
from . import eyd as eyd_mod
from . import reyd as reyd_mod
from . import young_wall as wall_mod

MAX_WITNESSES = 10


@dataclass
class VerificationReport:
    check: str
    params: dict
    status: str
    counts: Dict[str, int] = field(default_factory=dict)
    witnesses: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "counts": self.counts,
            "witnesses": self.witnesses,
        }

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


def walk_objects(
    seq: AdaptedSequence,
    kind: str,
    k: int,
    bound: int,
    halves: bool = False,
    every: bool = False,
) -> Iterator[Tuple[object, List[Site], List[Move]]]:
    """forms.walk over one kind and charge, from its module's _seeds, each
    object read once, by the module's _read."""
    rs = seq.root_system
    flavor, _ = family_generators(rs.algebra.family, rs.n)[kind]
    module = MODULES[kind]
    seeds, reader = module._seeds(flavor, rs.n, k, bound), partial(module._read, seq)
    return walk(seeds, reader, module._toggle, module._key, bound, halves, every)


def generator_objects(seq: AdaptedSequence, kind: str, k: int, size_bound: int) -> list:
    """The objects of one kind and charge within size_bound steps; a single
    block add raises a wall's block count by exactly 1, so its steps are blocks."""
    return [obj for obj, _, _ in walk_objects(seq, kind, k, size_bound)]


def _site_map(sites: List[Site]) -> Dict[Pair, int]:
    """Sites merged to {(offset, color): coeff}."""
    return _accumulate({}, (((offset, l), c) for c, offset, l in sites))


def generator_forms(seq: AdaptedSequence, size_bound: int, s_values: Iterable[int]) -> set:
    """The sampled inequality system over all kinds, charges, and base offsets.

    s_values is read once.  Each object's sites, from one walk per kind and
    charge, are merged once, to a key of sorted ((offset, color), coeff)
    items shifted so that its lowest offset is 0.  Its form at s is then the
    key's form from first occurrence s + low, where low is the lowest merged
    offset.  The (key, first) pair determines the form, and a nonzero form
    determines its pair, so one form is built per distinct pair.  A
    ValueError is raised, as site_form raises it, at the first (object, s)
    whose unmerged sites reach an occurrence below 1.
    """
    s_values = list(s_values)
    if not s_values:
        return set()
    smallest = min(s_values)
    pairs = set()
    for kind, k in generator_kinds(seq):
        for _, sites, _ in walk_objects(seq, kind, k, size_bound):
            lowest = min((offset for _, offset, _ in sites), default=0)
            if sites and smallest + lowest < 1:
                s = next(s for s in s_values if s + lowest < 1)
                raise ValueError(f"occurrence index must be >= 1, got {s + lowest}")
            merged = sorted(_site_map(sites).items())
            low = merged[0][0][0] if merged else 0
            key = tuple(((offset - low, l), c) for (offset, l), c in merged)
            pairs.update((key, s + low) for s in s_values)
    return {LinearForm._of({(first + o, l): c for (o, l), c in key}) for key, first in pairs}


def _form_at(site_map: Dict[Pair, int], s: int) -> LinearForm:
    """The form of a site map at s, as site_form gives it for the sites."""
    return site_form([(c, offset, l) for (offset, l), c in site_map.items()], s)


def check_step_identities(
    seq: AdaptedSequence,
    s_values: Sequence[int] = (1, 2),
    size_bound: int = 6,
    wall_halves: int = 8,
) -> VerificationReport:
    """Every legal toggle shifts the assigned form by exactly minus or plus beta.

    Walls are walked up to wall_halves halves, the other kinds up to
    size_bound steps.  A toggle counts once per s of s_values, and so does a
    failure; its witness states the forms at that s.  Each kind and charge is
    walked first, to a list of (object, site map, moves), each object read
    once by the walk; then every move is checked against its target's map.  A
    target past the bound is read once, by its module's sites, so each object
    is read once per call.

    Each toggle is checked once, in site coordinates, because the identity
    holds at every s or at none.  An object's form at s is site_form(sites,
    s): its sites merged to a map {(offset, color): coeff}, carried by
    (offset, color) -> (s + offset, color).  beta_{s+offset, color} is
    beta_sites(seq, color) with offset added to each site's offset, carried
    by the same map.  That map is one-to-one, so it sends sums of site maps
    to sums of forms and unequal maps to unequal forms.  So form(obj2, s) =
    form(obj, s) - coeff * beta_{s+offset, color} holds exactly when the site
    map of obj2 equals that of obj less coeff times the shifted beta sites,
    and that equation does not mention s.
    """
    if s_values and min(s_values) < 1:
        raise ValueError(f"occurrence index must be >= 1, got {min(s_values)}")
    betas = {l: beta_sites(seq, l) for l in seq.root_system.index_set}
    checked = failed = 0
    witnesses: List[str] = []
    for kind, k in generator_kinds(seq):
        walls = kind == "wall"
        bound = wall_halves if walls else size_bound
        walked = [
            (obj, _site_map(sites), moves)
            for obj, sites, moves in walk_objects(seq, kind, k, bound, walls, True)
        ]
        maps = {obj: before for obj, before, _ in walked}
        for obj, before, moves in walked:
            for obj2, coeff, offset, color in moves:
                checked += len(s_values)
                if obj2 not in maps:
                    maps[obj2] = _site_map(MODULES[kind].sites(seq, obj2))
                after = maps[obj2]
                shifted = (((offset + o, l), c) for c, o, l in betas[color])
                if after == _accumulate(dict(before), shifted, -coeff):
                    continue
                failed += len(s_values)
                for s in s_values[: MAX_WITNESSES - len(witnesses)]:
                    got = _form_at(after, s)
                    expected = _form_at(before, s) - coeff * beta_pair(seq, s + offset, color)
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
    depth compares two empty sets and is inconclusive."""
    seeds = [LinearForm.x(s, k)] if depth >= 0 else []
    closed, pruned = closure(seq, seeds, depth, index_bound)
    kind = charge_kind(seq, k)
    images = {site_form(sites, s) for _, sites, _ in walk_objects(seq, kind, k, depth)}
    extra = sorted(closed - images, key=LinearForm.sort_key)
    missing = sorted(images - closed, key=LinearForm.sort_key)
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
    seq: AdaptedSequence,
    max_weight: int = 4,
    size_bound: Optional[int] = None,
    s_bound: Optional[int] = None,
) -> VerificationReport:
    """Reachable elements and inequality solutions agree up to the weight bound.

    Forward: every reachable element satisfies every sampled inequality.
    Converse: every solution of the sampled system within the support window
    of the reachable set is itself reachable; a miss is inconclusive since it
    may only reflect the finite sample.

    The box is every nonnegative vector on the window with total at most
    max_weight; `candidates` counts it in closed form, C(max_weight + m, m)
    for a window of length m.  `window_solutions` lists the solutions in it
    without walking the whole box: it assigns the window position by position
    and holds every form's partial sum in one packed int, so a value step is
    one add and the forms that end at a position are tested with one mask.
    Each image element's tuple is filled from its entries through a window
    position dict.  Witnesses come in the lexicographic order of the box, and
    a forward witness names the first form, in sorted order, that the element
    violates.
    """
    if size_bound is None:
        size_bound = max_weight + 2
    if s_bound is None:
        s_bound = max_weight + 1
    image = enumerate_image(seq, max_weight)
    forms = sorted(
        generator_forms(seq, size_bound, range(1, s_bound + 1)), key=LinearForm.sort_key
    )
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
    solved = set(window_solutions(seq, forms, window, max_weight))
    forward = [t for t in reached if t not in solved]
    converse = [t for t in solved if t not in reached]
    witnesses: List[str] = []
    for t in sorted(forward + converse)[:MAX_WITNESSES]:
        if t in reached:
            a = reached[t]
            bad = next(f for f in forms if evaluate(seq, f, a) < 0)
            witnesses.append(f"reachable {a} violates {bad}")
        else:
            a = LatticeElement(zip(window, t))
            witnesses.append(f"unreachable {a} satisfies all {len(forms)} sampled forms")
    # A negative max_weight leaves the window empty, and the box then holds
    # the zero vector alone, as the search finds.
    m = len(window)
    return _report(
        "image-equality",
        seq,
        {"max_weight": max_weight, "size_bound": size_bound, "s_bound": s_bound},
        {
            "image_size": len(image),
            "forms": len(forms),
            "candidates": comb(max(max_weight, 0) + m, m),
            "forward_violations": len(forward),
            "converse_misses": len(converse),
        },
        witnesses,
        len(forward),
        len(forms),
        doubtful=bool(converse),
    )


def check_crystal_axioms(seq: AdaptedSequence, depth: int = 4) -> VerificationReport:
    """Kashiwara axioms and operator inverses on the reachable set.

    Each element's weight_coeffs are read once, and for each color i the
    check reads one sigma sweep (`_reach`, which epsilon, ftilde and etilde
    each read once per call) per element it needs, taking every operator
    value from it with the operators' own expressions:

    - sweep(a) gives epsilon_i(a), phi_i(a) (the weight pairing plus
      epsilon), b = ftilde_i(a) and e = etilde_i(a), the first raise;
    - sweep(b) gives etilde_i(b), epsilon_i(b) and phi_i(b);
    - sweep(e) gives ftilde_i(e) and etilde_i(e), the second raise.

    The raise chain starts from e, and only its third and later raises
    call etilde.
    """
    image = sorted(enumerate_image(seq, depth), key=LatticeElement.items)
    cartan = seq.root_system.cartan
    failures: List[str] = []
    checked = 0
    for a in image:
        ca = weight_coeffs(seq, a)
        for i in seq.root_system.index_set:
            checked += 1
            row = cartan[i - 1]
            eps, first, last = _reach(seq, a, i)
            ph = -sum(row[l - 1] * c for l, c in ca.items()) + eps
            b = a.bump(first, 1)
            eps_b, _, last_b = _reach(seq, b, i)
            if not eps_b or b.bump(last_b, -1) != a:
                failures.append(f"etilde_{i} ftilde_{i} != id at {a}")
            cb = weight_coeffs(seq, b)
            if eps_b != eps + 1 or -sum(row[l - 1] * c for l, c in cb.items()) + eps_b != ph - 1:
                failures.append(f"epsilon/phi do not step under ftilde_{i} at {a}")
            if any(cb[l] - ca[l] != (1 if l == i else 0) for l in ca):
                failures.append(f"weight does not drop by alpha_{i} under ftilde_{i} at {a}")
            e = e2 = None
            if eps:
                e = a.bump(last, -1)
                eps_e, first_e, last_e = _reach(seq, e, i)
                if e.bump(first_e, 1) != a:
                    failures.append(f"ftilde_{i} etilde_{i} != id at {a}")
                e2 = e.bump(last_e, -1) if eps_e else None
            x, raises = a, 0
            while raises <= eps + 1:
                x = e if raises == 0 else e2 if raises == 1 else etilde(seq, x, i)
                if x is None:
                    break
                raises += 1
            if raises != eps:
                failures.append(f"epsilon_{i}({a}) = {eps} but {raises} raises apply")
    return _report(
        "crystal-axioms",
        seq,
        {"depth": depth},
        {"elements": len(image), "pairs_checked": checked, "failures": len(failures)},
        failures,
        len(failures),
        checked,
    )


def check_positivity(seq: AdaptedSequence, depth: int = 6, s_max: int = 2) -> VerificationReport:
    """No closure form carries a negative coefficient at a first occurrence."""
    failures: List[str] = []
    total = 0
    for k in seq.root_system.index_set:
        for s in range(1, s_max + 1):
            closed, _ = closure(seq, [LinearForm.x(s, k)], depth)
            total += len(closed)
            ok, bad = check_xi_positivity(seq, closed)
            if not ok:
                for f, pair, c in bad:
                    failures.append(f"seed x[{s},{k}]: {f} has coefficient {c} at {pair}")
    return _report(
        "xi-positivity",
        seq,
        {"depth": depth, "s_max": s_max},
        {"forms_checked": total, "failures": len(failures)},
        failures,
        len(failures),
        total,
    )


def check_beta_agreement(seq: AdaptedSequence, max_index: int = 30) -> VerificationReport:
    """The single- and double-index beta constructions coincide."""
    failures: List[str] = []
    indices = range(1, max_index + 1)
    for j in indices:
        s, l = index_to_pair(seq, j)
        if beta_index(seq, j) != beta_pair(seq, s, l):
            failures.append(f"beta mismatch at j={j} (s={s}, l={l})")
    return _report(
        "beta-agreement",
        seq,
        {"max_index": max_index},
        {"indices_checked": len(indices), "failures": len(failures)},
        failures,
        len(failures),
        len(indices),
    )


def check_sigma_difference(
    seq: AdaptedSequence, samples: int = 100, depth: int = 6, seed: int = 7
) -> VerificationReport:
    """beta_j(a) = sigma_j(a) - sigma_{j+}(a) on random reachable elements."""
    rng = random.Random(seed)
    pool = sorted(enumerate_image(seq, depth), key=LatticeElement.items)
    failures: List[str] = []
    checked = 0
    for _ in range(samples):
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
        {"samples": samples},
        {"samples_checked": checked, "failures": len(failures)},
        failures,
        len(failures),
        checked,
    )
