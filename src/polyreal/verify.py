"""Verification suites tying the combinatorial families to the closure machinery.

Each check returns a VerificationReport with a status of "pass", "fail", or
"inconclusive", witness strings for the first few failures, and counters.
A report passes only when something was examined and nothing failed.  A
sampling limit is inconclusive rather than a silent pass: the converse half
of the image check can only be sampled at finite generator bounds, and the
positivity check's closures may be pruned at their index bound.  The closure
check reports its own pruning as a failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .root_data import AdaptedSequence
from .lattice_crystal import (
    LatticeElement,
    enumerate_image,
    epsilon,
    etilde,
    ftilde,
    phi,
    sigma,
    weight_coeffs,
)
from .forms import (
    LinearForm,
    beta_index,
    beta_pair,
    check_xi_positivity,
    closure,
    evaluate,
    site_form,
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


def _note(witnesses: List[str], message: str) -> None:
    if len(witnesses) < MAX_WITNESSES:
        witnesses.append(message)


def _pruning_note(pruned: int, index_bound: Optional[int]) -> str:
    bound = "L*(depth+2)" if index_bound is None else index_bound
    return f"{pruned} forms pruned at index bound {bound}"


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
    when a sampling limit was hit or nothing was examined, else "pass"."""
    status = "fail" if failed else "inconclusive" if doubtful or examined == 0 else "pass"
    rs = seq.root_system
    params = {"family": rs.algebra.family, "n": rs.n, "word": list(seq.word), **params}
    return VerificationReport(check, params, status, counts, witnesses)


# The module of each generator kind, with its sites(seq, obj) and
# moves(seq, obj).  Held as modules so that a call finds a function rebound
# on its module, as the benchmark's tracer does.
MODULES = {"eyd": eyd_mod, "reyd": reyd_mod, "wall": wall_mod}

# The enumerator of each kind, called with a flavor, rank n, charge k and bound.
_ENUMERATE = {
    "eyd": lambda flavor, n, k, bound: eyd_mod.enumerate_eyd(k, bound),
    "reyd": lambda flavor, n, k, bound: reyd_mod.enumerate_reyd(flavor, n, k, bound),
    "wall": lambda flavor, n, k, bound: wall_mod.enumerate_walls(
        wall_mod.WallKind(flavor, n, k), bound
    ),
}


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


def enumerate_objects(seq: AdaptedSequence, kind: str, k: int, bound: int) -> list:
    """Objects of one kind and charge, up to a bound in the kind's own unit.

    The unit is a box for eyd, a unit for reyd and a half for walls, as in
    enumerate_eyd, enumerate_reyd and enumerate_walls.
    """
    rs = seq.root_system
    flavor, _ = family_generators(rs.algebra.family, rs.n)[kind]
    return _ENUMERATE[kind](flavor, rs.n, k, bound)


def generator_objects(seq: AdaptedSequence, kind: str, k: int, size_bound: int) -> list:
    """Generator objects of the given kind with at most size_bound toggle steps.

    A wall's step moves one block, which may span two halves.
    """
    if kind != "wall":
        return enumerate_objects(seq, kind, k, size_bound)
    walls = enumerate_objects(seq, kind, k, 2 * size_bound)
    return [Y for Y in walls if Y.block_count() <= size_bound]


def generator_forms(seq: AdaptedSequence, size_bound: int, s_values: Iterable[int]) -> set:
    """The sampled inequality system over all kinds, charges, and base offsets."""
    out = set()
    for kind, k in generator_kinds(seq):
        for obj in generator_objects(seq, kind, k, size_bound):
            sites = MODULES[kind].sites(seq, obj)
            out.update(site_form(sites, s) for s in s_values)
    return out


def check_step_identities(
    seq: AdaptedSequence,
    s_values: Sequence[int] = (1, 2),
    size_bound: int = 6,
    wall_halves: int = 8,
) -> VerificationReport:
    """Every legal toggle shifts the assigned form by exactly minus or plus beta.

    Walls are enumerated up to wall_halves halves, the other kinds up to
    size_bound steps.
    """
    checked = 0
    witnesses: List[str] = []
    for kind, k in generator_kinds(seq):
        module = MODULES[kind]
        for obj in enumerate_objects(seq, kind, k, wall_halves if kind == "wall" else size_bound):
            before = {s: site_form(module.sites(seq, obj), s) for s in s_values}
            for obj2, coeff, offset, color in module.moves(seq, obj):
                after = module.sites(seq, obj2)
                for s in s_values:
                    checked += 1
                    got = site_form(after, s)
                    expected = before[s] - coeff * beta_pair(seq, s + offset, color)
                    if got != expected:
                        _note(witnesses, f"{obj} -> {obj2} s={s}: got {got}, expected {expected}")

    return _report(
        "step-identities",
        seq,
        {"size_bound": size_bound},
        {"toggles_checked": checked, "failures": len(witnesses)},
        witnesses,
        len(witnesses),
        checked,
    )


def check_closure_equality(
    seq: AdaptedSequence,
    k: int,
    depth: int = 4,
    s: int = 1,
    index_bound: Optional[int] = None,
) -> VerificationReport:
    """Closure of {x_{s,k}} equals the assignment image of size-bounded generators."""
    seed = LinearForm.x(s, k)
    closed, pruned = closure(seq, [seed], depth, index_bound)
    kind = charge_kind(seq, k)
    images = {
        site_form(MODULES[kind].sites(seq, obj), s)
        for obj in generator_objects(seq, kind, k, depth)
    }
    extra = sorted(closed - images, key=LinearForm.sort_key)
    missing = sorted(images - closed, key=LinearForm.sort_key)
    witnesses = [f"closure-only: {f}" for f in extra[:MAX_WITNESSES]]
    for f in missing[: MAX_WITNESSES - len(witnesses)]:
        witnesses.append(f"image-only: {f}")
    if pruned:
        witnesses.insert(0, _pruning_note(pruned, index_bound))
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


def _candidates(window: Sequence[int], max_total: int) -> Iterable[LatticeElement]:
    """All nonnegative vectors supported on the window with total <= max_total."""

    def rec(pos: int, remaining: int, acc: List[Tuple[int, int]]):
        if pos == len(window):
            yield LatticeElement(list(acc))
            return
        for v in range(remaining + 1):
            if v:
                acc.append((window[pos], v))
            yield from rec(pos + 1, remaining - v, acc)
            if v:
                acc.pop()

    yield from rec(0, max_total, [])


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
    """
    if size_bound is None:
        size_bound = max_weight + 2
    if s_bound is None:
        s_bound = max_weight + 1
    image = enumerate_image(seq, max_weight)
    forms = sorted(
        generator_forms(seq, size_bound, range(1, s_bound + 1)), key=LinearForm.sort_key
    )
    witnesses: List[str] = []
    forward_bad = 0
    for a in sorted(image, key=LatticeElement.items):
        for f in forms:
            if evaluate(seq, f, a) < 0:
                forward_bad += 1
                _note(witnesses, f"reachable {a} violates {f}")
                break
    window = sorted({j for a in image for j in a.support()})
    converse_bad = 0
    tested = 0
    for a in _candidates(window, max_weight):
        tested += 1
        if a in image:
            continue
        if all(evaluate(seq, f, a) >= 0 for f in forms):
            converse_bad += 1
            _note(witnesses, f"unreachable {a} satisfies all {len(forms)} sampled forms")
    return _report(
        "image-equality",
        seq,
        {"max_weight": max_weight, "size_bound": size_bound, "s_bound": s_bound},
        {
            "image_size": len(image),
            "forms": len(forms),
            "candidates": tested,
            "forward_violations": forward_bad,
            "converse_misses": converse_bad,
        },
        witnesses,
        forward_bad,
        len(forms),
        doubtful=converse_bad > 0,
    )


def check_crystal_axioms(seq: AdaptedSequence, depth: int = 4) -> VerificationReport:
    """Kashiwara axioms and operator inverses on the reachable set."""
    image = sorted(enumerate_image(seq, depth), key=LatticeElement.items)
    witnesses: List[str] = []
    checked = 0
    for a in image:
        for i in seq.root_system.index_set:
            checked += 1
            eps = epsilon(seq, a, i)
            ph = phi(seq, a, i)
            b = ftilde(seq, a, i)
            if etilde(seq, b, i) != a:
                _note(witnesses, f"etilde_{i} ftilde_{i} != id at {a}")
            if epsilon(seq, b, i) != eps + 1 or phi(seq, b, i) != ph - 1:
                _note(witnesses, f"epsilon/phi do not step under ftilde_{i} at {a}")
            ca, cb = weight_coeffs(seq, a), weight_coeffs(seq, b)
            if any(cb[l] - ca[l] != (1 if l == i else 0) for l in ca):
                _note(witnesses, f"weight does not drop by alpha_{i} under ftilde_{i} at {a}")
            e = etilde(seq, a, i)
            if eps == 0:
                if e is not None:
                    _note(witnesses, f"etilde_{i} defined at epsilon 0 at {a}")
            else:
                if e is None or ftilde(seq, e, i) != a:
                    _note(witnesses, f"ftilde_{i} etilde_{i} != id at {a}")
            x, raises = a, 0
            while raises <= eps + 1:
                x2 = etilde(seq, x, i)
                if x2 is None:
                    break
                x, raises = x2, raises + 1
            if raises != eps:
                _note(witnesses, f"epsilon_{i}({a}) = {eps} but {raises} raises apply")
    return _report(
        "crystal-axioms",
        seq,
        {"depth": depth},
        {"elements": len(image), "pairs_checked": checked, "failures": len(witnesses)},
        witnesses,
        len(witnesses),
        checked,
    )


def check_positivity(
    seq: AdaptedSequence,
    depth: int = 6,
    s_max: int = 2,
    index_bound: Optional[int] = None,
) -> VerificationReport:
    """No closure form carries a negative coefficient at a first occurrence."""
    witnesses: List[str] = []
    total = pruned = 0
    for k in seq.root_system.index_set:
        for s in range(1, s_max + 1):
            closed, lost = closure(seq, [LinearForm.x(s, k)], depth, index_bound)
            total += len(closed)
            pruned += lost
            ok, bad = check_xi_positivity(seq, closed)
            if not ok:
                for f, pair, c in bad:
                    _note(witnesses, f"seed x[{s},{k}]: {f} has coefficient {c} at {pair}")
    failures = len(witnesses)
    if pruned:
        witnesses.insert(0, _pruning_note(pruned, index_bound))
    return _report(
        "xi-positivity",
        seq,
        {"depth": depth, "s_max": s_max},
        {"forms_checked": total, "failures": failures},
        witnesses,
        failures,
        total,
        doubtful=pruned > 0,
    )


def check_beta_agreement(seq: AdaptedSequence, max_index: int = 30) -> VerificationReport:
    """The single- and double-index beta constructions coincide."""
    witnesses: List[str] = []
    from .root_data import index_to_pair

    indices = range(1, max_index + 1)
    for j in indices:
        s, l = index_to_pair(seq, j)
        if beta_index(seq, j) != beta_pair(seq, s, l):
            _note(witnesses, f"beta mismatch at j={j} (s={s}, l={l})")
    return _report(
        "beta-agreement",
        seq,
        {"max_index": max_index},
        {"indices_checked": len(indices), "failures": len(witnesses)},
        witnesses,
        len(witnesses),
        len(indices),
    )


def check_sigma_difference(
    seq: AdaptedSequence, samples: int = 100, depth: int = 6, seed: int = 7
) -> VerificationReport:
    """beta_j(a) = sigma_j(a) - sigma_{j+}(a) on random reachable elements."""
    rng = random.Random(seed)
    pool = sorted(enumerate_image(seq, depth), key=LatticeElement.items)
    witnesses: List[str] = []
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
            _note(witnesses, f"sigma difference mismatch at j={j} on {a}")
    return _report(
        "sigma-difference",
        seq,
        {"samples": samples},
        {"samples_checked": checked, "failures": len(witnesses)},
        witnesses,
        len(witnesses),
        checked,
    )
