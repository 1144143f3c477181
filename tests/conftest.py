"""Shared fixtures: standard sequences for the four families."""

from functools import partial
from itertools import permutations
from math import comb

import pytest

from polyreal import (
    AlgebraType,
    LatticeElement,
    LinearForm,
    RootDataError,
    build_adapted,
    build_root_system,
    enumerate_image,
    evaluate,
    forms,
    verify,
)
from polyreal.root_data import AdaptedSequence, NotAdaptedError


def make_seq(family: str, n: int, word=None):
    if word is None:
        word = [1, 2] if n == 2 else [2, 1] + list(range(3, n + 1))
    return build_adapted(build_root_system(AlgebraType(family, n)), word)


def permutation_seqs(family: str, n: int):
    """The sequences of every permutation word of 1..n; each is adapted."""
    return [make_seq(family, n, list(w)) for w in permutations(range(1, n + 1))]


def enumerate_objects(seq, kind: str, k: int, bound: int) -> list:
    """The walk's objects of one kind and charge, up to a bound in the kind's
    own unit: a box for eyd, a unit for reyd and a half for walls."""
    return [obj for obj, _, _ in verify.generator_objects(seq, kind, k, bound, kind == "wall")]


def object_moves(seq, kind: str, obj) -> list:
    """One object's moves, (obj2, coeff, offset, color) per toggle, as the
    walk makes them: the walk of [obj] alone, listed and read, every point
    toggled."""
    module = verify.MODULES[kind]
    read = partial(module._read, seq)
    [(_, _, moves)] = forms.walk([obj], read, module._toggle, None, 0, every=True)
    return moves


def shift_one_neighbour(monkeypatch, seq):
    """Raise by 1 the offset of the first neighbour site of beta at color 1,
    in the table that beta_sites, beta_pair and s_prime read."""
    sites = list(forms.beta_sites(seq, 1))
    i = next(i for i, (_, _, j) in enumerate(sites) if j != 1)
    c, offset, j = sites[i]
    sites[i] = (c, offset + 1, j)
    monkeypatch.setitem(seq._beta, 1, tuple(sites))


def reference_image_report(seq, max_weight: int, size_bound: int, forms_of=None):
    """The image check over the sampled forms as term tuples: the set that
    forms_of(seq, size_bound, s_values) gives (verify.generator_forms by
    default), solved by forms.window_solutions, each forward witness naming
    the first violated form in sorted order, the report made by
    verify._report."""
    forms_of = forms_of or verify.generator_forms
    s_bound = max_weight + 1
    image = enumerate_image(seq, max_weight)
    sampled = forms_of(seq, size_bound, range(1, s_bound + 1))
    window = sorted({j for a in image for j in a.support()})
    reached = {tuple(a.get(j) for j in window): a for a in image}
    solved = set(forms.window_solutions(seq, sampled, window, max_weight))
    forward = [t for t in reached if t not in solved]
    converse = [t for t in solved if t not in reached]
    ordered = sorted((LinearForm(t) for t in sampled), key=LinearForm.sort_key)
    witnesses = []
    for t in sorted(forward + converse)[: verify.MAX_WITNESSES]:
        if t in reached:
            bad = next(f for f in ordered if evaluate(seq, f, reached[t]) < 0)
            witnesses.append(f"reachable {reached[t]} violates {bad}")
        else:
            a = LatticeElement(zip(window, t))
            witnesses.append(f"unreachable {a} satisfies all {len(sampled)} sampled forms")
    counts = {
        "image_size": len(image),
        "forms": len(sampled),
        "candidates": comb(max(max_weight, 0) + len(window), len(window)),
        "forward_violations": len(forward),
        "converse_misses": len(converse),
    }
    params = {"max_weight": max_weight, "size_bound": size_bound, "s_bound": s_bound}
    return verify._report(
        "image-equality", seq, params, counts, witnesses, len(forward), len(sampled), bool(converse)
    )


def reference_partitions(m: int, largest: int):
    """The partitions of m with parts at most largest, in reverse
    lexicographic order, by recursion on the first part: the listing that
    eyd._partitions replaced."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in reference_partitions(m - first, first):
            yield (first,) + rest


class UncheckedAlternation(AdaptedSequence):
    """A sequence built with every test of the word but the alternation one,
    the last test _validate makes and the only one that raises NotAdaptedError."""

    def _validate(self):
        try:
            super()._validate()
        except NotAdaptedError:
            pass


# Words that fail only the alternation test: negative controls, which every
# verification of the realization must fail.
NOT_ADAPTED = [
    ("A1", 3, (1, 2, 1, 3, 2, 3)),
    ("A1", 3, (1, 2, 3, 2, 1, 3)),
    ("D2", 3, (2, 1, 2, 3, 1, 3)),
    ("A1", 4, (1, 2, 3, 4, 2, 1, 4, 3)),
]


def adapted_words(family: str, n: int, length: int):
    """The adapted words of a length that are not a shorter word repeated,
    in lexicographic order."""
    system = build_root_system(AlgebraType(family, n))
    words = [()]
    for _ in range(length):
        words = [w + (c,) for w in words for c in range(1, n + 1) if not w or c != w[-1]]
    found = []
    for w in words:
        if any(w == w[:p] * (length // p) for p in range(1, length) if length % p == 0):
            continue
        try:
            build_adapted(system, w)
        except RootDataError:
            continue
        found.append(w)
    return found


@pytest.fixture
def a1_n2():
    return make_seq("A1", 2)


@pytest.fixture
def a1_n3():
    return make_seq("A1", 3)


@pytest.fixture
def a2_n3():
    return make_seq("A2", 3)


@pytest.fixture
def c1_n3():
    return make_seq("C1", 3)


@pytest.fixture
def d2_n3():
    return make_seq("D2", 3)
