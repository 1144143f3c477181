"""Shared fixtures: standard sequences for the four families."""

from functools import partial
from itertools import permutations

import pytest

from polyreal import AlgebraType, RootDataError, build_adapted, build_root_system, forms, verify


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
    return [obj for obj, _, _ in verify.walk_objects(seq, kind, k, bound, halves=kind == "wall")]


def object_moves(seq, kind: str, obj) -> list:
    """One object's moves, (obj2, coeff, offset, color) per toggle, as the
    walk makes them: the walk of [obj] alone, listed and read, every point
    toggled."""
    module = verify.MODULES[kind]
    read = partial(module._read, seq)
    [(_, _, moves)] = forms.walk([obj], read, module._toggle, None, 0, every=True)
    return moves


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
