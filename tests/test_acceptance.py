"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line."""

import time

import pytest

from polyreal import LinearForm, p_table
from polyreal.eyd import assign_a1, enumerate_eyd, make_eyd
from polyreal.reyd import assign as assign_reyd, make_reyd
from polyreal.young_wall import WallKind, assign_wall, make_wall
from polyreal.verify import (
    check_beta_agreement,
    check_closure_equality,
    check_crystal_axioms,
    check_image_equality,
    check_positivity,
    check_sigma_difference,
    check_step_identities,
)
from conftest import make_seq

x = LinearForm.x

STEP_GRID = [("A1", 2)] + [(fam, n) for fam in ("A1", "C1", "A2", "D2") for n in (3, 4)]
IMAGE_GRID = [("A1", 2), ("A1", 3), ("A2", 3), ("C1", 3), ("D2", 3)]


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def cyclic_p_values(seq):
    got = {}
    for k, ts in [(1, range(-1, 4)), (2, range(0, 5)), (3, range(1, 6))]:
        got[k] = [p_table(seq, "overline", k, t) for t in ts]
    return got


def cyclic_small_forms(k, s):
    table = {
        1: [
            x(s, 1),
            x(s + 1, 2) + x(s, 3) - x(s + 1, 1),
            x(s + 1, 3) + x(s, 3) - x(s + 2, 2),
            2 * x(s + 1, 2) - x(s + 1, 3),
            x(s + 1, 2) + x(s + 1, 1) - x(s + 2, 2),
            x(s + 1, 2) + x(s + 1, 3) - x(s + 2, 1),
        ],
        2: [
            x(s, 2),
            x(s, 1) + x(s, 3) - x(s + 1, 2),
            x(s, 1) + x(s + 1, 1) - x(s + 1, 3),
            2 * x(s, 3) - x(s + 1, 1),
            x(s, 3) + x(s + 1, 2) - x(s + 1, 3),
            x(s, 3) + x(s + 1, 1) - x(s + 2, 2),
        ],
        3: [
            x(s, 3),
            x(s + 1, 1) + x(s + 1, 2) - x(s + 1, 3),
            x(s + 2, 2) + x(s + 1, 2) - x(s + 2, 1),
            2 * x(s + 1, 1) - x(s + 2, 2),
            x(s + 1, 1) + x(s + 1, 3) - x(s + 2, 1),
            x(s + 1, 1) + x(s + 2, 2) - x(s + 2, 3),
        ],
    }
    return table[k]


def test_criterion_1_cyclic_rank3_golden(capsys, a1_n3):
    start = time.monotonic()
    failures = []
    want_p = {1: [1, 0, 0, 1, 1], 2: [0, 0, 0, 0, 1], 3: [1, 1, 0, 1, 2]}
    got_p = cyclic_p_values(a1_n3)
    if got_p != want_p:
        failures.append(f"P values {got_p} != {want_p}")
    checked = sum(len(v) for v in want_p.values())
    forms_checked = 0
    for k in (1, 2, 3):
        shapes = [
            make_eyd(k, []),
            make_eyd(k, [k - 1]),
            make_eyd(k, [k - 1, k - 1]),
            make_eyd(k, [k - 2]),
            make_eyd(k, [k - 2, k - 1]),
            make_eyd(k, [k - 2, k - 2]),
        ]
        for s in (1, 2):
            got = [assign_a1(a1_n3, T, s) for T in shapes]
            want = cyclic_small_forms(k, s)
            forms_checked += len(want)
            for T, g, w in zip(shapes, got, want):
                if g != w:
                    failures.append(f"k={k} s={s} ys={T.ys}: {g} != {w}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 1.0
    announce(
        capsys,
        1,
        ok,
        f"{checked} P values and {forms_checked} form instances exact in {elapsed:.2f}s",
    )
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_2_twisted_rank3_golden(capsys, a2_n3):
    start = time.monotonic()
    failures = []
    want_p = {
        ("pi_prime", 1): ([1, 2, 3, 4], [0, 1, 1, 2]),
        ("pi1", 2): ([0, 1, 2, 3, 4], [0, 0, 0, 0, 1]),
        ("pi1", 3): ([1, 2, 3, 4, 5], [1, 1, 0, 1, 1]),
    }
    checked = 0
    for (variant, k), (ts, want) in want_p.items():
        got = [p_table(a2_n3, variant, k, t) for t in ts]
        checked += len(ts)
        if got != want:
            failures.append(f"P^{k} ({variant}) {got} != {want}")
    reyd_goldens = [
        (2, 0, [2], lambda s: x(s, 2)),
        (2, -1, [1, 1, 2], lambda s: 2 * x(s, 1) + x(s, 3) - x(s + 1, 2)),
        (2, -2, [0, 0, 1, 2], lambda s: x(s, 1) + x(s, 3) - x(s + 1, 1)),
        (
            2,
            -2,
            [0, 0, 1, 1, 2],
            lambda s: x(s, 1) + 2 * x(s + 1, 2) - x(s + 1, 3) - x(s + 1, 1),
        ),
        (
            2,
            -1,
            [0, 0, 1, 2],
            lambda s: x(s + 1, 1) + x(s + 1, 2) + x(s, 1) - x(s + 2, 2),
        ),
        (2, -1, [-1, 0, 1, 2], lambda s: x(s, 1) + x(s + 1, 2) - x(s + 2, 1)),
        (3, 0, [3], lambda s: x(s, 3)),
        (3, -1, [2, 2, 3], lambda s: 2 * x(s + 1, 2) - x(s + 1, 3)),
        (3, -1, [2, 2, 2, 3], lambda s: 2 * x(s + 1, 1) + x(s + 1, 2) - x(s + 2, 2)),
    ]
    wall_goldens = [
        ([], lambda s: x(s, 1)),
        ([2], lambda s: x(s + 1, 2) - x(s + 1, 1)),
        ([4], lambda s: x(s + 1, 3) + x(s + 1, 1) - x(s + 2, 2)),
        ([4, 2], lambda s: x(s + 1, 3) - x(s + 2, 1)),
        ([6], lambda s: x(s + 2, 2) + x(s + 1, 1) - x(s + 2, 3)),
    ]
    kind = WallKind("A2wall", 3, 1)
    forms_checked = 0
    for s in (1, 2):
        for k, t_lo, ys, want in reyd_goldens:
            T = make_reyd("A2", 3, k, t_lo, ys)
            forms_checked += 1
            if assign_reyd(a2_n3, T, s) != want(s):
                failures.append(f"reyd k={k} ys={ys} s={s}")
        for halves, want in wall_goldens:
            forms_checked += 1
            if assign_wall(a2_n3, make_wall(kind, halves), s) != want(s):
                failures.append(f"wall halves={halves} s={s}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 1.0
    announce(
        capsys,
        2,
        ok,
        f"{checked} P values and {forms_checked} form instances exact in {elapsed:.2f}s"
        " (14 printed shapes)",
    )
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_3_step_identities(capsys):
    start = time.monotonic()
    failures = []
    toggles = 0
    for family, n in STEP_GRID:
        r = check_step_identities(make_seq(family, n), size_bound=6, wall_halves=8)
        toggles += r.counts["toggles_checked"]
        if not r.ok:
            failures.append(f"{family} n={n}: {r.witnesses[:2]}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    announce(
        capsys,
        3,
        ok,
        f"{toggles} toggles across {len(STEP_GRID)} configurations, zero failures"
        f" in {elapsed:.1f}s",
    )
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_4_closure_equality(capsys):
    start = time.monotonic()
    failures = []
    comparisons = 0
    for family, n in STEP_GRID:
        seq = make_seq(family, n)
        for k in seq.root_system.index_set:
            r = check_closure_equality(seq, k, depth=4, s=1, index_bound=seq.L * 6)
            comparisons += 1
            if not r.ok or r.counts["pruned"] or r.counts["symmetric_difference"]:
                failures.append(f"{family} n={n} k={k}: {r.counts} {r.witnesses[:2]}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    announce(
        capsys,
        4,
        ok,
        f"{comparisons} closure/image comparisons equal with zero pruning in {elapsed:.1f}s",
    )
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_5_image_equality(capsys):
    start = time.monotonic()
    failures = []
    counts = []
    for family, n in IMAGE_GRID:
        r = check_image_equality(make_seq(family, n), max_weight=4, size_bound=6)
        counts.append(r.counts["image_size"])
        if r.status != "pass":
            failures.append(f"{family} n={n}: {r.status} {r.witnesses[:2]}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300.0
    announce(
        capsys,
        5,
        ok,
        f"forward and converse exact on images {counts} in {elapsed:.1f}s",
    )
    assert not failures, failures
    assert elapsed < 300.0


def test_criterion_6_positivity(capsys):
    start = time.monotonic()
    failures = []
    forms = 0
    for family, n in IMAGE_GRID:
        r = check_positivity(make_seq(family, n), depth=6)
        forms += r.counts["forms_checked"]
        if not r.ok:
            failures.append(f"{family} n={n}: {r.witnesses[:2]}")
    elapsed = time.monotonic() - start
    ok = not failures
    announce(
        capsys,
        6,
        ok,
        f"{forms} closure forms clean at first occurrences in {elapsed:.1f}s",
    )
    assert not failures, failures


def test_criterion_7_property_suites(capsys):
    start = time.monotonic()
    failures = []
    for family, n in IMAGE_GRID:
        seq = make_seq(family, n)
        for r in (
            check_crystal_axioms(seq, depth=5),
            check_beta_agreement(seq),
            check_sigma_difference(seq),
        ):
            if not r.ok:
                failures.append(f"{family} n={n} {r.check}: {r.witnesses[:2]}")
    oracle = [1, 2, 4, 7, 12, 19, 30]
    for charge in (1, 2, 3):
        got = [len(enumerate_eyd(charge, b)) for b in range(7)]
        if got != oracle:
            failures.append(f"eyd counts charge {charge}: {got} != {oracle}")
    elapsed = time.monotonic() - start
    ok = not failures
    announce(
        capsys,
        7,
        ok,
        f"axioms, beta agreement, sigma identity, partition counts all hold"
        f" in {elapsed:.1f}s",
    )
    assert not failures, failures
