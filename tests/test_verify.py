"""Verification harness: reports, dispatch, and the checks on small bounds."""

import functools
import itertools

import pytest

from polyreal import (
    LatticeElement, LinearForm, enumerate_image, evaluate, forms, lattice_crystal, verify
)
from polyreal.root_data import (
    AdaptedSequence, AlgebraType, NotAdaptedError, build_adapted, build_root_system, pair_to_index
)
from polyreal.forms import beta_pair, site_form, site_move, window_solutions
from polyreal.lattice_crystal import epsilon, etilde, ftilde, phi, weight_coeffs
from polyreal.verify import (
    VerificationReport,
    check_beta_agreement,
    check_closure_equality,
    check_crystal_axioms,
    check_image_equality,
    check_positivity,
    check_sigma_difference,
    check_step_identities,
    generator_forms,
    generator_kinds,
    generator_objects,
)
from conftest import adapted_words, enumerate_objects, make_seq, object_moves, permutation_seqs

x = LinearForm.x


class TestReport:
    def test_ok_property(self):
        assert VerificationReport("c", {}, "pass").ok
        assert not VerificationReport("c", {}, "fail").ok
        assert not VerificationReport("c", {}, "inconclusive").ok

    def test_json_keys(self):
        r = VerificationReport("c", {"n": 3}, "pass", {"k": 1}, ["w"])
        assert r.to_json() == {
            "check": "c",
            "params": {"n": 3},
            "status": "pass",
            "counts": {"k": 1},
            "witnesses": ["w"],
        }

    def test_summary(self):
        r = VerificationReport("closure-equality", {}, "pass", {"b": 2, "a": 1})
        assert r.summary() == "closure-equality: pass (a=1 b=2)"

    @pytest.mark.parametrize(
        "check",
        [
            lambda seq: check_beta_agreement(seq, max_index=0),
            lambda seq: check_sigma_difference(seq, samples=0),
            # walls have a bound of their own, so both bounds are negative
            lambda seq: check_step_identities(seq, size_bound=-1, wall_halves=-1),
            lambda seq: check_image_equality(seq, max_weight=-1),
            lambda seq: check_image_equality(seq, max_weight=1, size_bound=-1),
            lambda seq: check_closure_equality(seq, 2, depth=-1),
        ],
        ids=["beta", "sigma", "steps", "image", "image-no-objects", "closure"],
    )
    def test_zero_work_is_inconclusive(self, check):
        # a negative bound gives no objects, whatever the generator kind
        for family in ("A1", "C1", "A2", "D2"):
            r = check(make_seq(family, 3))
            assert r.status == "inconclusive", family
            assert r.counts.get("failures", 0) == 0 and r.witnesses == []
            assert {key: r.params[key] for key in ("family", "n", "word")} == {
                "family": family,
                "n": 3,
                "word": [2, 1, 3],
            }


class TestDispatch:
    def test_kinds_by_family(self):
        assert generator_kinds(make_seq("A1", 3)) == [("eyd", 1), ("eyd", 2), ("eyd", 3)]
        assert generator_kinds(make_seq("D2", 3)) == [("eyd", 1), ("eyd", 2), ("eyd", 3)]
        assert generator_kinds(make_seq("A2", 3)) == [("wall", 1), ("reyd", 2), ("reyd", 3)]
        assert generator_kinds(make_seq("C1", 3)) == [("wall", 1), ("wall", 3), ("reyd", 2)]

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_negative_bound_gives_no_objects(self, family):
        seq = make_seq(family, 3)
        for kind, k in generator_kinds(seq):
            assert enumerate_objects(seq, kind, k, -1) == []
            assert enumerate_objects(seq, kind, k, 0) != []

    def test_kinds_rank4(self):
        assert generator_kinds(make_seq("C1", 4, [2, 1, 3, 4])) == [
            ("wall", 1),
            ("wall", 4),
            ("reyd", 2),
            ("reyd", 3),
        ]

    def test_objects_respect_bounds(self, a2_n3):
        for kind, k in generator_kinds(a2_n3):
            for obj in generator_objects(a2_n3, kind, k, 3):
                if kind == "wall":
                    assert obj.block_count() <= 3
                elif kind == "reyd":
                    assert obj.units() <= 3
                else:
                    assert obj.boxes() <= 3

    def test_forms_pool_contains_seeds(self, c1_n3):
        forms = generator_forms(c1_n3, 2, [1, 2])
        for k in (1, 2, 3):
            assert x(1, k) in forms and x(2, k) in forms


STANDARD = [("A1", 2), ("A1", 3), ("A2", 3), ("C1", 3), ("D2", 3)]


def _shift_removes(monkeypatch):
    """Patch forms.site_move, which makes every generator move record for
    forms.walk, so that a remove's beta sits one occurrence higher; that
    breaks every remove toggle's identity."""

    def shifted(obj2, coeff, site, f=site_move):
        obj2, coeff, offset, color = f(obj2, coeff, site)
        return obj2, coeff, offset + (coeff < 0), color

    monkeypatch.setattr(forms, "site_move", shifted)


def _reference_step_check(seq, s_values, size_bound, wall_halves):
    """The step check as a form-level loop: every form built at every s."""
    checked, failures = 0, []
    for kind, k in generator_kinds(seq):
        module = verify.MODULES[kind]
        bound = wall_halves if kind == "wall" else size_bound
        for obj in enumerate_objects(seq, kind, k, bound):
            sites = module.sites(seq, obj)
            before = {s: site_form(sites, s) for s in s_values}
            for obj2, coeff, offset, color in object_moves(seq, kind, obj):
                after = module.sites(seq, obj2)
                for s in s_values:
                    checked += 1
                    got = site_form(after, s)
                    expected = before[s] - coeff * beta_pair(seq, s + offset, color)
                    if got != expected:
                        failures.append(f"{obj} -> {obj2} s={s}: got {got}, expected {expected}")
    counts = {"toggles_checked": checked, "failures": len(failures)}
    params = {"size_bound": size_bound}
    return verify._report("step-identities", seq, params, counts, failures, len(failures), checked)


class TestStepIdentities:
    @pytest.mark.parametrize("family,n", STANDARD)
    def test_pass_on_small_bounds(self, family, n):
        r = check_step_identities(make_seq(family, n), size_bound=3, wall_halves=4)
        assert r.ok, r.witnesses
        assert r.counts["failures"] == 0 and r.counts["toggles_checked"] > 0

    @pytest.mark.parametrize("mutated", [False, True], ids=["moves", "shifted-removes"])
    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_matches_form_level_reference(self, family, mutated, monkeypatch):
        # checking once in site coordinates gives the report of checking every form
        if mutated:
            _shift_removes(monkeypatch)
        for word in itertools.permutations((1, 2, 3)):
            seq = make_seq(family, 3, list(word))
            got = check_step_identities(seq, s_values=(1, 2, 3), size_bound=4, wall_halves=6)
            want = _reference_step_check(seq, (1, 2, 3), 4, 6)
            assert got.to_json() == want.to_json(), word
            assert (got.status, got.counts["failures"] > 0) == (
                ("fail", True) if mutated else ("pass", False)
            )

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    @pytest.mark.parametrize("s_values", [(0,), (-1,), (2, 0)])
    def test_occurrence_below_one_rejected(self, family, s_values):
        with pytest.raises(ValueError) as info:
            check_step_identities(make_seq(family, 3), s_values=s_values)
        assert str(info.value) == f"occurrence index must be >= 1, got {min(s_values)}"


class TestFailureCounts:
    """A check counts every failure, and its report keeps the first
    MAX_WITNESSES of them as witnesses."""

    def test_every_beta_failure_counted(self, monkeypatch):
        seq = make_seq("A1", 3)
        beta_index = verify.beta_index
        monkeypatch.setattr(verify, "beta_index", lambda seq, j: beta_index(seq, j) + x(1, 1))
        r = check_beta_agreement(seq, max_index=30)
        assert r.status == "fail" and r.counts["failures"] == 30
        assert len(r.witnesses) == verify.MAX_WITNESSES
        assert r.witnesses[0].startswith("beta mismatch at j=1 ")

    @pytest.mark.parametrize("bound", [4, 6, 8])
    def test_pruned_closure_keeps_ten_witnesses(self, bound):
        seq = make_seq("A1", 4, [2, 1, 3, 4])
        r = check_closure_equality(seq, 1, depth=6, index_bound=bound)
        assert r.status == "fail" and r.counts["pruned"] > 0
        assert len(r.witnesses) == verify.MAX_WITNESSES
        assert r.witnesses[0] == f"{r.counts['pruned']} forms pruned at index bound {bound}"

    def test_every_step_failure_counted(self, monkeypatch):
        # a bad toggle fails at every s, and each failure is counted
        seq = make_seq("A1", 3)
        _shift_removes(monkeypatch)
        removes = sum(
            coeff < 0
            for kind, k in generator_kinds(seq)
            for obj in enumerate_objects(seq, kind, k, 3)
            for _, coeff, _, _ in object_moves(seq, kind, obj)
        )
        r = check_step_identities(seq, s_values=(1, 2, 3), size_bound=3)
        assert removes > 0 and r.status == "fail"
        assert r.counts["failures"] == 3 * removes
        assert len(r.witnesses) == verify.MAX_WITNESSES
        assert r.witnesses[0] == (
            "ExtendedYoungDiagram(charge=1, ys=(0,)) -> ExtendedYoungDiagram(charge=1, ys=()) "
            "s=1: got x[1,1], expected x[1,3] + x[2,2] - x[2,3] + x[3,1] - x[3,2]"
        )

    def test_step_check_reads_each_object_once(self, monkeypatch):
        # every enumerated object and every move target is read exactly once
        seq = make_seq("A2", 3)
        objects = set()
        for kind, k in generator_kinds(seq):
            for obj in enumerate_objects(seq, kind, k, 6 if kind == "wall" else 3):
                objects.add(obj)
                objects.update(move[0] for move in object_moves(seq, kind, obj))
        calls = []
        for module in verify.MODULES.values():
            monkeypatch.setattr(
                module, "_read", lambda seq, obj, f=module._read: calls.append(obj) or f(seq, obj)
            )
        r = check_step_identities(seq, s_values=(1, 2, 3), size_bound=3, wall_halves=6)
        assert r.ok, r.witnesses
        assert len(calls) == len(set(calls))
        assert set(calls) == objects


class TestWriteSideCounts:
    """The step and closure counts on word 2,1,3,4 at n=4, pinned so that a
    faster generator or form kernel cannot change the work it checks."""

    TOGGLES = {"A1": 568, "C1": 552, "A2": 514, "D2": 568}
    SIZES = {
        "A1": (26, 26, 26, 26),
        "C1": (14, 30, 30, 14),
        "A2": (14, 29, 26, 18),
        "D2": (18, 25, 25, 18),
    }

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_counts(self, family):
        seq = make_seq(family, 4, [2, 1, 3, 4])
        r = check_step_identities(seq, size_bound=5, wall_halves=10)
        assert r.ok, r.witnesses
        assert r.counts == {"toggles_checked": self.TOGGLES[family], "failures": 0}
        for k, size in zip((1, 2, 3, 4), self.SIZES[family]):
            r = check_closure_equality(seq, k, depth=6)
            assert r.ok, (k, r.witnesses)
            assert (r.counts["closure_size"], r.counts["image_size"]) == (size, size)


class TestClosureEquality:
    @pytest.mark.parametrize("family,n", STANDARD)
    def test_pass_at_depth_three(self, family, n):
        seq = make_seq(family, n)
        for k in seq.root_system.index_set:
            r = check_closure_equality(seq, k, depth=3)
            assert r.ok, (family, k, r.witnesses)
            assert r.counts["symmetric_difference"] == 0

    def test_depth_zero_is_seed_only(self, a2_n3):
        for k in (1, 2, 3):
            r = check_closure_equality(a2_n3, k, depth=0)
            assert r.ok
            assert r.counts == {
                "closure_size": 1,
                "image_size": 1,
                "pruned": 0,
                "symmetric_difference": 0,
            }

    def test_uncapped_deep_closure_passes(self):
        # the closure runs without a cap; a cap of L*6 would prune two forms
        # here
        seq = make_seq("C1", 4, [2, 1, 3, 4])
        r = check_closure_equality(seq, 4, depth=12)
        assert r.ok, r.witnesses
        assert r.counts["pruned"] == 0 and r.counts["symmetric_difference"] == 0

    @pytest.mark.parametrize("s", range(1, 12))
    def test_default_index_bound_follows_s(self, a1_n3, s):
        # the closure's default is no cap, so no seed x[s,1] is pruned at
        # any s; a cap of L*(depth+2) counted from position 1 would prune
        # every s >= 5 here
        r = check_closure_equality(a1_n3, 1, depth=8, s=s)
        assert r.ok, r.witnesses
        assert r.counts["pruned"] == 0

    def test_tiny_index_bound_reported(self, a1_n3):
        r = check_closure_equality(a1_n3, 1, depth=4, index_bound=4)
        assert not r.ok
        assert r.counts["pruned"] > 0
        assert "pruned" in r.witnesses[0]


def reference_image_check(seq, max_weight, size_bound, s_bound):
    """The image check by brute force: every sampled form on every vector of
    the weight box, the box walked in lexicographic order of window values."""
    image = enumerate_image(seq, max_weight)
    forms = sorted(
        verify.generator_forms(seq, size_bound, range(1, s_bound + 1)), key=LinearForm.sort_key
    )
    window = sorted({j for a in image for j in a.support()})

    def box(pos, remaining):
        if pos == len(window):
            yield ()
            return
        for v in range(remaining + 1):
            for rest in box(pos + 1, remaining - v):
                yield (v,) + rest

    witnesses = []
    forward = converse = tested = 0
    for values in box(0, max_weight):
        a = LatticeElement(zip(window, values))
        tested += 1
        bad = next((f for f in forms if evaluate(seq, f, a) < 0), None)
        if a in image and bad is not None:
            forward += 1
            witnesses.append(f"reachable {a} violates {bad}")
        elif a not in image and bad is None:
            converse += 1
            witnesses.append(f"unreachable {a} satisfies all {len(forms)} sampled forms")
    counts = {
        "image_size": len(image),
        "forms": len(forms),
        "candidates": tested,
        "forward_violations": forward,
        "converse_misses": converse,
    }
    status = "fail" if forward else "inconclusive" if converse or not forms else "pass"
    return counts, status, witnesses[: verify.MAX_WITNESSES]


IMAGE_CASES = [
    (family, 3, w, None, None, ()) for family in ("A1", "C1", "A2", "D2") for w in range(4)
]
IMAGE_CASES += [
    ("A1", 2, 5, None, None, ()),
    # converse misses only
    ("A1", 3, 3, 0, 1, ()),
    ("C1", 3, 2, 0, 1, ()),
    # forward violations only
    ("A1", 2, 3, None, None, ((1, 1),)),
    ("D2", 3, 2, None, None, ((1, 1),)),
    # both kinds (12 forward, 37 converse)
    ("A2", 3, 3, 0, 1, ((1, 2),)),
    # both kinds among the first witnesses: 7 converse, then 3 forward
    ("A1", 2, 4, 1, 1, ((2, 1),)),
    # an empty window still holds one candidate
    ("A1", 3, -1, None, None, ()),
]


class TestImageEquality:
    @pytest.mark.parametrize("family,n,w,size_bound,s_bound,negated", IMAGE_CASES)
    def test_matches_reference(self, family, n, w, size_bound, s_bound, negated, monkeypatch):
        forms = verify.generator_forms
        extra = {-x(s, l) for s, l in negated}
        monkeypatch.setattr(verify, "generator_forms", lambda *args: forms(*args) | extra)
        seq = make_seq(family, n)
        size_bound = w + 2 if size_bound is None else size_bound
        s_bound = w + 1 if s_bound is None else s_bound
        r = check_image_equality(seq, max_weight=w, size_bound=size_bound, s_bound=s_bound)
        assert (r.counts, r.status, r.witnesses) == reference_image_check(
            seq, w, size_bound, s_bound
        )

    def test_weight_six(self, a1_n3):
        r = check_image_equality(a1_n3, max_weight=6)
        assert r.ok, r.witnesses
        assert r.counts == {
            "image_size": 379,
            "forms": 924,
            "candidates": 27132,
            "forward_violations": 0,
            "converse_misses": 0,
        }

    @pytest.mark.parametrize("family,n", STANDARD)
    def test_pass_at_weight_two(self, family, n):
        r = check_image_equality(make_seq(family, n), max_weight=2)
        assert r.ok, r.witnesses
        assert r.counts["forward_violations"] == 0
        assert r.counts["converse_misses"] == 0

    def test_forward_violation_fails(self, a1_n2, monkeypatch):
        # a sampled form that the reachable elements with a_1 > 0 violate
        forms = verify.generator_forms
        monkeypatch.setattr(
            verify, "generator_forms", lambda *args: forms(*args) | {-x(1, 1)}
        )
        r = check_image_equality(a1_n2, max_weight=2)
        assert r.status == "fail"
        assert r.counts["forward_violations"] == 3
        assert r.witnesses[0] == "reachable LatticeElement({1: 1}) violates -x[1,1]"

    def test_weight_eight(self, a1_n3):
        r = check_image_equality(a1_n3, max_weight=8)
        assert r.ok, r.witnesses
        assert r.counts == {
            "image_size": 1447,
            "forms": 2214,
            "candidates": 1081575,
            "forward_violations": 0,
            "converse_misses": 0,
        }

    def test_weight_zero(self, a1_n2):
        r = check_image_equality(a1_n2, max_weight=0)
        assert r.ok
        assert r.counts["image_size"] == 1 and r.counts["candidates"] == 1

    def test_empty_sample_is_inconclusive(self, a1_n2):
        r = check_image_equality(a1_n2, max_weight=2, size_bound=0, s_bound=1)
        assert r.status == "inconclusive"
        assert r.counts["converse_misses"] > 0
        assert any("satisfies all" in w for w in r.witnesses)

    def test_image_size_matches_enumeration(self, a1_n2):
        r = check_image_equality(a1_n2, max_weight=3)
        assert r.counts["image_size"] == len(enumerate_image(a1_n2, 3))


def reference_generator_forms(seq, size_bound, s_values):
    """The sampled system built as before deduplication: one site_form per
    (object, s), with s_values read inside the loop over objects."""
    out = set()
    for kind, k in generator_kinds(seq):
        for obj in verify.generator_objects(seq, kind, k, size_bound):
            sites = verify.MODULES[kind].sites(seq, obj)
            out.update(site_form(sites, s) for s in s_values)
    return out


def reference_window_solutions(seq, forms, window, max_total):
    """The window search with one accumulator per form in a Python list, as
    it was before the packed fields."""
    place = {j: p for p, j in enumerate(window)}
    compiled = set()
    for f in forms:
        terms = sorted(
            (place[j], c) for (s, l), c in f.items() if (j := pair_to_index(seq, s, l)) in place
        )
        if any(c < 0 for _, c in terms):
            compiled.add(tuple(terms))
    ending = [[] for _ in window]
    touching = [[] for _ in window]
    for k, (*before, (last, c)) in enumerate(compiled):
        ending[last].append((k, c))
        for p, d in before:
            touching[p].append((k, d))
    acc = [0] * len(compiled)
    values = [0] * len(window)
    found = []

    def walk(p, remaining):
        if p == len(values):
            found.append(tuple(values))
            return
        lo, hi = 0, remaining
        for k, c in ending[p]:
            if c > 0:
                least = -(acc[k] // c)
                if least > lo:
                    lo = least
            else:
                most = acc[k] // -c
                if most < hi:
                    hi = most
        steps = touching[p]
        held = 0  # the value at p that the accumulators include
        for v in range(lo, hi + 1):
            if v != held:
                for k, c in steps:
                    acc[k] += (v - held) * c
                held = v
            values[p] = v
            walk(p + 1, remaining - v)
        if held:
            for k, c in steps:
                acc[k] -= held * c

    walk(0, max_total)
    return found


class TestImageReadSide:
    @pytest.mark.parametrize("n,w", [(3, 5), (4, 4)])
    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_equal_to_the_references(self, family, n, w, monkeypatch):
        # both sides list the same objects, so list them once
        objects = functools.lru_cache(maxsize=None)(verify.generator_objects)
        monkeypatch.setattr(verify, "generator_objects", objects)
        # the image check's inputs at max_weight w, on every permutation word
        for seq in permutation_seqs(family, n):
            forms = generator_forms(seq, w + 2, range(1, w + 2))
            assert forms == reference_generator_forms(seq, w + 2, range(1, w + 2)), seq
            window = sorted({j for a in enumerate_image(seq, w) for j in a.support()})
            assert window_solutions(seq, forms, window, w) == reference_window_solutions(
                seq, forms, window, w
            ), seq

    def test_one_shot_s_values(self):
        seq = make_seq("A1", 3, [2, 1, 3])
        once = generator_forms(seq, 4, iter([1, 2, 3]))
        assert len(once) == 90
        assert once == generator_forms(seq, 4, [1, 2, 3]) == generator_forms(seq, 4, range(1, 4))
        assert once == reference_generator_forms(seq, 4, [1, 2, 3])

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_empty_inputs(self, family):
        seq = make_seq(family, 3)
        assert generator_forms(seq, 4, []) == reference_generator_forms(seq, 4, []) == set()
        assert generator_forms(seq, -1, [1, 2]) == reference_generator_forms(seq, -1, [1, 2])
        assert generator_forms(seq, -1, [1, 2]) == set()

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    @pytest.mark.parametrize("s_values", [[0], [2, 0, 1], [0, -1], [3, -1, 0]])
    def test_occurrence_error_as_the_reference(self, family, s_values):
        seq = make_seq(family, 3)
        with pytest.raises(ValueError) as want:
            reference_generator_forms(seq, 3, s_values)
        with pytest.raises(ValueError, match="occurrence index must be >= 1") as got:
            generator_forms(seq, 3, s_values)
        assert str(got.value) == str(want.value)


# Mutations of the sigma sweep, each as (epsilon, first, last) -> the
# mutated triple; the position moves keep every position >= 1.
_SWEEP_MUTATIONS = {
    "etilde-up": lambda seq, r: (r[0], r[1], r[2] + seq.L),
    "ftilde-up": lambda seq, r: (r[0], r[1] + seq.L, r[2]),
    "epsilon-plus-one": lambda seq, r: (r[0] + 1, r[1], r[2]),
}


def _mutate_sweep(monkeypatch, name):
    """Patch `_reach` wherever the operators and the axioms check read it."""
    reach, mutate = lattice_crystal._reach, _SWEEP_MUTATIONS[name]

    def mutated(seq, a, i):
        return mutate(seq, reach(seq, a, i))

    monkeypatch.setattr(lattice_crystal, "_reach", mutated)
    monkeypatch.setattr(verify, "_reach", mutated)


def _reference_axioms_check(seq, depth):
    """The axioms check as an operator-level loop: every value from its own call."""
    image = sorted(enumerate_image(seq, depth), key=LatticeElement.items)
    failures, checked = [], 0
    for a in image:
        for i in seq.root_system.index_set:
            checked += 1
            eps, ph, b = epsilon(seq, a, i), phi(seq, a, i), ftilde(seq, a, i)
            if etilde(seq, b, i) != a:
                failures.append(f"etilde_{i} ftilde_{i} != id at {a}")
            if epsilon(seq, b, i) != eps + 1 or phi(seq, b, i) != ph - 1:
                failures.append(f"epsilon/phi do not step under ftilde_{i} at {a}")
            ca, cb = weight_coeffs(seq, a), weight_coeffs(seq, b)
            if any(cb[l] - ca[l] != (1 if l == i else 0) for l in ca):
                failures.append(f"weight does not drop by alpha_{i} under ftilde_{i} at {a}")
            e = etilde(seq, a, i)
            if eps == 0:
                if e is not None:
                    failures.append(f"etilde_{i} defined at epsilon 0 at {a}")
            elif e is None or ftilde(seq, e, i) != a:
                failures.append(f"ftilde_{i} etilde_{i} != id at {a}")
            x, raises = a, 0
            while raises <= eps + 1:
                x2 = etilde(seq, x, i)
                if x2 is None:
                    break
                x, raises = x2, raises + 1
            if raises != eps:
                failures.append(f"epsilon_{i}({a}) = {eps} but {raises} raises apply")
    counts = {"elements": len(image), "pairs_checked": checked, "failures": len(failures)}
    return verify._report(
        "crystal-axioms", seq, {"depth": depth}, counts, failures, len(failures), checked
    )


class TestCrystalAxioms:
    @pytest.mark.parametrize("family,n", STANDARD)
    def test_pass_at_depth_three(self, family, n):
        seq = make_seq(family, n)
        r = check_crystal_axioms(seq, depth=3)
        assert r.ok, r.witnesses
        assert r.counts["elements"] == len(enumerate_image(seq, 3))
        assert r.counts["pairs_checked"] == r.counts["elements"] * n

    @pytest.mark.parametrize("mutation", [None, *_SWEEP_MUTATIONS])
    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_matches_operator_level_reference(self, family, mutation, monkeypatch):
        # reading each sweep once gives the report of calling every operator
        if mutation:
            _mutate_sweep(monkeypatch, mutation)
        for word in itertools.permutations((1, 2, 3)):
            seq = make_seq(family, 3, list(word))
            got = check_crystal_axioms(seq, depth=4)
            assert got.to_json() == _reference_axioms_check(seq, 4).to_json(), word
            assert got.status == ("fail" if mutation else "pass")

    def test_mutated_sweep_fails(self, monkeypatch):
        # raising at the wrong position breaks both inverse laws
        _mutate_sweep(monkeypatch, "etilde-up")
        r = check_crystal_axioms(make_seq("A1", 3), depth=3)
        assert r.status == "fail" and r.counts["failures"] == 153
        assert len(r.witnesses) == verify.MAX_WITNESSES
        assert r.witnesses[0] == "etilde_1 ftilde_1 != id at LatticeElement(0)"


class TestPositivity:
    @pytest.mark.parametrize("family,n", STANDARD)
    def test_pass_at_depth_three(self, family, n):
        r = check_positivity(make_seq(family, n), depth=3, s_max=2)
        assert r.ok, r.witnesses
        assert r.counts["forms_checked"] > 0


class TestBetaAgreement:
    @pytest.mark.parametrize("family,n", STANDARD)
    def test_pass(self, family, n):
        r = check_beta_agreement(make_seq(family, n), max_index=12)
        assert r.ok
        assert r.counts["indices_checked"] == 12


class TestSigmaDifference:
    @pytest.mark.parametrize("family,n", STANDARD)
    def test_pass(self, family, n):
        r = check_sigma_difference(make_seq(family, n), samples=25, depth=4)
        assert r.ok, r.witnesses
        assert r.counts["samples_checked"] == 25

    def test_deterministic(self, a1_n3):
        a = check_sigma_difference(a1_n3, samples=10, depth=3, seed=5)
        b = check_sigma_difference(a1_n3, samples=10, depth=3, seed=5)
        assert a.to_json() == b.to_json()


# Every permutation of 1..3 is an adapted word in each family, and so is
# each permutation written twice.  The non-periodic adapted words of length 6
# at n=3 are six each for C1, A2 and D2; A1 has none.
_PERMUTATIONS = list(itertools.permutations((1, 2, 3)))
_N3_WORDS = [
    (family, word)
    for family in ("A1", "C1", "A2", "D2")
    for word in _PERMUTATIONS + adapted_words(family, 3, 6) + [p * 2 for p in _PERMUTATIONS]
]


class TestPermutationWords:
    @pytest.mark.parametrize(
        "family,word", _N3_WORDS, ids=[f"{','.join(map(str, w))}-{f}" for f, w in _N3_WORDS]
    )
    def test_suites_pass(self, family, word):
        seq = make_seq(family, 3, list(word))
        reports = [
            check_step_identities(seq, size_bound=3, wall_halves=4),
            check_image_equality(seq, max_weight=2),
            check_positivity(seq, depth=3),
        ]
        reports += [check_closure_equality(seq, k, depth=3) for k in seq.root_system.index_set]
        for r in reports:
            assert r.ok, (r.check, r.params, r.witnesses)
            assert (r.params["family"], r.params["n"], r.params["word"]) == (family, 3, list(word))


class _UncheckedAlternation(AdaptedSequence):
    """A sequence built with every test of the word but the alternation one,
    the last test _validate makes and the only one that raises NotAdaptedError."""

    def _validate(self):
        try:
            super()._validate()
        except NotAdaptedError:
            pass


_NOT_ADAPTED = [
    ("A1", 3, (1, 2, 1, 3, 2, 3)),
    ("A1", 3, (1, 2, 3, 2, 1, 3)),
    ("D2", 3, (2, 1, 2, 3, 1, 3)),
    ("A1", 4, (1, 2, 3, 4, 2, 1, 4, 3)),
]


class TestNegativeControls:
    """Words that fail only the alternation test: build_adapted rejects them,
    and built anyway, the image and beta checks fail them at default bounds."""

    @pytest.mark.parametrize(
        "family,n,word",
        _NOT_ADAPTED,
        ids=[f"{f}-{','.join(map(str, w))}" for f, _, w in _NOT_ADAPTED],
    )
    def test_image_and_beta_checks_fail(self, family, n, word):
        system = build_root_system(AlgebraType(family, n))
        with pytest.raises(NotAdaptedError):
            build_adapted(system, word)
        seq = _UncheckedAlternation(system, word)
        for r in (check_image_equality(seq), check_beta_agreement(seq)):
            assert r.status == "fail", (r.check, r.counts)
