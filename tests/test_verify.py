"""Verification harness: reports, dispatch, and the checks on small bounds."""

import functools
import itertools
import json
from collections import Counter

import pytest

from polyreal import (
    LatticeElement, LinearForm, closure, enumerate_image, evaluate, eyd, forms, lattice_crystal,
    reyd, verify, young_wall,
)
from polyreal.root_data import (
    FAMILIES,
    AlgebraType,
    NotAdaptedError,
    RootDataError,
    build_adapted,
    build_root_system,
    pair_to_index,
    weight_counts,
)
from polyreal.forms import beta_pair, beta_sites, site_form, site_move, system_rows, window_search
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
    generator_system,
)
from conftest import (
    NOT_ADAPTED,
    UncheckedAlternation,
    adapted_words,
    enumerate_objects,
    make_seq,
    object_moves,
    permutation_seqs,
    reference_image_report,
    reference_window_search,
)

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

    def test_value_semantics(self):
        # compared by value, mutable, and so unhashable
        r = VerificationReport("c", {"n": 3}, "pass", {"k": 1}, ["w"])
        assert r == VerificationReport("c", {"n": 3}, "pass", {"k": 1}, ["w"])
        assert r != VerificationReport("c", {"n": 3}, "fail", {"k": 1}, ["w"])
        assert r != r.to_json()
        with pytest.raises(TypeError):
            hash(r)
        r.status = "fail"
        assert not r.ok
        assert repr(VerificationReport("c", {}, "pass")) == (
            "VerificationReport(check='c', params={}, status='pass', counts={}, witnesses=[])"
        )

    def test_default_counts_and_witnesses_not_shared(self):
        a, b = VerificationReport("c", {}, "pass"), VerificationReport("c", {}, "pass")
        a.counts["k"] = 1
        a.witnesses.append("w")
        assert b.counts == {} and b.witnesses == []
        assert VerificationReport("c", {}, "pass").to_json()["counts"] == {}

    def test_summary(self):
        r = VerificationReport("closure-equality", {}, "pass", {"b": 2, "a": 1})
        assert r.summary() == "closure-equality: pass (a=1 b=2)"

    def test_fixed_sampling_params(self, a1_n3):
        # the sampling values are constants, and the reports still name them
        assert check_image_equality(a1_n3, max_weight=2).params["s_bound"] == 3
        assert check_positivity(a1_n3, depth=2).params["s_max"] == 2
        assert check_beta_agreement(a1_n3).params["max_index"] == 30
        assert check_sigma_difference(a1_n3).params["samples"] == 100

    @pytest.mark.parametrize(
        "check",
        [
            lambda seq: check_step_identities(seq, size_bound=-1),
            lambda seq: check_image_equality(seq, max_weight=-1),
            lambda seq: check_image_equality(seq, max_weight=1, size_bound=-1),
            lambda seq: check_closure_equality(seq, 2, depth=-1),
        ],
        ids=["steps", "image", "image-no-objects", "closure"],
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
            for obj, _, _ in generator_objects(a2_n3, kind, k, 3):
                if kind == "wall":
                    assert obj.block_count() <= 3
                elif kind == "reyd":
                    assert obj.units() <= 3
                else:
                    assert obj.boxes() <= 3

    def test_forms_pool_contains_seeds(self, c1_n3):
        forms = generator_forms(c1_n3, 2, [1, 2])
        for k in (1, 2, 3):
            assert x(1, k).items() in forms and x(2, k).items() in forms


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


def _triple_coeffs(monkeypatch):
    """Patch forms.site_move so that every move toggles three times its
    units: every toggle fails, and the right side of each packed comparison
    carries digits of three times beta's."""

    def tripled(obj2, coeff, site, f=site_move):
        obj2, coeff, offset, color = f(obj2, coeff, site)
        return obj2, 3 * coeff, offset, color

    monkeypatch.setattr(forms, "site_move", tripled)


# The step check's grid: the permutation words at n = 3, the 18 non-periodic
# length-6 words at n = 3 and word 1..4 at n = 4, 46 inputs in all.
STEP_GRID = [
    (family, n, word)
    for family in FAMILIES
    for n, words in (
        (3, list(itertools.permutations((1, 2, 3))) + adapted_words(family, 3, 6)),
        (4, [(1, 2, 3, 4)]),
    )
    for word in words
]


def _count_calls(monkeypatch, module, name):
    """A list that gets one entry per call of module.name, patched wherever a
    polyreal module holds it by that name."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for holder in (forms, verify):
        if getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, counted)
    return calls


class TestStepIdentities:
    @pytest.mark.parametrize("family,n", STANDARD)
    def test_pass_on_small_bounds(self, family, n):
        r = check_step_identities(make_seq(family, n), size_bound=3, wall_halves=4)
        assert r.ok, r.witnesses
        assert r.counts["failures"] == 0 and r.counts["toggles_checked"] > 0

    @pytest.mark.parametrize(
        "mutation",
        [None, _shift_removes, _triple_coeffs],
        ids=["moves", "shifted-removes", "tripled-coeffs"],
    )
    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_matches_form_level_reference(self, family, mutation, monkeypatch):
        # checking once, on packed site maps, gives the report of checking
        # every form, witnesses in order
        if mutation:
            mutation(monkeypatch)
        grid = [make_seq(f, n, list(word)) for f, n, word in STEP_GRID if f == family]
        for seq in grid:
            got = check_step_identities(seq, size_bound=4, wall_halves=6)
            want = _reference_step_check(seq, (1, 2), 4, 6)
            assert got.to_json() == want.to_json(), seq.word
            assert (got.status, got.counts["failures"] > 0) == (
                ("fail", True) if mutation else ("pass", False)
            )
        assert len(STEP_GRID) == 46

    def test_width_covers_the_move_coefficient(self, a1_n3, monkeypatch):
        # a move of coeff 16 from the empty map to a map whose digits are
        # beta's negated and one field up (its two sites at (0, 1) cancel but
        # take field 0): most is 6, so a width without the coeff term would
        # be 4 bits, and at 4 bits -16 beta and the target have one code
        beta = beta_sites(a1_n3, 1)
        assert [c for c, _, _ in beta] == [1, 1, -1, -1]
        pairs = [(o, j) for _, o, j in beta] + [(9, 1)]
        target = [(1, 0, 1), (-1, 0, 1)] + [(-c, *pair) for (c, _, _), pair in zip(beta, pairs[1:])]
        walked = [("A", [], [("B", 16, 0, 1)]), ("B", target, [])]
        monkeypatch.setattr(
            verify, "generator_objects", lambda seq, kind, k, *_: walked if k == 1 else []
        )
        r = check_step_identities(a1_n3)
        assert r.counts == {"toggles_checked": 2, "failures": 2}
        assert r.witnesses == [
            f"A -> B s={s}: got {site_form(target, s)}, expected {-16 * beta_pair(a1_n3, s, 1)}"
            for s in (1, 2)
        ]

    @pytest.mark.parametrize("mutated", [False, True], ids=["moves", "shifted-removes"])
    def test_forms_only_for_witnesses(self, mutated, monkeypatch):
        # a passing check merges no site map and builds no form; a failing
        # one builds forms only for the witnesses it keeps
        if mutated:
            _shift_removes(monkeypatch)
        counters = {
            name: _count_calls(monkeypatch, module, name)
            for module, name in ((verify, "_site_map"), (forms, "_accumulate"), (forms, "site_form"))
        }
        for family in FAMILIES:
            r = check_step_identities(make_seq(family, 3), size_bound=4, wall_halves=6)
            calls = {name: len(c) for name, c in counters.items()}
            for c in counters.values():
                c.clear()
            if not mutated:
                assert r.ok and calls == {"_site_map": 0, "_accumulate": 0, "site_form": 0}
                continue
            assert len(r.witnesses) == verify.MAX_WITNESSES < r.counts["failures"]
            # per witness, two site forms, each merged once, and one difference
            assert calls == {"_site_map": 0, "_accumulate": 30, "site_form": 20}, (family, calls)

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_negative_size_bound_walks_nothing(self, family):
        # walls have a bound of their own, but a negative size_bound walks no
        # object of any kind
        r = check_step_identities(make_seq(family, 3), size_bound=-1)
        assert r.status == "inconclusive"
        assert r.counts == {"toggles_checked": 0, "failures": 0}


class TestFailureCounts:
    """A check counts every failure, and its report keeps the first
    MAX_WITNESSES of them as witnesses."""

    def test_every_beta_failure_counted(self, monkeypatch):
        seq = make_seq("A1", 3)
        beta_index = verify.beta_index
        monkeypatch.setattr(verify, "beta_index", lambda seq, j: beta_index(seq, j) + x(1, 1))
        r = check_beta_agreement(seq)
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
        r = check_step_identities(seq, size_bound=3)
        assert removes > 0 and r.status == "fail"
        assert r.counts["failures"] == 2 * removes
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
        r = check_step_identities(seq, size_bound=3, wall_halves=6)
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


EIGHT_PROBLEMS = [(family, n) for family in FAMILIES for n in (3, 4)]


class TestLargeOccurrence:
    """From s = depth + 1 on, the closure of x[s,k] and the image at s are
    translates of those at any larger s; each color occurs once in these
    words, so a shift of s by d moves every term by d * L single indices.  A
    check at s = 10^12 gives the counts of one at s = depth + 2."""

    BIG = 10**12

    @pytest.mark.parametrize("family,n", EIGHT_PROBLEMS)
    def test_counts_as_at_depth_plus_two(self, family, n):
        seq, depth = make_seq(family, n), 4
        for k in seq.root_system.index_set:
            near = check_closure_equality(seq, k, depth, s=depth + 2)
            far = check_closure_equality(seq, k, depth, s=self.BIG)
            assert far.status == near.status == "pass", (k, far.witnesses)
            assert far.counts == near.counts, k

    @pytest.mark.parametrize("family,n", EIGHT_PROBLEMS)
    def test_shifted_index_bound_prunes_as_at_depth_plus_two(self, family, n):
        # x[s,k] sits (s - depth - 2) * L single indices above x[depth+2,k]
        seq, depth = make_seq(family, n), 4
        shift = (self.BIG - depth - 2) * seq.L
        pruned = 0
        for k in seq.root_system.index_set:
            for bound in (seq.L * (depth + 2) + 3, seq.L * (depth + 4)):
                near = check_closure_equality(seq, k, depth, depth + 2, bound)
                far = check_closure_equality(seq, k, depth, self.BIG, bound + shift)
                assert far.counts == near.counts, (k, bound)
                pruned += far.counts["pruned"]
        assert pruned > 0

    @pytest.mark.parametrize("family", ("C1", "A2", "D2"))
    def test_repeated_colors_as_the_reference(self, family):
        # on a length-6 word each color occurs twice (A1 at n = 3 has no
        # such word), and the check on codes still gives the report of the
        # check on form sets
        seq = make_seq(family, 3, adapted_words(family, 3, 6)[0])
        for k in seq.root_system.index_set:
            got = check_closure_equality(seq, k, 4, self.BIG)
            assert got.to_json() == reference_closure_equality(seq, k, 4, self.BIG, None).to_json()
            assert got.status == "pass", k

    def test_image_below_the_closure(self, a1_n3, monkeypatch):
        # eyd sites two occurrences lower reach under the closure's lowest
        # occurrence, s - depth: the image forms are packed from that lower
        # floor and reported as image-only, as the check on form sets does
        read = eyd._read

        def lowered(seq, T):
            sites, points = read(seq, T)
            return [(c, offset - 2, color) for c, offset, color in sites], points

        monkeypatch.setattr(eyd, "_read", lowered)
        for s in (7, self.BIG):
            got = check_closure_equality(a1_n3, 1, 4, s)
            assert got.to_json() == reference_closure_equality(a1_n3, 1, 4, s, None).to_json()
            assert got.status == "fail" and got.counts["symmetric_difference"] == 20


def reference_closure_equality(seq, k, depth, s, index_bound):
    """The closure check over form sets: the closure's forms against one
    site_form per walked object."""
    closed, pruned = closure(seq, [x(s, k)] if depth >= 0 else [], depth, index_bound)
    kind = verify.charge_kind(seq, k)
    walked = verify.generator_objects(seq, kind, k, depth)
    images = {site_form(sites, s) for _, sites, _ in walked}
    extra = sorted(closed - images, key=LinearForm.sort_key)
    missing = sorted(images - closed, key=LinearForm.sort_key)
    witnesses = [f"{pruned} forms pruned at index bound {index_bound}"] if pruned else []
    witnesses += [f"closure-only: {f}" for f in extra] + [f"image-only: {f}" for f in missing]
    difference = len(extra) + len(missing)
    counts = {
        "closure_size": len(closed),
        "image_size": len(images),
        "pruned": pruned,
        "symmetric_difference": difference,
    }
    params = {"k": k, "s": s, "depth": depth}
    return verify._report(
        "closure-equality", seq, params, counts, witnesses, difference + pruned, len(closed)
    )


def _raise_convex_offsets(monkeypatch):
    """Patch eyd._read so that a convex corner's site (coeff -1) sits one
    occurrence higher, as an eyd convex offset of +1 would place it."""
    read = eyd._read

    def shifted(seq, T):
        sites, points = read(seq, T)
        return [(c, offset + (c < 0), color) for c, offset, color in sites], points

    monkeypatch.setattr(eyd, "_read", shifted)


CLOSURE_GRID = [(family, n, tuple(range(1, n + 1))) for family in FAMILIES for n in (3, 4)] + [
    (family, 3, word) for family in FAMILIES for word in adapted_words(family, 3, 6)
]


class TestClosureEqualityAsTheReference:
    """The check on packed codes gives the report of the check on form sets,
    witnesses in order, on word 1..n of each family at n = 3 and 4 and on the
    18 non-periodic length-6 words at n = 3, at depths 0..6, s = 1..3 and
    caps None, 4, 6 and 8; with eyd's convex sites raised, both witness kinds
    appear."""

    @pytest.mark.parametrize("mutated", [False, True], ids=["eyd", "raised-convex"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_reports(self, family, mutated, monkeypatch):
        if mutated:
            _raise_convex_offsets(monkeypatch)
        kinds, uncapped = Counter(), Counter()
        grid = [make_seq(f, n, list(word)) for f, n, word in CLOSURE_GRID if f == family]
        for seq in grid:
            for k in seq.root_system.index_set:
                for s in (1, 2, 3):
                    for depth in range(7):
                        for cap in (None, 4, 6, 8):
                            got = check_closure_equality(seq, k, depth, s, cap)
                            want = reference_closure_equality(seq, k, depth, s, cap)
                            assert got.to_json() == want.to_json(), (seq.word, k, s, depth, cap)
                            kinds.update(w.split(":")[0] for w in got.witnesses)
                            uncapped[got.status] += cap is None
        assert len(CLOSURE_GRID) == 26
        if mutated and family in ("A1", "D2"):
            assert kinds["closure-only"] and kinds["image-only"], kinds
        else:
            assert uncapped["fail"] == 0 and kinds["closure-only"] == 0, (uncapped, kinds)

    def test_codes_cover_the_image_coefficients(self, a1_n3, monkeypatch):
        # one image form 4 x[1,2], at single index 1 of word 2,1,3, against
        # the seed x[1,1] at index 2: at the closure's own width of 2 bits at
        # depth 0, 4 x_1 and x_2 have one code, 16
        assert (pair_to_index(a1_n3, 1, 2), pair_to_index(a1_n3, 1, 1)) == (1, 2)
        monkeypatch.setattr(
            verify, "generator_objects", lambda seq, kind, k, bound: [("T", [(4, 0, 2)], [])]
        )
        r = check_closure_equality(a1_n3, 1, depth=0)
        assert r.to_json() == reference_closure_equality(a1_n3, 1, 0, 1, None).to_json()
        assert r.status == "fail" and r.counts["symmetric_difference"] == 2
        assert r.witnesses == ["closure-only: x[1,1]", "image-only: 4 x[1,2]"]

    def test_occurrence_error_as_site_form(self, a1_n3, monkeypatch):
        sites = [(1, 0, 2), (1, -1, 3), (2, -2, 1)]
        monkeypatch.setattr(
            verify, "generator_objects", lambda seq, kind, k, bound: [("T", sites, [])]
        )
        with pytest.raises(ValueError) as want:
            site_form(sites, 2)
        with pytest.raises(ValueError) as got:
            check_closure_equality(a1_n3, 1, depth=1, s=2)
        assert str(got.value) == str(want.value) == "occurrence index must be >= 1, got 0"


def add_to_system(monkeypatch, extra):
    """Patch verify.generator_system to add the firsts of each key of extra,
    a system {key: firsts} as forms.system_forms reads it: -x[s,l] is the
    key (((0, l), -1),) at first s."""
    system = verify.generator_system

    def patched(*args):
        out = system(*args)
        for key, firsts in extra.items():
            out[key] = out.get(key, set()) | firsts
        return out

    monkeypatch.setattr(verify, "generator_system", patched)


def reference_image_check(seq, max_weight, size_bound):
    """The image check by brute force: every sampled form on every vector of
    the weight box, the box walked in lexicographic order of window values."""
    image = enumerate_image(seq, max_weight)
    forms = sorted(
        (LinearForm(t) for t in verify.generator_forms(seq, size_bound, range(1, max_weight + 2))),
        key=LinearForm.sort_key,
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


IMAGE_CASES = [(family, 3, w, None, ()) for family in ("A1", "C1", "A2", "D2") for w in range(4)]
IMAGE_CASES += [
    ("A1", 2, 5, None, ()),
    # converse misses only
    ("A1", 3, 3, 0, ()),
    ("C1", 3, 2, 0, ()),
    # forward violations only
    ("A1", 2, 3, None, ((1, 1),)),
    ("D2", 3, 2, None, ((1, 1),)),
    # both kinds (12 forward, 37 converse)
    ("A2", 3, 3, 0, ((1, 2),)),
    # both kinds among the first witnesses: 5 converse, 3 forward, then one
    # of each
    ("A1", 2, 3, 0, ((2, 1),)),
    # an empty window still holds one candidate
    ("A1", 3, -1, None, ()),
]
# the cases above run on the default word; these on words in which a color
# occurs twice, a periodic word for A1, which has no other adapted word of
# length 6 at n = 3
IMAGE_CASES = [(*case, None) for case in IMAGE_CASES] + [
    ("A1", 3, 4, None, (), (2, 1, 3, 2, 1, 3)),
    ("C1", 3, 4, None, (), (1, 2, 1, 3, 2, 3)),
    ("A2", 3, 4, None, (), (2, 3, 1, 2, 1, 3)),
    ("D2", 3, 4, None, (), (3, 1, 2, 1, 3, 2)),
]
# the ids that pytest gives the cases without their word, with a slot for
# the sampled s bound, None as the check takes s = 1..w + 1 itself, so that
# a case keeps its id; then the word's colors
IMAGE_IDS = [
    f"{family}-{n}-{w}-{size_bound}-None-negated{i}"
    + ("-" + "".join(map(str, word)) if word else "")
    for i, (family, n, w, size_bound, _, word) in enumerate(IMAGE_CASES)
]


class TestImageEquality:
    @pytest.mark.parametrize("family,n,w,size_bound,negated,word", IMAGE_CASES, ids=IMAGE_IDS)
    def test_matches_reference(self, family, n, w, size_bound, negated, word, monkeypatch):
        add_to_system(monkeypatch, {(((0, l), -1),): {s} for s, l in negated})
        seq = make_seq(family, n, word)
        size_bound = w + 2 if size_bound is None else size_bound
        r = check_image_equality(seq, max_weight=w, size_bound=size_bound)
        assert (r.counts, r.status, r.witnesses) == reference_image_check(seq, w, size_bound)

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
        add_to_system(monkeypatch, {(((0, 1), -1),): {1}})
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
        r = check_image_equality(a1_n2, max_weight=2, size_bound=0)
        assert r.status == "inconclusive"
        assert r.counts["converse_misses"] > 0
        assert any("satisfies all" in w for w in r.witnesses)

    def test_image_size_matches_enumeration(self, a1_n2):
        r = check_image_equality(a1_n2, max_weight=3)
        assert r.counts["image_size"] == len(enumerate_image(a1_n2, 3))


def reference_generator_forms(seq, size_bound, s_values):
    """The sampled system built as before deduplication: one site_form per
    (object, s), with s_values read inside the loop over objects, each form
    given by its term tuple."""
    out = set()
    for kind, k in generator_kinds(seq):
        for obj, _, _ in verify.generator_objects(seq, kind, k, size_bound):
            sites = verify.MODULES[kind].sites(seq, obj)
            out.update(site_form(sites, s).items() for s in s_values)
    return out


class TestImageReadSide:
    @pytest.mark.parametrize("n,w", [(3, 5), (4, 4)])
    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_equal_to_the_references(self, family, n, w, monkeypatch):
        # both sides list the same objects, so list them once
        objects = functools.lru_cache(maxsize=None)(verify.generator_objects)
        monkeypatch.setattr(verify, "generator_objects", objects)
        # the image check's inputs at max_weight w, on every permutation word
        for seq in permutation_seqs(family, n):
            self.assert_inputs_equal(seq, w)

    @pytest.mark.parametrize("w", [4, 5])
    def test_length_six_words_equal_to_the_references(self, w):
        # the 18 non-periodic words of length 6 at n = 3, in which every
        # color occurs twice (A1 has none)
        families = ["A1", "C1", "A2", "D2"]
        words = [(family, word) for family in families for word in adapted_words(family, 3, 6)]
        assert len(words) == 18
        for family, word in words:
            self.assert_inputs_equal(make_seq(family, 3, list(word)), w)

    @staticmethod
    def assert_inputs_equal(seq, w):
        """The image check's sampled system and solutions at max_weight w
        equal the references'."""
        forms = generator_forms(seq, w + 2, range(1, w + 2))
        assert forms == reference_generator_forms(seq, w + 2, range(1, w + 2)), seq
        window = sorted({j for a in enumerate_image(seq, w) for j in a.support()})
        rows = system_rows(seq, generator_system(seq, w + 2, range(1, w + 2)), window)
        assert window_search(rows, len(window), w) == reference_window_search(
            seq, forms, window, w
        ), seq

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_reports_equal_to_the_forms_path(self, family, monkeypatch):
        # the check on its system's window rows against the same check over
        # generator_forms' term tuples and the reference search, at every weight
        # 0..5, with an empty sample and the default one; both sides list
        # the same objects, so list them once
        objects = functools.lru_cache(maxsize=None)(verify.generator_objects)
        monkeypatch.setattr(verify, "generator_objects", objects)
        seqs = permutation_seqs(family, 3) + [make_seq(family, 4, [1, 2, 3, 4])]
        seqs += [make_seq(family, 3, list(word)) for word in adapted_words(family, 3, 6)]
        for seq in seqs:
            for w in range(6):
                for size_bound in (0, w + 2):
                    got = check_image_equality(seq, max_weight=w, size_bound=size_bound)
                    want = reference_image_report(seq, w, size_bound)
                    assert got.to_json() == want.to_json(), (seq, w, size_bound)

    def test_empty_key_is_one_form(self, a1_n2, monkeypatch):
        # the zero form at several firsts is one form, beside one form per
        # first of a nonzero key
        system = {(): {1, 2, 3}, (((0, 1), -1),): {1, 2}}
        monkeypatch.setattr(verify, "generator_system", lambda *args: system)
        assert forms.system_forms(system) == {(), (((1, 1), -1),), (((2, 1), -1),)}
        r = check_image_equality(a1_n2, max_weight=2)
        assert r.counts["forms"] == 3
        assert r.to_json() == reference_image_report(a1_n2, 2, 4).to_json()

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
    # each weight -beta holds K(beta) elements, beta of height at most depth
    found = Counter(tuple(weight_coeffs(seq, a).values()) for a in image)
    expected = weight_counts(seq.root_system, max(depth, 0))
    for beta in sorted(set(found) | set(expected)):
        got, want = found[beta], expected.get(beta, 0)
        if got != want:
            failures.append(f"beta={beta}: {got} image elements of weight -beta, K(beta)={want}")
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
        # reading each sweep once gives the report of calling every operator,
        # on the permutation and non-periodic length-6 words at n = 3 and on
        # word 1..4 at n = 4
        if mutation:
            _mutate_sweep(monkeypatch, mutation)
        words = [*itertools.permutations((1, 2, 3)), *adapted_words(family, 3, 6), (1, 2, 3, 4)]
        for word in words:
            seq = make_seq(family, len(set(word)), list(word))
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

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_negative_bounds(self, family):
        # the image keeps 0, as at bound 0, while the counts by weight and
        # the generator listings are empty; so the check reads K at
        # max(depth, 0)
        seq = make_seq(family, 3)
        assert enumerate_image(seq, -1) == {LatticeElement.zero()}
        assert weight_counts(seq.root_system, -1) == {}
        for kind, k in generator_kinds(seq):
            for halves in (False, True):
                assert generator_objects(seq, kind, k, -1, halves) == []


# (entry point, whether its result at 2.0 is compared with that at 2), reaching
# each owner of a bound: forms.walk, enumerate_eyd, enumerate_image,
# closure_codes and weight_counts
_BOUNDED = {
    "enumerate_reyd": (lambda b: reyd.enumerate_reyd("A2", 3, 2, b), True),
    "enumerate_walls": (
        lambda b: young_wall.enumerate_walls(young_wall.WallKind("A2wall", 3, 1), b), True
    ),
    "enumerate_eyd": (lambda b: eyd.enumerate_eyd(1, b), True),
    "enumerate_image": (lambda b: enumerate_image(make_seq("A1", 3), b), True),
    "weight_counts": (lambda b: weight_counts(make_seq("A1", 3).root_system, b), True),
    "closure": (lambda b: closure(make_seq("A1", 3), [x(1, 1)], b), True),
    "steps-eyd": (lambda b: check_step_identities(make_seq("A1", 3), b), False),
    "steps-walk": (lambda b: check_step_identities(make_seq("A2", 3), b), False),
    "closure-equality": (lambda b: check_closure_equality(make_seq("A1", 3), 1, b), False),
    "image-equality": (lambda b: check_image_equality(make_seq("A1", 3), b), False),
    "crystal-axioms": (lambda b: check_crystal_axioms(make_seq("A1", 3), b), False),
    "positivity": (lambda b: check_positivity(make_seq("A1", 3), b), False),
}


# (check, family at n = 3, other keywords, the bound, an integral value): each
# integer bound of each check, which the check reads once at entry
_CHECK_BOUNDS = {
    "step-identities-size_bound": (check_step_identities, "A2", {}, "size_bound", 2),
    "step-identities-wall_halves": (
        check_step_identities, "A2", {"size_bound": 2}, "wall_halves", 2
    ),
    "closure-equality-k": (check_closure_equality, "A1", {"depth": 2}, "k", 1),
    "closure-equality-depth": (check_closure_equality, "A1", {"k": 1}, "depth", 2),
    "closure-equality-s": (check_closure_equality, "A1", {"k": 1, "depth": 2}, "s", 1),
    "closure-equality-index_bound": (
        check_closure_equality, "A1", {"k": 1, "depth": 2}, "index_bound", 12
    ),
    "image-equality-max_weight": (check_image_equality, "A1", {}, "max_weight", 2),
    "image-equality-size_bound": (
        check_image_equality, "A1", {"max_weight": 2}, "size_bound", 3
    ),
    "crystal-axioms-depth": (check_crystal_axioms, "A1", {}, "depth", 2),
    "positivity-depth": (check_positivity, "A1", {}, "depth", 2),
}


class TestNonIntegralBounds:
    @pytest.mark.parametrize("name", list(_CHECK_BOUNDS))
    def test_check_reads_its_bounds_as_ints(self, name):
        # an integral float gives the int's report, params included, and a
        # fraction is a RootDataError before any work
        check, family, others, bound, value = _CHECK_BOUNDS[name]
        seq = make_seq(family, 3)
        report = json.dumps(check(seq, **others, **{bound: value}).to_json())
        assert json.dumps(check(seq, **others, **{bound: float(value)}).to_json()) == report
        with pytest.raises(RootDataError, match=f"expected an integer, got {value + 0.5}"):
            check(seq, **others, **{bound: value + 0.5})

    @pytest.mark.parametrize("name", list(_BOUNDED))
    def test_rejected_not_truncated(self, name):
        # each bound is read by exact_int where it is owned, so 2.5 is a
        # typed ValueError at every entry point, and an enumerator or the
        # closure reads 2.0 as 2
        call, integral = _BOUNDED[name]
        with pytest.raises(ValueError, match="expected an integer, got 2.5") as raised:
            call(2.5)
        assert raised.type is not ValueError
        if integral:
            assert call(2.0) == call(2)


class TestPositivity:
    @pytest.mark.parametrize("family,n", STANDARD)
    def test_pass_at_depth_three(self, family, n):
        r = check_positivity(make_seq(family, n), depth=3)
        assert r.ok, r.witnesses
        assert r.counts["forms_checked"] > 0


class TestBetaAgreement:
    @pytest.mark.parametrize("family,n", STANDARD)
    def test_pass(self, family, n):
        r = check_beta_agreement(make_seq(family, n))
        assert r.ok
        assert r.counts["indices_checked"] == 30


class TestSigmaDifference:
    @pytest.mark.parametrize("family,n", STANDARD)
    def test_pass(self, family, n):
        r = check_sigma_difference(make_seq(family, n))
        assert r.ok, r.witnesses
        assert r.counts["samples_checked"] == 100

    def test_deterministic(self, a1_n3):
        a = check_sigma_difference(a1_n3)
        b = check_sigma_difference(a1_n3)
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


class TestNegativeControls:
    """Words that fail only the alternation test: build_adapted rejects them,
    and built anyway, the image and beta checks fail them at default bounds."""

    @pytest.mark.parametrize(
        "family,n,word",
        NOT_ADAPTED,
        ids=[f"{f}-{','.join(map(str, w))}" for f, _, w in NOT_ADAPTED],
    )
    def test_image_and_beta_checks_fail(self, family, n, word):
        system = build_root_system(AlgebraType(family, n))
        with pytest.raises(NotAdaptedError):
            build_adapted(system, word)
        seq = UncheckedAlternation(system, word)
        for r in (check_image_equality(seq), check_beta_agreement(seq)):
            assert r.status == "fail", (r.check, r.counts)
