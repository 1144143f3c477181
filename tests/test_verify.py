"""Verification harness: reports, dispatch, and the checks on small bounds."""

import itertools

import pytest

from polyreal import LatticeElement, LinearForm, enumerate_image
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
from conftest import make_seq

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
            lambda seq: check_step_identities(seq, size_bound=-1),
            lambda seq: check_image_equality(seq, max_weight=-1),
        ],
        ids=["beta", "sigma", "steps", "image"],
    )
    def test_zero_work_is_inconclusive(self, a1_n3, check):
        r = check(a1_n3)
        assert r.status == "inconclusive"
        assert r.counts.get("failures", 0) == 0 and r.witnesses == []
        assert {key: r.params[key] for key in ("family", "n", "word")} == {
            "family": "A1",
            "n": 3,
            "word": [2, 1, 3],
        }


class TestDispatch:
    def test_kinds_by_family(self):
        assert generator_kinds(make_seq("A1", 3)) == [("eyd", 1), ("eyd", 2), ("eyd", 3)]
        assert generator_kinds(make_seq("D2", 3)) == [("eyd", 1), ("eyd", 2), ("eyd", 3)]
        assert generator_kinds(make_seq("A2", 3)) == [("wall", 1), ("reyd", 2), ("reyd", 3)]
        assert generator_kinds(make_seq("C1", 3)) == [("wall", 1), ("wall", 3), ("reyd", 2)]

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


class TestStepIdentities:
    @pytest.mark.parametrize("family,n", STANDARD)
    def test_pass_on_small_bounds(self, family, n):
        r = check_step_identities(make_seq(family, n), size_bound=3, wall_halves=4)
        assert r.ok, r.witnesses
        assert r.counts["failures"] == 0 and r.counts["toggles_checked"] > 0


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

    def test_default_index_bound_is_closures(self):
        # closure's default index bound L*(depth+2) applies; L*6 would prune
        # two forms here
        seq = make_seq("C1", 4, [2, 1, 3, 4])
        r = check_closure_equality(seq, 4, depth=12)
        assert r.ok, r.witnesses
        assert r.counts["pruned"] == 0 and r.counts["symmetric_difference"] == 0

    def test_tiny_index_bound_reported(self, a1_n3):
        r = check_closure_equality(a1_n3, 1, depth=4, index_bound=4)
        assert not r.ok
        assert r.counts["pruned"] > 0
        assert "pruned" in r.witnesses[0]


class TestImageEquality:
    @pytest.mark.parametrize("family,n", STANDARD)
    def test_pass_at_weight_two(self, family, n):
        r = check_image_equality(make_seq(family, n), max_weight=2)
        assert r.ok, r.witnesses
        assert r.counts["forward_violations"] == 0
        assert r.counts["converse_misses"] == 0

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


class TestCrystalAxioms:
    @pytest.mark.parametrize("family,n", STANDARD)
    def test_pass_at_depth_three(self, family, n):
        seq = make_seq(family, n)
        r = check_crystal_axioms(seq, depth=3)
        assert r.ok, r.witnesses
        assert r.counts["elements"] == len(enumerate_image(seq, 3))
        assert r.counts["pairs_checked"] == r.counts["elements"] * n


class TestPositivity:
    @pytest.mark.parametrize("family,n", STANDARD)
    def test_pass_at_depth_three(self, family, n):
        r = check_positivity(make_seq(family, n), depth=3, s_max=2)
        assert r.ok, r.witnesses
        assert r.counts["forms_checked"] > 0

    def test_pruning_is_inconclusive(self, a1_n3):
        r = check_positivity(a1_n3, depth=4, index_bound=4)
        assert r.status == "inconclusive"
        assert r.counts["failures"] == 0
        pruned, rest = r.witnesses[0].split(" ", 1)
        assert int(pruned) > 0 and rest == "forms pruned at index bound 4"


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


class TestPermutationWords:
    # every permutation of 1..3 is an adapted word in each family
    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    @pytest.mark.parametrize(
        "word", list(itertools.permutations((1, 2, 3))), ids=lambda w: ",".join(map(str, w))
    )
    def test_suites_pass(self, family, word):
        seq = make_seq(family, 3, list(word))
        reports = [
            check_step_identities(seq, size_bound=3, wall_halves=4),
            check_image_equality(seq, max_weight=2),
        ]
        reports += [check_closure_equality(seq, k, depth=3) for k in seq.root_system.index_set]
        for r in reports:
            assert r.ok, (r.check, r.params, r.witnesses)
            assert (r.params["family"], r.params["n"], r.params["word"]) == (family, 3, list(word))
