"""Command-line interface: exit codes, golden output, JSON round trips."""

import json

import pytest

from polyreal import LatticeElement, LinearForm
from polyreal.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    default_word,
    main,
)
from polyreal.eyd import ExtendedYoungDiagram
from polyreal.young_wall import YoungWall


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDefaults:
    def test_default_word(self):
        assert default_word(2) == [1, 2]
        assert default_word(3) == [2, 1, 3]
        assert default_word(5) == [2, 1, 3, 4, 5]


class TestInequalities:
    def test_six_forms_for_middle_charge(self, capsys):
        code, out, _ = run(
            capsys, "inequalities", "--family", "A1", "--n", "3", "--k", "2", "--bound", "2"
        )
        assert code == EXIT_OK
        assert out.splitlines() == [
            "x[1,1] + x[1,3] - x[2,2] >= 0",
            "x[1,1] + x[2,1] - x[2,3] >= 0",
            "x[1,2] >= 0",
            "x[1,3] + x[2,1] - x[3,2] >= 0",
            "x[1,3] + x[2,2] - x[2,3] >= 0",
            "2 x[1,3] - x[2,1] >= 0",
        ]

    def test_bound_zero_gives_seed(self, capsys):
        code, out, _ = run(capsys, "inequalities", "--k", "1", "--bound", "0")
        assert code == EXIT_OK
        assert out == "x[1,1] >= 0\n"

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "inequalities", "--k", "2", "--json")
        assert code == EXIT_OK
        forms = [LinearForm.from_json(d) for d in json.loads(out)]
        assert LinearForm.x(1, 2) in forms

    def test_invalid_charge_is_usage_error(self, capsys):
        code, _, err = run(capsys, "inequalities", "--k", "9")
        assert code == EXIT_USAGE
        assert "valid charges" in err

    def test_every_in_range_charge_valid(self, capsys):
        for family in ("A1", "A2", "C1", "D2"):
            for k in (1, 2, 3):
                code, out, _ = run(
                    capsys, "inequalities", "--family", family, "--k", str(k), "--bound", "1"
                )
                assert code == EXIT_OK and ">= 0" in out


class TestVerify:
    def test_single_check_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "beta")
        assert code == EXIT_OK
        assert out.startswith("beta-agreement: pass")

    def test_alias_names(self, capsys):
        code, out, _ = run(capsys, "verify", "crystal-axioms", "--depth", "2")
        assert code == EXIT_OK
        assert "crystal-axioms: pass" in out

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "bogus")
        assert code == EXIT_USAGE
        assert "unknown check" in err

    def test_inconclusive_exit_code(self, capsys):
        code, out, _ = run(capsys, "verify", "image", "--w", "2", "--size", "0")
        assert code == EXIT_INCONCLUSIVE
        assert "image-equality: inconclusive" in out

    def test_json_reports(self, capsys):
        code, out, _ = run(capsys, "verify", "sigma", "--json")
        assert code == EXIT_OK
        reports = json.loads(out)
        assert reports[0]["check"] == "sigma-difference"
        assert reports[0]["status"] == "pass"

    def test_closure_with_explicit_charge(self, capsys):
        code, out, _ = run(
            capsys, "verify", "closure", "--k", "2", "--depth", "3", "--family", "A2"
        )
        assert code == EXIT_OK
        assert out.count("closure-equality: pass") == 1


class TestCrystal:
    def test_apply_single(self, capsys):
        code, out, _ = run(capsys, "crystal", "apply", "f1")
        assert code == EXIT_OK
        assert out == "a[2]=a[1,1]=1\n"

    def test_apply_twice_comma_separated(self, capsys):
        code, out, _ = run(capsys, "crystal", "f1,f1")
        assert code == EXIT_OK
        assert out == "a[2]=a[1,1]=2\n"

    def test_ops_flag(self, capsys):
        code, out, _ = run(capsys, "crystal", "--ops", "f1 f1")
        assert code == EXIT_OK
        assert out == "a[2]=a[1,1]=2\n"

    def test_raise_at_top_is_reported(self, capsys):
        code, out, _ = run(capsys, "crystal", "e1")
        assert code == EXIT_OK
        assert out == "undefined: e1 raises at epsilon 0\n"

    def test_lower_then_raise_returns_zero(self, capsys):
        code, out, _ = run(capsys, "crystal", "f2", "e2")
        assert code == EXIT_OK
        assert out == "0\n"

    def test_json_result(self, capsys):
        code, out, _ = run(capsys, "crystal", "f1", "--json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert LatticeElement.from_json(data["result"]) == LatticeElement({2: 1})

    def test_bad_operator_is_usage_error(self, capsys):
        code, _, err = run(capsys, "crystal", "g1")
        assert code == EXIT_USAGE
        assert "must look like" in err

    def test_color_out_of_range(self, capsys):
        code, _, err = run(capsys, "crystal", "f7")
        assert code == EXIT_USAGE
        assert "outside index set" in err


class TestEnumerate:
    def test_depth_one_listing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--depth", "1")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "4 elements at depth 1",
            "0",
            "a[1]=a[1,2]=1",
            "a[2]=a[1,1]=1",
            "a[3]=a[1,3]=1",
        ]

    def test_dep_alias(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--dep", "0")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "1 elements at depth 0"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--depth", "1", "--json")
        assert code == EXIT_OK
        elems = [LatticeElement.from_json(d) for d in json.loads(out)]
        assert LatticeElement.zero() in elems and len(elems) == 4


class TestRender:
    def test_eyd_with_negative_columns(self, capsys):
        code, out, _ = run(capsys, "render", "eyd", "charge", "1", "ys", "-3,-2,-1,-1,0")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "[][][][][]   y=1..0",
            "[][][][]   y=0..-1",
            "[][]   y=-1..-2",
            "[]   y=-2..-3",
        ]

    def test_eyd_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "render", "--json", "eyd", "charge", "2", "ys", "0,1")
        assert code == EXIT_OK
        T = ExtendedYoungDiagram.from_json(json.loads(out))
        assert T.charge == 2 and T.ys == (0, 1)

    def test_wall_picture(self, capsys):
        code, out, _ = run(capsys, "render", "--family", "A2", "wall", "halves", "8,4,2")
        assert code == EXIT_OK
        assert "~~~~~~~~~~~~  ground row 1" in out
        assert out.splitlines()[0] == "        [==]  row 4 color 2"

    def test_wall_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "render", "--family", "A2", "--json", "wall", "halves", "4,2"
        )
        assert code == EXIT_OK
        Y = YoungWall.from_json(json.loads(out))
        assert Y.halves == (4, 2)

    def test_reyd_classification(self, capsys):
        code, out, _ = run(
            capsys, "render", "--family", "A2", "reyd", "k", "2", "t_lo", "-1", "ys", "1,1,2"
        )
        assert code == EXIT_OK
        assert "admissible (-1,1) color 1 double" in out
        assert "removable (1,1) color 2" in out

    def test_missing_kind_is_usage_error(self, capsys):
        code, _, err = run(capsys, "render")
        assert code == EXIT_USAGE
        assert "render needs an object kind" in err
        code, out, err = run(capsys, "render", "--json", "eyd", "charge", "1x2")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: charge must be an integer, got '1x2'\n"
        code, out, err = run(capsys, "render", "--json", "eyd", "charge", "1_2")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: charge must be an integer, got '1_2'\n"

    def test_improper_object_is_usage_error(self, capsys):
        code, _, err = run(capsys, "render", "--family", "A2", "wall", "halves", "2,2")
        assert code == EXIT_USAGE
        assert "share a height" in err


class TestUsage:
    def test_bad_family_rejected_by_parser(self, capsys):
        code, _, _ = run(capsys, "inequalities", "--family", "E8", "--k", "1")
        assert code == EXIT_USAGE

    def test_word_not_adapted(self, capsys):
        code, _, err = run(capsys, "enumerate", "--word", "1,2,1,3")
        assert code == EXIT_USAGE
        assert "not adapted" in err

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE

    def test_verify_fail_exit_code(self, capsys):
        # a seed at s=5 with depth 8 overflows the default index bound
        # L*(depth+2), and the pruning is reported as a failure instead of a
        # silent pass.  This input prunes only because that default ignores
        # s (an open ROADMAP item); a fix there needs a new pruning input.
        code, out, _ = run(capsys, "verify", "closure", "--k", "1", "--depth", "8", "--s", "5")
        assert code == EXIT_FAIL
        assert "closure-equality: fail" in out
        assert "pruned" in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("inequalities", "--family", "A2", "--k", "2", "--bound", "2"),
            ("enumerate", "--family", "C1", "--depth", "2"),
            ("verify", "beta", "sigma"),
        ],
    )
    def test_repeated_runs_identical(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
