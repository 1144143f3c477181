"""Command-line interface: exit codes, golden output, JSON round trips."""

import contextlib
import functools
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polyreal import LatticeElement, LinearForm, cli, verify
from polyreal.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    default_word,
    main,
)
from polyreal.eyd import ExtendedYoungDiagram
from polyreal.root_data import MAX_RANK
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
        assert "'closure-equality'" in err and "'image-equality'" in err

    def test_report_names_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "closure-equality", "image-equality", "--depth", "2")
        assert code == EXIT_OK
        assert out.count("closure-equality: pass") == 3 and "image-equality: pass" in out

    @pytest.mark.parametrize(
        "argv", [("closure", "--k", "9"), ("closure", "--k", "0"), ("beta", "--k", "9")]
    )
    def test_invalid_charge_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == EXIT_USAGE and out == ""
        assert "valid charges: [1, 2, 3]" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("closure", "--depth", "-1"),
            ("image", "--w", "-1"),
            ("steps", "--size", "-1"),
            ("axioms", "--depth", "-3"),
            ("closure", "--s", "0"),
        ],
    )
    def test_bound_out_of_range_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == EXIT_USAGE and out == ""
        assert "must be at least" in err

    @pytest.mark.parametrize(
        "argv,count",
        [
            (("positivity", "--depth", "0"), "forms_checked=6"),
            (("steps", "--size", "0"), "toggles_checked=6"),
        ],
    )
    def test_zero_bound_is_used(self, capsys, argv, count):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == EXIT_OK
        assert count in out

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

    @pytest.mark.parametrize(
        "argv", [("--s", "99999999999"), ("--s", "9223372036854775807", "--depth", "1")]
    )
    def test_large_occurrence_passes(self, capsys, argv):
        # the closure's codes count their fields from the lowest single index
        # reached, so a seed at a large s packs as small as one near the depth
        code, out, _ = run(capsys, "verify", "closure", "--n", "3", *argv, "--json")
        assert code == EXIT_OK
        reports = json.loads(out)
        assert [(r["status"], r["params"]["s"]) for r in reports] == [("pass", int(argv[1]))] * 3


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
        code, out, _ = run(capsys, "crystal", "e1", "--json")
        assert code == EXIT_OK
        assert json.loads(out) == {"result": None, "undefined_at": "e1"}

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
        for op in ("f+1", "f1_0", "f"):
            code, out, err = run(capsys, "crystal", op)
            assert code == EXIT_USAGE and out == ""
            assert err == f"error: operator {op!r} must look like f1 or e2\n"

    def test_color_out_of_range(self, capsys):
        code, _, err = run(capsys, "crystal", "f7")
        assert code == EXIT_USAGE
        assert "outside index set" in err

    def test_color_error_at_a_large_rank_is_one_short_line(self, capsys):
        # the index set is named by its range, not listed color by color
        code, out, err = run(capsys, "crystal", "--n", "20000", "f20001")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: color 20001 outside index set 1..20000\n"


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

    @pytest.mark.parametrize("t_lo", ["9223372036854775807", "-9223372036854775807"])
    def test_reyd_t_lo_out_of_range_is_usage_error(self, capsys, t_lo):
        # rejected before the values are padded out to position 0
        argv = ("render", "--family", "A2", "--n", "3", "reyd", "k", "2", "t_lo", t_lo, "ys", "1")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: t_lo must lie in -1..1 for a window of length 1, got {t_lo}\n"

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
        code, out, err = run(capsys, "render", "eyd", "charge", "1", "ys", "-1_0,0")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: expected integers, got '-1_0,0'\n"

    def test_improper_object_is_usage_error(self, capsys):
        code, _, err = run(capsys, "render", "--family", "A2", "wall", "halves", "2,2")
        assert code == EXIT_USAGE
        assert "share a height" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("eyd", "charge", "1", "yss", "-1,0"), "unknown eyd key 'yss'"),
            (("eyd", "charge", "1", "ys", "0", "extra"), "eyd key 'extra' has no value"),
            (("eyd", "charge", "1", "ys"), "eyd key 'ys' has no value"),
            (("eyd", "charge", "1", "charge", "2", "ys", "0"), "eyd key 'charge' given twice"),
            (("--family", "A2", "wall", "halves", "2", "flavor", "A2wall"), "unknown wall key"),
            (("eyd", "ys", "1"), "missing charge\n"),
            (("--family", "A1", "wall", "halves", "2"), "wall rendering needs --family A2 or C1\n"),
            (
                ("--family", "A1", "reyd", "k", "2", "ys", "1"),
                "reyd rendering needs --family A2 or C1, or an explicit flavor\n",
            ),
        ],
    )
    def test_only_the_kinds_keys_each_once_with_a_value(self, capsys, argv, message):
        code, out, err = run(capsys, "render", *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,height",
        [
            (("eyd", "charge", "9223372036854775807", "ys", "1"), 9223372036854775806),
            (("eyd", "charge", "10001", "ys", "0"), 10001),
            (("--family", "A2", "wall", "halves", "9223372036854775806"), 9223372036854775805),
        ],
    )
    def test_too_high_picture_is_usage_error(self, capsys, argv, height):
        # a legal object whose picture would pass the row limit is refused
        # in one line naming its height, before anything is drawn
        code, out, err = run(capsys, "render", *argv)
        kind = argv[argv.index("halves") - 1] if "halves" in argv else argv[0]
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {kind} of height {height} is too high to draw; the limit is 10000\n"
        assert cli.RENDER_HEIGHT == 10000
        # the object itself is still printed as JSON
        code, out, _ = run(capsys, "render", "--json", *argv)
        assert code == EXIT_OK and json.loads(out)

    def test_picture_at_the_limit_is_drawn(self, capsys):
        code, out, _ = run(capsys, "render", "eyd", "charge", "10000", "ys", "0")
        assert code == EXIT_OK and len(out.splitlines()) == 10000

    @pytest.mark.parametrize("kind", [("wall", "halves", "4,2"), ("reyd", "k", "2", "ys", "2")])
    def test_largest_rank_is_drawn(self, capsys, kind):
        # a wall or revised diagram reads its row colors, or its point colors
        # and special residues, one entry at a time, so a rank of 2^63 - 1
        # builds no table of that size
        argv = ("render", "--family", "A2", "--n", "9223372036854775807", *kind)
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK and out

    def test_reyd_takes_an_explicit_flavor(self, capsys):
        argv = ("reyd", "flavor", "A2", "k", "2", "t_lo", "-1", "ys", "1,1,2")
        code, out, _ = run(capsys, "render", "--json", *argv)
        assert code == EXIT_OK
        assert json.loads(out)["flavor"] == "A2"


class TestUsage:
    def test_bad_family_rejected_by_parser(self, capsys):
        code, _, _ = run(capsys, "inequalities", "--family", "E8", "--k", "1")
        assert code == EXIT_USAGE

    def test_word_not_adapted(self, capsys):
        code, _, err = run(capsys, "enumerate", "--word", "1,2,1,3")
        assert code == EXIT_USAGE
        assert "not adapted" in err

    @pytest.mark.parametrize("word", ["", ",", " "])
    @pytest.mark.parametrize("argv", [("verify", "beta"), ("inequalities", "--k", "1")])
    def test_empty_word_is_usage_error(self, capsys, argv, word):
        # an empty --word is a word with no letters, not the default word
        code, out, err = run(capsys, *argv, "--word", word)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: word must be nonempty\n"

    def test_word_letters_follow_the_integer_rule(self, capsys):
        # a word letter is an optional minus and ASCII digits, as in render
        for word in ("2,+1,3", "2,1_0,3", "2,１,3"):
            code, out, err = run(capsys, "enumerate", "--word", word)
            assert code == EXIT_USAGE and out == ""
            assert err == f"error: expected integers, got {word!r}\n"
        assert run(capsys, "enumerate", "--word", "₂,₁,₃") == run(capsys, "enumerate")

    @pytest.mark.parametrize(
        "argv,option,text",
        [
            (("enumerate", "--depth", "1_0", "--n", "+3"), "--depth/--dep", "1_0"),
            (("enumerate", "--n", "+3"), "--n", "+3"),
            (("enumerate", "--depth", "１"), "--depth/--dep", "１"),
            (("inequalities", "--k", "+1"), "--k", "+1"),
            (("verify", "beta", "--k", " 1"), "--k", " 1"),
        ],
    )
    def test_options_follow_the_integer_rule(self, capsys, argv, option, text):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.endswith(f"error: argument {option}: invalid integer value: {text!r}\n")

    @pytest.mark.parametrize(
        "argv,line",
        [
            (
                ("verify", "--n", "99999999999999999999999"),
                "polyreal verify: error: argument --n: "
                "must be at most 9223372036854775807, got 99999999999999999999999",
            ),
            (
                ("render", "--family", "A2", "reyd", "k", "2", "t_lo", "-99999999999999999999999",
                 "ys", "1"),
                "error: t_lo must be at least -9223372036854775807, got -99999999999999999999999",
            ),
            (
                ("render", "--family", "A2", "reyd", "k", "2", "t_lo", "99999999999999999999999",
                 "ys", "1"),
                "error: t_lo must be at most 9223372036854775807, got 99999999999999999999999",
            ),
            (
                ("render", "--family", "A2", "reyd", "k", "2", "ys", "1,9223372036854775808"),
                "error: ys must be at most 9223372036854775807, got 9223372036854775808",
            ),
            (
                ("enumerate", "--word", "2,1,-0009223372036854775808"),
                "error: --word must be at least -9223372036854775807, got -0009223372036854775808",
            ),
            (
                ("crystal", "f" + "9" * 5000),
                f"error: the color of 'f{'9' * 5000}' must be at most 9223372036854775807, "
                f"got {'9' * 5000}",
            ),
            (
                ("verify", "closure", "--depth", "1" + "0" * 19),
                "polyreal verify: error: argument --depth/--dep: "
                "must be at most 9223372036854775807, got 10000000000000000000",
            ),
        ],
        ids=[f"argv{i}" for i in range(7)],
    )
    def test_huge_integer_is_usage_error(self, capsys, argv, line):
        # an integer past the machine's index size would overflow where it
        # sizes or indexes a sequence, so the parse rejects it and names its
        # flag or key: one line of its own, exit 2
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        if line.startswith("error: "):
            assert err == f"{line}\n"
        else:  # argparse's usage lines come first
            assert err.endswith(f"\n{line}\n")

    def test_largest_integer_is_parsed(self, capsys):
        code, out, err = run(capsys, "crystal", "f9223372036854775807")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: color 9223372036854775807 outside index set 1..3\n"

    @pytest.mark.parametrize("subcommand", ["verify", "enumerate"])
    def test_rank_too_large_to_build_is_usage_error(self, subcommand):
        # a rank past MAX_RANK is refused before anything of its size is
        # built: one line and exit 2, fast, in a child whose memory is limited
        for n in (MAX_RANK + 1, 1099511627776):
            done = limited_child(subcommand, "--n", str(n), gate=1)
            assert done.returncode == EXIT_USAGE and done.stdout == ""
            assert done.stderr == f"error: family A1 needs n <= {MAX_RANK}, got {n}\n"

    def test_options_read_subscript_digits(self, capsys):
        assert run(capsys, "enumerate", "--depth", "₂", "--n", "₃") == run(capsys, "enumerate")

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE

    def test_verify_fail_exit_code(self, capsys, monkeypatch):
        # a tiny index bound prunes the closure, and the pruning is reported
        # as a failure instead of a silent pass.  The cli looks the check up
        # by name at call time, so it runs the patched one.
        monkeypatch.setattr(
            verify,
            "check_closure_equality",
            functools.partial(verify.check_closure_equality, index_bound=4),
        )
        code, out, _ = run(capsys, "verify", "closure", "--k", "1", "--depth", "4")
        assert code == EXIT_FAIL
        assert "closure-equality: fail" in out
        assert "pruned" in out


class TestSuiteFault:
    """A suite that raises on valid input fails its report, one that runs out
    of memory is inconclusive; the others still run."""

    @staticmethod
    def raising(exc):
        def check(*args, **kwargs):
            raise exc

        return check

    def test_raise_fails_its_report(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify, "check_beta_agreement", self.raising(ValueError("beta needs s >= 1, got 0"))
        )
        code, out, err = run(capsys, "verify", "--json", "--depth", "2", "--w", "2", "--size", "2")
        assert code == EXIT_FAIL and err == ""
        reports = json.loads(out)
        assert [r["check"] for r in reports if r["check"] != "closure-equality"] == [
            "step-identities",
            "image-equality",
            "crystal-axioms",
            "xi-positivity",
            "beta-agreement",
            "sigma-difference",
        ]
        assert sum(r["check"] == "closure-equality" for r in reports) == 3
        failed = [r for r in reports if r["status"] != "pass"]
        assert [r["check"] for r in failed] == ["beta-agreement"]
        assert failed[0]["status"] == "fail"
        assert failed[0]["witnesses"][0] == "ValueError: beta needs s >= 1, got 0"
        assert failed[0]["params"]["word"] == [2, 1, 3]

    def test_key_error_fails_without_traceback(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "check_closure_equality", self.raising(KeyError("x")))
        code, out, err = run(capsys, "verify", "closure", "sigma", "--depth", "2")
        assert code == EXIT_FAIL and err == ""
        assert out.count("closure-equality: fail") == 3
        assert "  witness: KeyError: 'x'" in out
        assert "sigma-difference: pass" in out

    def test_out_of_memory_is_inconclusive(self, capsys, monkeypatch):
        # running out of memory decides nothing: the suite's report is
        # inconclusive with one witness naming it and its bounds, and the
        # other suites still run
        monkeypatch.setattr(verify, "check_crystal_axioms", self.raising(MemoryError()))
        code, out, err = run(capsys, "verify", "--json", "axioms", "beta", "--depth", "2")
        assert code == EXIT_INCONCLUSIVE and err == ""
        axioms, beta = json.loads(out)
        assert axioms["check"] == "crystal-axioms" and axioms["status"] == "inconclusive"
        assert axioms["witnesses"] == ["MemoryError: crystal-axioms ran out of memory at n=3, depth=2"]
        assert axioms["counts"] == {} and axioms["params"]["depth"] == 2
        assert beta["check"] == "beta-agreement" and beta["status"] == "pass"

    def test_out_of_memory_names_the_charge_or_the_default_bounds(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "check_closure_equality", self.raising(MemoryError()))
        monkeypatch.setattr(verify, "check_sigma_difference", self.raising(MemoryError()))
        code, out, _ = run(capsys, "verify", "closure", "sigma", "--k", "2")
        assert code == EXIT_INCONCLUSIVE
        assert out.splitlines() == [
            "closure-equality: inconclusive ()",
            "  witness: MemoryError: closure-equality ran out of memory at n=3, k=2",
            "sigma-difference: inconclusive ()",
            "  witness: MemoryError: sigma-difference ran out of memory at n=3, default bounds",
        ]

    def test_bad_word_is_still_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--word", "1,2,1,3")
        assert code == EXIT_USAGE and out == ""
        assert "not adapted" in err and "Traceback" not in err


class TestMissingCharge:
    """The closure argument needs every charge of the index set: a generator
    table that drops one fails verify with a witness naming it."""

    def test_dropped_reyd_charge_fails(self, capsys, monkeypatch):
        real = verify.family_generators

        def dropped(family, n):
            table = real(family, n)
            flavor, charges = table["reyd"]
            return {**table, "reyd": (flavor, [k for k in charges if k != n - 1])}

        monkeypatch.setattr(verify, "family_generators", dropped)
        code, out, err = run(capsys, "verify", "--json", "--family", "C1", "--n", "4")
        assert code == EXIT_FAIL and err == ""
        closures = [r for r in json.loads(out) if r["check"] == "closure-equality"]
        assert [r["params"]["k"] for r in closures[:-1]] == [1, 4, 2]
        assert closures[-1]["status"] == "fail"
        assert closures[-1]["counts"] == {"missing_charges": 1}
        assert closures[-1]["witnesses"] == [
            "generator charges [1, 2, 4] are not the index set [1, 2, 3, 4]; missing [3]"
        ]

    @pytest.mark.parametrize("family", ["A1", "C1", "A2", "D2"])
    def test_real_table_adds_no_report(self, capsys, family):
        code, out, _ = run(capsys, "verify", "closure", "--json", "--family", family, "--n", "4",
                           "--depth", "2")
        reports = json.loads(out)
        assert code == EXIT_OK
        assert sorted(r["params"]["k"] for r in reports) == [1, 2, 3, 4]

    def test_single_charge_is_not_checked(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "family_generators", lambda family, n: {"eyd": (None, [1])})
        code, out, _ = run(capsys, "verify", "closure", "--k", "1", "--depth", "2")
        assert code == EXIT_OK and out.count("closure-equality") == 1


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


# Fuzz vocabulary: suite and object names, flags with a small int, and
# garbage.  Each subcommand starts from small bounds so that a run stays cheap;
# a fuzzed flag given later overrides them.
_NAMES = [
    "steps", "closure", "image", "axioms", "positivity", "beta", "sigma", "all",
    "step-identities", "closure-equality", "image-equality", "crystal-axioms",
    "xi-positivity", "beta-agreement", "sigma-difference", "--json", "A2", "C1", "D2",
    "2,1,3", "1,2", "3,1,2", "2,1,3,2,3,1", "apply", "f1", "e2", "f3", "eyd", "reyd", "wall",
    "charge", "ys", "halves", "k", "t_lo", "ground", "flavor", "-1,0", "1,1,2", "8,4,2",
    "+1", "1_0",
]
_FLAGS = [
    "--k", "--s", "--depth", "--dep", "--w", "--weight", "--size", "--bound", "--n",
    "--family", "--word", "--ops",
]
_TOKENS = st.one_of(
    st.tuples(st.sampled_from(_FLAGS), st.integers(-3, 3).map(str)).map(list),
    st.sampled_from(_NAMES).map(lambda t: [t]),
    st.text(max_size=4).map(lambda t: [t]),
)
_SMALL = {
    "verify": ["--depth", "2", "--w", "2", "--size", "2"],
    "inequalities": ["--bound", "2"],
    "crystal": ["--depth", "2"],
    "enumerate": ["--depth", "2"],
    "render": [],
}


class TestFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(_SMALL)), st.lists(_TOKENS, max_size=6))
    def test_exit_codes(self, command, tokens):
        argv = [command] + _SMALL[command] + [t for group in tokens for t in group]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_INCONCLUSIVE), argv
        assert "Traceback" not in err.getvalue()
        if code == EXIT_FAIL:
            assert ": fail (" in out.getvalue() or '"status": "fail"' in out.getvalue(), argv


class TestProfile:
    """--profile prints the profile to stderr and changes neither the JSON on
    stdout nor the exit code."""

    @pytest.mark.parametrize(
        "argv,code",
        [
            (("verify", "beta"), EXIT_OK),
            (("verify", "closure", "--k", "1", "--depth", "4"), EXIT_FAIL),
            (("verify", "image", "--w", "2", "--size", "0"), EXIT_INCONCLUSIVE),
        ],
    )
    def test_same_reports_and_exit_code(self, capsys, monkeypatch, argv, code):
        # a tiny index bound makes the closure check fail
        monkeypatch.setattr(
            verify,
            "check_closure_equality",
            functools.partial(verify.check_closure_equality, index_bound=4),
        )
        plain = run(capsys, *argv, "--json")
        profiled = run(capsys, *argv, "--json", "--profile", "4")
        assert plain[0] == profiled[0] == code
        assert json.loads(profiled[1]) == json.loads(plain[1])
        assert plain[2] == ""
        assert "Ordered by: internal time" in profiled[2]
        assert "due to restriction <4>" in profiled[2]

    def test_count_must_be_positive(self, capsys):
        code, out, err = run(capsys, "verify", "beta", "--profile", "0")
        assert code == EXIT_USAGE and out == ""
        assert err.endswith("error: argument --profile: must be at least 1, got 0\n")

    def test_profiler_imported_only_with_the_flag(self):
        script = (
            "import sys\n"
            "from polyreal.cli import main\n"
            "main(sys.argv[1:])\n"
            "print('cProfile' in sys.modules, 'pstats' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        for flags, loaded in (((), "False False"), (("--profile", "1"), "True True")):
            argv = [sys.executable, "-c", script, "verify", "beta", *flags]
            done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
            assert done.returncode == 0 and done.stdout.splitlines()[-1] == loaded


# The address-space limit of limited_child: a run at rank 20000 needs less
# than 100 MB, and one that builds an n x n table at that rank 3.2 GB.
CHILD_MEMORY = 512 * 2**20


def limited_child(*argv, gate):
    """`python -m polyreal argv` in a child under CHILD_MEMORY of address
    space; a subprocess.TimeoutExpired, which fails the test, unless it exits
    within gate seconds."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = [sys.executable, "-m", "polyreal", *argv]
    return subprocess.run(
        argv, capture_output=True, text=True, env=env, timeout=gate, preexec_fn=limit
    )


class TestLargeRank:
    """The root data, the adapted word and the step check are linear in the
    rank, so a large rank runs in bounded time and memory."""

    @pytest.mark.parametrize("family", ["A1", "C1"])
    def test_steps_at_rank_20000(self, family):
        argv = ("verify", "--family", family, "--n", "20000", "steps", "--size", "0")
        done = limited_child(*argv, gate=10)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.startswith("step-identities: pass")


class TestModuleEntry:
    """`python -m polyreal` runs the cli and exits with its code; importing
    the package does not load the entry module."""

    ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def python(self, *argv):
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=self.ENV, timeout=60
        )

    def test_exit_codes(self):
        problem = ("--family", "A1", "--word", "1,2,3")
        done = self.python("-m", "polyreal", "verify", "closure", "--n", "3", *problem)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.startswith("closure-equality: pass")
        done = self.python("-m", "polyreal", "verify", "closure", "--n", "1", *problem)
        assert done.returncode == EXIT_USAGE and done.stdout == ""
        assert done.stderr.splitlines() == ["error: family A1 needs n >= 2, got 1"]

    def test_import_leaves_the_entry_module_out(self):
        done = self.python("-c", "import sys, polyreal; print('polyreal.__main__' in sys.modules)")
        assert done.returncode == 0 and done.stdout == "False\n"

    @pytest.mark.parametrize("argv", [["verify", "--json", "beta"], ["enumerate", "--depth", "6"]])
    def test_closed_stdout_exits_141_quietly(self, argv):
        # stdout is a pipe whose reader has already closed, as under `| head`
        # once head has exited; a suite that passes must not read as exit 1
        # stdout is block-buffered, as it is by default, so the short json
        # output meets the closed pipe only when it is flushed
        env = {key: value for key, value in self.ENV.items() if key != "PYTHONUNBUFFERED"}
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "polyreal", *argv],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (EXIT_BROKEN_PIPE, "")


def readme_examples():
    """The `polyreal ...` lines of README's sh blocks, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("polyreal ")]


class TestReadmeExamples:
    """Every command README shows runs and exits 0, so no example drifts from the cli."""

    def test_examples_exit_ok(self, capsys):
        examples = readme_examples()
        assert examples
        failed = []
        for line in examples:
            code = main(shlex.split(line, comments=True)[1:])
            err = capsys.readouterr().err
            if code != EXIT_OK:
                failed.append((line, code, err))
        assert not failed
