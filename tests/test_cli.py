"""Command-line interface: exit codes, golden output, JSON round trips."""

import contextlib
import functools
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from polyreal import LatticeElement, LinearForm, verify
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
        for op in ("f+1", "f1_0", "f"):
            code, out, err = run(capsys, "crystal", op)
            assert code == EXIT_USAGE and out == ""
            assert err == f"error: operator {op!r} must look like f1 or e2\n"

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
        ],
    )
    def test_only_the_kinds_keys_each_once_with_a_value(self, capsys, argv, message):
        code, out, err = run(capsys, "render", *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

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
        "argv",
        [
            ("verify", "--n", "99999999999999999999999"),
            ("render", "--family", "A2", "reyd", "k", "2", "t_lo", "-99999999999999999999999",
             "ys", "1"),
            ("render", "--family", "A2", "reyd", "k", "2", "t_lo", "99999999999999999999999",
             "ys", "1"),
        ],
    )
    def test_huge_integer_is_usage_error(self, capsys, argv):
        # an integer past the machine's index size overflows: one line, exit 2
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

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
    """A suite that raises on valid input fails its report; the others still run."""

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
