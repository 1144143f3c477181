"""Command-line surface: inequalities, verification, crystal operations, rendering.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 inconclusive-only verification.  A suite that raises on valid input
fails its report, with the exception as witness, and the other suites run;
one that runs out of memory decided nothing, so its report is inconclusive.
Output is deterministic for a given invocation; --json switches every
subcommand to machine-readable form.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional, Sequence

from .root_data import (
    AdaptedSequence,
    AlgebraType,
    FAMILIES,
    build_adapted,
    build_root_system,
)
from .lattice_crystal import (
    LatticeElement,
    enumerate_image,
    etilde,
    format_element,
    ftilde,
)
from .forms import LinearForm, site_form
from . import eyd as eyd_mod
from . import reyd as reyd_mod
from . import young_wall as wall_mod
from . import verify as verify_mod

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: stdout's reader closed the pipe

# The verification suites in the order of "all": short name to report name,
# verify function name, and the keywords it takes from the verify flags (each
# flag's dest is its keyword).  Held by name so that a call finds a function
# rebound on verify, as the benchmark's tracer does.
SUITES = {
    "steps": ("step-identities", "check_step_identities", ("size_bound",)),
    "closure": ("closure-equality", "check_closure_equality", ("depth", "s")),
    "image": ("image-equality", "check_image_equality", ("max_weight", "size_bound")),
    "axioms": ("crystal-axioms", "check_crystal_axioms", ("depth",)),
    "positivity": ("xi-positivity", "check_positivity", ("depth",)),
    "beta": ("beta-agreement", "check_beta_agreement", ()),
    "sigma": ("sigma-difference", "check_sigma_difference", ()),
}


class UsageError(argparse.ArgumentTypeError):
    """A bad command line, reported by main, or by argparse when an argument type raises it."""


def _int_type(low: Optional[int] = None):
    """An argparse type: an integer by _integer's rule, and at least low when given."""

    def integer(text: str) -> int:
        value = _integer(text, f"invalid integer value: {text!r}")
        if low is not None and value < low:
            raise UsageError(f"must be at least {low}, got {value}")
        return value

    return integer


_SUBSCRIPTS = str.maketrans("₀₁₂₃₄₅₆₇₈₉−", "0123456789-")


def _integer(text: str, error: str, name: str = "") -> int:
    """The cli's one integer rule: an optional minus, then ASCII digits, after
    _SUBSCRIPTS, with a magnitude of at most sys.maxsize, the largest sequence
    index, so that no value overflows where it sizes or indexes a sequence.
    Other text raises error.  A value out of range is named by name; an
    option passes none, since argparse names the option itself."""
    raw = text.translate(_SUBSCRIPTS)
    if not re.fullmatch(r"-?[0-9]+", raw):
        raise UsageError(error)
    # the digits are counted first, so that a huge text is never converted
    if len(raw.lstrip("-0")) <= len(str(sys.maxsize)) and abs(int(raw)) <= sys.maxsize:
        return int(raw)
    bound = f"at least {-sys.maxsize}" if raw.startswith("-") else f"at most {sys.maxsize}"
    raise UsageError(f"{name} must be {bound}, got {raw}".lstrip())


def _parse_ints(text: str, name: str) -> List[int]:
    """Parse a comma, space or bracket separated integer list; empty text means []."""
    error = f"expected integers, got {text!r}"
    return [_integer(p, error, name) for p in re.findall(r"[^\s,\[\]]+", text)]


def default_word(n: int) -> List[int]:
    return [1, 2] if n == 2 else [2, 1] + list(range(3, n + 1))


def build_sequence(args: argparse.Namespace) -> AdaptedSequence:
    system = build_root_system(AlgebraType(args.family, args.n))
    word = default_word(args.n) if args.word is None else _parse_ints(args.word, "--word")
    return build_adapted(system, word)


def _dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _window_sites(seq: AdaptedSequence, kind: str, k: int, bound: int) -> list:
    """The sites of the generator objects fitting a bound x bound window."""
    return [
        sites
        for obj, sites, _ in verify_mod.generator_objects(
            seq, kind, k, bound * bound, halves=kind == "wall"
        )
        if len(obj.columns()) <= bound and max(obj.columns(), default=0) <= bound
    ]


def cmd_inequalities(args: argparse.Namespace) -> int:
    seq = build_sequence(args)
    kind = verify_mod.charge_kind(seq, args.k)
    forms = {site_form(sites, args.s) for sites in _window_sites(seq, kind, args.k, args.bound)}
    ordered = sorted(forms, key=LinearForm.sort_key)
    if args.json:
        print(_dump([f.to_json() for f in ordered]))
    else:
        for f in ordered:
            print(f"{f} >= 0")
    return EXIT_OK


def _fault_report(
    name: str, seq: AdaptedSequence, params: dict, exc: Exception
) -> verify_mod.VerificationReport:
    """A failed report for a suite that raised: the exception, then where it was raised."""
    import traceback  # only on a fault, so that importing the cli stays cheap

    frame = traceback.extract_tb(exc.__traceback__)[-1]
    witnesses = [
        f"{type(exc).__name__}: {exc}",
        f"raised at {os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}",
    ]
    return verify_mod._report(name, seq, params, {}, witnesses, failed=1, examined=0)


def _out_of_memory_report(
    name: str, seq: AdaptedSequence, params: dict
) -> verify_mod.VerificationReport:
    """An inconclusive report for a suite that ran out of memory, naming it and its bounds."""
    bounds = ", ".join(f"{key}={value}" for key, value in params.items()) or "default bounds"
    witness = f"MemoryError: {name} ran out of memory at n={seq.root_system.n}, {bounds}"
    return verify_mod._report(name, seq, params, {}, [witness], failed=0, examined=0)


def cmd_verify(args: argparse.Namespace) -> int:
    names = {alias: [short] for short, (name, _, _) in SUITES.items() for alias in (short, name)}
    names["all"] = list(SUITES)
    resolved: List[str] = []
    for raw in args.checks or ["all"]:
        if raw not in names:
            raise UsageError(f"unknown check {raw!r}; choose from {sorted(names)}")
        resolved += [short for short in names[raw] if short not in resolved]
    seq = build_sequence(args)
    charges = [k for _, k in verify_mod.generator_kinds(seq)]
    if args.k is not None:
        verify_mod.charge_kind(seq, args.k)
        charges = [args.k]
    if args.profile is None:
        reports = _run_suites(args, seq, resolved, charges)
    else:
        # only with --profile, so that importing the cli stays cheap
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        reports = profiler.runcall(_run_suites, args, seq, resolved, charges)
        pstats.Stats(profiler, stream=sys.stderr).sort_stats("tottime").print_stats(args.profile)
    if args.json:
        print(_dump([r.to_json() for r in reports]))
    else:
        for r in reports:
            print(r.summary())
            for w in r.witnesses:
                print(f"  witness: {w}")
    if any(r.status == "fail" for r in reports):
        return EXIT_FAIL
    if any(r.status == "inconclusive" for r in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _run_suites(
    args: argparse.Namespace, seq: AdaptedSequence, resolved: List[str], charges: List[int]
) -> List[verify_mod.VerificationReport]:
    """The reports of the resolved suites in order, the closure suite's once per charge."""
    reports = []
    for short in resolved:
        name, function, keywords = SUITES[short]
        check = getattr(verify_mod, function)
        kwargs = {kw: getattr(args, kw) for kw in keywords if getattr(args, kw) is not None}
        calls = [((k,), {"k": k, **kwargs}) for k in charges] if short == "closure" else [((), kwargs)]
        for positional, params in calls:
            try:
                report = check(seq, *positional, **kwargs)
            except MemoryError:
                # the machine's memory, not the engine, stopped the suite: it
                # decided nothing, and the other suites still run.  Its report
                # is made past the handler, once the suite's frames are freed.
                report = None
            except Exception as exc:
                # the input was valid, so a raise is a fault of the engine:
                # its suite fails and the other suites still run
                report = _fault_report(name, seq, params, exc)
            reports.append(report or _out_of_memory_report(name, seq, params))
        index_set = list(seq.root_system.index_set)
        if short == "closure" and args.k is None and sorted(set(charges)) != index_set:
            # the closure argument needs the closure of x_{s,k} for every k in I
            missing = sorted(set(index_set) - set(charges))
            witness = f"generator charges {sorted(set(charges))} are not the index set {index_set}"
            counts = {"missing_charges": len(missing)}
            reports.append(verify_mod._report(
                name, seq, {}, counts, [f"{witness}; missing {missing}"], 1, examined=0))
    return reports


def _parse_ops(tokens: Sequence[str]) -> List[str]:
    ops: List[str] = []
    for token in tokens:
        for piece in token.replace(",", " ").split():
            ops.append(piece)
    if ops and ops[0] == "apply":
        ops = ops[1:]
    return ops


def cmd_crystal(args: argparse.Namespace) -> int:
    seq = build_sequence(args)
    ops = _parse_ops((args.ops_positional or []) + (_parse_ops([args.ops]) if args.ops else []))
    if not ops:
        return _print_enumeration(seq, args)
    a: Optional[LatticeElement] = LatticeElement.zero()
    for op in ops:
        error = f"operator {op!r} must look like f1 or e2"
        if op[0] not in ("f", "e"):
            raise UsageError(error)
        i = _integer(op[1:], error, f"the color of {op!r}")
        if not 1 <= i <= seq.root_system.n:
            raise UsageError(f"color {i} outside index set 1..{seq.root_system.n}")
        if op[0] == "f":
            a = ftilde(seq, a, i)
        else:
            a = etilde(seq, a, i)
            if a is None:
                if args.json:
                    print(_dump({"result": None, "undefined_at": op}))
                else:
                    print(f"undefined: {op} raises at epsilon 0")
                return EXIT_OK
    if args.json:
        print(_dump({"result": a.to_json()}))
    else:
        print(format_element(seq, a))
    return EXIT_OK


def _print_enumeration(seq: AdaptedSequence, args: argparse.Namespace) -> int:
    elems = sorted(enumerate_image(seq, args.depth), key=LatticeElement.items)
    if args.json:
        print(_dump([a.to_json() for a in elems]))
    else:
        print(f"{len(elems)} elements at depth {args.depth}")
        for a in elems:
            print(format_element(seq, a))
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    seq = build_sequence(args)
    return _print_enumeration(seq, args)


# Per render kind: the object's class and picture, its integer keys with their
# defaults (None when required), its list key, the JSON key of its flavor, and
# whether the user may give that flavor explicitly.  A picture is drawn only
# for an object whose deepest column (columns(), in boxes, units or halves) is
# at most RENDER_HEIGHT: an eyd picture has one row per box of that column and
# a wall picture one per two halves, so a legal but huge object would never
# finish printing.
RENDER_HEIGHT = 10_000
_RENDER = {
    "eyd": (eyd_mod.ExtendedYoungDiagram, eyd_mod.render_eyd, {"charge": None}, "ys", None, False),
    "reyd": (
        reyd_mod.RevisedEYD, reyd_mod.render_reyd, {"k": None, "t_lo": 0}, "ys", "flavor", True
    ),
    "wall": (wall_mod.YoungWall, wall_mod.render_wall, {"ground": 1}, "halves", "family", False),
}


def _key_int(pairs: dict, key: str, default: Optional[int] = None) -> int:
    if key not in pairs:
        if default is None:
            raise UsageError(f"missing {key}")
        return default
    return _integer(pairs[key], f"{key} must be an integer, got {pairs[key]!r}", key)


def cmd_render(args: argparse.Namespace) -> int:
    tokens = [t for t in args.object if t != "--"]
    if "--json" in tokens:
        args.json = True
        tokens = [t for t in tokens if t != "--json"]
    if not tokens:
        raise UsageError("render needs an object kind: eyd, reyd, or wall")
    kind, rest = tokens[0], tokens[1:]
    if kind not in _RENDER:
        raise UsageError(f"unknown render kind {kind!r}")
    cls, picture, int_keys, list_key, flavor_key, explicit = _RENDER[kind]
    known = [*int_keys, list_key] + (["flavor"] if explicit else [])
    if len(rest) % 2:
        raise UsageError(f"{kind} key {rest[-1]!r} has no value")
    pairs = {}
    for key, value in zip(rest[::2], rest[1::2]):
        if key not in known:
            raise UsageError(f"unknown {kind} key {key!r}; expected one of {known}")
        if key in pairs:
            raise UsageError(f"{kind} key {key!r} given twice")
        pairs[key] = value
    data = {key: _key_int(pairs, key, default) for key, default in int_keys.items()}
    data[list_key] = _parse_ints(pairs.get(list_key, ""), list_key)
    data["n"] = args.n
    if flavor_key:
        flavor, _ = verify_mod.family_generators(args.family, args.n).get(kind, (None, None))
        if explicit:
            flavor = pairs.get("flavor", flavor)
        if flavor is None:
            hint = ", or an explicit flavor" if explicit else ""
            raise UsageError(f"{kind} rendering needs --family A2 or C1{hint}")
        data[flavor_key] = flavor
    obj = cls.from_json(data)
    if args.json:
        print(_dump(obj.to_json()))
        return EXIT_OK
    height = max(obj.columns(), default=0)
    if height > RENDER_HEIGHT:
        raise UsageError(f"{kind} of height {height} is too high to draw; the limit is {RENDER_HEIGHT}")
    print(picture(obj))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    integer, nonneg, positive = _int_type(), _int_type(0), _int_type(1)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family", choices=list(FAMILIES), default="A1")
    common.add_argument("--n", type=integer, default=3)
    common.add_argument("--word", type=str, default=None, help="comma-separated colors, e.g. 2,1,3")
    common.add_argument("--json", action="store_true")

    parser = argparse.ArgumentParser(
        prog="polyreal",
        description="Polyhedral realizations over adapted sequences for four affine families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ineq = sub.add_parser("inequalities", parents=[common], help="emit generator forms")
    p_ineq.add_argument("--k", type=integer, required=True, help="charge of the generator family")
    p_ineq.add_argument("--s", type=positive, default=1, help="base occurrence index")
    p_ineq.add_argument("--bound", type=nonneg, default=2, help="window size for enumerated shapes")
    p_ineq.set_defaults(func=cmd_inequalities)

    p_verify = sub.add_parser("verify", parents=[common], help="run verification suites")
    p_verify.add_argument("checks", nargs="*", help="check names, default all")
    p_verify.add_argument("--k", type=integer, default=None)
    p_verify.add_argument("--s", type=positive, default=None)
    p_verify.add_argument("--depth", "--dep", dest="depth", type=nonneg, default=None)
    p_verify.add_argument("--weight", "--w", dest="max_weight", type=nonneg, default=None)
    p_verify.add_argument("--size", dest="size_bound", type=nonneg, default=None)
    p_verify.add_argument(
        "--profile",
        type=positive,
        default=None,
        metavar="N",
        help="profile the suites and print the top N functions by own time to stderr",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_crystal = sub.add_parser("crystal", parents=[common], help="apply operators or enumerate")
    p_crystal.add_argument("ops_positional", nargs="*", metavar="op", help="e.g. apply f1 f2")
    p_crystal.add_argument("--ops", type=str, default=None)
    p_crystal.add_argument("--depth", "--dep", dest="depth", type=nonneg, default=2)
    p_crystal.set_defaults(func=cmd_crystal)

    p_enum = sub.add_parser("enumerate", parents=[common], help="list reachable elements")
    p_enum.add_argument("--depth", "--dep", dest="depth", type=nonneg, default=2)
    p_enum.set_defaults(func=cmd_enumerate)

    p_render = sub.add_parser("render", parents=[common], help="render a diagram or wall")
    p_render.add_argument(
        "object",
        nargs=argparse.REMAINDER,
        help="kind then key value pairs, e.g. eyd charge 1 ys -3,-2,-1,-1,0 (flags go first)",
    )
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        # a short output still sits in stdout's buffer; a reader that has gone
        # is met here rather than in the interpreter's flush at exit
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # from argparse, which has printed its message
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (UsageError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # stdout's reader has gone, so the output ends here, as SIGPIPE would
        # end it; stdout is pointed at devnull so that the interpreter's
        # flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
