"""Command-line surface: inequalities, verification, crystal operations, rendering.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 inconclusive-only verification.  Output is deterministic for a
given invocation; --json switches every subcommand to machine-readable form.
"""

from __future__ import annotations

import argparse
import json
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


class UsageError(Exception):
    pass


def _int_at_least(low: int):
    """An argparse type: an integer of at least low.  argparse reports text that
    is not an integer as an "invalid integer value", after the function's name."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _parse_ints(text: str) -> List[int]:
    """Parse a comma or space separated integer list; empty text means []."""
    cleaned = text.replace("−", "-").replace("[", " ").replace("]", " ")
    parts = [p for chunk in cleaned.split(",") for p in chunk.split()]
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"expected integers, got {text!r}") from exc


def default_word(n: int) -> List[int]:
    return [1, 2] if n == 2 else [2, 1] + list(range(3, n + 1))


def build_sequence(args: argparse.Namespace) -> AdaptedSequence:
    algebra = AlgebraType(args.family, args.n)
    system = build_root_system(algebra)
    word = _parse_ints(args.word) if args.word else default_word(args.n)
    return build_adapted(system, word)


def _dump(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _window_objects(seq: AdaptedSequence, kind: str, k: int, bound: int) -> list:
    """Generator objects fitting a bound x bound window."""
    return [
        obj
        for obj in verify_mod.enumerate_objects(seq, kind, k, bound * bound)
        if len(obj.columns()) <= bound and max(obj.columns(), default=0) <= bound
    ]


def cmd_inequalities(args: argparse.Namespace) -> int:
    seq = build_sequence(args)
    kind = verify_mod.charge_kind(seq, args.k)
    forms = {
        site_form(verify_mod.MODULES[kind].sites(seq, obj), args.s)
        for obj in _window_objects(seq, kind, args.k, args.bound)
    }
    ordered = sorted(forms, key=LinearForm.sort_key)
    if args.json:
        print(_dump([f.to_json() for f in ordered]))
    else:
        for f in ordered:
            print(f"{f} >= 0")
    return EXIT_OK


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
    reports = []
    for short in resolved:
        _, function, keywords = SUITES[short]
        check = getattr(verify_mod, function)
        kwargs = {kw: getattr(args, kw) for kw in keywords if getattr(args, kw) is not None}
        if short == "closure":
            reports.extend(check(seq, k, **kwargs) for k in charges)
        else:
            reports.append(check(seq, **kwargs))
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
        if len(op) < 2 or op[0] not in ("f", "e"):
            raise UsageError(f"operator {op!r} must look like f1 or e2")
        try:
            i = int(op[1:])
        except ValueError as exc:
            raise UsageError(f"operator {op!r} must look like f1 or e2") from exc
        if i not in seq.root_system.index_set:
            raise UsageError(f"color {i} outside index set {seq.root_system.index_set}")
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


_SUBSCRIPTS = str.maketrans("₀₁₂₃₄₅₆₇₈₉−", "0123456789-")

# Per render kind: the object's class and picture, its integer keys with their
# defaults (None when required), its list key, the JSON key of its flavor, and
# whether the user may give that flavor explicitly.
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
    raw = pairs[key].translate(_SUBSCRIPTS)
    if not re.fullmatch(r"-?[0-9]+", raw):
        raise UsageError(f"{key} must be an integer, got {pairs[key]!r}")
    return int(raw)


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
    pairs = {}
    for idx in range(0, len(rest), 2):
        key = rest[idx]
        value = rest[idx + 1] if idx + 1 < len(rest) else ""
        pairs[key] = value
    cls, picture, int_keys, list_key, flavor_key, explicit = _RENDER[kind]
    data = {key: _key_int(pairs, key, default) for key, default in int_keys.items()}
    data[list_key] = _parse_ints(pairs.get(list_key, ""))
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
    else:
        print(picture(obj))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    nonneg, positive = _int_at_least(0), _int_at_least(1)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family", choices=list(FAMILIES), default="A1")
    common.add_argument("--n", type=int, default=3)
    common.add_argument("--word", type=str, default=None, help="comma-separated colors, e.g. 2,1,3")
    common.add_argument("--json", action="store_true")

    parser = argparse.ArgumentParser(
        prog="polyreal",
        description="Polyhedral realizations over adapted sequences for four affine families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ineq = sub.add_parser("inequalities", parents=[common], help="emit generator forms")
    p_ineq.add_argument("--k", type=int, required=True, help="charge of the generator family")
    p_ineq.add_argument("--s", type=positive, default=1, help="base occurrence index")
    p_ineq.add_argument("--bound", type=nonneg, default=2, help="window size for enumerated shapes")
    p_ineq.set_defaults(func=cmd_inequalities)

    p_verify = sub.add_parser("verify", parents=[common], help="run verification suites")
    p_verify.add_argument("checks", nargs="*", help="check names, default all")
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--s", type=positive, default=None)
    p_verify.add_argument("--depth", "--dep", dest="depth", type=nonneg, default=None)
    p_verify.add_argument("--weight", "--w", dest="max_weight", type=nonneg, default=None)
    p_verify.add_argument("--size", dest="size_bound", type=nonneg, default=None)
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
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
