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
    RootDataError,
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

CHECK_NAMES = {
    "step-identities": "steps",
    "steps": "steps",
    "closure": "closure",
    "image": "image",
    "axioms": "axioms",
    "crystal-axioms": "axioms",
    "positivity": "positivity",
    "xi-positivity": "positivity",
    "beta": "beta",
    "beta-agreement": "beta",
    "sigma": "sigma",
    "sigma-difference": "sigma",
    "all": "all",
}


class UsageError(Exception):
    pass


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
    kinds = dict((k, kd) for kd, k in verify_mod.generator_kinds(seq))
    if args.k not in kinds:
        raise UsageError(
            f"k={args.k} has no generator family for {args.family} n={args.n}; "
            f"valid charges: {sorted(kinds)}"
        )
    if args.bound < 0:
        raise UsageError("--bound must be nonnegative")
    if args.s < 1:
        raise UsageError("--s must be at least 1")
    kind = kinds[args.k]
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


def _run_checks(seq: AdaptedSequence, names: List[str], args: argparse.Namespace) -> list:
    reports = []
    for name in names:
        if name == "steps":
            reports.append(
                verify_mod.check_step_identities(seq, size_bound=args.size or 6)
            )
        elif name == "closure":
            ks = [args.k] if args.k is not None else [k for _, k in verify_mod.generator_kinds(seq)]
            for k in ks:
                reports.append(
                    verify_mod.check_closure_equality(seq, k, depth=args.depth or 4, s=args.s)
                )
        elif name == "image":
            reports.append(
                verify_mod.check_image_equality(
                    seq, max_weight=args.weight or 4, size_bound=args.size
                )
            )
        elif name == "axioms":
            reports.append(verify_mod.check_crystal_axioms(seq, depth=args.depth or 4))
        elif name == "positivity":
            reports.append(verify_mod.check_positivity(seq, depth=args.depth or 6))
        elif name == "beta":
            reports.append(verify_mod.check_beta_agreement(seq))
        elif name == "sigma":
            reports.append(verify_mod.check_sigma_difference(seq))
    return reports


def cmd_verify(args: argparse.Namespace) -> int:
    requested = args.checks or ["all"]
    resolved: List[str] = []
    for raw in requested:
        if raw not in CHECK_NAMES:
            raise UsageError(f"unknown check {raw!r}; choose from {sorted(set(CHECK_NAMES))}")
        name = CHECK_NAMES[raw]
        targets = (
            ["steps", "closure", "image", "axioms", "positivity", "beta", "sigma"]
            if name == "all"
            else [name]
        )
        for t in targets:
            if t not in resolved:
                resolved.append(t)
    seq = build_sequence(args)
    reports = _run_checks(seq, resolved, args)
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
    depth = args.depth if args.depth is not None else 2
    if depth < 0:
        raise UsageError("--depth must be nonnegative")
    elems = sorted(enumerate_image(seq, depth), key=LatticeElement.items)
    if args.json:
        print(_dump([a.to_json() for a in elems]))
    else:
        print(f"{len(elems)} elements at depth {depth}")
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
    p_ineq.add_argument("--s", type=int, default=1, help="base occurrence index")
    p_ineq.add_argument("--bound", type=int, default=2, help="window size for enumerated shapes")
    p_ineq.set_defaults(func=cmd_inequalities)

    p_verify = sub.add_parser("verify", parents=[common], help="run verification suites")
    p_verify.add_argument("checks", nargs="*", help="check names, default all")
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--s", type=int, default=1)
    p_verify.add_argument("--depth", "--dep", dest="depth", type=int, default=None)
    p_verify.add_argument("--weight", "--w", dest="weight", type=int, default=None)
    p_verify.add_argument("--size", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_crystal = sub.add_parser("crystal", parents=[common], help="apply operators or enumerate")
    p_crystal.add_argument("ops_positional", nargs="*", metavar="op", help="e.g. apply f1 f2")
    p_crystal.add_argument("--ops", type=str, default=None)
    p_crystal.add_argument("--depth", "--dep", dest="depth", type=int, default=None)
    p_crystal.set_defaults(func=cmd_crystal)

    p_enum = sub.add_parser("enumerate", parents=[common], help="list reachable elements")
    p_enum.add_argument("--depth", "--dep", dest="depth", type=int, default=2)
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
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RootDataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
