"""The mutation matrix: each row is a source edit of one polyreal function
that breaks the crystal or its realization, and `polyreal verify` must fail
on every problem, caught by the suites that the row names.  An equivalent
mutation, which no problem tells apart from the engine, is listed with its
reason and must pass everywhere.

A row's edit is made to the function's own source, compiled into a copy of
its module's namespace, and the result is patched onto every polyreal module
that holds the function: its own, and each that imports it by name, such as
verify for `enumerate_image` and eyd, reyd and young_wall for `p_row`.  A
row that names a method as Class.method patches it onto the class.
The problems are A1, C1, A2 and D2 at n = 3 and 4 with the word 1..n, at
default bounds, all suites.  A row names the families it applies to: a
generator module serves only some of them (eyd A1 and D2, reyd and walls C1
and A2), and a mutation there cannot fail the others; a dropped charge
changes only its own family.

The matrix also has must-fail rows that edit no source: negative controls,
the four words that fail only the alternation test, verified as built by a
sequence that skips it.
"""

import __future__
import contextlib
import inspect
import io
import json
import sys
import textwrap

import pytest

from polyreal import cli, eyd, forms, lattice_crystal, reyd, root_data, verify, young_wall
from conftest import NOT_ADAPTED, UncheckedAlternation

ALL = ("A1", "C1", "A2", "D2")
PROBLEMS = [(family, n) for family in ALL for n in (3, 4)]

# name: (module, function, source text, its replacement, suites that must
# fail, families whose problems it applies to)
ROWS = {
    # sigma reads only the positive Cartan terms, so the image shrinks
    # (379 to 84 elements on A1 n = 3 at depth 6) and stays closed
    "reach-positive-cartan-only": (
        lattice_crystal,
        "_reach",
        "s += row[r] * v",
        "s += max(row[r], 0) * v",
        {"crystal-axioms"},
        ALL,
    ),
    # the image stops one lowering short of its depth
    "image-one-step-short": (
        lattice_crystal,
        "enumerate_image",
        "for _ in range(max_word_length):",
        "for _ in range(max_word_length - 1):",
        {"crystal-axioms"},
        ALL,
    ),
    # the image's early exit reads only the positive Cartan terms, so it
    # stops at a sigma >= 0 too early and keeps too few lowerings
    "image-early-exit-positive-cartan-only": (
        lattice_crystal,
        "enumerate_image",
        "s += row[r] * v",
        "s += max(row[r], 0) * v",
        {"crystal-axioms"},
        ALL,
    ),
    # K(beta) pushed with the wrong sign, so the counts by weight disagree
    "weight-counts-push-sign-flipped": (
        root_data,
        "weight_counts",
        "counts[c + g] -= d * k",
        "counts[c + g] += d * k",
        {"crystal-axioms"},
        ALL,
    ),
    # P^k(t) accumulated with the wrong sign, so the assigned offsets move;
    # the generator reads and p_table take the entries that a row's miss fills
    "p-table-sign-flipped": (
        root_data,
        "PRow.__missing__",
        "self[u - step] + p",
        "self[u - step] - p",
        {"step-identities", "closure-equality", "image-equality"},
        ALL,
    ),
    # S' subtracts beta one occurrence up at a positive coefficient
    "s-prime-subtracts-beta-one-up": (
        forms,
        "_s_prime_rule",
        "return -1, s",
        "return -1, s + 1",
        {"closure-equality", "xi-positivity"},
        ALL,
    ),
    # the revised diagrams' special-residue table read one residue off, so
    # points are classified, and their doubles counted, at the wrong positions
    "reyd-special-residue-shifted": (
        reyd,
        "_residues",
        "lambda r: r % colors.period in special",
        "lambda r: (r + 1) % colors.period in special",
        {"step-identities", "closure-equality", "image-equality"},
        ("C1", "A2"),
    ),
    # a convex corner of an extended Young diagram addressed one occurrence up
    "eyd-convex-offset-plus-one": (
        eyd,
        "_read",
        "offset = row[d] + min(charge - y, x)",
        'offset = row[d] + min(charge - y, x) + (kind == "convex")',
        {"step-identities", "closure-equality", "image-equality"},
        ("A1", "D2"),
    ),
    # a removable block of a wall addressed one occurrence further up
    "wall-remove-offset-plus-one": (
        young_wall,
        "_read",
        "return -site.multiplicity, pk + site.column, site.color",
        "return -site.multiplicity, pk + site.column + 1, site.color",
        {"step-identities", "closure-equality", "image-equality"},
        ("C1", "A2"),
    ),
    # a convex corner of an extended Young diagram listed one column left of
    # where it is, so its site is addressed and its move made there
    "eyd-convex-corner-one-left": (
        eyd,
        "_corners",
        '("convex", x, before)',
        '("convex", x - 1, before)',
        {"step-identities", "closure-equality"},
        ("A1", "D2"),
    ),
    # the moves beside a flat step y_{i-1} = y_i of a revised diagram dropped
    # also at a negative position of special residue, where the rule allows them
    "reyd-flat-needs-unequal-sides": (
        reyd,
        "classify_points",
        "flat_ok = b != c or (i < 1 and special[r - 1])",
        "flat_ok = b != c",
        {"step-identities", "closure-equality"},
        ("C1", "A2"),
    ),
    # a wall column of even height allowed to equal its right neighbour, so
    # a move can leave two full columns of one height
    "wall-even-height-meets-right": (
        young_wall,
        "_fits",
        "h != left and h != right",
        "h != left",
        {"step-identities", "closure-equality"},
        ("C1", "A2"),
    ),
    # beta's neighbour sites one occurrence up, in the table that beta_pair,
    # s_prime and the step check read; beta_index does not read it
    "beta-neighbour-offset-plus-one": (
        root_data,
        "AdaptedSequence.__init__",
        "(c, self.p[(j, i)], j)",
        "(c, self.p[(j, i)] + 1, j)",
        {"step-identities", "closure-equality", "beta-agreement"},
        ALL,
    ),
    # every neighbour pair oriented the other way round, in the p_{i,j}
    # that beta's sites and the P^k tables read
    "orientation-flipped": (
        root_data,
        "AdaptedSequence.__init__",
        "1 if self._occ[i][0] < self._occ[j][0] else 0",
        "0 if self._occ[i][0] < self._occ[j][0] else 1",
        {"image-equality", "beta-agreement"},
        ALL,
    ),
    # C1 loses its reyd charge n - 1, so no closure is checked from x[s,n-1]
    "c1-missing-charge": (
        verify,
        "family_generators",
        '"reyd": ("D2target", range(2, n))',
        '"reyd": ("D2target", range(2, n - 1))',
        {"closure-equality"},
        ("C1",),
    ),
    # A2 loses its reyd charge n, so no closure is checked from x[s,n]
    "a2-missing-charge": (
        verify,
        "family_generators",
        '"reyd": ("A2", range(2, n + 1))',
        '"reyd": ("A2", range(2, n))',
        {"closure-equality"},
        ("A2",),
    ),
    # sigma's Cartan row read transposed, a_{c,i} for a_{i,c}; A1's Cartan
    # matrix is symmetric, so only the other families change
    "row-cartan-transposed": (
        root_data,
        "AdaptedSequence.__init__",
        "root_system.a(i, c) for c in self.word",
        "root_system.a(c, i) for c in self.word",
        {"crystal-axioms", "image-equality"},
        ("C1", "A2", "D2"),
    ),
    # each entry weighed by the color of the next position, in the weight
    # read that weight_coeffs and the axioms check share
    "weight-coeffs-next-color": (
        lattice_crystal,
        "_weight",
        "c[word[(j - 1) % L] - 1] += v",
        "c[word[j % L] - 1] += v",
        {"crystal-axioms"},
        ALL,
    ),
    # a remove shifts the form by beta two occurrences below its site
    "site-move-remove-two-down": (
        forms,
        "site_move",
        "offset - 1",
        "offset - 2",
        {"step-identities"},
        ALL,
    ),
    # beta at a single index weighs each neighbour one more; only the beta
    # and sigma suites read beta_index
    "beta-index-neighbour-plus-one": (
        forms,
        "beta_index",
        "terms.get(pair, 0) + c",
        "terms.get(pair, 0) + c + 1",
        {"beta-agreement", "sigma-difference"},
        ALL,
    ),
    # epsilon one too high at a supported position holding more than 1; the
    # image check also fails on C1 and D2
    "reach-epsilon-up-above-one": (
        lattice_crystal,
        "_reach",
        "t = v + s",
        "t = v + s + (v > 1)",
        {"crystal-axioms"},
        ALL,
    ),
}

# Equivalent mutations: no problem at default bounds tells them from the
# unmutated engine, so each is held to pass everywhere, with the reason.
# name: (module, function, source text, its replacement, reason)
EQUIVALENT = {
    "s-prime-predecessor-above-two": (
        forms,
        "_s_prime_rule",
        "if c < 0 and s > 1:",
        "if c < 0 and s > 2:",
        "at default bounds the forms that adding beta at s = 1 gives are already "
        "in each closure; TestSPrime::test_negative_coefficient_deeper_adds kills it",
    ),
    "s-prime-adds-at-negative-first": (
        forms,
        "_s_prime_rule",
        "return None",
        "return (1, s) if c < 0 else None",
        "positivity holds, so no closure form has a negative coefficient at "
        "s = 1; TestSPrime::test_negative_coefficient_at_first_is_identity kills it",
    ),
}


# Negative controls: words that fail only the alternation test, which
# build_adapted rejects.  Each is built anyway, by a sequence that skips that
# test, and `polyreal verify` must fail it, caught by the suites named.
# name: (family, n, word, suites that must fail)
NEGATIVE_CONTROLS = {
    f"not-adapted-{family}-n{n}-{''.join(map(str, word))}": (
        family,
        n,
        word,
        {"image-equality", "beta-agreement"},
    )
    for family, n, word in NOT_ADAPTED
}


def mutated(module, name: str, old: str, new: str):
    """module.name, or module.Class.method for a dotted name, compiled from
    its source with old replaced by new."""
    owner, attr = _owner(module, name)
    source = textwrap.dedent(inspect.getsource(getattr(owner, attr)))
    assert source.count(old) == 1, (name, old)
    code = compile(
        source.replace(old, new),
        module.__file__,
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = dict(vars(module))
    exec(code, namespace)
    return namespace[attr]


def _owner(module, name: str):
    """(the object that holds name, its last part): the module for a plain
    name, its class for Class.method."""
    if "." in name:
        cls, attr = name.split(".")
        return getattr(module, cls), attr
    return module, name


def verify_json(family: str, n: int, word=None):
    """The exit code and the reports of `polyreal verify --json` on one
    problem, with the word 1..n unless a word is given."""
    word = ",".join(str(c) for c in word or range(1, n + 1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--family", family, "--n", str(n), "--word", word, "--json"])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("family,n", PROBLEMS)
def test_unmutated_problems_pass(family, n):
    code, reports = verify_json(family, n)
    assert code == cli.EXIT_OK, [r for r in reports if r["status"] != "pass"]


def patch(monkeypatch, module, name: str, old: str, new: str) -> None:
    """Patch the mutated function onto every polyreal module that holds it,
    or a mutated method onto its class."""
    function = mutated(module, name, old, new)
    owner, attr = _owner(module, name)
    if owner is module:
        original = getattr(module, name)
        holders = [m for key, m in sys.modules.items() if key.split(".")[0] == "polyreal"]
        for holder in holders:
            if getattr(holder, name, None) is original:
                monkeypatch.setattr(holder, name, function)
    else:
        monkeypatch.setattr(owner, attr, function)


@pytest.mark.parametrize("row", list(ROWS))
def test_mutation_is_caught(row, monkeypatch):
    module, name, old, new, catchers, families = ROWS[row]
    patch(monkeypatch, module, name, old, new)
    for family, n in PROBLEMS:
        if family not in families:
            continue
        code, reports = verify_json(family, n)
        failed = {r["check"] for r in reports if r["status"] == "fail"}
        assert code == cli.EXIT_FAIL, (family, n, failed)
        assert catchers <= failed, (family, n, failed)


@pytest.mark.parametrize("row", list(EQUIVALENT))
def test_equivalent_mutation_passes(row, monkeypatch):
    module, name, old, new, _ = EQUIVALENT[row]
    patch(monkeypatch, module, name, old, new)
    for family, n in PROBLEMS:
        code, reports = verify_json(family, n)
        assert code == cli.EXIT_OK, (family, n, [r for r in reports if r["status"] != "pass"])


@pytest.mark.parametrize("row", list(NEGATIVE_CONTROLS))
def test_negative_control_is_caught(row, monkeypatch):
    family, n, word, catchers = NEGATIVE_CONTROLS[row]
    monkeypatch.setattr(cli, "build_adapted", UncheckedAlternation)
    code, reports = verify_json(family, n, word)
    failed = {r["check"] for r in reports if r["status"] == "fail"}
    assert code == cli.EXIT_FAIL, failed
    assert catchers <= failed, failed
