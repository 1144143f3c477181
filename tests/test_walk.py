"""One walk per kind and charge reads each generator object once.

verify.generator_objects replaces the path that enumerated each kind with its own
module enumerator and then called sites and moves on every object, each
classifying the object again; forms.walk is that walk, and enumerate_reyd
and enumerate_walls list what it walks.  The reference_* helpers keep the old
path: the partitions checked by make_eyd, the reachable searches that
enumerate_reyd and enumerate_walls made over checked toggles
(reference_reyd, reference_walls; walls bounded by blocks made by halves and
then filtered), sites and moves as they read before the walk, every toggle
through its public, checked toggle, and the step, closure and image checks
over them.  The walk and both enumerators must give the same objects in the
same order, the walk with the same sites and moves, and every check the same
report, witnesses in order.
"""

import itertools

import pytest

from polyreal import LinearForm, reyd, verify, young_wall
from polyreal.eyd import corners, make_eyd, toggle_corner
from polyreal.forms import _accumulate, beta_pair, beta_sites, closure, site_form, site_move
from polyreal.reyd import FLAVORS, classify_points, enumerate_reyd, phi_reyd, toggle_point
from polyreal.root_data import reachable
from polyreal.verify import (
    check_closure_equality,
    check_image_equality,
    check_step_identities,
    family_generators,
    generator_kinds,
)
from polyreal.young_wall import (
    WALL_FAMILIES,
    WallKind,
    classify_sites,
    enumerate_walls,
    ground_wall,
    legal_single_adds,
    legal_single_removes,
    toggle_block,
)
from conftest import (
    enumerate_objects,
    make_seq,
    reference_image_report,
    reference_partitions,
    shift_one_neighbour,
)
from test_eyd import reference_sites as reference_eyd_sites
from test_reyd import reference_address as reference_reyd_address
from test_young_wall import reference_address as reference_wall_address

FAMILIES = ["A1", "C1", "A2", "D2"]


def reference_reyd(flavor, n, k, max_units):
    """enumerate_reyd as a reachable search over checked lowerings, sorted by _key."""
    if max_units < 0:
        return []

    def lowerings(T):
        return (toggle_point(T, pt) for pt in classify_points(T) if pt.role == "admissible")

    return sorted(reachable({phi_reyd(flavor, n, k)}, lowerings, max_units), key=reyd._key)


def reference_walls(kind, max_halves):
    """enumerate_walls as a reachable search over checked single adds within
    the half bound, sorted by _key."""
    if max_halves < 0:
        return []

    def adds(Y):
        room = max_halves - Y.added_halves()
        return (toggle_block(Y, site) for site in legal_single_adds(Y) if site.halves <= room)

    # every add moves at least one half, so max_halves rounds of adds reach every wall
    return sorted(reachable({ground_wall(kind)}, adds, max_halves), key=young_wall._key)


def reference_objects(seq, kind, k, bound, halves=False):
    """The objects as the module enumerators gave them before the walk; walls
    bounded by blocks are made by 2 * bound halves and then filtered."""
    rs = seq.root_system
    flavor, _ = family_generators(rs.algebra.family, rs.n)[kind]
    if kind == "eyd":
        return [
            make_eyd(k, [k - d for d in depths])
            for m in range(bound + 1)
            for depths in reference_partitions(m, m)
        ]
    if kind == "reyd":
        return reference_reyd(flavor, rs.n, k, bound)
    walls = reference_walls(WallKind(flavor, rs.n, k), bound if halves else 2 * bound)
    return walls if halves else [Y for Y in walls if Y.block_count() <= bound]


def reference_sites(seq, kind, obj):
    """sites as each module read it, with its own classification."""
    if kind == "eyd":
        return reference_eyd_sites(seq, obj)
    if kind == "reyd":
        return [reference_reyd_address(seq, obj, pt) for pt in classify_points(obj)]
    return [reference_wall_address(seq, obj, site) for site in classify_sites(obj)]


def reference_moves(seq, kind, obj):
    """moves as each module made them, each toggle checked by the public toggle."""
    if kind == "eyd":
        pairs = zip(corners(obj), reference_eyd_sites(seq, obj))
        return [site_move(toggle_corner(obj, c), site[0], site) for c, site in pairs]
    if kind == "reyd":
        return [
            site_move(
                toggle_point(obj, pt),
                1 if pt.role == "admissible" else -1,
                reference_reyd_address(seq, obj, pt),
            )
            for pt in classify_points(obj)
        ]
    doubles = [site for site in classify_sites(obj) if site.multiplicity == 2]
    out = []
    for site in legal_single_adds(obj) + legal_single_removes(obj) + doubles:
        address = reference_wall_address(seq, obj, site)
        out.append(site_move(toggle_block(obj, site), address[0], address))
    return out


def reference_step_check(seq, s_values, size_bound, wall_halves):
    """check_step_identities over the reference objects, sites and moves."""
    betas = {l: beta_sites(seq, l) for l in seq.root_system.index_set}
    checked = failed = 0
    witnesses = []

    def site_map(obj):
        return _accumulate({}, (((o, l), c) for c, o, l in reference_sites(seq, kind, obj)))

    def form_at(mapped, s):
        return site_form([(c, o, l) for (o, l), c in mapped.items()], s)

    for kind, k in generator_kinds(seq):
        bound = wall_halves if kind == "wall" else size_bound
        for obj in reference_objects(seq, kind, k, bound, halves=kind == "wall"):
            before = site_map(obj)
            for obj2, coeff, offset, color in reference_moves(seq, kind, obj):
                checked += len(s_values)
                after = site_map(obj2)
                shifted = (((offset + o, l), c) for c, o, l in betas[color])
                if after == _accumulate(dict(before), shifted, -coeff):
                    continue
                failed += len(s_values)
                for s in s_values[: verify.MAX_WITNESSES - len(witnesses)]:
                    got = form_at(after, s)
                    expected = form_at(before, s) - coeff * beta_pair(seq, s + offset, color)
                    witnesses.append(f"{obj} -> {obj2} s={s}: got {got}, expected {expected}")
    counts = {"toggles_checked": checked, "failures": failed}
    params = {"size_bound": size_bound}
    return verify._report("step-identities", seq, params, counts, witnesses, failed, checked)


def reference_closure_check(seq, k, depth, s):
    """check_closure_equality with the image side over the reference path."""
    closed, pruned = closure(seq, [LinearForm.x(s, k)] if depth >= 0 else [], depth)
    kind = verify.charge_kind(seq, k)
    images = {
        site_form(reference_sites(seq, kind, obj), s)
        for obj in reference_objects(seq, kind, k, depth)
    }
    extra = sorted(closed - images, key=LinearForm.sort_key)
    missing = sorted(images - closed, key=LinearForm.sort_key)
    witnesses = [f"closure-only: {f}" for f in extra] + [f"image-only: {f}" for f in missing]
    counts = {
        "closure_size": len(closed),
        "image_size": len(images),
        "pruned": pruned,
        "symmetric_difference": len(extra) + len(missing),
    }
    params = {"k": k, "s": s, "depth": depth}
    difference = len(extra) + len(missing)
    return verify._report(
        "closure-equality", seq, params, counts, witnesses, difference + pruned, len(closed)
    )


def reference_generator_forms(seq, size_bound, s_values):
    """The sampled system over the reference path: one site_form per (object,
    s), each given by its term tuple."""
    s_values = list(s_values)
    return {
        site_form(reference_sites(seq, kind, obj), s).items()
        for kind, k in generator_kinds(seq)
        for obj in reference_objects(seq, kind, k, size_bound)
        for s in s_values
    }


class TestEnumeratorsAsTheReference:
    """enumerate_reyd and enumerate_walls equal their reference searches, in
    order, at n = 3, 4 and 5: both reyd flavors at every charge for
    max_units -1..6, and both wall families at every ground for max_halves
    -1..12."""

    @pytest.mark.parametrize("flavor", sorted(FLAVORS))
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_reyd(self, flavor, n):
        for k in range(2, (n if flavor == "A2" else n - 1) + 1):
            for bound in range(-1, 7):
                want = reference_reyd(flavor, n, k, bound)
                assert enumerate_reyd(flavor, n, k, bound) == want, (k, bound)
                assert bound < 0 or want

    @pytest.mark.parametrize("family", sorted(WALL_FAMILIES))
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_walls(self, family, n):
        for ground in (1,) if family == "A2wall" else (1, n):
            kind = WallKind(family, n, ground)
            for bound in range(-1, 13):
                want = reference_walls(kind, bound)
                assert enumerate_walls(kind, bound) == want, (ground, bound)
                assert bound < 0 or want


class TestWalkReadsAsTheReference:
    """The walk's objects, in order, with their sites and moves, for every
    kind and charge of the four families at n = 3, 4 and 5, at bounds -1..6
    in steps, and for walls also at -1..12 halves."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_objects_sites_and_moves(self, family, n):
        seq = make_seq(family, n)
        read = {}
        for kind, k in generator_kinds(seq):
            cases = [(bound, False) for bound in range(-1, 7)]
            if kind == "wall":
                cases += [(bound, True) for bound in range(-1, 13)]
            for bound, halves in cases:
                want = []
                for obj in reference_objects(seq, kind, k, bound, halves):
                    if obj not in read:
                        read[obj] = (reference_sites(seq, kind, obj), reference_moves(seq, kind, obj))
                    want.append((obj, *read[obj]))
                got = verify.generator_objects(seq, kind, k, bound, halves, every=True)
                assert got == want, (kind, k, bound, halves)
                # with halves False, this is the listing of the closure and image checks
                grown = verify.generator_objects(seq, kind, k, bound, halves)
                assert grown == [(obj, sites, []) for obj, sites, _ in want]
                if halves or kind != "wall":
                    assert enumerate_objects(seq, kind, k, bound) == [obj for obj, _, _ in want]


class TestReadsFromTheTables:
    """Each kind's _read takes its colors from the fold's table and P^k from
    the sequence's filled table, calling p_table on a miss.  Every object of
    the walk up to 5 steps, on the four families at n = 3 and 4, reads the
    same on a fresh sequence (no P^k entry filled), on the sequence the walk
    warmed, and on one filled from the largest object down; and it reads as
    the reference sites and moves."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [3, 4])
    def test_fresh_warmed_and_reference_reads(self, family, n):
        warmed, backwards = make_seq(family, n), make_seq(family, n)
        for kind, k in generator_kinds(warmed):
            module = verify.MODULES[kind]
            objects = [obj for obj, _, _ in verify.generator_objects(warmed, kind, k, 5)]
            assert warmed._pt_cache and objects
            for obj in reversed(objects):
                fresh = make_seq(family, n)
                assert not fresh._pt_cache
                sites, points = read = module._read(fresh, obj)
                assert read == module._read(warmed, obj) == module._read(backwards, obj), obj
                assert sites == reference_sites(warmed, kind, obj), obj
                moves = [site_move(module._toggle(obj, pt), c, site) for pt, c, site in points]
                assert moves == reference_moves(warmed, kind, obj), obj


class TestReportsAsTheReference:
    """Step, closure and image reports, witnesses in order, on every n = 3
    permutation word, as the reference path gives them; with beta's sites
    shifted, the step and closure witness lists are not empty."""

    @pytest.mark.parametrize("mutated", [False, True], ids=["beta", "shifted-beta"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_step_and_closure_reports(self, family, mutated, monkeypatch):
        failing = set()
        for word in itertools.permutations((1, 2, 3)):
            seq = make_seq(family, 3, list(word))
            if mutated:
                shift_one_neighbour(monkeypatch, seq)
            got = check_step_identities(seq, size_bound=4, wall_halves=7)
            want = reference_step_check(seq, (1, 2), 4, 7)
            assert got.to_json() == want.to_json(), word
            failing.update([got.check] * bool(got.witnesses))
            for k in seq.root_system.index_set:
                for s in (1, 2):
                    got = check_closure_equality(seq, k, depth=4, s=s)
                    want = reference_closure_check(seq, k, 4, s)
                    assert got.to_json() == want.to_json(), (word, k, s)
                    failing.update([got.check] * bool(got.witnesses))
        assert failing == ({"step-identities", "closure-equality"} if mutated else set())

    @pytest.mark.parametrize("family", FAMILIES)
    def test_image_reports(self, family):
        for word in itertools.permutations((1, 2, 3)):
            seq = make_seq(family, 3, list(word))
            got = check_image_equality(seq, max_weight=3)
            assert verify.generator_forms(seq, 5, range(1, 5)) == reference_generator_forms(
                seq, 5, range(1, 5)
            )
            want = reference_image_report(seq, 3, 5, reference_generator_forms)
            assert got.to_json() == want.to_json(), word
            assert got.ok, (word, got.witnesses)


class TestWallsByBlocks:
    """A single block add raises a wall's block count by exactly 1, so walls
    bounded by blocks are walked by blocks."""

    KINDS = [
        WallKind(family, n, ground)
        for family in ("A2wall", "D2wall")
        for n in (3, 4, 5)
        for ground in ((1,) if family == "A2wall" else (1, n))
    ]

    @pytest.mark.parametrize("kind", KINDS, ids=str)
    def test_single_add_is_one_block(self, kind):
        walls = [Y for Y in enumerate_walls(kind, 16) if Y.block_count() <= 8]
        assert walls
        for Y in walls:
            for site in legal_single_adds(Y):
                assert toggle_block(Y, site).block_count() == Y.block_count() + 1, (Y, site)

    @pytest.mark.parametrize("family", ["C1", "A2"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_block_walk_is_the_halves_filter(self, family, n):
        seq = make_seq(family, n)
        for k in family_generators(family, n)["wall"][1]:
            kind = WallKind(family_generators(family, n)["wall"][0], n, k)
            for blocks in range(-1, 9):
                filtered = [Y for Y in reference_walls(kind, 2 * blocks) if Y.block_count() <= blocks]
                walked = verify.generator_objects(seq, "wall", k, blocks)
                assert [Y for Y, _, _ in walked] == filtered
