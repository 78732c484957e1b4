import hashlib
import itertools
import random
import re
import time

import pytest

from permres.classical import classical_generators
from permres.constructions import matrix_orbit_action, wreath_imprimitive
from permres.perm import Perm, iter_alt_gens, iter_sym_gens
from permres.search import stabilizer_scan, verify_distinguishing
from permres.stabchain import (
    PermGroup,
    ResourceLimit,
    StabilizerChain,
    action_on_blocks,
    derived_subgroup,
    normal_closure,
)


def closure(degree, gens):
    """Brute-force element set; the oracle for everything chain-based."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    mats = [g.images for g in gens]
    while frontier:
        nxt = []
        for t in frontier:
            for m in mats:
                u = tuple(m[v] for v in t)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


def cyc(cycles, degree):
    return Perm.from_cycles(cycles, degree)


SAMPLES = {
    "sym5": (5, list(iter_sym_gens(5))),
    "alt4": (4, list(iter_alt_gens(4))),
    "alt6": (6, list(iter_alt_gens(6))),
    "dihedral4": (4, [cyc([(0, 1, 2, 3)], 4), cyc([(1, 3)], 4)]),
    "cyclic6": (6, [cyc([(0, 1, 2, 3, 4, 5)], 6)]),
    "klein": (4, [cyc([(0, 1), (2, 3)], 4), cyc([(0, 2), (1, 3)], 4)]),
    "two_orbit": (7, [cyc([(0, 1, 2)], 7), cyc([(3, 4), (5, 6)], 7), cyc([(3, 5), (4, 6)], 7)]),
    "psl27": (7, [cyc([(0, 1, 2, 3, 4, 5, 6)], 7), cyc([(1, 2), (3, 6)], 7)]),
    "trivial": (4, []),
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_order_matches_closure(name):
    degree, gens = SAMPLES[name]
    G = PermGroup(degree, gens)
    assert G.order() == len(closure(degree, gens))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_membership_matches_closure(name):
    degree, gens = SAMPLES[name]
    G = PermGroup(degree, gens)
    elems = closure(degree, gens)
    for imgs in sorted(elems):
        assert G.contains(Perm(imgs))
    rng = random.Random(11)
    for _ in range(200):
        imgs = tuple(rng.sample(range(degree), degree))
        assert G.contains(Perm(imgs)) == (imgs in elems)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_elements_enumeration(name):
    degree, gens = SAMPLES[name]
    G = PermGroup(degree, gens)
    got = {tuple(p.images) for p in G.elements()}
    assert got == closure(degree, gens)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_chain_verify(name):
    degree, gens = SAMPLES[name]
    chain = StabilizerChain(degree, gens)
    chain.verify()
    chain2 = StabilizerChain(degree, gens, base_hint=list(range(degree)))
    chain2.verify()
    assert chain2.order() == chain.order()


def test_order_is_product_of_orbit_lengths():
    degree, gens = SAMPLES["sym5"]
    chain = StabilizerChain(degree, gens)
    prod = 1
    for lvl in chain.levels:
        prod *= len(lvl.orbit)
    assert prod == chain.order() == 120


def test_sift_residue_identity_only_for_members():
    degree, gens = SAMPLES["alt4"]
    chain = StabilizerChain(degree, gens)
    assert chain.contains(cyc([(0, 1, 2)], 4))
    assert not chain.contains(cyc([(0, 1)], 4))


def test_extend_grows_incrementally():
    chain = StabilizerChain(5)
    assert chain.order() == 1
    assert chain.extend(cyc([(0, 1)], 5))
    assert chain.order() == 2
    assert not chain.extend(cyc([(0, 1)], 5))
    assert chain.extend(cyc([(0, 1, 2, 3, 4)], 5))
    assert chain.order() == 120
    chain.verify()


def test_transversal_inverses_are_made_on_first_read():
    # a hinted build stopped at the known order reads few inverses
    G = PermGroup.symmetric(6)
    G.order()
    chain = G.chain(base_hint=[5, 0])
    lvl = chain.levels[0]
    assert len(lvl.orbit) == 6
    assert set(lvl.tinv) < set(lvl.transversal)
    for beta in lvl.orbit:
        inv = lvl.inverse(beta)
        assert (lvl.transversal[beta] * inv).is_identity()
        assert lvl.inverse(beta) is inv
    assert set(lvl.tinv) == set(lvl.transversal)
    chain.verify()


def cycles_rule_point(g):
    """Smallest point of a longest cycle, ties to the smallest cycle minimum,
    through the full cycle decomposition."""
    return min(g.cycles(), key=lambda c: (-len(c), min(c)))[0]


def test_pick_point_matches_cycles_rule():
    rng = random.Random(2012)
    chain = StabilizerChain(12)
    for _ in range(500):
        n = rng.randrange(2, 13)
        images = list(range(n))
        # a few random transpositions give mixed cycle types with ties
        for _ in range(rng.randrange(1, 5)):
            a, b = rng.sample(range(n), 2)
            images[a], images[b] = images[b], images[a]
        g = Perm(images)
        if g.is_identity():
            continue
        assert chain._pick_point(g) == cycles_rule_point(g), g


def test_extend_stops_closing_at_the_given_order():
    gens = list(iter_sym_gens(8))
    full, stopped = StabilizerChain(8), StabilizerChain(8)
    for g in gens:
        full.extend(g)
        stopped.extend(g, order=40320)
    assert stopped.order() == full.order() == 40320
    stopped.verify()
    # fewer (orbit point, generator) pairs were turned into Schreier generators
    pairs = [sum(sum(lvl.done) for lvl in c.levels) for c in (stopped, full)]
    assert pairs[0] < pairs[1]


def test_every_install_leaves_each_orbit_closed():
    # sift and install by hand: no _close sweep runs, so only the install
    # itself can close the orbits
    rng = random.Random(6)
    elements = list(iter_sym_gens(6))
    for _ in range(30):
        images = list(range(6))
        rng.shuffle(images)
        elements.append(Perm(images))
    chain = StabilizerChain(6)
    levels_reached = set()
    for x in elements:
        residue, j = chain._sift(x, 0)
        if residue.is_identity():
            continue
        chain._install(residue, j)
        levels_reached.add(j)
        for lvl in chain.levels:
            assert all(s.images[b] in lvl.transversal for b in lvl.orbit for s in lvl.gens)
            assert len(lvl.done) == len(lvl.orbit)
    assert len(levels_reached) > 2  # installs reached deeper levels too


def layout_digest(chain):
    """sha256 of every level's point, strong generators, orbit in order and
    transversal images in orbit order."""
    h = hashlib.sha256()
    for lvl in chain.levels:
        h.update(repr((lvl.point, [tuple(g.images) for g in lvl.gens], lvl.orbit,
                       [tuple(lvl.transversal[b].images) for b in lvl.orbit])).encode())
    return h.hexdigest()


def pinned_chains():
    for name, (degree, gens) in sorted(SAMPLES.items()):
        yield name, StabilizerChain(degree, gens)
        yield name + "/reversed", StabilizerChain(degree, gens, base_hint=range(degree)[::-1])
    s8 = StabilizerChain(8)
    for g in iter_sym_gens(8):
        s8.extend(g, order=40320)
    yield "sym8/extend", s8
    G = deg36()
    yield "deg36", G.chain()
    yield "deg36/hint", G.chain(base_hint=[5, 0])  # stops at the known order
    yield "deg36/stab", G.pointwise_stabilizer([0, 1])._chain
    yield "closure", normal_closure(PermGroup.symmetric(7), [cyc([(0, 1, 2)], 7)])._chain


# Seeded probes and pinned work counters read the orbit order, so any change
# to these layouts has to be deliberate. Each orbit is listed in the order
# it is closed, one generator at a time, as each generator is installed;
# closing under several at once would list dihedral4, psl27 and deg36
# otherwise.
LAYOUTS = {
    "alt4": "4be7796faa143a7107c398cea196f3d4626195f528cbcaf33747bc9fd534f73a",
    "alt4/reversed": "c7dd0df82236570f7603727e8ba06b098ce0c88eb4ca7b4362af42e19e5e0706",
    "alt6": "6250a99e0ae454fc2ce134b1b20526100f7d3e76df2c404b717d700e5a53f409",
    "alt6/reversed": "65c6dcb912e5d0910cb3f7399a8705eb02bb707f48d8e44221f27e7c0d1855d8",
    "cyclic6": "207da052119bcdb82f79df2b38aa3760669b6a7aae2138e7a063cd63c98b722e",
    "cyclic6/reversed": "684b966b69e17b654f9849c5e7536c16fae2e32cd5a67a5c47ce188488f168d2",
    "dihedral4": "b2baa53bcc1c237e288714b937f7ed7b807e809c43aa0f195824c64104b8cfb2",
    "dihedral4/reversed": "e969cada4020cc6ec0b2e363f49952837e6056089e2a4a9cf4b82f9315236547",
    "klein": "5627c827dc66b272b943d1035ebc95e428684df7d484bf40ac01bb48bf672f75",
    "klein/reversed": "c522d6931997108d64d7406fee67d7fdb016da0e888818acc238a88b3ab38db4",
    "psl27": "56b68256f64141b37d6f9d523f1f2bfbb25425748e521c8e664f24e1c50a7b33",
    "psl27/reversed": "62d42888e7a8f8942b29af43e704361b0bd2d40d9234316208798341bfe892ee",
    "sym5": "ea96655aaade9f265e9c4e3533847fd38a67f8845685dcb4fbcf9f8e3f93663d",
    "sym5/reversed": "26f0069461ebfb438db921db3ddf8efbffc38c983f3741216ef3ce78f2f72098",
    "trivial": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "trivial/reversed": "b3323ed30575813e831b0db2b16ead4136d1387e524f91a88f3f4f5bd2481420",
    "two_orbit": "632052a8c6e58d2d1cedabe944c48993cef5561253b0859881025de35685146f",
    "two_orbit/reversed": "966bed8527df9da96fd0177f60b2df37270ce1a32edcc0c3686e2fbeaa6773c9",
    "sym8/extend": "dd9fd0ecee1728d1761855b62c31b200773e68d59264750eb3b0ba875e3915af",
    "deg36": "f73b177031aee3cc4ad0d29c888bc518efc18fcb3dfe877245b2555bd62123ea",
    "deg36/hint": "06e84d48eddb550fc09c106a8ae0e7bd7acd0b6e6501ead5f6571a4730a4b376",
    "deg36/stab": "59bcd36dfbbbc65f3d814bfdacbf3bb9fd2d97bc16302eeb6dfb949e90c2bd84",
    "closure": "6f07ef4b991a78075bd0f2efae5fa25f30d459afc0ad879c1b95020ec682a9ff",
}


def test_chain_layouts_are_pinned():
    assert {name: layout_digest(c) for name, c in pinned_chains()} == LAYOUTS


def test_random_element_lands_in_group():
    degree, gens = SAMPLES["dihedral4"]
    G = PermGroup(degree, gens)
    elems = closure(degree, gens)
    rng = random.Random(7)
    seen = set()
    for _ in range(100):
        p = G.chain().random_element(rng)
        assert tuple(p.images) in elems
        seen.add(p.images)
    assert len(seen) == 8  # all elements reached


def test_element_limit_guard():
    G = PermGroup.symmetric(8)
    with pytest.raises(ResourceLimit):
        G.elements(limit=100)


def test_base_hint_prefix_respected():
    degree, gens = SAMPLES["sym5"]
    chain = StabilizerChain(degree, gens, base_hint=[2, 0])
    assert chain.base[:2] == (2, 0)
    assert chain.order() == 120


# -- orbits, blocks, primitivity ------------------------------------------


def test_orbits():
    degree, gens = SAMPLES["two_orbit"]
    G = PermGroup(degree, gens)
    assert G.orbits() == [[0, 1, 2], [3, 4, 5, 6]]
    assert not G.is_transitive()
    assert PermGroup(5, list(iter_sym_gens(5))).is_transitive()


def test_orbits_brute_force():
    degree, gens = SAMPLES["dihedral4"]
    G = PermGroup(degree, gens)
    elems = closure(degree, gens)
    for orb in G.orbits():
        x = orb[0]
        assert sorted({e[x] for e in elems}) == orb


def test_primitive_sym4():
    assert PermGroup.symmetric(4).is_primitive()


def test_degree_one_is_primitive():
    G = PermGroup.trivial(1)
    assert G.is_primitive()
    assert G.block_system() is None


def test_blocks_dihedral4():
    G = PermGroup(SAMPLES["dihedral4"][0], SAMPLES["dihedral4"][1])
    # the seed 1 closes to one block; the seed 2 gives the diagonals
    assert G.block_system() == ((0, 2), (1, 3))
    assert not G.is_primitive()


def test_blocks_cyclic6():
    G = PermGroup(SAMPLES["cyclic6"][0], SAMPLES["cyclic6"][1])
    # the seed 1 closes to one block; the seed 2 gives the blocks of size 3
    assert G.block_system() == ((0, 2, 4), (1, 3, 5))


def test_blocks_require_transitive():
    G = PermGroup(SAMPLES["two_orbit"][0], SAMPLES["two_orbit"][1])
    with pytest.raises(ValueError):
        G.block_system()


def congruences_seeded_by_every_point(G):
    """The nontrivial finest congruences of (0, b) for every b in 1..n-1,
    not one b per suborbit."""
    n = G.degree
    systems = []
    for b in range(1, n):
        part = G._finest_congruence(0, b)
        blocks = {}
        for x in range(n):
            blocks.setdefault(part[x], []).append(x)
        if len(blocks) > 1:
            systems.append(tuple(tuple(v) for v in blocks.values()))
    return systems


@pytest.mark.parametrize("make", [
    lambda: PermGroup(*SAMPLES["dihedral4"]),
    lambda: PermGroup(*SAMPLES["cyclic6"]),
    lambda: PermGroup(*SAMPLES["klein"]),
    lambda: PermGroup(*SAMPLES["sym5"]),
    lambda: PermGroup(*SAMPLES["psl27"]),
    lambda: PermGroup(12, [cyc([tuple(range(12))], 12)]),
    lambda: wreath_imprimitive(PermGroup.symmetric(3), PermGroup.symmetric(3)).group,
    lambda: wreath_imprimitive(PermGroup.symmetric(5), PermGroup.symmetric(2)).group,
    lambda: wreath_imprimitive(PermGroup.symmetric(4), PermGroup.symmetric(3)).group,
    lambda: wreath_imprimitive(PermGroup(2, [cyc([(0, 1)], 2)]),
                               PermGroup(4, [cyc([(0, 1, 2, 3)], 4)])).group,
], ids=["dihedral4", "cyclic6", "klein", "sym5", "psl27", "cyclic12",
        "s3wrs3", "s5wrs2", "s4wrs3", "c2wrc4"])
def test_blocks_seeded_by_suborbit_match_every_seed(make):
    # (0, b) and (0, b^h) have the same finest congruence for h fixing 0
    G = make()
    seeded = congruences_seeded_by_every_point(G)
    system = G.block_system()
    if seeded:
        assert system in seeded
    else:
        assert system is None


def test_block_action_and_kernel():
    G = PermGroup(SAMPLES["dihedral4"][0], SAMPLES["dihedral4"][1])
    blocks = [(0, 2), (1, 3)]
    image, kernel = action_on_blocks(G, blocks)
    assert image.order() == 2
    assert kernel.order() == 4
    assert G.order() == image.order() * kernel.order()
    for k in kernel.gens:
        for blk in blocks:
            assert {k.images[x] for x in blk} == set(blk)


def test_block_action_on_singletons_is_faithful():
    # singleton blocks: the block action is G's own action, with no kernel
    G = PermGroup(3, list(iter_sym_gens(3)))
    image, kernel = action_on_blocks(G, [(0,), (1,), (2,)])
    assert image.order() == 6
    assert kernel.order() == 1


@pytest.mark.parametrize("make,blocks", [
    (lambda: PermGroup(*SAMPLES["dihedral4"]), [(0, 2), (1, 3)]),
    (lambda: wreath_imprimitive(PermGroup.symmetric(4), PermGroup.symmetric(3)).group,
     [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]),
], ids=["dihedral4", "s4wrs3"])
def test_block_action_carries_exact_order_bounds(make, blocks):
    G = make()
    image, kernel = action_on_blocks(G, blocks)
    assert image.order_bound == StabilizerChain(image.degree, image.gens).order()
    assert kernel.order_bound == StabilizerChain(kernel.degree, kernel.gens).order()
    assert image.order_bound * kernel.order_bound == G.order()


def test_hinted_chain_without_a_cached_one_stops_at_order_bound():
    gens = list(iter_sym_gens(8))
    bounded, free = PermGroup(8, gens), PermGroup(8, gens)
    bounded.order_bound = 40320
    stopped, full = bounded.chain(base_hint=[3]), free.chain(base_hint=[3])
    assert stopped.order() == full.order() == 40320
    stopped.verify()
    assert bounded._chain is None  # a hinted chain is not cached
    pairs = [sum(sum(lvl.done) for lvl in c.levels) for c in (stopped, full)]
    assert pairs[0] < pairs[1]


# -- stabilizers ----------------------------------------------------------


@pytest.mark.parametrize("name", ["sym5", "alt6", "dihedral4", "psl27"])
def test_point_stabilizer_matches_closure(name):
    degree, gens = SAMPLES[name]
    G = PermGroup(degree, gens)
    elems = closure(degree, gens)
    for pt in range(degree):
        want = {e for e in elems if e[pt] == pt}
        S = G.point_stabilizer(pt)
        assert S.order() == len(want)
        assert all(tuple(e.images) in want for e in S.elements())


def test_pointwise_stabilizer():
    G = PermGroup.symmetric(5)
    S = G.pointwise_stabilizer((0, 1))
    assert S.order() == 6
    S2 = G.pointwise_stabilizer((0, 1, 2, 3))
    assert S2.order() == 1


def preservers(degree, gens, coloring):
    """The elements of the brute-force element set that preserve the coloring."""
    return {e for e in closure(degree, gens) if all(coloring[e[x]] == coloring[x] for x in range(degree))}


@pytest.mark.parametrize(
    "name,points",
    [("sym5", (0, 1)), ("sym5", (1, 3, 4)), ("alt6", (0, 5)), ("dihedral4", (0, 1)), ("psl27", (2, 4, 6))],
)
def test_setwise_stabilizer_matches_closure(name, points):
    # the verdict on a set, and on the set plus one or two more points, each
    # in its own color, is rigidity of the brute-force setwise stabilizer
    degree, gens = SAMPLES[name]
    G = PermGroup(degree, gens)
    rest = [x for x in range(degree) if x not in points]
    for extra in range(3):
        coloring = [1 if x in points else 0 for x in range(degree)]
        for c, x in enumerate(rest[:extra]):
            coloring[x] = 2 + c
        assert verify_distinguishing(G, coloring) is (preservers(degree, gens, coloring) == {tuple(range(degree))})


def test_coloring_stabilizer_three_colors():
    # the color classes {0,1}, {2,3,4}, {5} of S6 are kept by 12 elements;
    # splitting the classes one point at a time leaves 6, then 2, then 1
    G = PermGroup.symmetric(6)
    colorings = ([0, 0, 1, 1, 1, 2], [0, 3, 1, 1, 1, 2], [0, 3, 1, 1, 4, 2], [0, 3, 1, 5, 4, 2])
    assert [len(preservers(6, G.gens, c)) for c in colorings] == [12, 6, 2, 1]
    assert [verify_distinguishing(G, c) for c in colorings] == [False, False, False, True]


def test_coloring_stabilizer_nontrivial_witness():
    G = PermGroup.symmetric(5)
    assert len(preservers(5, G.gens, [0, 0, 1, 1, 1])) == 12
    assert verify_distinguishing(G, [0, 0, 1, 1, 1]) is False
    # all-distinct coloring admits no nontrivial preserver
    assert preservers(5, G.gens, [0, 1, 2, 3, 4]) == {tuple(range(5))}
    assert verify_distinguishing(G, [0, 1, 2, 3, 4]) is True


def test_coloring_stabilizer_budget(monkeypatch):
    # every element of S7 keeps its 1-coloring; the search stops at the first
    # non-identity leaf, one branch per level, not at the 5,040th
    G = PermGroup.symmetric(7)
    G.chain()
    calls = []
    real = Perm.__mul__
    monkeypatch.setattr(Perm, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    assert verify_distinguishing(G, [0] * 7) is False
    assert len(calls) <= 100


def test_coloring_stabilizer_deep_degree():
    # a base hint of all 1200 points gives one nontrivial level; the search
    # depth follows the levels, not the points, so no RecursionError
    n = 1200
    G = PermGroup(n, [Perm(list(range(1, n)) + [0])])
    t0 = time.perf_counter()
    assert verify_distinguishing(G, [0] * n) is False
    assert time.perf_counter() - t0 < 5.0


def test_verify_distinguishing_builds_one_chain(monkeypatch):
    # the hinted chain the search walks is the only Schreier-Sims run; no
    # second chain collects the preserving elements it finds
    G = PermGroup.symmetric(9)
    G.chain()
    builds = [0]
    inner = StabilizerChain.__init__

    def counted(self, *args, **kwargs):
        builds[0] += 1
        inner(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "__init__", counted)
    assert verify_distinguishing(G, [0, 1, 2, 3, 4, 5, 6, 7, 7]) is False
    assert builds[0] == 1


def test_restriction():
    degree, gens = SAMPLES["two_orbit"]
    G = PermGroup(degree, gens)
    R = G.restriction([3, 4, 5, 6])
    assert R.degree == 4
    assert R.order() == 4
    with pytest.raises(ValueError):
        G.restriction([0, 3])


# -- normal structure helpers ---------------------------------------------


def test_normal_closure_in_sym4():
    G = PermGroup.symmetric(4)
    assert normal_closure(G, [cyc([(0, 1, 2)], 4)]).order() == 12
    assert normal_closure(G, [cyc([(0, 1), (2, 3)], 4)]).order() == 4
    assert normal_closure(G, [cyc([(0, 1)], 4)]).order() == 24
    assert normal_closure(G, []).order() == 1


def test_normal_closure_keeps_its_chain(monkeypatch):
    G = PermGroup.symmetric(6)
    N = normal_closure(G, [cyc([(0, 1, 2)], 6)])
    built = []
    init = StabilizerChain.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "__init__", counting_init)
    assert N.order() == 360
    assert built == []
    N.chain().verify()
    assert all(N.contains(g) for g in N.gens)


def test_normal_closure_reaching_the_order_is_the_group():
    # with G's chain cached, a closure whose basic orbits multiply to |G|
    # stops there and is G itself
    for G in (PermGroup.alternating(5), deg36()):
        G.order()
        z = next(g for g in G.gens if not g.is_identity())
        assert normal_closure(G, [z]) is G


@pytest.mark.parametrize("make,seed,order", [
    (lambda: PermGroup.symmetric(4), cyc([(0, 1), (2, 3)], 4), 4),
    (lambda: PermGroup.symmetric(5), cyc([(0, 1, 2)], 5), 60),
    (lambda: PermGroup.symmetric(7), cyc([(2, 4, 6)], 7), 2520),
    (lambda: wreath_imprimitive(PermGroup.symmetric(3), PermGroup.symmetric(3)).group,
     cyc([(0, 1)], 9), 216),
], ids=["V4-in-S4", "A5-in-S5", "A7-in-S7", "base-of-S3wrS3"])
def test_proper_closure_is_built_as_without_a_target(make, seed, order):
    # a proper closure never reaches |G|, so the stop changes nothing in it
    plain = normal_closure(make(), [seed])  # G has no chain: no target
    G = make()
    G.order()
    targeted = normal_closure(G, [seed])
    assert targeted is not G
    assert targeted.order() == plain.order() == order
    assert [g.images for g in targeted.gens] == [g.images for g in plain.gens]
    assert targeted.chain().base == plain.chain().base
    targeted.chain().verify()


def test_normal_closure_without_a_cached_chain_does_not_stop(monkeypatch):
    G = PermGroup.alternating(5)
    built = []
    init = StabilizerChain.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "__init__", counting_init)
    N = normal_closure(G, [cyc([(0, 1, 2)], 5)])
    # only the closure's own chain is built; |G| is not computed to stop early
    assert len(built) == 1
    assert G._chain is None
    assert N is not G
    assert N.order() == 60
    N.chain().verify()


def test_derived_subgroups():
    assert derived_subgroup(PermGroup.symmetric(4)).order() == 12
    assert derived_subgroup(PermGroup.alternating(4)).order() == 4
    assert derived_subgroup(PermGroup.symmetric(5)).order() == 60
    D = PermGroup(4, [cyc([(0, 1, 2, 3)], 4), cyc([(1, 3)], 4)])
    assert derived_subgroup(D).order() == 2
    assert derived_subgroup(PermGroup(6, SAMPLES["cyclic6"][1])).order() == 1


# -- orbit representatives on tuples --------------------------------------
#
# stabilizer_scan walks one representative per orbit on distinct c-tuples
# down the orbit tree; these tests check its classes against brute force.


def test_orbit_tuple_reps_transitive_pairs():
    # S3 is sharply 2-transitive: one class of pairs, trivial stabilizer
    rep = stabilizer_scan(PermGroup.symmetric(3), 2, "solvable")
    assert (rep.classes, rep.worst_witness.order, rep.exhaustive) == (1, 1, True)


@pytest.mark.parametrize("name,c", [("sym5", 2), ("dihedral4", 2), ("psl27", 2), ("alt6", 3), ("two_orbit", 2)])
def test_orbit_tuple_reps_cover(name, c):
    degree, gens = SAMPLES[name]
    G = PermGroup(degree, gens)
    elems = closure(degree, gens)
    tuples = set(itertools.permutations(range(degree), c))
    orbits = 0
    while tuples:
        t = tuples.pop()
        tuples -= {tuple(e[x] for x in t) for e in elems}
        orbits += 1

    def stab_order(t):
        return sum(all(e[x] == x for x in t) for e in elems)

    rep = stabilizer_scan(G, c, "solvable")
    assert (rep.classes, rep.exhaustive) == (orbits, True)
    worst = max(stab_order(t) for t in itertools.permutations(range(degree), c))
    assert rep.worst_witness.order == stab_order(rep.worst_witness.points) == worst


def test_orbit_tuple_reps_budget():
    # 336 triples of a trivial group, so 10 nodes cannot reach them all
    rep = stabilizer_scan(PermGroup.trivial(8), 3, "solvable", node_budget=10)
    assert (rep.exhaustive, rep.verdict) == (False, "inconclusive")


def test_orbit_tree_preorder_weights():
    # <(0 1)> on 4 points: orbits {0, 1}, {2}, {3}
    G = PermGroup(4, [cyc([(0, 1)], 4)])
    walk = G.orbit_tree(lambda prefix, H: H.orbits() if len(prefix) < 2 else [])
    nodes = [(prefix, weight) for prefix, _, weight in walk]
    assert nodes[:7] == [((), 1), ((0,), 2), ((0, 0), 2), ((0, 1), 2),
                         ((0, 2), 2), ((0, 3), 2), ((2,), 1)]
    # every pair of points lies in the orbit of exactly one leaf
    assert sum(w for prefix, w in nodes if len(prefix) == 2) == 4 ** 2
    pinned = G.point_stabilizer(3).orbit_tree(lambda prefix, H: [], (3,), 5)
    assert [(p, w) for p, _, w in pinned] == [((3,), 5)]


# -- chains handed down the orbit tree ------------------------------------


def deg36():
    grp = classical_generators("GO-odd", 7, 2)
    return matrix_orbit_action(grp, kind="subspace", k=6, flt="nondegenerate-plus").group


WALKED = {
    "deg36": deg36,
    "sym6": lambda: PermGroup.symmetric(6),
    "s5wrs2": lambda: wreath_imprimitive(PermGroup.symmetric(5), PermGroup.symmetric(2)).group,
}


@pytest.mark.parametrize("name", sorted(WALKED))
def test_handed_down_chains_check_out(name):
    # every node's chain is the tail of its parent's hinted chain, built with
    # the parent's order as its stopping point; each is re-checked here
    # against the chain invariants and a fresh build from its generators
    G = WALKED[name]()
    nodes = {}

    def children(prefix, H):
        nodes[prefix] = H
        return H.orbits() if len(prefix) < 3 else []

    depth = 0
    for prefix, H, _ in G.orbit_tree(children):
        H.chain().verify()
        assert H.order() == StabilizerChain(H.degree, H.gens).order()
        if prefix:
            parent = nodes[prefix[:-1]]
            orbit = next(o for o in parent.orbits() if prefix[-1] in o)
            assert H.order() * len(orbit) == parent.order()
        depth = max(depth, len(prefix))
    assert depth == 3


# -- stabilizers read off the group's own chain ----------------------------


PATH_GROUPS = dict(
    WALKED,
    # S4 on 0..3 times S3 on 4..6, fixing 7
    intransitive=lambda: PermGroup(8, [cyc([(0, 1)], 8), cyc([(0, 1, 2, 3)], 8),
                                       cyc([(4, 5)], 8), cyc([(4, 5, 6)], 8)]),
)


def stabilizer_path(H, p):
    """How pointwise_stabilizer reads H_p off H's chain."""
    levels = H.chain().levels
    if levels and p == levels[0].point:
        return "tail"
    if levels and p in levels[0].transversal:
        return "conjugate"
    if all(g.images[p] == p for g in H.gens):
        return "fixed"
    return "fallback"


@pytest.mark.parametrize("name,paths", [
    ("deg36", {"tail", "conjugate", "fixed", "fallback"}),
    ("intransitive", {"tail", "conjugate", "fixed", "fallback"}),
    ("s5wrs2", {"tail", "conjugate", "fixed", "fallback"}),
    ("sym6", {"tail", "conjugate", "fixed"}),
])
def test_each_stabilizer_path_gives_the_stabilizer(name, paths):
    # every point of G, then of the stabilizers of its first one and two
    # base points; each H_p passes verify(), has order |H| / |p^H|, lies in
    # H and fixes p, and where G is small enough it equals the brute-force
    # stabilizer
    G = PATH_GROUPS[name]()
    members = closure(G.degree, G.gens) if G.order() <= 30000 else None
    seen = set()
    nodes = [(G, ())]
    for _ in range(2):
        H, fixed = nodes[-1]
        beta = H.chain().base[0]
        nodes.append((H.point_stabilizer(beta), fixed + (beta,)))
    for H, fixed in nodes:
        orbit_of = {x: orb for orb in H.orbits() for x in orb}
        for p in range(G.degree):
            seen.add(stabilizer_path(H, p))
            S = H.point_stabilizer(p)
            S.chain().verify()
            assert S.order() * len(orbit_of[p]) == H.order()
            assert all(H.contains(g) and g.images[p] == p for g in S.gens)
            if members is not None:
                want = {t for t in members if all(t[x] == x for x in fixed + (p,))}
                assert set(map(tuple, S.chain().image_tuples())) == want
    assert seen == paths


@pytest.mark.parametrize("name", ["intransitive", "s5wrs2", "sym6"])
def test_pointwise_stabilizers_match_brute_force(name):
    # several points peeled off in one call, fallback runs included
    G = PATH_GROUPS[name]()
    members = closure(G.degree, G.gens)
    rng = random.Random(5)
    for _ in range(30):
        points = tuple(rng.choice(range(G.degree)) for _ in range(rng.randint(1, 4)))
        S = G.pointwise_stabilizer(points)
        S.chain().verify()
        want = {t for t in members if all(t[x] == x for x in points)}
        assert S.order() == len(want)
        assert set(map(tuple, S.chain().image_tuples())) == want


@pytest.mark.parametrize("name", sorted(WALKED))
def test_transitive_point_stabilizers_build_no_chain(name, monkeypatch):
    G = WALKED[name]()
    assert G.is_transitive()
    G.chain()
    builds = [0]
    inner = StabilizerChain.__init__

    def counted(self, *args, **kwargs):
        builds[0] += 1
        inner(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "__init__", counted)
    for p in range(G.degree):
        assert G.point_stabilizer(p).order() * G.degree == G.order()
    assert builds[0] == 0


def test_conjugate_chain_moves_the_base_and_orbits():
    G = PermGroup.symmetric(6)
    chain = G.chain()
    u = cyc([(0, 3, 5), (1, 4)], 6)
    conj = chain.conjugate(u)
    conj.verify()
    assert conj.base == tuple(u.images[b] for b in chain.base)
    assert conj.order() == chain.order()
    assert [lvl.orbit for lvl in conj.levels] == [
        [u.images[b] for b in lvl.orbit] for lvl in chain.levels]
    u_inv = u.inv()
    for g in conj.levels[0].gens:
        assert G.contains(u * g * u_inv)


def test_known_order_is_not_kept_for_extend():
    G = PermGroup.alternating(6)
    assert G.order() == 360
    chain = G.chain(base_hint=[4])  # built to the known order 360
    assert chain.order() == 360
    chain.verify()
    outside = cyc([(0, 1)], 6)
    assert chain.extend(outside)
    chain.verify()
    assert chain.order() == StabilizerChain(6, G.gens + [outside]).order() == 720


def test_only_stabchain_reads_chain_levels():
    # a chain's layout may change inside stabchain alone: no other module
    # reads its levels or their transversals
    import ast
    from pathlib import Path

    import permres.stabchain

    readers = []
    for path in sorted(Path(permres.stabchain.__file__).parent.glob("*.py")):
        if path.name == "stabchain.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("levels", "transversal"):
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not readers, readers


@pytest.mark.parametrize("points,msg", [
    ((9,), "point 9 out of range for degree 6"),
    ((0, -1), "point -1 out of range for degree 6"),
    ((True,), "point must be an integer, not True"),
    ((2.0,), "point must be an integer, not 2.0"),
])
def test_pointwise_stabilizer_names_a_bad_point_and_the_degree(points, msg):
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        PermGroup.symmetric(6).pointwise_stabilizer(points)
