import math
import random

import pytest

import permres.stabchain as stabchain
import permres.structure as structure
from permres.classical import classical_generators
from permres.constructions import matrix_orbit_action
from permres.fq import FqField, FqMatrix
from permres.manifest import construct_recipe
from permres.perm import Perm, iter_alt_gens
from permres.search import stabilizer_scan
from permres.stabchain import PermGroup, StabilizerChain, derived_subgroup, normal_closure
from permres.structure import (
    NO,
    UNKNOWN,
    YES,
    FactorDescriptor,
    alt_section_upper_bound,
    composition_factors,
    derived_series,
    gamma_profile,
    identify_simple,
    in_gamma,
    is_solvable,
    max_alternating_section,
)


def cyc(cycles, degree):
    return Perm.from_cycles(cycles, degree)


def a5_wr_c2():
    gens = []
    for g in iter_alt_gens(5):
        gens.append(Perm(tuple(g.images) + tuple(range(5, 10))))
        gens.append(Perm(tuple(range(5)) + tuple(x + 5 for x in g.images)))
    gens.append(cyc([(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)], 10))
    return PermGroup(10, gens)


def m11():
    return PermGroup(11, [
        cyc([tuple(range(11))], 11),
        cyc([(2, 6, 10, 7), (3, 9, 4, 5)], 11),
    ])


def psl27():
    return PermGroup(7, [cyc([tuple(range(7))], 7), cyc([(1, 2), (3, 6)], 7)])


# -- derived series and solvability ---------------------------------------


def test_derived_series_sym4():
    series = derived_series(PermGroup.symmetric(4))
    assert [G.order() for G in series] == [24, 12, 4, 1]
    assert is_solvable(PermGroup.symmetric(4))


def test_not_solvable_alt5():
    assert not is_solvable(PermGroup.alternating(5))
    series = derived_series(PermGroup.alternating(5))
    assert [G.order() for G in series] == [60]


@pytest.mark.parametrize("m,solvable", [(2, True), (3, True), (4, True), (5, False), (6, False)])
def test_solvable_sym(m, solvable):
    assert is_solvable(PermGroup.symmetric(m)) == solvable


@pytest.mark.parametrize("build", [
    lambda: PermGroup.symmetric(4),
    lambda: matrix_orbit_action(classical_generators("GL", 2, 3)).group,
    lambda: construct_recipe({"kind": "affine", "family": "GL", "m": 2, "q": 3}).group,
    lambda: PermGroup.alternating(5),
    a5_wr_c2,
], ids=["S4", "GL(2,3)", "AGL(2,3)", "A5", "A5wrC2"])
def test_solvability_and_factors_share_their_cache(monkeypatch, build):
    # a group found solvable gets one C_p per prime power of |G| with no
    # descent, and cached factors decide solvability with no derived series
    G, H = build(), build()
    expected = composition_factors(H)
    solvable = is_solvable(G)
    assert solvable == all(f.kind == "cyclic" for f in expected)
    monkeypatch.setattr(structure, "derived_series", None)
    assert is_solvable(H) == solvable
    if solvable:
        monkeypatch.setattr(structure, "_descend", None)
    assert composition_factors(G) == expected


def test_scan_builds_each_derived_subgroup_once(monkeypatch):
    # S10's one class of point pairs fails: is_solvable builds the series
    # S8 > A8 = A8' of its stabilizer, and the summary's descent restricts
    # the stabilizer to its moved points with both cached, so the two
    # closures are not built again (4 were, before the cache)
    closures = []
    closure = stabchain.normal_closure
    monkeypatch.setattr(stabchain, "normal_closure",
                        lambda G, seeds: closures.append(G.order()) or closure(G, seeds))
    rep = stabilizer_scan(PermGroup.symmetric(10), 2, "solvable")
    assert (rep.verdict, rep.first_failure.summary) == ("fail", "C2 * A8")
    assert closures == [40320, 20160]


def test_restriction_keeps_the_derived_subgroup_only_when_faithful():
    s4 = [cyc([(0, 1, 2, 3)], 6), cyc([(0, 1)], 6)]
    G = PermGroup(6, s4)
    assert derived_subgroup(G).order() == 12
    R = G.restriction([0, 1, 2, 3])
    assert R._derived is not None and R._derived.degree == 4
    assert derived_subgroup(R) is R._derived and R._derived.order() == 12
    assert R._derived.gens == [Perm(g.images[:4]) for g in G._derived.gens]
    # with (4 5) the group moves a point left out, so the restriction to
    # 0..3 is not faithful and its derived subgroup is built afresh
    H = PermGroup(6, s4 + [cyc([(4, 5)], 6)])
    derived_subgroup(H)
    assert H.restriction([0, 1, 2, 3])._derived is None
    # a perfect group with a chain is its own derived subgroup, and so is
    # its restriction
    A5 = PermGroup(7, [Perm(tuple(g.images) + (5, 6)) for g in iter_alt_gens(5)])
    assert A5.order() == 60 and derived_subgroup(A5) is A5
    B = A5.restriction(range(5))
    assert B._derived is B


# -- composition factors ---------------------------------------------------


def names(factors):
    return sorted(f.name for f in factors)


def test_factors_sym4():
    fs = composition_factors(PermGroup.symmetric(4))
    assert names(fs) == ["C2", "C2", "C2", "C3"]


def test_factors_sym5():
    fs = composition_factors(PermGroup.symmetric(5))
    assert names(fs) == ["A5", "C2"]


def test_factors_need_no_order_cap():
    # |S16| is about 2.1e13; the descent's cost follows the degree
    fs = composition_factors(PermGroup.symmetric(16))
    assert [f.name for f in fs] == ["C2", "A16"]


def test_factors_alt_wreath():
    fs = composition_factors(a5_wr_c2())
    assert names(fs) == ["A5", "A5", "C2"]


def test_factors_psl27():
    fs = composition_factors(psl27())
    assert names(fs) == ["L2(7)"]
    assert fs[0].kind == "identified"
    assert fs[0].order == 168


def test_factors_intransitive_mixed_generators():
    # one generator pair driving both orbits at once
    a = cyc([(0, 1, 2), (5, 6, 7)], 10)
    b = cyc([(2, 3, 4), (6, 7, 8, 9, 5)], 10)
    G = PermGroup(10, [a, b])
    fs = composition_factors(G)
    prod = 1
    for f in fs:
        prod *= f.order
    assert prod == G.order()


def test_factors_product_order_invariant():
    for G in [PermGroup.symmetric(6), a5_wr_c2(), psl27(), m11()]:
        fs = composition_factors(G)
        prod = 1
        for f in fs:
            prod *= f.order
        assert prod == G.order()


def test_factors_descend_once_per_group(monkeypatch):
    entered = []
    descend = structure._descend

    def counting_descend(G, out):
        entered.append(G)
        descend(G, out)

    monkeypatch.setattr(structure, "_descend", counting_descend)
    G = a5_wr_c2()
    first = composition_factors(G)
    calls = len(entered)
    assert calls > 0
    first.clear()
    second = composition_factors(G)
    assert len(entered) == calls
    assert [f.name for f in second] == ["C2", "A5", "A5"]
    assert gamma_profile(G)["min_certified_d"] == 6
    assert in_gamma(G, 6) == YES
    assert len(entered) == calls


def deg36():
    grp = classical_generators("GO-odd", 7, 2)
    return matrix_orbit_action(grp, kind="subspace", k=6, flt="nondegenerate-plus").group


def test_descent_pins_closure_extends(monkeypatch):
    # Sp(6,2) on 36 points is simple by its order and degree, so no probe
    # runs and builds no closure (444 extends and 79 closures when each
    # probe built its closure to |G|)
    G = deg36()
    extends, closures = [0], [0]
    inner = StabilizerChain.extend
    closure = structure.normal_closure

    def counted(self, *args, **kwargs):
        extends[0] += 1
        return inner(self, *args, **kwargs)

    def counted_closure(*args):
        closures[0] += 1
        return closure(*args)

    monkeypatch.setattr(StabilizerChain, "extend", counted)
    monkeypatch.setattr(structure, "normal_closure", counted_closure)
    assert names(composition_factors(G)) == ["S6(2)"]
    assert extends[0] == 10
    assert closures[0] == 0


# perfect primitive groups that are not simple: the probe finds a proper N,
# and the descent splits G by G/N = G_a/N_a
PERFECT_NOT_SIMPLE = {
    "ASL(3,2)": lambda: construct_recipe({"kind": "affine", "family": "SL", "m": 3, "q": 2}).group,
    "2^4:A6": lambda: derived_subgroup(
        construct_recipe({"kind": "affine", "family": "Sp", "m": 4, "q": 2}).group),
    "diag60'": lambda: derived_subgroup(construct_recipe(
        {"kind": "diagonal", "factor": {"kind": "alternating", "m": 5},
         "swap": True, "outer": [0, 1, 2, 4, 3]}).group),
    "ASL(2,5)": lambda: construct_recipe({"kind": "affine", "family": "SL", "m": 2, "q": 5}).group,
}


def test_split_subtracts_the_factors_of_a_point_stabilizer_of_n(monkeypatch):
    # every N the probe finds above is regular (N_a = 1); here N = 5^2:<-1>
    # in ASL(2,5) has N_0 = <-1>, whose C2 must come off SL(2,5)'s factors
    act = construct_recipe({"kind": "affine", "family": "SL", "m": 2, "q": 5})
    G = act.group
    z = act.perm_of(FqMatrix(FqField(5), [[4, 0], [0, 4]]))
    N = normal_closure(G, [z])
    assert (N.order(), N.point_stabilizer(0).order()) == (50, 2)
    find = structure._find_proper_normal
    monkeypatch.setattr(structure, "_find_proper_normal",
                        lambda H: normal_closure(H, [z]) if H is G else find(H))
    assert names(composition_factors(G)) == ["A5", "C2", "C5", "C5"]


def diag_l2_11():
    """T x T for T = L2(11) in diagonal action on 660 points."""
    gens = [[(x + 1) % 11 for x in range(11)] + [11],
            [11 if x == 0 else -pow(x, -1, 11) % 11 for x in range(11)] + [0]]
    return construct_recipe({"kind": "diagonal", "swap": False, "factor": {
        "kind": "perm-generators", "degree": 12, "generators": gens}}).group


def test_split_needs_no_tuples_of_points():
    # labelling point pairs of a group of this degree was refused, and the
    # factor came back unknown
    G = diag_l2_11()
    assert G.degree == 660
    assert names(composition_factors(G)) == ["L2(11)", "L2(11)"]
    assert in_gamma(G, 6) == YES
    assert gamma_profile(G)["min_certified_d"] == 6


def psl2(p):
    """PSL(2, p) on the p + 1 points of the projective line, infinity as p."""
    return PermGroup(p + 1, [Perm(tuple([(x + 1) % p for x in range(p)] + [p])),
                             Perm(tuple([p if x == 0 else -pow(x, -1, p) % p
                                         for x in range(p)] + [0]))])


def linear_on_points(m, q):
    return matrix_orbit_action(classical_generators("SL", m, q), kind="subspace", k=1).group


def _count_probes(monkeypatch):
    # the groups handed to _find_proper_normal
    probed = []
    find = structure._find_proper_normal

    def counted_find(G):
        probed.append(G)
        return find(G)

    monkeypatch.setattr(structure, "_find_proper_normal", counted_find)
    return probed


# simple primitive groups that the order test certifies: no probe runs
SIMPLE_BY_ORDER = {
    "Sp(6,2) on 36": (deg36, "S6(2)"),
    "Sp(6,2) on 63": (lambda: construct_recipe(
        {"kind": "classical", "family": "Sp", "m": 6, "q": 2}).group, "S6(2)"),
    "A6 on 15": (lambda: construct_recipe(
        {"kind": "subsets", "m": 6, "k": 2, "alt": True}).group, "A6"),
    **{f"A{m}": (lambda m=m: PermGroup.alternating(m), f"A{m}")
       for m in (*range(5, 11), 16, 20, 30, 36)},
    "L2(7)": (psl27, "L2(7)"),
    # 2^5 and 2^7 points, and an odd point stabilizer
    "L2(31) on 32": (lambda: psl2(31), "L2(31)"),
    "L2(127) on 128": (lambda: psl2(127), "L2(127)"),
    "L2(8)": (lambda: linear_on_points(2, 8), "L2(8)"),
    "L3(4)": (lambda: linear_on_points(3, 4), "L3(4)"),
    "U4(2) on 40": (lambda: matrix_orbit_action(
        classical_generators("Sp", 4, 3), kind="subspace", k=1).group, "U4(2)"),
}


@pytest.mark.parametrize("name", sorted(SIMPLE_BY_ORDER))
def test_simple_by_order_runs_no_probe(monkeypatch, name):
    build, factor = SIMPLE_BY_ORDER[name]
    G = build()
    assert structure._simple_by_order(G.order(), G.degree)
    probed = _count_probes(monkeypatch)
    assert names(composition_factors(G)) == [factor]
    assert probed == []


@pytest.mark.parametrize("order,degree", [
    (7920, 11), (7920, 12), (95040, 12), (443520, 22), (10200960, 23), (244823040, 24),
], ids=["M11", "M11 on 12", "M12", "M22", "M23", "M24"])
def test_mathieu_groups_are_simple_by_order(order, degree):
    assert structure._simple_by_order(order, degree)


def test_symmetric_group_on_26_points_runs_no_probe(monkeypatch):
    # A26 has order 26!/2 on 26 points, so it is A26 by its order alone
    probed = _count_probes(monkeypatch)
    assert names(composition_factors(PermGroup.symmetric(26))) == ["A26", "C2"]
    assert probed == []


@pytest.mark.parametrize("order,degree", [
    (60 ** 2, 60), (660 ** 2, 660), (60 ** 6, 5 ** 5), (2 ** 4 * 360, 16),
], ids=["A5xA5 on 60", "diag(L2(11)) on 660", "A5 wr A5 on 3125", "2^4:A6 on 16"])
def test_groups_with_a_proper_normal_subgroup_are_refused_by_order(order, degree):
    assert not structure._simple_by_order(order, degree)


# orders below 10^10 of the sporadic and exceptional simple groups, from the
# ATLAS: the generated table holds the classical families only
ATLAS_ORDERS = {
    "M11": 7920, "M12": 95040, "J1": 175560, "M22": 443520, "J2": 604800,
    "M23": 10200960, "HS": 44352000, "J3": 50232960, "M24": 244823040,
    "McL": 898128000, "He": 4030387200,
    "Sz(8)": 29120, "Sz(32)": 32537600, "G2(3)": 4245696, "G2(4)": 251596800,
    "G2(5)": 5859000000, "3D4(2)": 211341312, "2F4(2)'": 17971200,
}


def test_every_simple_order_could_be_simple():
    orders = [row["order"] for rows in structure._table().values() for row in rows]
    orders += [math.factorial(m) // 2 for m in range(5, 14)]  # 14!/2 > 10^10
    orders += ATLAS_ORDERS.values()
    assert all(structure._could_be_simple_order(n) for n in orders)
    # 26 and 30 points, and the odd point stabilizers of L2(31) and L2(127)
    assert not any(map(structure._could_be_simple_order, (26, 30, 465, 8001)))


def test_prime_order_powers_read_off_the_cycles():
    g = cyc([(0, 1, 2, 3, 4, 5), (6, 7, 8, 9)], 11)  # order 12
    powers = [Perm.identity(11)]
    for _ in range(12):
        powers.append(powers[-1] * g)
    assert structure._prime_order_powers(g) == [powers[6], powers[4]]
    assert structure._prime_order_powers(Perm.identity(3)) == []


@pytest.mark.parametrize("seed", [1, 2])
def test_prime_order_powers_split_a_diagonal_from_random_generators(seed):
    # diag(A6) without the swap on 360 points, generated by two random
    # elements of its chain: every sampled probe's closure is the whole
    # group, and the factor came back ?129600 until the probe also took
    # each sample's powers of prime order, some of which lie in T x 1
    G = construct_recipe({"kind": "diagonal", "factor": {"kind": "alternating", "m": 6},
                          "swap": False}).group
    rng, chain = random.Random(seed), G.chain()
    while True:
        H = PermGroup(G.degree, [chain.random_element(rng), chain.random_element(rng)])
        if H.order() == G.order():
            break
    assert names(composition_factors(H)) == ["A6", "A6"]


# perfect primitive groups that the order test refuses, with their factors:
# each top group still goes to the probe
REFUSED_BY_ORDER = {
    "ASL(3,2)": ["C2", "C2", "C2", "L2(7)"],
    "2^4:A6": ["A6", "C2", "C2", "C2", "C2"],
    "diag60'": ["A5", "A5"],
    "ASL(2,5)": ["A5", "C2", "C5", "C5"],
    "diag(L2(11))": ["L2(11)", "L2(11)"],
}


@pytest.mark.parametrize("name", sorted(REFUSED_BY_ORDER))
def test_refused_groups_are_still_probed(monkeypatch, name):
    build = {**PERFECT_NOT_SIMPLE, "diag(L2(11))": diag_l2_11}[name]
    G = build()
    assert not structure._simple_by_order(G.order(), G.degree)
    probed = _count_probes(monkeypatch)
    assert names(composition_factors(G)) == REFUSED_BY_ORDER[name]
    assert probed[0] is G


# every perfect primitive group of order at most 20,160 built here, simple
# or not
SMALL_PERFECT_PRIMITIVE = {
    **{f"A{m}": lambda m=m: PermGroup.alternating(m) for m in range(5, 9)},
    **{f"A{m} on {k}-sets": lambda m=m, k=k: construct_recipe(
        {"kind": "subsets", "m": m, "k": k, "alt": True}).group
       for m, k in ((5, 2), (6, 2), (7, 2), (7, 3), (8, 2))},
    **{f"L2({q}) on points": lambda q=q: linear_on_points(2, q) for q in (4, 5, 7, 8, 9)},
    **{f"L2({p})": lambda p=p: psl2(p) for p in (11, 13, 17, 19, 23, 29, 31)},
    "L2(7)": psl27,
    "L3(3)": lambda: linear_on_points(3, 3),
    "L3(4)": lambda: linear_on_points(3, 4),
    "A8 on 15": lambda: matrix_orbit_action(classical_generators("GL", 4, 2)).group,
    "ASL(2,4)": lambda: construct_recipe({"kind": "affine", "family": "SL", "m": 2, "q": 4}).group,
    **PERFECT_NOT_SIMPLE,
}


def _every_normal_closure_is_whole(G):
    # one closure per conjugacy class, each class closed under conjugation
    # by the generators
    covered = set()
    for g in G.chain().elements():
        if g.is_identity() or g.images in covered:
            continue
        covered.add(g.images)
        stack = [g]
        while stack:
            x = stack.pop()
            for h in G.gens:
                y = h.inv() * x * h
                if y.images not in covered:
                    covered.add(y.images)
                    stack.append(y)
        if normal_closure(G, [g]).order() < G.order():
            return False
    return True


def test_simple_by_order_is_sound_on_small_groups():
    verdicts = set()
    for name, build in SMALL_PERFECT_PRIMITIVE.items():
        G = build()
        assert G.order() <= 20160 and G.is_primitive(), name
        assert derived_subgroup(G).order() == G.order(), name
        certified = structure._simple_by_order(G.order(), G.degree)
        if certified:
            assert _every_normal_closure_is_whole(G), name
        verdicts.add(certified)
    assert verdicts == {True, False}


def test_descent_pins_block_congruences(monkeypatch):
    # each transitive node stops at its first nontrivial congruence (925
    # congruences when every suborbit seeded one, most on the regular N)
    G = diag_l2_11()
    calls = [0]
    inner = PermGroup._finest_congruence

    def counted(self, *args):
        calls[0] += 1
        return inner(self, *args)

    monkeypatch.setattr(PermGroup, "_finest_congruence", counted)
    assert names(composition_factors(G)) == ["L2(11)", "L2(11)"]
    assert calls[0] == 19


def test_factors_unidentified_is_unknown_not_mislabeled():
    fs = composition_factors(m11())
    assert len(fs) == 1
    f = fs[0]
    assert f.kind == "unknown"
    assert f.order == 7920
    # arithmetic bracket still informative, but never read as exact
    assert (f.alt_lower, f.alt_upper) == (4, 6)
    assert max_alternating_section(f) is None


def test_factor_descriptor_invariants():
    corpus = [PermGroup.symmetric(5), PermGroup.symmetric(4), a5_wr_c2(), psl27(), m11()]
    for G in corpus:
        for f in composition_factors(G):
            assert 4 <= f.alt_lower <= f.alt_upper
            if f.kind == "cyclic":
                assert (f.alt_lower, f.alt_upper) == (4, 4)
                assert f.order >= 2
                assert all(f.order % d for d in range(2, int(f.order ** 0.5) + 1))
            if f.kind == "alternating":
                assert f.alt_lower == f.alt_upper >= 5
                assert f.order == math.factorial(f.alt_lower) // 2
            if f.alt_lower >= 5:
                assert f.order >= 60


def test_solvable_iff_all_cyclic():
    for G in [PermGroup.symmetric(4), PermGroup.symmetric(6), a5_wr_c2(),
              PermGroup(6, [cyc([(0, 1, 2, 3, 4, 5)], 6)])]:
        fs = composition_factors(G)
        assert is_solvable(G) == all(f.kind == "cyclic" for f in fs)


# -- identification --------------------------------------------------------


def test_identify_basic():
    assert identify_simple(60) == "A5"
    assert identify_simple(360) == "A6"
    assert identify_simple(168) == "L2(7)"
    assert identify_simple(25920) == "U4(2)"
    assert identify_simple(1451520) == "S6(2)"
    assert identify_simple(7) == "C7"
    assert identify_simple(77) is None
    assert identify_simple(1) is None


def test_identify_collision_needs_probe():
    assert identify_simple(20160) is None
    assert identify_simple(20160, lambda k: k == 15) == "A8"
    assert identify_simple(20160, lambda k: False) == "L3(4)"


def test_identify_unresolved_pair():
    # two non-isomorphic groups share this order; no honest unique answer
    assert identify_simple(4585351680) is None


@pytest.mark.parametrize("recipe,expected", [
    ({"kind": "classical", "family": "Sp", "m": 6, "q": 3, "space": "subspace", "k": 1},
     ["?4585351680"]),
    ({"kind": "classical", "family": "GO-odd", "m": 7, "q": 3, "space": "subspace", "k": 1,
      "filter": "totally-isotropic"}, ["C2", "?4585351680"]),
], ids=["Sp-6-3", "GO-odd-7-3"])
def test_the_unresolved_order_pair_on_364_points(recipe, expected):
    # S6(3) and O7(3) share their order, so each comes back unknown
    G = construct_recipe(recipe).group
    assert G.degree == 364
    assert [f.name for f in composition_factors(G)] == expected


def test_identify_alt8_from_group():
    G = PermGroup.alternating(8)
    assert identify_simple(20160, lambda k: structure._has_element_of_order(G, k)) == "A8"


@pytest.mark.parametrize("recipe", [
    {"kind": "symmetric", "m": 6},
    {"kind": "affine", "family": "GL", "m": 3, "q": 2},
    {"kind": "classical", "family": "SL", "m": 3, "q": 2},  # L3(2) on 7 points
], ids=["S6", "AGL(3,2)", "L3(2)"])
def test_order_scan_agrees_with_perm_order(recipe):
    G = construct_recipe(recipe).group
    spectrum = {g.order() for g in G.chain().elements()}
    for k in range(1, math.lcm(*spectrum) + 1):
        assert structure._has_element_of_order(G, k) == (k in spectrum), k


@pytest.mark.parametrize("family,m,q,kind,k,name", [
    ("GL", 4, 2, "vector", None, "A8"),  # GL(4,2) = A8 on 15 nonzero vectors
    ("SL", 3, 4, "subspace", 1, "L3(4)"),  # SL(3,4) on 21 points of the plane
])
def test_order_20160_is_told_apart_by_an_element_of_order_15(family, m, q, kind, k, name):
    G = matrix_orbit_action(classical_generators(family, m, q), kind=kind, k=k).group
    assert G.order() == 20160
    fs = composition_factors(G)
    assert names(fs) == [name]
    assert fs[0].order == 20160


# -- alternating sections and membership ----------------------------------


def test_alt_upper_bound_values():
    assert alt_section_upper_bound(168) == 4  # 60 does not divide 168
    assert alt_section_upper_bound(60) == 5
    assert alt_section_upper_bound(25920) == 6
    assert alt_section_upper_bound(1451520) == 8
    assert alt_section_upper_bound(7920) == 6


def test_max_alternating_section_basic():
    assert max_alternating_section(FactorDescriptor("cyclic", 2, "C2", 4, 4)) == 4
    alt7 = composition_factors(PermGroup.alternating(7))[0]
    assert max_alternating_section(alt7) == 7
    # a closed bracket on an unknown factor is still not an identification
    assert max_alternating_section(FactorDescriptor("unknown", 168, "?168", 4, 4)) is None


def test_in_gamma_rejects_small_d():
    with pytest.raises(ValueError):
        in_gamma(PermGroup.symmetric(4), 4)


def test_in_gamma_examples():
    assert in_gamma(PermGroup.symmetric(4), 5) == YES
    assert in_gamma(PermGroup.alternating(6), 6) == NO
    assert in_gamma(PermGroup.alternating(6), 7) == YES
    assert in_gamma(psl27(), 5) == YES


def test_in_gamma_three_valued_honesty():
    # sporadic factor: arithmetic certifies d = 7 upward, decides nothing below
    assert in_gamma(m11(), 7) == YES
    assert in_gamma(m11(), 5) == UNKNOWN


def test_in_gamma_monotone():
    for G in [PermGroup.symmetric(5), PermGroup.alternating(6), a5_wr_c2(), psl27(), m11()]:
        verdicts = [in_gamma(G, d) for d in range(5, 13)]
        for i in range(len(verdicts) - 1):
            if verdicts[i] == YES:
                assert verdicts[i + 1] == YES


def test_in_gamma_subgroup_closure_spot_check():
    for G in [PermGroup.symmetric(5), a5_wr_c2()]:
        for d in (6, 7):
            if in_gamma(G, d) == YES:
                for alpha in range(0, G.degree, 3):
                    assert in_gamma(G.point_stabilizer(alpha), d) == YES


def test_in_gamma_quotient_closure_spot_check():
    G = a5_wr_c2()
    image = G.restriction(G.orbits()[0]) if len(G.orbits()) > 1 else G
    for d in (6, 7):
        if in_gamma(G, d) == YES:
            assert in_gamma(image, d) == YES


def test_gamma_profile():
    prof = gamma_profile(PermGroup.symmetric(4))
    assert prof == {"min_certified_d": 5, "tight": True}
    prof6 = gamma_profile(PermGroup.alternating(6))
    assert prof6["min_certified_d"] == 7


def test_gamma_profile_has_no_ceiling(monkeypatch):
    # one past the largest alt_upper, however large
    monkeypatch.setattr(structure, "composition_factors",
                        lambda G: [structure._alternating(45)])
    prof = gamma_profile(PermGroup.symmetric(3))
    assert prof == {"min_certified_d": 46, "tight": True}


def test_descent_handles_regular_product_with_mixed_generators():
    # transitive representation of a direct square generated by mixed pairs:
    # the normal-closure probes alone cannot see the factors, the invariant
    # pair-partition split must
    from permres.stabchain import StabilizerChain

    base = PermGroup.alternating(4)
    elems = [tuple(p.images) for p in base.elements()]
    index = {imgs: i for i, imgs in enumerate(elems)}
    n = len(elems)

    def left(a):
        return Perm(tuple(index[tuple(a.images[v] for v in imgs)] for imgs in elems))

    def right(a):
        return Perm(tuple(index[tuple(imgs[v] for v in a.images)] for imgs in elems))

    g1, g2 = base.gens[0], base.gens[1]
    mixed = PermGroup(n, [left(g1) * right(g2), left(g2) * right(g1 * g2)])
    if mixed.order() == base.order() ** 2:
        fs = composition_factors(mixed)
        prod = 1
        for f in fs:
            prod *= f.order
        assert prod == mixed.order()
        assert all(f.kind == "cyclic" for f in fs)


@pytest.mark.parametrize("d", [9.5, 6.0, True])
def test_in_gamma_rejects_a_d_that_is_not_an_integer(d):
    with pytest.raises(ValueError, match="integer"):
        in_gamma(PermGroup.symmetric(5), d)
