"""Searches: minimal bases, stabilizer scans, colorings, tuple counts."""

import itertools
import operator
import random

import pytest

from permres import search
from permres.classical import classical_generators
from permres.constructions import (
    affine_action,
    diagonal_type_group,
    matrix_orbit_action,
    wreath_imprimitive,
)
from permres.fq import is_prime
from permres.manifest import construct_recipe
from permres.perm import Perm
from permres.search import (
    BaseWitness,
    RegularCount,
    _coloring_tables,
    _prime_order_elements,
    _rigid_coloring_dfs,
    base_lower_bound,
    base_size_exact,
    count_regular_tuples,
    distinguishing_number,
    distinguishing_witness,
    greedy_base,
    stabilizer_scan,
    verify_distinguishing,
)
from permres.stabchain import PermGroup, ResourceLimit, StabilizerChain, orbit_leaders


@pytest.fixture(scope="module")
def deg36():
    grp = classical_generators("GO-odd", 7, 2)
    act = matrix_orbit_action(grp, kind="subspace", k=6, flt="nondegenerate-plus")
    assert act.group.order() == 1451520
    return act.group


@pytest.fixture(scope="module")
def affine16():
    act = affine_action(classical_generators("Sp", 4, 2))
    assert act.group.order() == 11520
    return act.group


@pytest.fixture(scope="module")
def diag60():
    act = diagonal_type_group(
        PermGroup.alternating(5), include_swap=True, outer=Perm([0, 1, 2, 4, 3])
    )
    assert act.group.order() == 14400
    return act.group


def dihedral8():
    return PermGroup(4, [Perm([1, 2, 3, 0]), Perm([3, 2, 1, 0])])


# -- base sizes ------------------------------------------------------------


def test_symmetric_base_is_degree_minus_one():
    for n in range(3, 7):
        w = base_size_exact(PermGroup.symmetric(n))
        assert w.size == n - 1
        assert w.status == "exact"
        assert w.points == tuple(range(n - 1))


def test_lower_bound_values(deg36):
    assert base_lower_bound(PermGroup.trivial(5)) == 0
    assert base_lower_bound(PermGroup.symmetric(5)) == 3  # 5**3 = 125 >= 120
    # 36**3 < 1451520 <= 36**4
    assert base_lower_bound(deg36) == 4


def test_deg36_base_six(deg36):
    w = base_size_exact(deg36)
    assert w.size == 6
    assert w.proof_of_minimality == "exhausted"
    assert w.lower_bound == 4
    assert deg36.pointwise_stabilizer(w.points).order() == 1


def test_affine_base_five(affine16):
    w = base_size_exact(affine16)
    assert w.size == 5
    assert w.proof_of_minimality == "exhausted"


def test_diagonal_base_four(diag60):
    w = base_size_exact(diag60)
    assert w.size == 4
    assert w.proof_of_minimality == "exhausted"


def test_trivial_group_base():
    w = base_size_exact(PermGroup.trivial(3))
    assert w.size == 0 and w.points == ()
    assert w.proof_of_minimality == "order-bound"


def test_order_bound_marker_when_tight():
    # regular C7: one point is a base and 7**1 >= 7
    c7 = PermGroup(7, [Perm([1, 2, 3, 4, 5, 6, 0])])
    w = base_size_exact(c7)
    assert w.size == 1
    assert w.proof_of_minimality == "order-bound"


def test_base_size_exact_needs_no_depth_cap():
    # b(S18) = 17 = degree - 1: the deepening runs as deep as b can be
    w = base_size_exact(PermGroup.symmetric(18))
    assert (w.status, w.size, w.proof_of_minimality) == ("exact", 17, "exhausted")


def test_budget_gives_partial_with_bracket(deg36):
    w = base_size_exact(deg36, node_budget=3)
    assert w.status == "partial"
    assert w.size is None
    assert w.lower_bound >= 4
    assert w.upper_bound is not None and w.upper_bound >= w.lower_bound


def test_greedy_base_upper_bound():
    w = greedy_base(PermGroup.symmetric(5))
    assert w.size == 4
    assert w.status == "upper-bound"
    assert w.proof_of_minimality is None


def test_greedy_never_beats_exact(deg36, affine16, diag60):
    for grp in (deg36, affine16, diag60, PermGroup.symmetric(6)):
        exact = base_size_exact(grp)
        upper = greedy_base(grp)
        assert exact.lower_bound <= exact.size <= upper.size


def brute_base_size(G):
    n = G.degree
    if G.order() == 1:
        return 0
    for k in range(1, n + 1):
        for pts in itertools.combinations(range(n), k):
            if G.pointwise_stabilizer(pts).order() == 1:
                return k
    raise AssertionError


def test_base_size_matches_brute_force():
    cases = [
        PermGroup.symmetric(4),
        PermGroup.alternating(5),
        dihedral8(),
        PermGroup(6, [Perm([1, 2, 3, 4, 5, 0])]),
        wreath_imprimitive(PermGroup.symmetric(3), PermGroup.symmetric(2)).group,
        affine_action(classical_generators("SL", 2, 3)).group,
    ]
    for G in cases:
        assert G.degree <= 10 and G.order() <= 5040
        assert base_size_exact(G).size == brute_base_size(G)


# -- stabilizer scans ------------------------------------------------------


def test_scan_two_point_solvable_unique_class(deg36):
    rep = stabilizer_scan(deg36, 2, "solvable")
    assert rep.verdict == "all-pass"
    assert rep.classes == 1
    assert rep.exhaustive
    assert rep.worst_witness.order == 1152
    assert rep.first_failure is None
    # solvable stabilizer shows as a string of cyclic factors
    assert set(rep.worst_witness.summary.split(" * ")) <= {"C2", "C3"}


def test_scan_affine_two_point(affine16):
    rep = stabilizer_scan(affine16, 2, "solvable")
    assert rep.verdict == "all-pass"
    assert rep.worst_witness.order == 48


def test_scan_diagonal_two_point(diag60):
    rep = stabilizer_scan(diag60, 2, "solvable")
    assert rep.verdict == "all-pass"
    assert rep.worst_witness.order == 16


def test_scan_s8_fails_on_s6_stabilizer():
    rep = stabilizer_scan(PermGroup.symmetric(8), 2, "solvable")
    assert rep.verdict == "fail"
    assert rep.first_failure is not None
    assert rep.first_failure.order == 720
    assert "A6" in rep.first_failure.summary


def test_scan_summary_names_factors_of_large_witness():
    # S11 has order 39916800 and is named by its factors, not its order
    rep = stabilizer_scan(PermGroup.symmetric(12), 1, "solvable")
    assert rep.worst_witness.summary == "C2 * A11"


def test_scan_transitive_c1_single_rep():
    # transitive, so exactly one representative gets evaluated
    rep = stabilizer_scan(PermGroup.symmetric(5), 1, "solvable")
    assert rep.classes == 1
    assert rep.verdict == "all-pass"  # point stabilizer S4 is solvable
    rep = stabilizer_scan(PermGroup.symmetric(6), 1, "solvable")
    assert rep.classes == 1
    assert rep.verdict == "fail"


def test_scan_gamma_predicate():
    S8 = PermGroup.symmetric(8)
    # two-point stabilizers are S6 with an A6 factor
    assert stabilizer_scan(S8, 2, "gamma:7").verdict == "all-pass"
    assert stabilizer_scan(S8, 2, "gamma:6").verdict == "fail"
    assert stabilizer_scan(S8, 2, "gamma:5").verdict == "fail"


def test_scan_rejects_bad_arguments():
    with pytest.raises(ValueError):
        stabilizer_scan(PermGroup.symmetric(4), 0, "solvable")
    with pytest.raises(ValueError):
        stabilizer_scan(PermGroup.symmetric(4), 1, "nilpotent")


def test_scan_worst_is_max_over_reps():
    # intransitive: the two classes have stabilizers C2 and C3
    G = PermGroup(5, [Perm([1, 2, 0, 3, 4]), Perm([0, 1, 2, 4, 3])])  # C3 x C2
    rep = stabilizer_scan(G, 1, "solvable")
    elems = list(G.elements())
    orders = [sum(g.images[x] == x for g in elems) for x in range(G.degree)]
    assert rep.worst_witness.order == max(orders) == 3


# -- distinguishing colorings ----------------------------------------------


def test_distinguishing_symmetric_needs_degree_colors():
    for n in (2, 5, 8):
        r = distinguishing_number(PermGroup.symmetric(n))
        assert r.number == n
        assert r.method == "closed-form"
        assert verify_distinguishing(PermGroup.symmetric(n), r.coloring)


def test_distinguishing_trivial_group_one_color():
    assert distinguishing_number(PermGroup.trivial(4)).number == 1


def test_distinguishing_dihedral_three():
    r = distinguishing_number(dihedral8())
    assert r.number == 3
    assert r.method == "exhausted"
    assert verify_distinguishing(dihedral8(), r.coloring)


def test_distinguishing_cyclic_two():
    c5 = PermGroup(5, [Perm([1, 2, 3, 4, 0])])
    assert distinguishing_number(c5).number == 2


def test_closed_forms_match_exhaustive_search():
    for G in (PermGroup.symmetric(4), PermGroup.alternating(4), PermGroup.alternating(5)):
        tables = _coloring_tables(G.degree, _prime_order_elements(G, 10 ** 6))
        n = G.degree
        by_search = next(
            r for r in range(1, n + 1) if _rigid_coloring_dfs(r, tables) is not None
        )
        assert distinguishing_number(G).number == by_search


def test_witness_mode_matches_number():
    d8 = dihedral8()
    assert distinguishing_witness(d8, 2) is None
    wit = distinguishing_witness(d8, 3)
    assert wit is not None and verify_distinguishing(d8, wit)


def test_witness_on_large_group(deg36):
    wit = distinguishing_witness(deg36, 7)
    assert wit is not None
    assert len(set(wit)) <= 7
    assert verify_distinguishing(deg36, wit)


def test_verify_matches_brute_force():
    # every coloring with at most 3 colors, against the full element list
    for G in (PermGroup.symmetric(4), dihedral8(), PermGroup(5, [Perm([1, 2, 3, 4, 0])])):
        n = G.degree
        movers = [g for g in G.elements() if not g.is_identity()]
        for coloring in itertools.product(range(3), repeat=n):
            preserved = any(all(coloring[g.images[x]] == coloring[x] for x in range(n))
                            for g in movers)
            assert verify_distinguishing(G, coloring) is not preserved, (G.gens, coloring)


def test_probe_stops_at_first_preserving_element(monkeypatch, deg36):
    # a random 2-coloring of S9 is preserved by about 7,000 elements on
    # average and the 1-coloring of deg36 by all 1,451,520; each probe must
    # stop at the first, a few dozen nodes in, not visit them all
    monkeypatch.setattr(search, "_WITNESS_TRIES", 20)
    S9 = PermGroup.symmetric(9)
    S9.chain()
    deg36.chain()
    calls = []
    real = Perm.__mul__
    monkeypatch.setattr(Perm, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    assert distinguishing_witness(S9, 2) is None
    assert not verify_distinguishing(deg36, [0] * 36)
    assert len(calls) < 10_000


def test_probe_verifies_each_distinct_coloring_once(monkeypatch, deg36):
    real = search._has_preserving_element
    seen = []
    monkeypatch.setattr(search, "_has_preserving_element",
                        lambda G, coloring: seen.append(tuple(coloring)) or real(G, coloring))
    # the constant coloring is the only 1-coloring, and every element keeps it
    assert distinguishing_witness(deg36, 1) is None
    assert seen == []
    # 200 random 2-colorings of 3 points hold at most 8 distinct ones
    monkeypatch.setattr(search, "_ELEM_CAP", 1)
    assert distinguishing_witness(PermGroup.symmetric(3), 2) is None
    assert len(seen) == len(set(seen)) <= 8


def first_rigid_coloring(G, r):
    # canonical colorings in lexicographic order, each tested against every
    # non-identity element of G: the order the rigid-coloring search walks
    n = G.degree
    movers = [g.images for g in G.elements() if not g.is_identity()]
    for coloring in itertools.product(range(r), repeat=n):
        canonical = all(c <= max(coloring[:i], default=-1) + 1 for i, c in enumerate(coloring))
        if canonical and not any(all(coloring[images[x]] == coloring[x] for x in range(n))
                                 for images in movers):
            return coloring
    return None


ORACLE_RECIPES = {
    "affine16": {"kind": "affine", "family": "Sp", "m": 4, "q": 2},
    "diag60": {"kind": "diagonal", "factor": {"kind": "alternating", "m": 5},
               "swap": True, "outer": [0, 1, 2, 4, 3]},
    "a5wrs2": {"kind": "wreath", "inner": {"kind": "alternating", "m": 5},
               "outer": {"kind": "symmetric", "m": 2}, "action": "product"},
    "s5wrs2": {"kind": "wreath", "inner": {"kind": "symmetric", "m": 5},
               "outer": {"kind": "symmetric", "m": 2}, "action": "imprimitive"},
}


def cyclic_subgroup(g):
    powers, h = {g.images}, g * g
    while not h.is_identity():
        powers.add(h.images)
        h = h * g
    return frozenset(powers)


def assert_one_generator_per_prime_subgroup(G, rows):
    # against full element orders: exactly one row per subgroup of prime
    # order, and that row generates it
    subgroups = {cyclic_subgroup(g) for g in G.elements()
                 if not g.is_identity() and is_prime(g.order())}
    generated = [cyclic_subgroup(Perm(images)) for images in rows]
    assert len(generated) == len(subgroups) and set(generated) == subgroups


PRIME_ORDER_GROUPS = {
    "S5": lambda: PermGroup.symmetric(5),
    "D8": dihedral8,
    "C6": lambda: PermGroup(6, [Perm([1, 2, 3, 4, 5, 0])]),
    "S3wrS2": lambda: wreath_imprimitive(PermGroup.symmetric(3), PermGroup.symmetric(2)).group,
    # S3 x C6 on the orbits {0, 1, 2}, {3, 4} and {5, 6, 7}, fixing 8
    "intransitive": lambda: PermGroup(9, [Perm.from_cycles([(0, 1, 2)], 9),
                                          Perm.from_cycles([(0, 1)], 9),
                                          Perm.from_cycles([(3, 4), (5, 6, 7)], 9)]),
    # the least degree with an element of prime order
    "degree 2": lambda: PermGroup(2, [Perm([1, 0])]),
    **{name: (lambda recipe=recipe: construct_recipe(recipe).group)
       for name, recipe in ORACLE_RECIPES.items()},
}


@pytest.mark.parametrize("name", list(PRIME_ORDER_GROUPS))
def test_prime_order_rows_match_element_orders(name):
    G = PRIME_ORDER_GROUPS[name]()
    rows = _prime_order_elements(G, 10 ** 6)
    assert_one_generator_per_prime_subgroup(G, [images for images, _ in rows])
    for images, last in rows:
        assert last == max(Perm(images).moved())
    assert [last for _, last in rows] == sorted(last for _, last in rows)


def test_prime_order_rows_on_a_hinted_chain_with_trivial_levels():
    # S3 on 2..4 and C2 on 5, 6 of 8 points, hinted with every point: the
    # levels of 0, 1 and 7 come first and have one-point orbits, as does
    # that of 4, below the levels of 2 and 3
    G = PermGroup(8, [Perm.from_cycles([(2, 3, 4)], 8), Perm.from_cycles([(2, 3)], 8),
                      Perm.from_cycles([(5, 6)], 8)])
    chain = G.chain(base_hint=[0, 1, 7, 2, 3, 4, 5, 6])
    assert [len(lvl.orbit) for lvl in chain.levels] == [1, 1, 1, 3, 2, 1, 2, 1]
    assert_one_generator_per_prime_subgroup(G, chain.prime_order_generators())


@pytest.mark.parametrize("seed", range(4))
def test_prime_order_rows_on_random_small_groups(seed):
    # random generators on random supports, so most groups are intransitive;
    # each group is listed from its own chain and from a chain hinted with
    # every point in a random order
    rng = random.Random(seed)
    tested = intransitive = 0
    while tested < 25:
        n = rng.randint(1, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(range(n), rng.randint(1, n))
            images = list(range(n))
            for x, y in zip(support, rng.sample(support, len(support))):
                images[x] = y
            gens.append(Perm(images))
        G = PermGroup(n, gens)
        if G.order() > 5040:
            continue
        tested += 1
        intransitive += not G.is_transitive()
        assert_one_generator_per_prime_subgroup(G, G.chain().prime_order_generators())
        hinted = G.chain(base_hint=rng.sample(range(n), n))
        assert_one_generator_per_prime_subgroup(G, hinted.prime_order_generators())
    assert intransitive > tested // 2


@pytest.mark.parametrize("G", [
    PermGroup.symmetric(4),
    dihedral8(),
    PermGroup(5, [Perm([1, 2, 3, 4, 0])]),
    PermGroup.alternating(4),
    wreath_imprimitive(PermGroup.symmetric(3), PermGroup.symmetric(2)).group,
], ids=["S4", "D8", "C5", "A4", "S3wrS2"])
def test_rigid_coloring_search_finds_first_rigid_coloring(G):
    n = G.degree
    tables = _coloring_tables(n, _prime_order_elements(G, 10 ** 6))
    for r in range(1, n + 1):
        assert _rigid_coloring_dfs(r, tables) == first_rigid_coloring(G, r), r


@pytest.mark.parametrize("recipe, number, coloring", [
    ({"kind": "affine", "family": "Sp", "m": 4, "q": 2}, 3,
     (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 2, 2)),
    ({"kind": "diagonal", "factor": {"kind": "alternating", "m": 5},
      "swap": True, "outer": [0, 1, 2, 4, 3]}, 2,
     tuple(1 if x in (47, 55, 57, 59) else 0 for x in range(60))),
    ({"kind": "wreath", "inner": {"kind": "alternating", "m": 5},
      "outer": {"kind": "symmetric", "m": 2}, "action": "product"}, 2,
     tuple(1 if x in (14, 18, 21, 22, 24) else 0 for x in range(25))),
    ({"kind": "wreath", "inner": {"kind": "symmetric", "m": 5},
      "outer": {"kind": "symmetric", "m": 2}, "action": "imprimitive"}, 6,
     (0, 1, 2, 3, 4, 0, 1, 2, 3, 5)),
], ids=["affine16", "diag60", "a5wrs2", "s5wrs2"])
def test_distinguishing_colorings_are_pinned(recipe, number, coloring):
    # one row per subgroup of prime order finds the coloring the full
    # list of prime-order elements found
    res = distinguishing_number(construct_recipe(recipe).group)
    assert (res.number, res.method, res.coloring) == (number, "exhausted", coloring)


def test_witness_on_wreath_is_pinned():
    # S4 wr S3 with 5 colors: the dead-branch cut keeps the first coloring
    G = wreath_imprimitive(PermGroup.symmetric(4), PermGroup.symmetric(3)).group
    assert distinguishing_witness(G, 5) == (0, 1, 2, 3, 0, 1, 2, 4, 0, 1, 3, 4)


def list_filter_dfs(n, r, rows):
    # the list-filter search the bitmask kernel replaced, kept as an oracle:
    # rows are (images, inverse images, largest moved point), and each node
    # filters the surviving rows one by one
    coloring = [0] * n
    if not rows:
        return tuple(coloring)
    stack = [[rows, 0, 0]]
    while stack:
        i = len(stack) - 1
        frame = stack[i]
        alive, used, col = frame
        if col > used or col == r:
            stack.pop()
            continue
        frame[2] = col + 1
        coloring[i] = col
        nxt = []
        for g, ginv, last in alive:
            y = g[i]
            if y <= i and coloring[y] != col:
                continue
            x = ginv[i]
            if x < i and coloring[x] != col:
                continue
            if last <= i:
                break
            nxt.append((g, ginv, last))
        else:
            if not nxt:
                coloring[i + 1:] = [0] * (n - i - 1)
                return tuple(coloring)
            stack.append([nxt, max(used, col + 1), 0])
    return None


def relabeled(G, seed):
    # G conjugated by a seeded random point permutation sigma
    sigma = list(range(G.degree))
    random.Random(seed).shuffle(sigma)
    gens = []
    for g in G.gens:
        images = [0] * G.degree
        for x, y in enumerate(g.images):
            images[sigma[x]] = sigma[y]
        gens.append(Perm(images))
    return PermGroup(G.degree, gens)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list(ORACLE_RECIPES))
def test_kernel_matches_list_filter_oracle(name, seed):
    G = relabeled(construct_recipe(ORACLE_RECIPES[name]).group, seed)
    n = G.degree
    rows = _prime_order_elements(G, 10 ** 6)
    tables = _coloring_tables(n, rows)
    oracle_rows = [(images, Perm(images).inv().images, last) for images, last in rows]
    number = distinguishing_number(G).number
    got = [_rigid_coloring_dfs(r, tables) for r in range(1, number + 1)]
    assert got == [list_filter_dfs(n, r, oracle_rows) for r in range(1, number + 1)]
    assert got[:-1] == [None] * (number - 1)
    assert verify_distinguishing(G, got[-1])
    if name == "affine16":
        assert number == 3  # so r = 2 above compared a None


# small groups and their distinguishing numbers, for the lex-leader cut
LEADER_GROUPS = {
    "D4": (lambda: construct_recipe({"kind": "dihedral", "m": 4}).group, 3),
    "D5": (lambda: construct_recipe({"kind": "dihedral", "m": 5}).group, 3),
    "C6": (lambda: construct_recipe({"kind": "cyclic", "m": 6}).group, 2),
    "S5 on 2-sets": (lambda: construct_recipe({"kind": "subsets", "m": 5, "k": 2}).group, 3),
    "S6 on 2-sets": (lambda: construct_recipe({"kind": "subsets", "m": 6, "k": 2}).group, 2),
    "A5": (lambda: PermGroup.alternating(5), 4),
    "SL(3,2) on 7": (lambda: matrix_orbit_action(
        classical_generators("SL", 3, 2), kind="subspace", k=1).group, 4),
    "GL(2,3) on 8": (lambda: matrix_orbit_action(classical_generators("GL", 2, 3)).group, 3),
    "S4wrS2": (lambda: wreath_imprimitive(
        PermGroup.symmetric(4), PermGroup.symmetric(2)).group, 5),
    "S3wrS3 product": (lambda: construct_recipe(
        {"kind": "wreath", "inner": {"kind": "symmetric", "m": 3},
         "outer": {"kind": "symmetric", "m": 3}, "action": "product"}).group, 2),
}


@pytest.mark.parametrize("name", list(LEADER_GROUPS))
def test_lex_leader_cut_finds_first_rigid_coloring(name):
    # the cut keeps the least canonical coloring of every orbit of rigid
    # colorings, so the search still returns the brute-force first one
    build, number = LEADER_GROUPS[name]
    G = build()
    n = G.degree
    tables = _coloring_tables(n, _prime_order_elements(G, 10 ** 6))
    leaders = orbit_leaders(G)
    got = [_rigid_coloring_dfs(r, tables, leaders) for r in range(1, number + 1)]
    assert got == [first_rigid_coloring(G, r) for r in range(1, number + 1)]
    assert got[:-1] == [None] * (number - 1) and got[-1] is not None


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", list(ORACLE_RECIPES))
def test_lex_leader_cut_keeps_distinguishing_answers(name, seed):
    # distinguishing_number cuts with the leaders; the uncut search gives
    # the same number and coloring
    G = relabeled(construct_recipe(ORACLE_RECIPES[name]).group, seed)
    n = G.degree
    tables = _coloring_tables(n, _prime_order_elements(G, 10 ** 6))
    uncut = next((r, hit) for r in range(2, n + 1)
                 if (hit := _rigid_coloring_dfs(r, tables)) is not None)
    res = distinguishing_number(G)
    assert (res.number, res.coloring, res.method) == (*uncut, "exhausted")


def test_lex_leader_cut_pins_frames():
    # one read of the leader list per frame pushed: affine16 has no rigid
    # 2-coloring, and the cut proves it in 1,345 frames, against 14,527
    # without it
    class Counted(list):
        reads = 0

        def __getitem__(self, k):
            Counted.reads += 1
            return list.__getitem__(self, k)

    G = construct_recipe(ORACLE_RECIPES["affine16"]).group
    n = G.degree
    tables = _coloring_tables(n, _prime_order_elements(G, 10 ** 6))
    assert _rigid_coloring_dfs(2, tables, Counted(orbit_leaders(G))) is None
    cut, Counted.reads = Counted.reads, 0
    assert _rigid_coloring_dfs(2, tables, Counted([()] * n)) is None
    assert cut <= 3000 and Counted.reads == 14527


@pytest.mark.parametrize("G", [
    PermGroup.symmetric(5),
    wreath_imprimitive(PermGroup.symmetric(3), PermGroup.symmetric(2)).group,
], ids=["S5", "S3wrS2"])
def test_coloring_tables_mark_pairs_and_last_points(G):
    n = G.degree
    rows = _prime_order_elements(G, 10 ** 6)
    pairs, done = _coloring_tables(n, rows)
    for k, (images, last) in enumerate(rows):
        for i in range(n):
            assert [pairs[i][j] >> k & 1 for j in range(i)] == [
                int(images[i] == j or images[j] == i) for j in range(i)]
            assert done[i] >> k & 1 == int(last <= i)


def test_prime_order_filter_composes_no_perm(monkeypatch, affine16):
    # the filter reads raw images from the chain and powers them with
    # perm.left and perm.table; the enumeration keeps the order of the product
    # u_(k-1) * ... * u_0 over the chain's levels, the deepest slowest
    chain = affine16.chain()
    expected = []
    for betas in itertools.product(*[lvl.orbit for lvl in reversed(chain.levels)]):
        g = chain.identity
        for lvl, beta in zip(reversed(chain.levels), betas):
            g = g * lvl.transversal[beta]
        expected.append(g.images)
    tuples = list(chain.image_tuples())
    assert len(set(tuples)) == len(tuples) == affine16.order()
    assert tuples == expected == [g.images for g in affine16.elements()]
    calls = []
    real = Perm.__mul__
    monkeypatch.setattr(Perm, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    assert len(_prime_order_elements(affine16, 10 ** 6)) == 1351
    assert calls == []


def test_prime_order_listing_scans_one_coset_per_suborbit(monkeypatch, affine16):
    # each level streams the image tuples of the stabilizer H below it once
    # and scans one coset per orbit of H on the basic orbit minus its point:
    # 837 elements for affine16, where filtering every element scanned 11,520
    streamed, cosets = [], []
    tuples, transversals = StabilizerChain.image_tuples, StabilizerChain._suborbit_transversals

    def counted_tuples(self):
        streamed.append(0)
        for images in tuples(self):
            streamed[-1] += 1
            yield images

    def counted_transversals(self, i):
        cosets.append(transversals(self, i))
        return cosets[-1]

    monkeypatch.setattr(StabilizerChain, "image_tuples", counted_tuples)
    monkeypatch.setattr(StabilizerChain, "_suborbit_transversals", counted_transversals)
    chain = affine16.chain()
    assert len(chain.prime_order_generators()) == 1351
    suborbits = []
    for i, lvl in enumerate(chain.levels):
        H = PermGroup(affine16.degree, chain.gens_fixing_prefix(i + 1))
        suborbits.append(sum(orb[0] in lvl.transversal for orb in H.orbits()) - 1)
    assert [len(c) for c in cosets] == suborbits == [1, 2, 3, 1, 1]
    assert streamed == [720, 48, 6, 2, 1]
    assert sum(map(operator.mul, streamed, suborbits)) == 837


def test_verify_rejects_preserved_coloring():
    assert not verify_distinguishing(PermGroup.symmetric(3), (0, 0, 0))
    assert not verify_distinguishing(PermGroup.symmetric(3), (0, 0, 1))


def test_distinguishing_has_no_degree_cap():
    # a cap at degree 64 once refused these cheap answers as bad input
    assert distinguishing_number(PermGroup.trivial(65)).number == 1
    d150 = distinguishing_number(construct_recipe({"kind": "dihedral", "m": 150}).group)
    assert (d150.number, d150.method) == (2, "exhausted")
    s70 = distinguishing_number(construct_recipe({"kind": "symmetric", "m": 70}).group)
    assert (s70.number, s70.method) == (70, "closed-form")


# -- regular tuple counts --------------------------------------------------


def naive_regular_count(G, t, first_point=None):
    n = G.degree
    count = 0
    for tup in itertools.product(range(n), repeat=t):
        if first_point is not None and tup[0] != first_point:
            continue
        if G.pointwise_stabilizer(tup).order() == 1:
            count += 1
    return count


def test_s3_pairs_with_trivial_joint_stabilizer():
    rc = count_regular_tuples(PermGroup.symmetric(3), 2)
    assert rc == RegularCount(6, 2, False, True)


def test_threshold_one_short_circuits():
    rc = count_regular_tuples(PermGroup.symmetric(3), 2, threshold=1)
    assert rc.reached_threshold
    assert not rc.exact
    assert rc.value >= 1


def test_count_matches_naive_small():
    cases = [
        PermGroup.symmetric(3),
        PermGroup.symmetric(4),
        PermGroup.alternating(4),
        dihedral8(),
        PermGroup(6, [Perm([1, 2, 3, 4, 5, 0])]),
        PermGroup(5, [Perm([1, 0, 2, 3, 4]), Perm([0, 1, 3, 4, 2])]),
    ]
    for G in cases:
        assert G.degree <= 6
        for t in (1, 2, 3):
            assert count_regular_tuples(G, t).value == naive_regular_count(G, t)


def test_count_fixed_first_point_matches_naive():
    S4 = PermGroup.symmetric(4)
    rc = count_regular_tuples(S4, 3, first_point=0)
    assert rc.value == naive_regular_count(S4, 3, first_point=0)


def test_trivial_group_counts_all_tuples():
    rc = count_regular_tuples(PermGroup.trivial(3), 2)
    assert rc.value == 9


def test_deg36_six_tuples_beat_group_order(deg36):
    rc = count_regular_tuples(deg36, 6, threshold=1451520)
    assert rc.reached_threshold
    assert rc.value >= 1451520


def test_deg36_per_point_count(deg36):
    rc = count_regular_tuples(deg36, 6, threshold=40320, first_point=0)
    assert rc.reached_threshold
    assert rc.value >= 40320


def test_count_budget_carries_partial(deg36):
    with pytest.raises(ResourceLimit) as info:
        count_regular_tuples(deg36, 6, node_budget=2)
    assert isinstance(info.value.partial, RegularCount)
    assert not info.value.partial.exact


def test_count_rejects_bad_length():
    with pytest.raises(ValueError):
        count_regular_tuples(PermGroup.symmetric(3), 0)


def leafwise_regular_count(L, t, threshold=None, first_point=None, node_budget=1_000_000):
    """The walk that builds every leaf's stabilizer and asks whether its
    order is 1; returns the count and the number of nodes walked."""
    n = L.degree

    def children(prefix, H):
        if len(prefix) == t or H.order() == 1:
            return []
        return H.orbits()

    if first_point is None:
        walk = L.orbit_tree(children)
    else:
        walk = L.point_stabilizer(first_point).orbit_tree(children, (first_point,))
    total = nodes = 0
    for nodes, (prefix, H, weight) in enumerate(walk, 1):
        if nodes > node_budget:
            raise ResourceLimit("budget", partial=RegularCount(total, t, False, False))
        if H.order() == 1:
            total += weight * n ** (t - len(prefix))
            if threshold is not None and total >= threshold:
                return RegularCount(total, t, True, False), nodes
    return RegularCount(total, t, threshold is not None and total >= threshold, True), nodes


def budget_outcome(count, G, t, **kwargs):
    """("done", count) or ("partial", the count carried by ResourceLimit)."""
    try:
        return "done", count(G, t, **kwargs)
    except ResourceLimit as exc:
        return "partial", exc.partial


COUNTED = {
    "S4": lambda: PermGroup.symmetric(4),
    "A5": lambda: PermGroup.alternating(5),
    "D10": lambda: PermGroup(5, [Perm([1, 2, 3, 4, 0]), Perm([0, 4, 3, 2, 1])]),
    "C6": lambda: PermGroup(6, [Perm([1, 2, 3, 4, 5, 0])]),
    "affine16": lambda: affine_action(classical_generators("Sp", 4, 2)).group,
}


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_count_matches_leafwise_walk(name):
    # counting the last position from orbit lengths changes no count, no
    # threshold stop and no budget partial: the settled leaves are counted
    # as nodes in the preorder the leafwise walk reaches them
    G = COUNTED[name]()

    def leafwise(*args, **kwargs):
        return leafwise_regular_count(*args, **kwargs)[0]

    for t in range(1, 5):
        for first_point in (None, 0, G.degree - 1):
            exact, nodes = leafwise_regular_count(G, t, first_point=first_point)
            thresholds = (None, 0, 1, max(1, exact.value // 3), exact.value, exact.value + 1)
            for threshold in dict.fromkeys(thresholds):
                kwargs = {"threshold": threshold, "first_point": first_point}
                assert count_regular_tuples(G, t, **kwargs) == leafwise(G, t, **kwargs)
                for budget in range(1, nodes + 1):
                    kwargs["node_budget"] = budget
                    assert (budget_outcome(count_regular_tuples, G, t, **kwargs)
                            == budget_outcome(leafwise, G, t, **kwargs))


def test_affine16_five_tuples_match_leafwise_walk(affine16):
    # t = 5 reaches regular tuples on affine16, whose base size is 5
    exact, _ = leafwise_regular_count(affine16, 5)
    assert exact == RegularCount(322560, 5, False, True)
    for threshold in (None, 1, 100000, 322560, 322561):
        expected, _ = leafwise_regular_count(affine16, 5, threshold=threshold)
        assert count_regular_tuples(affine16, 5, threshold=threshold) == expected


# -- the orbit-tree walk ---------------------------------------------------


@pytest.fixture
def stabilizer_builds(monkeypatch):
    """Counts PermGroup.pointwise_stabilizer calls, one per stabilizer
    built; a walk that builds unvisited siblings shows up here."""
    calls = [0]
    inner = PermGroup.pointwise_stabilizer

    def counted(self, points):
        calls[0] += 1
        return inner(self, points)

    monkeypatch.setattr(PermGroup, "pointwise_stabilizer", counted)
    return calls


def test_walk_pins_witnesses_nodes_and_builds(deg36, stabilizer_builds):
    w = base_size_exact(deg36)
    assert (w.points, w.nodes, stabilizer_builds[0]) == ((0, 1, 2, 4, 8, 12), 23, 21)

    stabilizer_builds[0] = 0
    w = base_size_exact(PermGroup.symmetric(6))
    assert (w.points, w.nodes, stabilizer_builds[0]) == ((0, 1, 2, 3, 4), 9, 8)

    w = base_size_exact(deg36, node_budget=3)
    assert (w.status, w.nodes, w.lower_bound, w.upper_bound) == ("partial", 4, 5, 6)

    # the last position is counted from orbit lengths, so no leaf builds
    # its stabilizer (1291 builds when every leaf did)
    stabilizer_builds[0] = 0
    rc = count_regular_tuples(deg36, 6, threshold=1451520)
    assert (rc.value, stabilizer_builds[0]) == (1451520, 143)

    # the scan's walk builds the two stabilizers down to its one class; the
    # solvability test runs a derived series, which builds none, and the
    # witness summary reads the class's factors off its order with no
    # descent (24 builds when the summary ran one)
    stabilizer_builds[0] = 0
    rep = stabilizer_scan(deg36, 2, "solvable")
    assert (rep.classes, rep.worst_witness.points) == (1, (0, 1))
    assert stabilizer_builds[0] == 2


@pytest.fixture
def chain_builds(monkeypatch):
    """Counts StabilizerChain constructions, one per Schreier-Sims run."""
    calls = [0]
    inner = StabilizerChain.__init__

    def counted(self, *args, **kwargs):
        calls[0] += 1
        inner(self, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "__init__", counted)
    return calls


def test_walk_pins_chain_builds(deg36, chain_builds):
    # a stabilizer is read off its parent's chain, by its tail or the tail
    # conjugated into place, so a transitive node runs no Schreier-Sims; the
    # builds left are the fallback runs of intransitive nodes (the counts
    # were 21 and 143 with one hinted run per stabilizer, and 42 and 2582
    # when every child built its own chain again)
    assert base_size_exact(deg36).size == 6
    assert chain_builds[0] == 9

    # leaves of the count build no chain (1291 runs when every leaf did)
    chain_builds[0] = 0
    rc = count_regular_tuples(deg36, 6, threshold=1451520)
    assert (rc.value, chain_builds[0]) == (1451520, 41)


@pytest.mark.parametrize("call", [
    lambda G: stabilizer_scan(G, 1.5, "solvable"),
    lambda G: stabilizer_scan(G, True, "solvable"),
    lambda G: count_regular_tuples(G, 2.5),
    lambda G: count_regular_tuples(G, True),
    lambda G: count_regular_tuples(G, 2, first_point=1.0),
    lambda G: distinguishing_witness(G, 2.5),
    lambda G: distinguishing_witness(G, True),
])
def test_counts_that_are_not_integers_are_rejected(call):
    # c = 1.5 once counted every node at depth 2 or more as a class
    with pytest.raises(ValueError, match="integer"):
        call(PermGroup.symmetric(5))


@pytest.mark.parametrize("bad", [0, True, "x", 1.5])
@pytest.mark.parametrize("key,call", [
    ("node_budget", lambda G, v: base_size_exact(G, node_budget=v)),
    ("node_budget", lambda G, v: stabilizer_scan(G, 1, "solvable", node_budget=v)),
    ("node_budget", lambda G, v: count_regular_tuples(G, 2, node_budget=v)),
    ("elem_cap", lambda G, v: distinguishing_number(G, elem_cap=v)),
], ids=["base-size", "stab-scan", "reg-count", "dist-number"])
def test_searches_refuse_a_budget_that_is_no_positive_integer(key, call, bad):
    # the search that reads a budget checks it: "x" once ended in a
    # TypeError, 0 in a partial witness, and true ran as a budget of 1
    with pytest.raises(ValueError, match=f"^{key} must be "):
        call(PermGroup.symmetric(5), bad)
