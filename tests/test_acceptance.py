"""End-to-end acceptance run. One test per criterion; the verbose test
line is the pass/fail line, and each test also prints a timed summary.

Wall-clock limits are part of the criteria and asserted explicitly. The
shared fixtures are built once per session; each criterion still measures
only its own work.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from permres.bounds import (
    diag_bound,
    lemma22_check,
    m_epsilon,
    n_c_delta,
    prod_bound,
    theorem13_check,
)
from permres.manifest import bundled_corpus, construct_recipe
from permres.perm import Perm
from permres.search import (
    base_size_exact,
    count_regular_tuples,
    distinguishing_number,
    distinguishing_witness,
    stabilizer_scan,
    verify_distinguishing,
)
from permres.stabchain import PermGroup
from permres.structure import gamma_profile, is_solvable

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "m_epsilon.json").read_text())


@contextmanager
def criterion(n: int, limit_s: float, label: str):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    assert dt < limit_s, f"criterion {n} took {dt:.1f}s, limit {limit_s}s"
    print(f"criterion {n:02d} PASS {dt:7.2f}s  {label}")


DEG36_RECIPE = {"kind": "classical", "family": "GO-odd", "m": 7, "q": 2,
                "space": "subspace", "k": 6, "filter": "nondegenerate-plus"}
COSET_RECIPE = {"kind": "coset",
                "group": {"kind": "classical", "family": "Sp", "m": 6, "q": 2},
                "subgroup": {"kind": "classical", "family": "GO+",
                             "m": 6, "q": 2}}


@pytest.fixture(scope="module")
def deg36():
    return construct_recipe(DEG36_RECIPE).group


@pytest.fixture(scope="module")
def affine16():
    return construct_recipe(
        {"kind": "affine", "family": "Sp", "m": 4, "q": 2}).group


@pytest.fixture(scope="module")
def diag60():
    return construct_recipe(
        {"kind": "diagonal", "factor": {"kind": "alternating", "m": 5},
         "swap": True, "outer": [0, 1, 2, 4, 3]}).group


# Solvable transitive corpus, all degrees <= 12, built from the recipe
# layer so the constructions themselves stay under test.
SOLVABLE_RECIPES = [
    ("affine-SL22-deg4", {"kind": "affine", "family": "SL", "m": 2, "q": 2}),
    ("affine-SL23-deg9", {"kind": "affine", "family": "SL", "m": 2, "q": 3}),
    ("affine-GL23-deg9", {"kind": "affine", "family": "GL", "m": 2, "q": 3}),
    ("SL22-vectors-deg3", {"kind": "classical", "family": "SL", "m": 2, "q": 2}),
    ("SL23-vectors-deg8", {"kind": "classical", "family": "SL", "m": 2, "q": 3}),
    ("GL23-vectors-deg8", {"kind": "classical", "family": "GL", "m": 2, "q": 3}),
    ("SL23-lines-deg4", {"kind": "classical", "family": "SL", "m": 2, "q": 3,
                         "space": "subspace", "k": 1}),
    ("GL23-lines-deg4", {"kind": "classical", "family": "GL", "m": 2, "q": 3,
                         "space": "subspace", "k": 1}),
    ("S2wrS2-blocks-deg4", {"kind": "wreath",
                            "inner": {"kind": "symmetric", "m": 2},
                            "outer": {"kind": "symmetric", "m": 2},
                            "action": "imprimitive"}),
    ("S2wrS3-blocks-deg6", {"kind": "wreath",
                            "inner": {"kind": "symmetric", "m": 2},
                            "outer": {"kind": "symmetric", "m": 3},
                            "action": "imprimitive"}),
    ("S3wrS2-blocks-deg6", {"kind": "wreath",
                            "inner": {"kind": "symmetric", "m": 3},
                            "outer": {"kind": "symmetric", "m": 2},
                            "action": "imprimitive"}),
    ("S2wrS4-blocks-deg8", {"kind": "wreath",
                            "inner": {"kind": "symmetric", "m": 2},
                            "outer": {"kind": "symmetric", "m": 4},
                            "action": "imprimitive"}),
    ("S4wrS3-blocks-deg12", {"kind": "wreath",
                             "inner": {"kind": "symmetric", "m": 4},
                             "outer": {"kind": "symmetric", "m": 3},
                             "action": "imprimitive"}),
    ("S2wrS2-product-deg4", {"kind": "wreath",
                             "inner": {"kind": "symmetric", "m": 2},
                             "outer": {"kind": "symmetric", "m": 2},
                             "action": "product"}),
    ("S3wrS2-product-deg9", {"kind": "wreath",
                             "inner": {"kind": "symmetric", "m": 3},
                             "outer": {"kind": "symmetric", "m": 2},
                             "action": "product"}),
    ("S2wrS3-product-deg8", {"kind": "wreath",
                             "inner": {"kind": "symmetric", "m": 2},
                             "outer": {"kind": "symmetric", "m": 3},
                             "action": "product"}),
    ("C5-deg5", {"kind": "cyclic", "m": 5}),
    ("C12-deg12", {"kind": "cyclic", "m": 12}),
    ("D6-deg6", {"kind": "dihedral", "m": 6}),
    ("D12-deg12", {"kind": "dihedral", "m": 12}),
    ("S4-points-deg4", {"kind": "subsets", "m": 4, "k": 1}),
    ("S4-halvings-deg3", {"kind": "partitions", "m": 4, "k": 2}),
]

NONSOLVABLE_RECIPES = [
    ("affine-Sp42-deg16", {"kind": "affine", "family": "Sp", "m": 4, "q": 2}),
    ("A5wrS2-product-deg25", {"kind": "wreath",
                              "inner": {"kind": "alternating", "m": 5},
                              "outer": {"kind": "symmetric", "m": 2},
                              "action": "product"}),
    ("A5-diagonal-deg60", {"kind": "diagonal",
                           "factor": {"kind": "alternating", "m": 5},
                           "swap": True, "outer": [0, 1, 2, 4, 3]}),
    ("deg36", DEG36_RECIPE),
]


@pytest.fixture(scope="module")
def corpus():
    out = []
    for name, recipe in SOLVABLE_RECIPES:
        G = construct_recipe(recipe).group
        assert G.is_transitive(), name
        assert is_solvable(G), name
        out.append((name, G, True))
    for name, recipe in NONSOLVABLE_RECIPES:
        G = construct_recipe(recipe).group
        assert G.is_transitive(), name
        out.append((name, G, False))
    return out


def test_criterion_01_classical_vector_orders():
    with criterion(1, 10.0, "Sp(6,2) order 1451520 from its vector action"):
        act = construct_recipe(
            {"kind": "classical", "family": "Sp", "m": 6, "q": 2})
        assert act.degree == 63
        assert act.group.order() == 1451520
    with criterion(1, 10.0, "GO+(6,2) order 40320 from its vector action"):
        act = construct_recipe(
            {"kind": "classical", "family": "GO+", "m": 6, "q": 2})
        assert act.group.order() == 40320


def test_criterion_02_two_routes_to_degree_36():
    with criterion(2, 30.0, "coset and subspace routes agree at degree 36"):
        coset = construct_recipe(COSET_RECIPE)
        sub = construct_recipe(DEG36_RECIPE)
        assert coset.degree == sub.degree == 36
        assert coset.group.order() == sub.group.order() == 1451520

        def suborbits(G):
            H = G.point_stabilizer(0)
            return sorted(len(o) for o in H.orbits())

        assert suborbits(coset.group) == suborbits(sub.group) == [1, 35]


def test_criterion_03_degree_36_base_size(deg36):
    with criterion(3, 300.0, "minimal base size 6 with minimality proof"):
        w = base_size_exact(deg36)
        assert w.status == "exact"
        assert w.size == 6
        assert w.proof_of_minimality in ("order-bound", "exhausted")
        # the certificate carries an explicit witness
        assert len(w.points) == 6
        assert deg36.pointwise_stabilizer(w.points).order() == 1


def test_criterion_04_degree_36_two_point_stabilizers(deg36):
    with criterion(4, 60.0, "single pair class, solvable of order 1152"):
        rep = stabilizer_scan(deg36, 2, "solvable")
        assert rep.verdict == "all-pass"
        assert rep.exhaustive
        assert rep.classes == 1
        assert rep.worst_witness.order == 1152 == 1451520 // (36 * 35)


def test_criterion_05_degree_36_regular_six_tuples(deg36):
    with criterion(5, 600.0, "at least |G| regular 6-tuples exist"):
        res = count_regular_tuples(deg36, 6, threshold=1451520)
        assert res.reached_threshold
        assert res.value >= 1451520


def test_criterion_06_affine_two_transitive_group(affine16):
    with criterion(6, 60.0, "affine degree 16: 2-transitive, base 5, "
                            "stabilizer order 48, type flagged"):
        assert affine16.order() == 11520
        H = affine16.point_stabilizer(0)
        assert sorted(len(o) for o in H.orbits()) == [1, 15]

        w = base_size_exact(affine16)
        assert w.status == "exact" and w.size == 5

        rep = stabilizer_scan(affine16, 2, "solvable")
        assert rep.verdict == "all-pass"
        assert rep.classes == 1       # all two-point stabilizers conjugate
        assert rep.worst_witness.order == 48

        # the claimed isomorphism type is recorded as flagged, not asserted
        corpus_doc = json.loads(bundled_corpus().read_text())
        note = next(c for c in corpus_doc["checks"]
                    if c["id"] == "affine-16")["note"]
        assert "flagged" in note and "48" in note


def test_criterion_07_diagonal_action(diag60):
    with criterion(7, 60.0, "diagonal degree 60: base 4 matches formula"):
        assert diag60.degree == 60
        assert diag60.order() == 14400

        w = base_size_exact(diag60)
        assert w.status == "exact" and w.size == 4

        rep = stabilizer_scan(diag60, 2, "solvable")
        assert rep.verdict == "all-pass"
        assert rep.worst_witness.order == 16

        assert diag_bound(2, 60) == 4 == w.size


def test_criterion_08_projective_point_actions():
    with criterion(8, 120.0, "linear degree 15: base 4"):
        act = construct_recipe(
            {"kind": "classical", "family": "SL", "m": 4, "q": 2})
        assert act.degree == 15
        w = base_size_exact(act.group)
        assert w.status == "exact" and w.size == 4 == 4 + (1 if 2 == 3 else 0)
    with criterion(8, 120.0, "projective degree 40: base 5"):
        act = construct_recipe(
            {"kind": "classical", "family": "GL", "m": 4, "q": 3,
             "space": "subspace", "k": 1})
        assert act.degree == 40
        assert act.group.order() == 12130560
        w = base_size_exact(act.group)
        assert w.status == "exact" and w.size == 5 == 4 + (1 if 3 == 3 else 0)


def test_criterion_09_distinguishing_numbers_across_corpus(corpus):
    with criterion(9, 600.0, "verified colorings within the certified "
                             "color counts, whole corpus"):
        for name, G, solvable in corpus:
            prof = gamma_profile(G)
            d = prof["min_certified_d"]
            assert d is not None, name
            if solvable:
                assert d == 5, name
            w = distinguishing_witness(G, d)
            assert w is not None, name
            assert verify_distinguishing(G, w), name


def test_criterion_10_bound_checks_across_corpus(corpus):
    with criterion(10, 900.0, "order bound, threshold comparisons, and "
                              "product bound across the corpus"):
        for name, G, _ in corpus:
            d_cert = gamma_profile(G)["min_certified_d"]
            assert lemma22_check(G, d_cert).verdict == "holds", name
            for c in (0, 1, 2):
                d = max(n_c_delta(c, Fraction(1)), d_cert)
                rep = theorem13_check(G, c, d, Fraction(1))
                assert rep.verdict == "holds", (name, c)

        # product actions: measured base against the composite bound,
        # all three ingredients measured rather than assumed
        cases = [
            ({"kind": "symmetric", "m": 2}, {"kind": "symmetric", "m": 2}),
            ({"kind": "symmetric", "m": 3}, {"kind": "symmetric", "m": 2}),
            ({"kind": "symmetric", "m": 2}, {"kind": "symmetric", "m": 3}),
            ({"kind": "alternating", "m": 5}, {"kind": "symmetric", "m": 2}),
        ]
        for inner, outer in cases:
            L = construct_recipe(inner).group
            P = construct_recipe(outer).group
            prod = construct_recipe({"kind": "wreath", "inner": inner,
                                     "outer": outer,
                                     "action": "product"}).group
            d_p = distinguishing_number(P).number
            b_l = base_size_exact(L).size
            b_g = base_size_exact(prod).size
            assert b_g <= prod_bound(L.degree, d_p, b_l), (inner, outer)


def test_criterion_11_threshold_grids_match_golden():
    with criterion(11, 60.0, "threshold values agree with the independent "
                             "high-precision oracle"):
        by_eps = {row["eps"]: row["M"] for row in GOLDEN["m_epsilon"]}
        assert m_epsilon(Fraction(1)) == by_eps["1"] == 21
        for eps, M in by_eps.items():
            assert m_epsilon(Fraction(eps)) == M, eps

        grid = {(row["c"], row["delta"]): row["N"]
                for row in GOLDEN["n_c_delta"]}
        # the stated grid must actually be present in the golden file
        wanted = {(c, s) for c in range(5) for s in ("1/4", "1/2", "1", "2")}
        assert wanted <= set(grid)
        for (c, s), N in grid.items():
            assert n_c_delta(c, Fraction(s)) == N, (c, s)
        # base of the recursion collapses to the plain threshold
        for s in ("1/4", "1/2", "1", "2"):
            assert n_c_delta(0, Fraction(s)) == m_epsilon(Fraction(s))
        # the oracle computes the recursion literally, so grid equality
        # certifies the max(N(c-1, eps), M(eps), c) relation as well


def brute_base_size(G):
    n = G.degree
    for k in range(n + 1):
        for pts in itertools.combinations(range(n), k):
            if G.pointwise_stabilizer(pts).order() == 1:
                return k
    raise AssertionError("no base found")


def brute_block_systems(G):
    """All nontrivial congruences, by raw subset enumeration."""
    n = G.degree
    assert G.is_transitive()
    systems = set()
    for size in range(2, n // 2 + 1):
        if n % size:
            continue
        for rest in itertools.combinations(range(1, n), size - 1):
            cand = frozenset((0,) + rest)
            # close the orbit of the candidate under the generators
            seen = {cand}
            frontier = [cand]
            ok = True
            while frontier and ok:
                nxt = []
                for B in frontier:
                    for g in G.gens:
                        img = frozenset(g.images[x] for x in B)
                        if img in seen:
                            continue
                        if any(img & C and img != C for C in seen):
                            ok = False
                            break
                        seen.add(img)
                        nxt.append(img)
                    if not ok:
                        break
                frontier = nxt
            if ok and len(seen) == n // size:
                systems.add(frozenset(seen))
    return systems


def naive_regular_tuples(G, t):
    n = G.degree
    return sum(
        1 for tup in itertools.product(range(n), repeat=t)
        if G.pointwise_stabilizer(tup).order() == 1)


def test_criterion_12_oracle_equivalence():
    with criterion(12, 600.0, "chains, bases, block systems, and tuple "
                              "counts agree with brute-force oracles"):
        # order and membership against full enumeration
        A8 = PermGroup.alternating(8)
        elems = {g.images for g in A8.elements(limit=30000)}
        assert len(elems) == A8.order() == 20160
        rng = random.Random(7)
        S8 = PermGroup.symmetric(8)
        for _ in range(200):
            g = S8.chain().random_element(rng)
            assert A8.contains(g) == (g.images in elems)
        S6 = PermGroup.symmetric(6)
        assert len({g.images for g in S6.elements()}) == 720 == S6.order()

        # exact base sizes against subset search, degree <= 10
        base_groups = [
            PermGroup.symmetric(5),
            PermGroup.alternating(5),
            construct_recipe({"kind": "dihedral", "m": 4}).group,
            construct_recipe({"kind": "cyclic", "m": 10}).group,
            construct_recipe({"kind": "wreath",
                              "inner": {"kind": "symmetric", "m": 3},
                              "outer": {"kind": "symmetric", "m": 2},
                              "action": "imprimitive"}).group,
            construct_recipe({"kind": "affine", "family": "SL",
                              "m": 2, "q": 3}).group,
        ]
        for G in base_groups:
            assert base_size_exact(G).size == brute_base_size(G)

        # block systems against subset enumeration, degree <= 12
        block_groups = [
            construct_recipe({"kind": "wreath",
                              "inner": {"kind": "symmetric", "m": 2},
                              "outer": {"kind": "symmetric", "m": 3},
                              "action": "imprimitive"}).group,
            construct_recipe({"kind": "wreath",
                              "inner": {"kind": "symmetric", "m": 3},
                              "outer": {"kind": "symmetric", "m": 2},
                              "action": "imprimitive"}).group,
            construct_recipe({"kind": "cyclic", "m": 12}).group,
            construct_recipe({"kind": "dihedral", "m": 6}).group,
            construct_recipe({"kind": "subsets", "m": 4, "k": 1}).group,
            PermGroup.alternating(5),
        ]
        for G in block_groups:
            brute = brute_block_systems(G)
            system = G.block_system()
            if brute:
                assert frozenset(map(frozenset, system)) in brute, G.label
            else:
                assert system is None, G.label

        # regular tuple counts against the naive filter, small cases
        count_groups = [
            PermGroup.symmetric(3),
            construct_recipe({"kind": "cyclic", "m": 6}).group,
            construct_recipe({"kind": "dihedral", "m": 6}).group,
            construct_recipe({"kind": "alternating", "m": 4}).group,
        ]
        for G in count_groups:
            for t in (1, 2, 3):
                assert (count_regular_tuples(G, t).value
                        == naive_regular_tuples(G, t)), (G.label, t)
