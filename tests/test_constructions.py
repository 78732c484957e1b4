"""Construction-layer tests: orbits, cosets, combinatorial actions."""

import hashlib
import random

import pytest

from permres import constructions
from permres.classical import classical_generators
from permres.constructions import (
    ConstructionError,
    affine_action,
    coset_action,
    diagonal_type_group,
    matrix_orbit_action,
    partitions_action,
    subsets_action,
    wreath_imprimitive,
    wreath_product_action,
)
from permres.perm import Perm
from permres.stabchain import PermGroup


def suborbit_sizes(G: PermGroup, point: int = 0) -> list[int]:
    stab = G.point_stabilizer(point)
    return sorted(len(o) for o in stab.orbits())


# -- matrix orbits ---------------------------------------------------------


def test_sl32_on_lines():
    grp = classical_generators("SL", 3, 2)
    act = matrix_orbit_action(grp, kind="subspace", k=1)
    assert act.degree == 7
    assert act.group.chain().order() == 168


def test_sp62_on_nonzero_vectors():
    grp = classical_generators("Sp", 6, 2)
    act = matrix_orbit_action(grp, kind="vector")
    assert act.degree == 63
    assert act.group.chain().order() == 1451520


def test_o7_model_plus_six_subspaces():
    # the 7-dimensional orthogonal model acting on nondegenerate plus-type
    # hyperplane-complement subspaces: degree 36 and 2-transitive
    grp = classical_generators("GO-odd", 7, 2)
    act = matrix_orbit_action(grp, kind="subspace", k=6, flt="nondegenerate-plus")
    assert act.degree == 36
    assert act.group.chain().order() == 1451520
    assert suborbit_sizes(act.group) == [1, 35]


def test_orbit_filter_rejects_bad_seed():
    grp = classical_generators("GO-odd", 7, 2)
    # the default 1-space seed is singular, not nonsingular
    with pytest.raises(ConstructionError):
        matrix_orbit_action(grp, kind="vector", flt="nonsingular")
    seed = tuple(1 if i == 6 else 0 for i in range(7))
    act = matrix_orbit_action(grp, seed=seed, kind="vector", flt="nonsingular")
    assert act.degree in (1, 63, 64)  # radical line is fixed; its orbit is itself
    assert act.degree == 1


def test_vector_isotropic_filter_accepts_singular_seed():
    grp = classical_generators("GO-odd", 7, 2)
    # the default seed e_0 is singular; so is every vector in its orbit
    act = matrix_orbit_action(grp, kind="vector", flt="totally-isotropic")
    assert act.degree == 63
    assert all(grp.form.quad_value(v) == 0 for v in act.labels)


def test_vector_isotropic_filter_rejects_nonsingular_seed():
    grp = classical_generators("GO-odd", 7, 2)
    seed = tuple(1 if i == 6 else 0 for i in range(7))
    with pytest.raises(ConstructionError, match="not isotropic"):
        matrix_orbit_action(grp, seed=seed, kind="vector", flt="totally-isotropic")


def test_vector_filter_rejects_unknown_name():
    grp = classical_generators("GO-odd", 7, 2)
    with pytest.raises(ConstructionError, match="unknown vector filter"):
        matrix_orbit_action(grp, kind="vector", flt="nondegenerate-plus")


def test_vector_kind_refuses_a_k():
    # k chooses a subspace dimension; on vectors it was ignored
    grp = classical_generators("GO-odd", 7, 2)
    with pytest.raises(ConstructionError, match="takes no k"):
        matrix_orbit_action(grp, kind="vector", k=2)


def test_orbit_cap_enforced(monkeypatch):
    grp = classical_generators("SL", 4, 3)
    monkeypatch.setattr(constructions, "DEGREE_CAP", 50)
    with pytest.raises(ConstructionError):
        matrix_orbit_action(grp, kind="vector")


def test_labels_distinct_and_consistent():
    rng = random.Random(11)
    grp = classical_generators("Sp", 4, 3)
    act = matrix_orbit_action(grp, kind="vector")
    assert len(set(act.labels)) == act.degree
    perms = [act.perm_of(M) for M in grp.matrices]
    for M, p in zip(grp.matrices, perms):
        for _ in range(100):
            i = rng.randrange(act.degree)
            assert act.labels[p.images[i]] == act.act(act.labels[i], M)


def test_perm_of_outside_orbit():
    grp = classical_generators("GO-odd", 7, 2)
    act = matrix_orbit_action(grp, kind="subspace", k=6, flt="nondegenerate-plus")
    from permres.fq import FqMatrix

    # a shear that is not an isometry maps some subspace off the orbit
    rows = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
    rows[0][6] = 1
    shear = FqMatrix(grp.field, rows)
    with pytest.raises(ConstructionError):
        act.perm_of(shear)


# -- coset actions ---------------------------------------------------------


def test_s4_mod_d8():
    G = PermGroup.symmetric(4)
    H = PermGroup(4, [Perm([1, 2, 3, 0]), Perm([2, 1, 0, 3])])
    act = coset_action(G, H)
    assert act.degree == 3
    assert act.group.chain().order() == 6


def test_s4_mod_transposition_faithful():
    G = PermGroup.symmetric(4)
    H = PermGroup(4, [Perm([1, 0, 2, 3])])
    act = coset_action(G, H)
    assert act.degree == 12
    assert act.group.chain().order() == 24  # core-free: kernel trivial


def test_s4_mod_klein_kernel():
    G = PermGroup.symmetric(4)
    H = PermGroup(4, [Perm([1, 0, 3, 2]), Perm([2, 3, 0, 1])])
    act = coset_action(G, H)
    assert act.degree == 6
    assert act.group.chain().order() == 6  # normal subgroup: kernel is H


def test_coset_action_rejects_non_subgroup():
    G = PermGroup.alternating(4)
    H = PermGroup(4, [Perm([1, 0, 2, 3])])  # odd permutation
    with pytest.raises(ConstructionError):
        coset_action(G, H)


def test_seed_stabilizer_is_h():
    G = PermGroup.symmetric(5)
    H = PermGroup(5, [Perm([1, 2, 0, 3, 4]), Perm([1, 0, 2, 4, 3])])
    h_order = H.chain().order()
    act = coset_action(G, H)
    assert act.degree * h_order == 120
    seed = H.chain().canonical_coset_rep(Perm.identity(5))
    pt = act.index[tuple(seed.images)]
    stab = act.group.point_stabilizer(pt)
    assert stab.chain().order() == h_order


def test_canonical_rep_is_true_minimum():
    # the level-by-level greedy must reach the lexicographic minimum of
    # the coset's image tuples
    rng = random.Random(5)
    G = PermGroup.symmetric(5)
    H = PermGroup(5, [Perm([1, 2, 0, 3, 4]), Perm([0, 1, 2, 4, 3])])
    h_elements = list(H.chain().elements())
    for _ in range(20):
        g = G.chain().random_element(rng)
        rep = H.chain().canonical_coset_rep(g)
        brute = min((h * g).images for h in h_elements)
        assert rep.images == brute
        assert any((h * g).images == rep.images for h in h_elements)


def test_coset_conjugation_invariance():
    rng = random.Random(3)
    G = PermGroup.symmetric(5)
    H = PermGroup(5, [Perm([1, 2, 0, 3, 4]), Perm([1, 0, 2, 4, 3])])
    base = coset_action(G, H)
    base_order = base.group.chain().order()
    base_sub = suborbit_sizes(base.group)
    for _ in range(3):
        g = G.chain().random_element(rng)
        conj = PermGroup(5, [g.inv() * h * g for h in H.gens])
        act = coset_action(G, conj)
        assert act.degree == base.degree
        assert act.group.chain().order() == base_order
        assert suborbit_sizes(act.group) == base_sub


def test_sp62_coset_route_degree_36():
    sp = classical_generators("Sp", 6, 2)
    vec = matrix_orbit_action(sp, kind="vector")
    G = vec.group
    go = classical_generators("GO+", 6, 2)
    H = PermGroup(63, [vec.perm_of(M) for M in go.matrices])
    act = coset_action(G, H)
    assert act.degree == 36
    assert act.group.chain().order() == 1451520
    assert suborbit_sizes(act.group) == [1, 35]


# -- combinatorial actions -------------------------------------------------


def test_subsets_degrees_and_orders():
    act = subsets_action(5, 2)
    assert act.degree == 10
    assert act.group.chain().order() == 120
    act = subsets_action(5, 2, alt=True)
    assert act.group.chain().order() == 60


def test_subsets_parameter_guard():
    with pytest.raises(ConstructionError):
        subsets_action(4, 2)  # k must stay below m/2
    with pytest.raises(ConstructionError):
        subsets_action(5, 0)


def test_partitions_degrees():
    assert partitions_action(6, 3).degree == 10
    assert partitions_action(6, 2).degree == 15
    assert partitions_action(6, 2).group.chain().order() == 720


def test_partitions_kernel_case():
    # S4 on pairs-of-pairs has the Klein group in the kernel
    act = partitions_action(4, 2)
    assert act.degree == 3
    assert act.group.chain().order() == 6


def test_partitions_parameter_guard():
    with pytest.raises(ConstructionError):
        partitions_action(6, 4)
    with pytest.raises(ConstructionError):
        partitions_action(6, 1)


# -- affine ----------------------------------------------------------------


def test_affine_sp42():
    grp = classical_generators("Sp", 4, 2)
    act = affine_action(grp)
    assert act.degree == 16
    assert act.group.chain().order() == 16 * 720
    assert suborbit_sizes(act.group, act.index[(0, 0, 0, 0)]) == [1, 15]


def test_affine_zero_stabilizer_is_linear_part():
    grp = classical_generators("SL", 2, 3)
    act = affine_action(grp)
    assert act.degree == 9
    assert act.group.chain().order() == 9 * 24
    stab = act.group.point_stabilizer(act.index[(0, 0)])
    assert stab.chain().order() == 24



def test_affine_over_an_extension_field_translates_by_all_of_the_space():
    # F_4^2 is spanned over F_2 by e_0, e_1, x e_0, x e_1, not e_0, e_1 alone
    act = affine_action(classical_generators("SU", 2, 2))
    assert act.degree == 16
    assert act.group.is_transitive()
    assert act.group.order() == 16 * 6


def _gens_digest(act) -> str:
    return hashlib.sha256(repr([tuple(g.images) for g in act.group.gens]).encode()).hexdigest()


# sha256 of the generator image tuples: over a prime field the F_p-basis of
# F_q is {1}, so the translations are by e_i alone and the generators are
# pinned to their bytes
AFFINE_PRIME_FIELD_GENS = {
    ("Sp", 4, 2): "c684b5dd2c084383b785623afd89dd4b7867377842b3f1f4b74d18701c0a878f",
    ("SL", 2, 3): "c7e4bac1779bfa85c00cff6417204d669dd110604818c6d67c009004b7c98120",
    ("GL", 2, 5): "1a407d5073c679d2c2aa62f3bb8a0d7081a577d29f5e692cbfd4ad617573f905",
}


@pytest.mark.parametrize("family,m,q", sorted(AFFINE_PRIME_FIELD_GENS))
def test_affine_generators_over_a_prime_field_are_unchanged(family, m, q):
    act = affine_action(classical_generators(family, m, q))
    assert _gens_digest(act) == AFFINE_PRIME_FIELD_GENS[(family, m, q)]


# over extension fields too, pinned when the points were the sorted vectors
# of F_q^m numbered in a table of their own; the orbit of the zero vector
# sorts them the same way, so the generators keep their bytes
AFFINE_EXTENSION_FIELD_GENS = {
    ("GL", 2, 4): "ee509c4fd0c30aeceab16218c889e6466c7167716d66c2c6fd9f663c942f5f23",
    ("SL", 2, 9): "9f7f6246c7ad8b4014c49d3a6a48e2cae21ed38819e71fad5dcebb6005be7a30",
}


@pytest.mark.parametrize("family,m,q", sorted(AFFINE_EXTENSION_FIELD_GENS))
def test_affine_generators_over_an_extension_field_are_pinned(family, m, q):
    act = affine_action(classical_generators(family, m, q))
    assert act.labels == sorted(act.labels) and act.degree == q ** m
    assert _gens_digest(act) == AFFINE_EXTENSION_FIELD_GENS[(family, m, q)]


def test_zero_vector_seed_is_rejected():
    with pytest.raises(ConstructionError, match="zero"):
        matrix_orbit_action(classical_generators("GL", 2, 3), seed=(0, 0))

# -- wreath products -------------------------------------------------------


def test_wreath_imprimitive_s3_s2():
    act = wreath_imprimitive(PermGroup.symmetric(3), PermGroup.symmetric(2))
    assert act.degree == 6
    assert act.group.chain().order() == 72
    assert not act.group.is_primitive()


def test_wreath_product_s3_s2():
    act = wreath_product_action(PermGroup.symmetric(3), PermGroup.symmetric(2))
    assert act.degree == 9
    assert act.group.chain().order() == 72


def test_wreath_product_a5_s2_primitive():
    act = wreath_product_action(PermGroup.alternating(5), PermGroup.symmetric(2))
    assert act.degree == 25
    assert act.group.chain().order() == 7200
    assert act.group.is_primitive()


def test_wreath_order_formula():
    # |L|^k * |P| with L faithful
    L = PermGroup.symmetric(4)
    P = PermGroup(3, [Perm([1, 2, 0])])
    act = wreath_imprimitive(L, P)
    assert act.group.chain().order() == 24 ** 3 * 3


# -- diagonal type ---------------------------------------------------------


def test_diagonal_a5_orders():
    T = PermGroup.alternating(5)
    both = diagonal_type_group(T, include_swap=False)
    assert both.degree == 60
    assert both.group.chain().order() == 3600
    assert len(both.group.orbits()) == 1

    with_swap = diagonal_type_group(T)
    assert with_swap.group.chain().order() == 7200

    full = diagonal_type_group(T, outer=Perm([0, 1, 2, 4, 3]))
    assert full.group.chain().order() == 14400


def _doubled(t: Perm) -> Perm:
    # (t, t) on two copies of t's points
    d = t.degree
    return Perm(tuple(t.images) + tuple(d + x for x in t.images))


def test_diagonal_identity_stabilizer():
    T = PermGroup.alternating(5)
    act = diagonal_type_group(T, include_swap=False)
    # the identity's point is the coset of the diagonal itself, the one
    # whose label, the images of its canonical representative, lies in it
    diag = PermGroup(10, [_doubled(t) for t in T.gens])
    (point,) = [i for i, lbl in enumerate(act.labels) if diag.contains(Perm(lbl))]
    stab = act.group.point_stabilizer(point)
    assert stab.chain().order() == 60
    assert all(stab.contains(act.perm_of(_doubled(t))) for t in T.gens)


def _element_of(images: tuple, d: int) -> Perm:
    # the coset H g, for g on two copies of T's points, stands for 1^g = a^-1 b,
    # with a and b the parts of g that land in the first and second copy
    first, second = (images[:d], images[d:]) if images[0] < d else (images[d:], images[:d])
    a = Perm(first)
    b = Perm([x - d for x in second])
    return a.inv() * b


@pytest.mark.parametrize("swap,outer", [(False, None), (True, None),
                                        (True, Perm([0, 1, 2, 4, 3]))])
def test_diagonal_acts_on_t_as_defined(swap, outer):
    # each generator of T x T acts on the elements of T by t -> a^-1 t b,
    # the swap by inversion and outer by conjugation, through Hg -> 1^g
    T = PermGroup.alternating(5)
    act = diagonal_type_group(T, include_swap=swap, outer=outer)
    elem = [_element_of(lbl, 5) for lbl in act.labels]
    assert sorted(e.images for e in elem) == sorted(t.images for t in T.elements())
    defs = [lambda t, a=a: a.inv() * t for a in T.gens]
    defs += [lambda t, b=b: t * b for b in T.gens]
    if swap:
        defs.append(Perm.inv)
    if outer is not None:
        defs.append(lambda t: outer.inv() * t * outer)
    assert len(defs) == len(act.group.gens)
    for g, defined in zip(act.group.gens, defs):
        assert all(elem[g.images[i]].images == defined(elem[i]).images
                   for i in range(act.degree))


def test_diagonal_outer_must_normalize():
    T = PermGroup(5, [Perm([1, 2, 3, 4, 0])])  # cyclic of order 5
    with pytest.raises(ConstructionError):
        diagonal_type_group(T, outer=Perm([1, 0, 2, 3, 4]))


def test_diagonal_cap(monkeypatch):
    T = PermGroup.symmetric(5)
    monkeypatch.setattr(constructions, "DEGREE_CAP", 100)
    with pytest.raises(ConstructionError):
        diagonal_type_group(T)
