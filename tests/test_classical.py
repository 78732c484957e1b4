"""Order and form checks for the classical matrix generator recipes.

The order formula is the contract: each recipe must hit it exactly when
measured through a faithful permutation action.
"""

import hashlib
import json

import pytest

from permres.classical import (
    classical_generators,
    classical_order,
    scalar_kernel_order,
)
from permres.constructions import matrix_orbit_action
from permres.fq import FqField
from permres.stabchain import StabilizerChain


def measured(act):
    # an unbounded chain: matrix_orbit_action bounds the group's own chain
    # by the order formula under test
    return StabilizerChain(act.degree, act.group.gens).order()


ORDER_FORMULA_VALUES = [
    ("SL", 2, 3, 24),
    ("SL", 4, 2, 20160),
    ("SL", 3, 4, 60480),
    ("SL", 4, 3, 12130560),
    ("GL", 4, 3, 24261120),
    ("Sp", 4, 2, 720),
    ("Sp", 6, 2, 1451520),
    ("Sp", 4, 3, 51840),
    ("SU", 3, 2, 216),
    ("SU", 4, 2, 25920),
    ("SU", 5, 2, 13685760),
    ("GO+", 6, 2, 40320),
    ("GO-", 6, 2, 51840),
    ("GO+", 4, 2, 72),
    ("GO-", 4, 2, 120),
    ("GO+", 4, 3, 1152),
    ("GO-", 4, 3, 1440),
    ("GO-odd", 7, 2, 1451520),
    ("GO-odd", 5, 3, 103680),
    ("GO-odd", 3, 3, 48),
]


@pytest.mark.parametrize("family,m,q,expected", ORDER_FORMULA_VALUES)
def test_order_formula(family, m, q, expected):
    assert classical_order(family, m, q) == expected


def test_go_odd_char2_matches_symplectic():
    # odd-dimension orthogonal in characteristic 2 collapses onto Sp
    for n, q in [(2, 2), (3, 2), (2, 4)]:
        assert classical_order("GO-odd", 2 * n + 1, q) == classical_order("Sp", 2 * n, q)


# measured through the permutation action on a vector orbit;
# every one of these is faithful (a matrix fixing every vector is trivial
# once the orbit spans, and these orbits span)
MEASURED = [
    ("SL", 2, 3),
    ("SL", 2, 4),
    ("SL", 3, 2),
    ("SL", 4, 2),
    ("SL", 3, 4),
    ("SL", 3, 3),
    ("GL", 3, 3),
    ("GL", 2, 5),
    ("GL", 2, 9),
    ("Sp", 2, 9),
    ("Sp", 4, 2),
    ("Sp", 4, 3),
    ("Sp", 6, 2),
    ("SU", 2, 2),
    ("SU", 2, 3),
    ("SU", 2, 4),
    ("SU", 3, 2),
    ("SU", 3, 3),
    ("SU", 4, 2),
    ("SU", 2, 5),
    ("SU", 2, 7),
    ("SU", 2, 8),
    ("SU", 2, 9),
    ("SU", 3, 4),
    ("GO+", 4, 2),
    ("GO-", 4, 2),
    ("GO+", 4, 3),
    ("GO-", 4, 3),
    ("GO+", 6, 2),
    ("GO-", 6, 2),
    ("GO+", 4, 4),
    ("GO-odd", 3, 3),
    ("GO-odd", 5, 3),
    ("GO-odd", 3, 5),
    ("GO-odd", 5, 2),
    ("GO-odd", 7, 2),
    ("GO+", 8, 2),
    ("GO-", 8, 2),
    ("GO+", 6, 3),
    ("GO-", 6, 3),
    ("GO+", 4, 7),
    ("GO-", 4, 7),
    ("GO-odd", 5, 5),
    ("GO+", 4, 9),
    ("GO-", 4, 9),
]


@pytest.mark.parametrize("family,m,q", MEASURED)
def test_measured_order_matches_formula(family, m, q):
    grp = classical_generators(family, m, q)
    act = matrix_orbit_action(grp, kind="vector")
    assert measured(act) == grp.abstract_order


def test_measured_order_large_sl43():
    grp = classical_generators("SL", 4, 3)
    act = matrix_orbit_action(grp, kind="vector")
    assert measured(act) == 12130560


def test_measured_order_su52():
    grp = classical_generators("SU", 5, 2)
    act = matrix_orbit_action(grp, kind="vector")
    assert measured(act) == 13685760


def test_projective_kernels():
    # the subspace action quotients out exactly the scalars in the group
    for family, m, q, proj_order in [
        ("SL", 3, 4, 20160),      # PSL(3,4): kernel 3
        ("SL", 4, 3, 6065280),    # PSL(4,3): kernel 2
        ("GL", 4, 3, 12130560),   # PGL(4,3): kernel 2 of the q-1 scalars
        ("Sp", 4, 3, 25920),      # PSp(4,3): kernel 2
        ("SU", 4, 2, 25920),      # PSU(4,2) = SU(4,2): kernel 1
    ]:
        grp = classical_generators(family, m, q)
        act = matrix_orbit_action(grp, kind="subspace", k=1)
        got = measured(act)
        assert got == proj_order
        assert got * scalar_kernel_order(grp) == grp.abstract_order


def test_form_identity_exhaustive_quadratic():
    # every generator preserves Q on every vector of the space
    import itertools

    for family, m, q in [("GO+", 6, 2), ("GO-", 6, 2), ("GO-odd", 7, 2),
                         ("GO+", 4, 3), ("GO-", 4, 3), ("GO-odd", 5, 3),
                         ("GO+", 4, 4), ("GO-", 4, 4)]:
        grp = classical_generators(family, m, q)
        form = grp.form
        assert q ** m <= 2 ** 16
        for v in itertools.product(range(q), repeat=m):
            qv = form.quad_value(v)
            for M in grp.matrices:
                assert form.quad_value(M.apply(v)) == qv


@pytest.mark.parametrize("family,m,q", [
    ("GO+", 4, 2), ("GO-", 6, 4), ("GO+", 8, 2), ("GO-", 12, 2),
    ("GO-odd", 3, 3), ("GO-odd", 7, 3), ("GO+", 4, 9), ("GO-", 8, 9),
])
def test_orthogonal_generator_count_is_linear(family, m, q):
    # two Eichler families of (m - 2) k each, one reflection for even q and
    # two for odd q; q^m is no bound, so GO-(8,9) builds too
    grp = classical_generators(family, m, q)
    assert len(grp.matrices) == 2 * (m - 2) * grp.field.k + (1 if q % 2 == 0 else 2)


@pytest.mark.parametrize("m,q", [(2, 4), (2, 8), (3, 9), (4, 9), (5, 2), (12, 2)])
def test_unitary_generator_count(m, q):
    # trace-zero transvections along e and f, k in all, and two Eichler
    # families of (m - 2) k each, over F_{q^2} = F_{p^k}
    grp = classical_generators("SU", m, q)
    assert len(grp.matrices) == (2 * m - 3) * grp.field.k


# sha256 of each generator list's rows as JSON, for the classical groups the
# benchmark workloads build: the Eichler formula the families share must not
# move a workload group
PINNED_ROWS = {
    ("Sp", 6, 2): "a43328e62278b876568c8acdc607a5e02e4c099dae27f003bcbc019bc9906e9a",
    ("Sp", 4, 2): "c25ab98fd7618ed59e96fd1a35bf605a1f992292351b3d21e34aa5505f7a3fdd",
    ("GO+", 6, 2): "d64a1733c6f783b65dfa0653c4d350d11baf5e7ea6b5f7695d3a21c2df75481f",
    ("GO-odd", 7, 2): "38ea4e52f041065dd89d03260131da370f4c49e25f8358a88897d174601ff5b4",
    ("GL", 4, 3): "f1f176955e05f069a98e99b77d902b4f55cb6daa44d089f071b96310f984b1eb",
    ("SL", 4, 2): "eef1d260326fb17c01ee95f5f242b9328631390c86b8573a14c7d84d1ceb0ee1",
}


@pytest.mark.parametrize("family,m,q", list(PINNED_ROWS))
def test_workload_generators_are_pinned(family, m, q):
    grp = classical_generators(family, m, q)
    rows = json.dumps([[list(r) for r in M.rows] for M in grp.matrices])
    assert hashlib.sha256(rows.encode()).hexdigest() == PINNED_ROWS[family, m, q]


def test_form_identity_bilinear_sampled():
    import random

    rng = random.Random(7)
    for family, m, q in [("Sp", 6, 2), ("Sp", 4, 3), ("SU", 4, 2), ("SU", 3, 3)]:
        grp = classical_generators(family, m, q)
        form = grp.form
        nfield = grp.field.q
        for _ in range(200):
            u = tuple(rng.randrange(nfield) for _ in range(m))
            v = tuple(rng.randrange(nfield) for _ in range(m))
            b = form.bilinear(u, v)
            for M in grp.matrices:
                assert form.bilinear(M.apply(u), M.apply(v)) == b


def test_special_families_have_det_one():
    for family, m, q in [("SL", 4, 3), ("SL", 3, 4), ("SU", 4, 2), ("SU", 3, 3)]:
        grp = classical_generators(family, m, q)
        for M in grp.matrices:
            assert M.det() == 1


def test_gl_contains_nontrivial_determinant():
    grp = classical_generators("GL", 3, 3)
    dets = {M.det() for M in grp.matrices}
    assert dets == {1, grp.field.primitive}


@pytest.mark.parametrize("family,m,q", [
    ("SO", 4, 3),        # unknown family
    ("SL", 1, 3),        # dimension too small
    ("SL", 13, 2),       # dimension too large
    ("SL", 4, 11),       # field too large
    ("Sp", 5, 2),        # odd dimension
    ("GO+", 5, 2),       # odd dimension
    ("GO+", 2, 3),       # too small for the orthogonal recipes
    ("GO-odd", 6, 3),    # even dimension
])
def test_unsupported_triples_raise(family, m, q):
    with pytest.raises(ValueError):
        classical_generators(family, m, q)


def test_nonprime_power_field_raises():
    with pytest.raises(ValueError):
        FqField.of(6)


def test_go_plus_minus_disagree():
    # plus and minus type spaces of the same dimension have different sizes
    for q in (2, 3):
        assert classical_order("GO+", 6, q) != classical_order("GO-", 6, q)
