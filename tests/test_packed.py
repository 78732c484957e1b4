"""Packed GF(q) vectors: the kernel under every matrix action.

The digest pins what the matrix actions build, generators, labels and
order bounds, as the tuple arithmetic built them before the packed kernel
replaced it; the oracles check the packed apply, echelon form and form
product against the tuple code in fq that stays.
"""

import hashlib
import json
import random

import pytest

from permres.classical import FAMILIES, classical_generators
from permres.fq import FqField, FqMatrix, PackedSpace, rref
from permres.recipes import construct_recipe

KERNEL_Q = (2, 3, 4, 5, 7, 8, 9)
# sha256 of _kernel_recipes' builds, recorded on the tuple arithmetic
KERNEL_DIGEST = "bac4fc29588475f9"
# the most points a recipe of the digest may have, to keep it quick
_POINT_CAP = 400


def _gaussian_binomial(m: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _family_shapes():
    # (family, m, q, field order) for each family, m and q the classical
    # generators support, small enough for the point cap on some space
    for family in FAMILIES:
        for q in KERNEL_Q:
            for m in range(2, 7):
                if family in ("GO+", "GO-") and (m % 2 or m < 4):
                    continue
                if family == "GO-odd" and m % 2 == 0 or family == "Sp" and m % 2:
                    continue
                fq = q * q if family == "SU" else q
                if fq ** m <= 4 * _POINT_CAP:
                    yield family, m, q, fq


def _kernel_recipes():
    out = []
    for family, m, q, fq in _family_shapes():
        base = {"kind": "classical", "family": family, "m": m, "q": q}
        forms = family not in ("SL", "GL")
        if fq ** m <= _POINT_CAP:
            for flt in ("all", "nonsingular", "totally-isotropic") if forms else ("all",):
                out.append({**base, "space": "vector", "filter": flt})
        for k in range(1, m):
            if _gaussian_binomial(m, k, fq) > _POINT_CAP:
                continue
            flts = ("all", "totally-isotropic", "nondegenerate-plus",
                    "nondegenerate-minus") if forms else ("all",)
            for flt in flts:
                out.append({**base, "space": "subspace", "k": k, "filter": flt})
        if fq ** m <= _POINT_CAP and family != "SU":
            out.append({"kind": "affine", "family": family, "m": m, "q": q})
    # cosets whose subgroup's matrices act through the parent action
    for m in (4, 6):
        out.append({"kind": "coset",
                    "group": {"kind": "classical", "family": "Sp", "m": m, "q": 2},
                    "subgroup": {"kind": "classical", "family": "GO+", "m": m, "q": 2}})
    borel = {"kind": "matrix-generators", "m": 3, "q": 3,
             "matrices": [[[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                          [[1, 0, 0], [0, 1, 1], [0, 0, 1]], [[1, 0, 0], [0, 2, 0], [0, 0, 1]]]}
    for space in ({"space": "vector"}, {"space": "subspace", "k": 1}):
        out.append({"kind": "coset",
                    "group": {"kind": "classical", "family": "GL", "m": 3, "q": 3, **space},
                    "subgroup": borel})
    # matrix generators over larger fields, on vectors and lines
    rng = random.Random(45)
    for q, m in ((25, 2), (27, 2), (16, 2), (11, 2), (4, 3)):
        mats = [[[rng.randrange(q) for _ in range(m)] for _ in range(m)] for _ in range(2)]
        for space in ({"space": "vector"}, {"space": "subspace", "k": 1}):
            out.append({"kind": "matrix-generators", "m": m, "q": q,
                        "matrices": mats, **space})
    return out


def _kernel_digest() -> tuple[str, int]:
    """sha256 of each kernel recipe's generators, labels and order bound,
    or its error; and how many recipes built."""
    h, built = hashlib.sha256(), 0
    for recipe in _kernel_recipes():
        try:
            act = construct_recipe(recipe)
        except ValueError as e:
            entry = [recipe, f"{type(e).__name__}: {e}"]
        else:
            built += 1
            entry = [recipe, [list(g.images) for g in act.group.gens],
                     [repr(lbl) for lbl in act.labels], act.group.order_bound]
        h.update(json.dumps(entry, sort_keys=True).encode())
    return h.hexdigest(), built


def test_kernel_digest_is_pinned():
    digest, built = _kernel_digest()
    assert built == 411
    assert digest.startswith(KERNEL_DIGEST)


# -- oracles ---------------------------------------------------------------

ORACLE_Q = (2, 3, 4, 5, 8, 9, 25, 27)


def _random_rows(rng, F, n, m):
    return [tuple(rng.randrange(F.q) for _ in range(m)) for _ in range(n)]


@pytest.mark.parametrize("q", ORACLE_Q)
def test_packing_sorts_like_tuples(q):
    F, rng = FqField.of(q), random.Random(q)
    for m in (1, 2, 3, 5):
        space = PackedSpace.of(F, m)
        vs = _random_rows(rng, F, 60, m)
        assert [space.unpack(space.pack(v)) for v in vs] == vs
        assert sorted(vs) == [space.unpack(x) for x in sorted(map(space.pack, vs))]


@pytest.mark.parametrize("q", ORACLE_Q)
def test_packed_add_scale_and_apply_match_the_tuple_code(q):
    F, rng = FqField.of(q), random.Random(100 + q)
    for m in (1, 2, 4, 6):
        space = PackedSpace.of(F, m)
        for _ in range(20):
            M = FqMatrix(F, _random_rows(rng, F, m, m))
            T = space.tables(M)
            u, v = _random_rows(rng, F, 2, m)
            c = rng.randrange(q)
            x, y = space.pack(u), space.pack(v)
            assert space.unpack(space.add(x, y)) == F.vec_add(u, v)
            assert space.unpack(space.scale(c, x)) == F.vec_scale(c, u)
            assert space.unpack(space.apply(x, T)) == M.apply(u)


@pytest.mark.parametrize("q", ORACLE_Q)
def test_packed_echelon_form_matches_rref(q):
    F, rng = FqField.of(q), random.Random(200 + q)
    for m in (2, 3, 5, 7):
        space = PackedSpace.of(F, m)
        for n in range(1, m + 2):
            rows = _random_rows(rng, F, n, m)
            if rng.random() < 0.5:  # a dependent row
                rows.append(F.vec_add(rows[0], F.vec_scale(rng.randrange(q), rows[-1])))
            want, _ = rref(F, rows)
            got = space.span_key(map(space.pack, rows))
            assert tuple(map(space.unpack, got)) == want


def _gram_by_bilinear(form, M):
    # the matrix of B(e_i M, e_j M), one bilinear call per entry
    return tuple(tuple(form.bilinear(a, b) for b in M.rows) for a in M.rows)


_FORM_GROUPS = [(family, m, q) for q in (2, 3, 4, 5, 9)
                for family, m in (("Sp", 4), ("GO+", 4), ("GO-", 4), ("GO-odd", 5))]
_FORM_GROUPS += [("SU", 3, 3), ("SU", 4, 2)]


@pytest.mark.parametrize("family,m,q", _FORM_GROUPS)
def test_isometry_product_matches_the_bilinear_loop(family, m, q):
    # the generators are isometries; random matrices, and generators with
    # one entry changed, almost never are
    grp = classical_generators(family, m, q)
    form, F, rng = grp.form, grp.field, random.Random(m * 100 + q)
    mats = list(grp.matrices) + [FqMatrix(F, _random_rows(rng, F, m, m)) for _ in range(20)]
    for M in grp.matrices:
        rows = [list(r) for r in M.rows]
        i, j = rng.randrange(m), rng.randrange(m)
        rows[i][j] = F.add(rows[i][j], 1)
        mats.append(FqMatrix(F, rows))
    verdicts = []
    for M in mats:
        by_loop = _gram_by_bilinear(form, M) == form.gram and (
            form.quad is None
            or all(form.quad_value(r) == form.quad[i][i] for i, r in enumerate(M.rows)))
        assert form.is_isometry(M) == by_loop
        verdicts.append(by_loop)
    assert verdicts[:len(grp.matrices)] == [True] * len(grp.matrices)
    assert not all(verdicts)
