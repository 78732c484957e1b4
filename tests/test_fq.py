import hashlib
import itertools
import math
import random

import pytest

from permres.fq import (
    FormSpec,
    FqField,
    FqMatrix,
    SubspaceFq,
    _anisotropic_pair,
    _count_singular,
    _restricted_quad,
    factorize,
    is_prime,
    make_hermitian_form,
    make_quadratic_form,
    make_symplectic_form,
    rref,
    subspace_filter,
)

SMALL_Q = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]


def test_factorize_and_is_prime():
    primes = [p for p in range(2, 2000) if all(p % d for d in range(2, p))]
    for n in range(1, 2000):
        fac = factorize(n)
        assert set(fac) <= set(primes)
        assert math.prod(p ** e for p, e in fac.items()) == n
        assert is_prime(n) == (n in primes)
    assert factorize(1451520) == {2: 9, 3: 4, 5: 1, 7: 1}


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms(q):
    F = FqField.of(q)
    rng = random.Random(q)
    sample = list(range(q)) if q <= 9 else rng.sample(range(q), 9)
    for a in sample:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in sample:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in sample:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", SMALL_Q)
def test_primitive_element_order(q):
    F = FqField.of(q)
    g = F.primitive
    seen = set()
    x = 1
    for _ in range(q - 1):
        x = F.mul(x, g)
        seen.add(x)
    assert len(seen) == q - 1
    assert x == 1
    if F.k == 1:
        # a prime field's primitive is the least primitive root mod p
        orders = {a: next(e for e in range(1, q) if pow(a, e, q) == 1) for a in range(1, q)}
        assert g == min(a for a, e in orders.items() if e == q - 1)


@pytest.mark.parametrize("q", SMALL_Q)
def test_characteristic(q):
    F = FqField.of(q)
    s = 0
    for _ in range(F.p):
        s = F.add(s, 1)
    assert s == 0


def _poly_oracle_mul(p, k, poly, a_digits, b_digits):
    # schoolbook multiply then long division, all independent of the field's
    # table path
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(a_digits):
        for j, y in enumerate(b_digits):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top]
        if c:
            prod[top] = 0
            for i in range(k):
                prod[top - k + i] = (prod[top - k + i] - c * poly[i]) % p
    return prod[:k]


@pytest.mark.parametrize("q", [4, 8, 9, 16, 27, 64])
def test_mul_matches_polynomial_oracle(q):
    F = FqField.of(q)
    p, k = F.p, F.k
    rng = random.Random(q * 3)
    pairs = itertools.product(range(q), repeat=2) if q <= 16 else (
        (rng.randrange(q), rng.randrange(q)) for _ in range(400))
    for a, b in pairs:
        da, db = F._digits(a, k), F._digits(b, k)
        want = F._undigits(_poly_oracle_mul(p, k, F.poly, da, db))
        assert F.mul(a, b) == want


@pytest.mark.parametrize("q", [4, 8, 16, 64])
def test_frobenius_additive_char2(q):
    F = FqField.of(q)
    for a in range(q):
        for b in range(0, q, 3):
            assert F.pow(F.add(a, b), 2) == F.add(F.pow(a, 2), F.pow(b, 2))
        assert F.sqrt2(F.mul(a, a)) == a


def test_pow_negative_and_zero():
    F = FqField.of(9)
    for a in range(1, 9):
        assert F.mul(F.pow(a, -1), a) == 1
        assert F.pow(a, 0) == 1
    assert F.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


# -- matrices --------------------------------------------------------------


def _leibniz_det(F, rows):
    # sum over permutations s of sign(s) * prod_i rows[i][s(i)]
    n = len(rows)
    total = 0
    for s in itertools.permutations(range(n)):
        term = 1
        for i in range(n):
            term = F.mul(term, rows[i][s[i]])
        inversions = sum(s[i] > s[j] for i in range(n) for j in range(i + 1, n))
        total = F.add(total, F.neg(term) if inversions % 2 else term)
    return total


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_matrix_inverse_and_det(q):
    F = FqField.of(q)
    rng = random.Random(q)
    found = 0
    while found < 5:
        M = FqMatrix(F, [[rng.randrange(q) for _ in range(4)] for _ in range(4)])
        if M.det() == 0:
            continue
        found += 1
        N = FqMatrix(F, [[rng.randrange(q) for _ in range(4)] for _ in range(4)])
        assert (M * N).det() == F.mul(M.det(), N.det())
    singular = swapped = 0
    for n in range(1, 5):
        for _ in range(40):
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            shape = rng.randrange(3)
            if shape == 1:  # the first pivot needs a row swap
                rows[0][0] = 0
            elif shape == 2 and n > 1:  # a repeated row scaled
                c = rng.randrange(q)
                rows[-1] = [F.mul(c, x) for x in rows[0]]
            want = _leibniz_det(F, rows)
            assert FqMatrix(F, rows).det() == want
            singular += want == 0
            swapped += n > 1 and rows[0][0] == 0 and any(r[0] for r in rows)
    assert singular >= 10 and swapped >= 10


def test_matrix_apply_right_action():
    F = FqField.of(3)
    M = FqMatrix(F, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert M.apply((1, 0, 0)) == (0, 1, 0)
    N = FqMatrix(F, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    v = (1, 1, 1)
    assert N.apply(M.apply(v)) == (M * N).apply(v)


def test_rref_canonical():
    F = FqField.of(3)
    rows1 = [(1, 2, 0), (0, 1, 1)]
    rows2 = [(1, 0, 1), (2, 2, 1)]  # same row space, scrambled
    r1, p1 = rref(F, rows1)
    r2, p2 = rref(F, rows2)
    assert r1 == r2 and p1 == p2
    assert SubspaceFq.from_vectors(F, rows1) == SubspaceFq.from_vectors(F, rows2)


def test_subspace_contains():
    F = FqField.of(2)
    S = SubspaceFq.from_vectors(F, [(1, 0, 1, 0), (0, 1, 1, 0)])
    assert S.dim == 2
    # a vector of the span leaves the canonical basis as it is; any other adds a row
    assert SubspaceFq.from_vectors(F, S.basis + ((1, 1, 0, 0),)) == S
    assert SubspaceFq.from_vectors(F, S.basis + ((0, 0, 0, 1),)).dim == 3


# -- forms -----------------------------------------------------------------


@pytest.mark.parametrize("q,m", [(2, 4), (3, 4), (2, 6), (4, 4)])
def test_symplectic_form_shape(q, m):
    F = FqField.of(q)
    form = make_symplectic_form(F, m)
    rng = random.Random(5)
    for _ in range(30):
        x = tuple(rng.randrange(q) for _ in range(m))
        y = tuple(rng.randrange(q) for _ in range(m))
        assert form.bilinear(x, x) == 0
        assert form.bilinear(x, y) == F.neg(form.bilinear(y, x))


@pytest.mark.parametrize("q,m,eps", [(2, 4, 1), (2, 4, -1), (3, 4, 1), (3, 4, -1),
                                     (2, 6, 1), (2, 6, -1), (3, 5, 0), (2, 7, 0), (4, 4, 1)])
def test_polar_identity(q, m, eps):
    F = FqField.of(q)
    form = make_quadratic_form(F, m, eps)
    rng = random.Random(9)
    for _ in range(40):
        x = tuple(rng.randrange(q) for _ in range(m))
        y = tuple(rng.randrange(q) for _ in range(m))
        lhs = form.bilinear(x, y)
        rhs = F.sub(F.sub(form.quad_value(F.vec_add(x, y)), form.quad_value(x)),
                    form.quad_value(y))
        assert lhs == rhs


def _anisotropic_oracle(F):
    # the lex-least (a, b, c) whose a x^2 + b xy + c y^2 has no zero off
    # the origin, evaluated term by term
    q = F.q
    plane = [(x, y) for x in range(q) for y in range(q) if x or y]
    for a, b, c in itertools.product(range(q), repeat=3):
        if all(F.add(F.add(F.mul(a, F.mul(x, x)), F.mul(b, F.mul(x, y))),
                     F.mul(c, F.mul(y, y))) for x, y in plane):
            return a, b, c
    return None


@pytest.mark.parametrize("q", SMALL_Q)
def test_anisotropic_pair_is_lex_least(q):
    F = FqField.of(q)
    a, b, c = _anisotropic_pair(F)
    assert (a, b, c) == _anisotropic_oracle(F)
    quad = make_quadratic_form(F, 4, -1).quad
    assert (quad[2][2], quad[2][3], quad[3][3]) == (a, b, c)


@pytest.mark.parametrize(
    "q,m,eps,count",
    [
        (2, 6, 1, 35), (2, 6, -1, 27),
        (3, 4, 1, 32), (3, 4, -1, 20),
        (2, 4, 1, 9), (2, 4, -1, 5),
    ],
)
def test_singular_counts(q, m, eps, count):
    # (q^(n-1) + eps)(q^n - eps) nonzero singular vectors in dimension 2n
    F = FqField.of(q)
    form = make_quadratic_form(F, m, eps)
    basis = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    _, quad = _restricted_quad(form, basis)
    assert _count_singular(F, quad, m) == count


@pytest.mark.parametrize("q,m,eps,flt", [
    (2, 6, 1, "nondegenerate-plus"), (2, 6, -1, "nondegenerate-minus"),
    (3, 4, 1, "nondegenerate-plus"), (3, 4, -1, "nondegenerate-minus"),
    (3, 5, 0, None), (2, 7, 0, None)])
def test_full_space_filter(q, m, eps, flt):
    # the whole space has the form's own type; odd dimension passes no
    # filter, nondegenerate (q odd) or not (q even: the polar form has a
    # radical line)
    form = make_quadratic_form(FqField.of(q), m, eps)
    basis = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    assert subspace_filter(form, basis) == flt


def test_subspace_filter_examples():
    form = make_quadratic_form(FqField.of(2), 6, 1)
    # e_0 and e_1 span a totally singular 2-space in the plus-type layout
    assert subspace_filter(form, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)]) == "totally-isotropic"
    # a hyperbolic pair spans a nondegenerate 2-space of plus type
    assert subspace_filter(form, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)]) == "nondegenerate-plus"
    # e_0 + e_3, e_0 + e_1 + e_4 and their sum are all nonsingular: minus type
    assert subspace_filter(form, [(1, 0, 0, 1, 0, 0), (1, 1, 0, 0, 1, 0)]) == "nondegenerate-minus"
    # a line is never of plus or minus type
    assert subspace_filter(form, [(1, 0, 0, 1, 0, 0)]) is None


def test_char2_odd_radical():
    # x1x2 + x3x4 + x5x6 + x7^2 over F2: the last basis vector spans the
    # polar radical but is not singular
    F = FqField.of(2)
    form = make_quadratic_form(F, 7, 0)
    z = (0, 0, 0, 0, 0, 0, 1)
    assert all(form.bilinear(z, tuple(1 if j == i else 0 for j in range(7))) == 0
               for i in range(7))
    assert form.quad_value(z) == 1


def test_hermitian_conj_symmetry():
    F = FqField.of(9)
    form = make_hermitian_form(F, 3)
    rng = random.Random(2)
    for _ in range(40):
        x = tuple(rng.randrange(9) for _ in range(3))
        y = tuple(rng.randrange(9) for _ in range(3))
        assert form.bilinear(x, y) == form.conj(form.bilinear(y, x))
    # values on the diagonal land in the fixed subfield
    for _ in range(20):
        x = tuple(rng.randrange(9) for _ in range(3))
        v = form.bilinear(x, x)
        assert form.conj(v) == v


def test_is_isometry():
    F = FqField.of(5)
    form = make_symplectic_form(F, 2)
    rot = FqMatrix(F, [[0, 1], [F.neg(1), 0]])
    assert form.is_isometry(rot)
    scale = FqMatrix(F, [[2, 0], [0, 2]])
    assert not form.is_isometry(scale)  # scales the form by 4 != 1 mod 5


def test_is_isometry_quadratic():
    F = FqField.of(2)
    form = make_quadratic_form(F, 4, 1)
    swap = FqMatrix(F, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert form.is_isometry(swap)
    bad = FqMatrix(F, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert not form.is_isometry(bad)


def test_is_isometry_hermitian():
    F = FqField.of(9)
    form = make_hermitian_form(F, 2)
    swap = FqMatrix(F, [[0, 1], [1, 0]])
    assert form.is_isometry(swap)
    # zeta^2 has norm zeta^(2 * 4) = 1 over F_3, zeta itself does not
    zeta = F.primitive
    unit = F.pow(zeta, 2)
    assert form.is_isometry(FqMatrix(F, [[unit, 0], [0, unit]]))
    assert not form.is_isometry(FqMatrix(F, [[zeta, 0], [0, 1]]))


def test_is_isometry_checks_the_quadratic_form():
    # the symplectic transvection along the singular e0 keeps the polar
    # form of x0 x2 + x1 x3 but sends e2 to the nonsingular e0 + e2
    F = FqField.of(2)
    form = make_quadratic_form(F, 4, 1)
    t = FqMatrix(F, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]])
    assert all(form.bilinear(t.rows[i], t.rows[j]) == form.gram[i][j]
               for i in range(4) for j in range(4))
    assert not form.is_isometry(t)


def _reference_dot(F, u, v):
    s = 0
    for x, y in zip(u, v):
        s = F.add(s, F.mul(x, y))
    return s


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 49, 64, 81])
def test_dot_and_apply_match_reference_loop(q):
    F = FqField.of(q)
    rng = random.Random(q)
    for n in (1, 2, 3, 6):
        M = FqMatrix(F, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
        for _ in range(40):
            u = tuple(rng.randrange(q) for _ in range(n))
            v = tuple(rng.randrange(q) for _ in range(n))
            assert F.dot(u, v) == _reference_dot(F, u, v)
            assert M.apply(u) == tuple(
                _reference_dot(F, u, [M.rows[i][j] for i in range(n)]) for j in range(n))


# Defining polynomials of every extension field up to MAX_Q, little-endian
# and monic: the lexicographically least primitive polynomial of degree k.
EXTENSION_POLYS = {
    4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (2, 1, 1), 16: (1, 1, 0, 0, 1),
    25: (2, 1, 1), 27: (1, 2, 0, 1), 32: (1, 0, 1, 0, 0, 1), 49: (3, 1, 1),
    64: (1, 1, 0, 0, 0, 0, 1), 81: (2, 1, 0, 0, 1), 121: (7, 1, 1),
    125: (2, 3, 0, 1), 128: (1, 1, 0, 0, 0, 0, 0, 1), 169: (2, 1, 1),
    243: (1, 2, 0, 0, 0, 1), 256: (1, 0, 1, 1, 1, 0, 0, 0, 1), 289: (3, 1, 1),
    343: (2, 3, 0, 1), 361: (2, 1, 1), 512: (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
}


def test_extension_polys():
    extensions = [q for q in range(2, 513)
                  if len(factorize(q)) == 1 and FqField.of(q).k > 1]
    assert {q: FqField.of(q).poly for q in extensions} == EXTENSION_POLYS


# sha256 of repr((poly, primitive, _exp, _log, _add, _neg)), first 16 hex
# digits, of every field up to MAX_Q
FIELD_PINS = {
    2: "9f2ed417b9236d02", 3: "a27c5aa02d9d1d58", 4: "9ddebfd10ee94166",
    5: "26df661fd9b97d7b", 7: "9c7f161b0140e2e8", 8: "eba4a7182f98a3d6",
    9: "88d0babd7ec8e8a4", 11: "a6e94a6e883768fa", 13: "a80d86d652f89a45",
    16: "e115fcebcc0184fa", 17: "3601e73985188cd9", 19: "87a1b61b8ee05156",
    23: "e9ee817ff405b8d3", 25: "4b4fe0498b8d96a7", 27: "378df56e2d82cd3b",
    29: "8014caf734ef5e0a", 31: "1e236b8464649a05", 32: "abebbf2a897f4114",
    37: "561589cccd9ae878", 41: "b6176781d22cb999", 43: "99fc56afc4582b7b",
    47: "d8dc4dfb5b3a7869", 49: "ea6715abc23c4912", 53: "ddfec7163952441d",
    59: "3bb2795c55057561", 61: "a7f77a41d8aea370", 64: "fb1d7c073f846d64",
    67: "7404acfe4959596a", 71: "a1f34b352711ac95", 73: "e0533a6d55cace3b",
    79: "d5ae0e1d44b5db1c", 81: "45cf05f16a148042", 83: "ec076f976d8133cc",
    89: "18b0c73674386da0", 97: "1a000dac4372264f", 101: "72c157b7d59e64ee",
    103: "872ace1551fd7c5e", 107: "a269ecf2ffa198e9", 109: "0c08754084374050",
    113: "e66085d427be5973", 121: "861dd96caf8de689", 125: "bef0ef7f6c00195b",
    127: "7af2b380872d08b1", 128: "10b69dce48993030", 131: "199631d95823f56a",
    137: "1179d35a391be3a1", 139: "f2d132f8116fe7e2", 149: "7db35b6cb8748331",
    151: "97e6bb7d85351b5d", 157: "7c02072f799a8fc5", 163: "7a357c0db528d3d9",
    167: "788abbe8ebc84184", 169: "745b605b7e51b459", 173: "37212f982afca136",
    179: "bdefb6820386cf9b", 181: "71d314ee9952f2ce", 191: "59d25d88620f4c5e",
    193: "f9581d5533b6958f", 197: "c7a3659a28f7614f", 199: "a8d58b46bd8e3743",
    211: "c9446f2de6c73cfb", 223: "ce30b109785e7934", 227: "7c939fdc80466a98",
    229: "c4b0ef474e64202e", 233: "4eea1d6d125fa501", 239: "04675843fff1fddb",
    241: "ad1ce537b979fdad", 243: "3b32a0bf2198ce6e", 251: "6bff3a2d203e59e7",
    256: "ccb983376e45ef0f", 257: "db47edc7b15c7163", 263: "ee1d5368ad735aa1",
    269: "8138617cfadc40c3", 271: "a354991653ab5d84", 277: "5d2c826cc4773f9b",
    281: "e5d57f7a94321a2a", 283: "255fd0a9a79f070e", 289: "c3ea07315776823c",
    293: "3fda2e49c895fa73", 307: "5f1a30aab50e7823", 311: "7163d05626680910",
    313: "02b8a672eb8aa62a", 317: "198ef44c6a0f0a86", 331: "fe56cdf7ffc8bfd9",
    337: "95c8eb483c06c019", 343: "4f7d93a1f551c186", 347: "7cd46d211a2dd878",
    349: "3842c86e27b16fee", 353: "6eb5518ad7d0a1fa", 359: "7ac722eb5b8a4787",
    361: "952888dc343b5efb", 367: "dc896dc93af3fce8", 373: "407017f740c16473",
    379: "13370a9028bbb006", 383: "8c96ce63921d70eb", 389: "36a0e1f3f48399df",
    397: "3bcf9608b40d99a7", 401: "913285188a1d5c1c", 409: "4e1e6b16807e3446",
    419: "0a152f8f227134c0", 421: "7e4f0eb2e0dda8bc", 431: "869f7c9380a0cf58",
    433: "e65e89ccd700f1a5", 439: "3dc9f5339846bf9c", 443: "967ec7aad6ad1660",
    449: "c2a55f12d31d5951", 457: "6c0b3bfafc8563c4", 461: "78be5c7707ca8d2c",
    463: "6d4277deada4e6a3", 467: "68ec7901afe3461d", 479: "b62acf7acccd58b6",
    487: "56744ad19d3d611b", 491: "35fbc05d39719fb2", 499: "bb07b00d758d141c",
    503: "505d9a31c7ed4783", 509: "afb6d6dfe635d8be", 512: "fe3c31c25184bb6f",
}


def test_field_tables_are_pinned():
    fields = [FqField.of(q) for q in range(2, 513) if len(factorize(q)) == 1]
    got = {F.q: hashlib.sha256(repr((F.poly, F.primitive, F._exp, F._log, F._add,
                                     F._neg)).encode()).hexdigest()[:16]
           for F in fields}
    assert got == FIELD_PINS


def _all_subspaces(q, m):
    # one reduced-echelon basis per subspace of F_q^m
    for k in range(m + 1):
        for piv in itertools.combinations(range(m), k):
            free = [(r, c) for r in range(k) for c in range(piv[r] + 1, m) if c not in piv]
            for vals in itertools.product(range(q), repeat=len(free)):
                rows = [[1 if c == piv[r] else 0 for c in range(m)] for r in range(k)]
                for (r, c), v in zip(free, vals):
                    rows[r][c] = v
                yield rows


# (dim, subspace_filter) -> number of subspaces of F_q^m, the zero space and
# F_q^m included, that pass that filter; None passes none. The
# nondegenerate counts sum the classes of Witt index n and n - 1; the
# totally singular k-spaces number prod_{i<k} (q^(n-i) - eps)(q^(n-i-1) + eps)
# / (q^(i+1) - 1) in dimension 2n.
SUBSPACE_CLASS_COUNTS = {
    (2, 6, 1): {
        (0, "totally-isotropic"): 1, (1, None): 28, (1, "totally-isotropic"): 35,
        (2, None): 210, (2, "nondegenerate-minus"): 56, (2, "nondegenerate-plus"): 280,
        (2, "totally-isotropic"): 105, (3, None): 1365, (3, "totally-isotropic"): 30,
        (4, None): 315, (4, "nondegenerate-minus"): 56, (4, "nondegenerate-plus"): 280,
        (5, None): 63, (6, "nondegenerate-plus"): 1,
    },
    (2, 6, -1): {
        (0, "totally-isotropic"): 1, (1, None): 36, (1, "totally-isotropic"): 27,
        (2, None): 270, (2, "nondegenerate-minus"): 120, (2, "nondegenerate-plus"): 216,
        (2, "totally-isotropic"): 45, (3, None): 1395,
        (4, None): 315, (4, "nondegenerate-minus"): 216, (4, "nondegenerate-plus"): 120,
        (5, None): 63, (6, "nondegenerate-minus"): 1,
    },
    (3, 4, 1): {
        (0, "totally-isotropic"): 1, (1, None): 24, (1, "totally-isotropic"): 16,
        (2, None): 32, (2, "nondegenerate-minus"): 18, (2, "nondegenerate-plus"): 72,
        (2, "totally-isotropic"): 8, (3, None): 40, (4, "nondegenerate-plus"): 1,
    },
    (3, 4, -1): {
        (0, "totally-isotropic"): 1, (1, None): 30, (1, "totally-isotropic"): 10,
        (2, None): 40, (2, "nondegenerate-minus"): 45, (2, "nondegenerate-plus"): 45,
        (3, None): 40, (4, "nondegenerate-minus"): 1,
    },
}


@pytest.mark.parametrize("q,m,eps", list(SUBSPACE_CLASS_COUNTS))
def test_subspace_class_counts(q, m, eps):
    form = make_quadratic_form(FqField.of(q), m, eps)
    counts = {}
    for basis in _all_subspaces(q, m):
        key = (len(basis), subspace_filter(form, basis))
        counts[key] = counts.get(key, 0) + 1
    assert counts == SUBSPACE_CLASS_COUNTS[(q, m, eps)]


def _span(F, rows):
    # every vector of the row space, each once
    m = len(rows[0])
    out = set()
    for coeffs in itertools.product(range(F.q), repeat=len(rows)):
        v = (0,) * m
        for c, row in zip(coeffs, rows):
            v = F.vec_add(v, F.vec_scale(c, row))
        out.add(v)
    return out


def _oracle_filter(form, rows):
    # the filter by its definition, on the vectors of W: no Gram rank, no
    # singular count
    F = form.field
    W = _span(F, rows)
    Q = form.quad_value if form.quad is not None else (lambda v: 0)
    if all(Q(u) == 0 and all(form.bilinear(u, w) == 0 for w in W) for u in W):
        return "totally-isotropic"
    radical = any(any(w) and all(form.bilinear(w, u) == 0 for u in W) for w in W)
    if form.quad is None or len(rows) % 2 or radical:
        return None
    # plus type: W holds a totally singular n-space
    n = len(rows) // 2
    singular = [w for w in W if any(w) and Q(w) == 0]
    for cand in itertools.combinations(singular, n):
        span = _span(F, cand)
        if len(span) == F.q ** n and all(Q(v) == 0 for v in span):
            return "nondegenerate-plus"
    return "nondegenerate-minus"


ORACLE_FORMS = [
    ("quadratic", 2, 4, 1), ("quadratic", 2, 4, -1), ("quadratic", 2, 6, 1),
    ("quadratic", 2, 6, -1), ("quadratic", 3, 4, 1), ("quadratic", 3, 4, -1),
    ("quadratic", 2, 5, 0), ("quadratic", 3, 3, 0), ("quadratic", 4, 3, 0),
    ("symplectic", 2, 4, None), ("symplectic", 2, 6, None), ("symplectic", 3, 4, None),
    ("hermitian", 4, 2, None), ("hermitian", 4, 3, None),
    ("hermitian", 9, 2, None),
]


@pytest.mark.parametrize("kind,q,m,eps", ORACLE_FORMS)
def test_subspace_filter_matches_brute_force(kind, q, m, eps):
    F = FqField.of(q)
    form = (make_quadratic_form(F, m, eps) if kind == "quadratic"
            else make_symplectic_form(F, m) if kind == "symplectic"
            else make_hermitian_form(F, m))
    seen = set()
    for basis in _all_subspaces(q, m):
        if 0 < len(basis) < m:
            flt = subspace_filter(form, basis)
            assert flt == _oracle_filter(form, basis), basis
            seen.add(flt)
    # each form's proper subspaces reach the filters its kind has
    want = {None, "totally-isotropic"}
    if kind == "quadratic":
        want |= {"nondegenerate-plus", "nondegenerate-minus"}
    assert seen == want
