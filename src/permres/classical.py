"""Matrix generators for the classical groups at desk scale.

Each family comes with its order formula; the formula is the contract and
the generator recipe is replaceable. Recipes: elementary transvections and
a signed cycle for SL/GL; and for the forms one Eichler formula,
x -> x + B(x, u) v - B(x, v) u + c B(x, u) u, whose v = 0 case is the
transvection. Sp takes symplectic transvections along a small set of
directions plus a pair cycle; GO and SU take the Eichler transformations
along one hyperbolic pair, GO plus one or two reflections, SU plus the
trace-zero transvections along the pair ((2m - 3) k generators over
F_{q^2} = F_{p^k}); and odd-dimension GO in characteristic 2 takes the
unique isometric lifts of the symplectic generators.
Orders are validated downstream through faithful permutation actions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fq import (
    FormSpec,
    FqField,
    FqMatrix,
    make_hermitian_form,
    make_quadratic_form,
    make_symplectic_form,
)

FAMILIES = ("SL", "GL", "Sp", "SU", "GO+", "GO-", "GO-odd")


@dataclass
class MatrixGroup:
    family: str
    m: int
    q: int
    field: FqField
    matrices: list[FqMatrix]
    form: FormSpec | None
    abstract_order: int

    @property
    def label(self) -> str:
        return f"{self.family}({self.m},{self.q})"


def classical_order(family: str, m: int, q: int) -> int:
    """Abstract group order from the standard product formulas."""
    if family == "SL":
        o = q ** (m * (m - 1) // 2)
        for i in range(2, m + 1):
            o *= q ** i - 1
        return o
    if family == "GL":
        return classical_order("SL", m, q) * (q - 1)
    if family == "Sp":
        n = m // 2
        o = q ** (n * n)
        for i in range(1, n + 1):
            o *= q ** (2 * i) - 1
        return o
    if family == "SU":
        o = q ** (m * (m - 1) // 2)
        for i in range(2, m + 1):
            o *= q ** i - (-1) ** i
        return o
    if family in ("GO+", "GO-"):
        eps = 1 if family == "GO+" else -1
        n = m // 2
        o = 2 * q ** (n * (n - 1)) * (q ** n - eps)
        for i in range(1, n):
            o *= q ** (2 * i) - 1
        return o
    if family == "GO-odd":
        o = classical_order("Sp", m - 1, q)
        return o if q % 2 == 0 else 2 * o
    raise ValueError(f"unknown family {family!r}")


def _basis(m: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(m))


def _eichler(field: FqField, form: FormSpec, u, v, c) -> FqMatrix:
    # x -> x + B(x, u) v - B(x, v) u + c B(x, u) u, the one formula behind
    # every generator that preserves a form. Let u be isotropic and v
    # orthogonal to u, and write a = B(x, u), conjugation being the identity
    # off the hermitian case. Then B(Tx, Ty) - B(x, y) =
    # a conj(B(y, u)) (c + conj(c) + B(v, v)), so T is an isometry of a
    # hermitian form exactly when c + conj(c) = -B(v, v); for a quadratic
    # form Q(Tx) - Q(x) = a^2 (c + Q(v)), so c = -Q(v). With v = 0 it is the
    # transvection x -> x + c B(x, u) u: an isometry of an alternating form
    # for every c, of a hermitian form for trace-zero c, and for nonsingular
    # u and c = -Q(u)^-1 the reflection in u (in characteristic 2 the
    # orthogonal transvection)
    m = form.dim
    rows = []
    for i in range(m):
        e = _basis(m, i)
        bu = form.bilinear(e, u)
        coef = field.sub(field.mul(c, bu), form.bilinear(e, v))
        rows.append(field.vec_add(field.vec_add(e, field.vec_scale(bu, v)),
                                  field.vec_scale(coef, u)))
    return FqMatrix(field, rows)


def _sl_generators(field: FqField, m: int) -> list[FqMatrix]:
    gens = []
    mu = field.primitive
    for s in range(field.k):
        rows = [list(_basis(m, i)) for i in range(m)]
        rows[0][1] = field.pow(mu, s)
        gens.append(FqMatrix(field, rows))
    images = [_basis(m, i + 1) for i in range(m - 1)]
    last = [0] * m
    last[0] = 1 if m % 2 == 1 else field.neg(1)
    images.append(tuple(last))
    gens.append(FqMatrix(field, images))
    return gens


def _sp_generators(field: FqField, form: FormSpec, m: int) -> list[FqMatrix]:
    n = m // 2
    mu = field.primitive
    e0, f0, zero = _basis(m, 0), _basis(m, n), (0,) * m
    gens = []
    for s in range(field.k):
        a = field.pow(mu, s)
        gens.append(_eichler(field, form, e0, zero, a))
        gens.append(_eichler(field, form, f0, zero, a))
    if n >= 2:
        e1, f1 = _basis(m, 1), _basis(m, n + 1)
        gens.append(_eichler(field, form, field.vec_add(e0, e1), zero, 1))
        gens.append(_eichler(field, form, field.vec_add(e0, f1), zero, 1))
        images = []
        for i in range(n):
            images.append(_basis(m, (i + 1) % n))
        for i in range(n):
            images.append(_basis(m, n + (i + 1) % n))
        gens.append(FqMatrix(field, images))
    return gens


def _pair_eichlers(field: FqField, form: FormSpec, fi: int, c_of) -> list[FqMatrix]:
    # the Eichler transformations along u in the hyperbolic pair (e_0, e_fi),
    # with v running over an F_p-basis of <e_0, e_fi>^perp and c = c_of(v);
    # they generate the opposite unipotent radicals of the pair's parabolics
    m = form.dim
    scalars = [field.pow(field.primitive, s) for s in range(field.k)]
    vs = [field.vec_scale(a, _basis(m, i)) for i in range(1, m) if i != fi for a in scalars]
    return [_eichler(field, form, u, v, c_of(v)) for u in (_basis(m, 0), _basis(m, fi)) for v in vs]


def _su_generators(field: FqField, form: FormSpec, m: int) -> list[FqMatrix]:
    # field is F_{q0^2}. The transvections along e and f with trace-zero
    # parameters kappa sigma^s (an F_p-basis of kappa F_q0) generate SL(2, q0)
    # on <e, f>, which swaps <e> and <f>; with the Eichler transformations
    # along e and f (c the least with c + conj(c) = -h(v, v), 0 but at the
    # odd-dimension tail) they generate SU: (2m - 3) k generators in all
    ell, zero = m // 2, (0,) * m
    kappa = next(a for a in range(1, field.q) if field.add(a, form.conj(a)) == 0)
    sigma = field.pow(field.primitive, form.q0 + 1)  # generates the subfield units
    gens = []
    for s in range(field.k // 2):
        a = field.mul(kappa, field.pow(sigma, s))
        gens += [_eichler(field, form, _basis(m, i), zero, a) for i in (0, ell)]

    def c_of(v):
        t = field.neg(form.bilinear(v, v))
        return next(c for c in range(field.q) if field.add(c, form.conj(c)) == t)
    return gens + _pair_eichlers(field, form, ell, c_of)


def _go_generators(field: FqField, form: FormSpec, m: int) -> list[FqMatrix]:
    # the Eichler transformations along one hyperbolic pair (e, f) generate
    # Omega (Taylor 1992, Ch. 11); the reflections in e + f and, for odd q,
    # in e + zeta f add the determinant and the spinor norm
    fi = m // 2 - 1 if form.kind == "quadratic-minus" else m // 2
    gens = _pair_eichlers(field, form, fi, lambda v: field.neg(form.quad_value(v)))
    for c in (1,) if field.p == 2 else (1, field.primitive):
        w = field.vec_add(_basis(m, 0), field.vec_scale(c, _basis(m, fi)))
        gens.append(_eichler(field, form, w, (0,) * m, field.neg(field.inv(form.quad_value(w)))))
    return gens


def _go_odd_char2(field: FqField, m: int) -> tuple[list[FqMatrix], FormSpec]:
    # unique isometric lifts of the symplectic generators: the radical line
    # coordinate is forced because squaring is bijective in characteristic 2
    n = m // 2
    sp_form = make_symplectic_form(field, 2 * n)
    sp_gens = _sp_generators(field, sp_form, 2 * n)
    form = make_quadratic_form(field, m, 0)
    pairs_quad = make_quadratic_form(field, 2 * n, 1)
    lifted = []
    for S in sp_gens:
        rows = []
        for i in range(2 * n):
            u = S.rows[i]
            c = field.sqrt2(pairs_quad.quad_value(u))
            rows.append(tuple(u) + (c,))
        rows.append(_basis(m, m - 1))
        lifted.append(FqMatrix(field, rows))
    return lifted, form


def classical_generators(family: str, m: int, q: int) -> MatrixGroup:
    """Matrix generators and form for a classical family member.

    Supported: families in FAMILIES, 2 <= m <= 12, q <= 9 a prime power
    (SU works inside the degree-2 extension, so its field is q^2 <= 81).
    GO+ and GO- need even m >= 4, GO-odd odd m >= 3, and Sp even m.
    """
    if family not in FAMILIES:
        raise ValueError(f"unsupported family {family!r}")
    if not 2 <= m <= 12 or q > 9 or q < 2:
        raise ValueError(f"unsupported triple ({family}, {m}, {q})")
    order = classical_order(family, m, q)
    if family in ("SL", "GL"):
        field = FqField.of(q)
        gens = _sl_generators(field, m)
        _check_det_one(gens)
        if family == "GL" and q > 2:
            rows = [list(_basis(m, i)) for i in range(m)]
            rows[0][0] = field.primitive
            gens.append(FqMatrix(field, rows))
        return MatrixGroup(family, m, q, field, gens, None, order)
    if family == "Sp":
        if m % 2:
            raise ValueError(f"unsupported triple ({family}, {m}, {q}): need even dimension")
        field = FqField.of(q)
        form = make_symplectic_form(field, m)
        gens = _sp_generators(field, form, m)
        _check_form(gens, form)
        return MatrixGroup(family, m, q, field, gens, form, order)
    if family == "SU":
        field = FqField.of(q * q)
        form = make_hermitian_form(field, m)
        gens = _su_generators(field, form, m)
        _check_form(gens, form)
        _check_det_one(gens)
        return MatrixGroup(family, m, q, field, gens, form, order)
    if family in ("GO+", "GO-"):
        if m % 2 or m < 4:
            raise ValueError(f"unsupported triple ({family}, {m}, {q}): need even dimension >= 4")
        field = FqField.of(q)
        form = make_quadratic_form(field, m, 1 if family == "GO+" else -1)
        gens = _go_generators(field, form, m)
        _check_form(gens, form)
        return MatrixGroup(family, m, q, field, gens, form, order)
    if family == "GO-odd":
        if m % 2 == 0 or m < 3:
            raise ValueError(f"unsupported triple ({family}, {m}, {q}): need odd dimension >= 3")
        field = FqField.of(q)
        if q % 2 == 0:
            gens, form = _go_odd_char2(field, m)
        else:
            form = make_quadratic_form(field, m, 0)
            gens = _go_generators(field, form, m)
        _check_form(gens, form)
        return MatrixGroup(family, m, q, field, gens, form, order)
    raise AssertionError


def _check_form(gens: list[FqMatrix], form: FormSpec) -> None:
    for M in gens:
        if not form.is_isometry(M):
            raise AssertionError("generator recipe produced a non-isometry")


def _check_det_one(gens: list[FqMatrix]) -> None:
    for M in gens:
        if M.det() != 1:
            raise AssertionError("generator recipe produced determinant != 1")


def scalar_kernel_order(grp: MatrixGroup) -> int:
    """Number of scalar matrices in the group: the kernel size of any
    action on subspaces."""
    field = grp.field
    count = 0
    for lam in field.units():
        if grp.family in ("SL", "SU") and field.pow(lam, grp.m) != 1:
            continue
        if grp.form is not None:
            lam_i = FqMatrix(field, [field.vec_scale(lam, _basis(grp.m, i)) for i in range(grp.m)])
            if not grp.form.is_isometry(lam_i):
                continue
        count += 1
    return count
