"""Small finite fields, matrices, canonical subspaces, and classical forms.

Fields cover q = p^k up to 512. Elements are ints in 0..q-1 encoding
base-p digit vectors, so 0 and 1 are the field zero and one. The defining
polynomial is a primitive one: a monic candidate of degree k modulo which
x has order exactly q - 1, which makes it irreducible as well
(Lidl-Niederreiter, Finite Fields, 1997, Ch. 3). Extension fields take the
lexicographically least; a prime field tries x - g for g = 1, 2, ..., so
its primitive element is the least primitive root mod p. One loop walks
each candidate by multiplication by x, and the first walk to return to 1
at step q - 1 is the exp table. Multiplication runs on exp/log tables,
addition on a precomputed table; dot products over a prime field reduce
one integer sum mod p.

Vectors are rows and matrices act on the right, x -> x*M, so matrix
products compose left to right like permutations.

PackedSpace holds F_q^m with each vector one int, for the inner loops of
the matrix actions (Parker's MeatAxe packs rows the same way). Each base-p
digit of a coordinate gets a slot: one bit when p = 2, where addition is
xor, and otherwise enough bits for p plus a guard bit, which a slot sum of
p or more sets. Coordinate 0 sits in the top slots and a digit of higher
weight above one of lower weight, so packed ints sort as the coordinate
tuples they pack, and the top nonzero slot of a row is its pivot.

Under a classical form, subspace_filter names the one seed filter a
subspace passes (totally isotropic, or nondegenerate of plus or minus
type), deciding plus from minus by the number of singular vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import mul, xor
from typing import Iterable, Sequence

MAX_Q = 512


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division, as {prime: exponent}."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def require_int(name: str, value, least: int | None = None) -> None:
    """Raise ValueError unless value is an int, and at least least when
    that is given; a bool is not an int here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, not {value}")


def require_keys(params, keys, reader: str) -> None:
    """Raise ValueError naming each key of params outside keys; reader
    names what reads them, as in "op order"."""
    # by repr, as str and int keys do not compare
    unread = sorted(set(params).difference(keys), key=repr)
    if unread:
        reads = ", ".join(sorted(keys)) or "no params"
        raise ValueError(f"unknown params key {', '.join(map(repr, unread))} "
                         f"for {reader}, which reads {reads}")


def ceil_log(base: int, x: int) -> int:
    """min t with base**t >= x, by integer powering only."""
    if base < 2:
        raise ValueError("log base must be >= 2")
    if x < 1:
        raise ValueError("log argument must be >= 1")
    t, p = 0, 1
    while p < x:
        p *= base
        t += 1
    if x > base ** t or (t and base ** (t - 1) >= x):
        raise AssertionError(f"ceil_log({base}, {x}) = {t} fails its bracket")
    return t


class FqField:
    """Arithmetic tables for GF(q). Use FqField.of(q); instances are cached."""

    _cache: dict[int, "FqField"] = {}

    @classmethod
    def of(cls, q: int) -> "FqField":
        if q not in cls._cache:
            cls._cache[q] = cls(q)
        return cls._cache[q]

    def __init__(self, q: int):
        if not 2 <= q <= MAX_Q:
            raise ValueError(f"field size {q} out of supported range")
        fac = factorize(q)
        if len(fac) != 1:
            raise ValueError(f"{q} is not a prime power")
        (p, k), = fac.items()
        self.p, self.k, self.q = p, k, q
        # addition on digit vectors; flat table indexed a*q + b
        add = [0] * (q * q)
        if k == 1:
            for a in range(q):
                row = a * q
                for b in range(q):
                    add[row + b] = (a + b) % p
        else:
            digs = [self._digits(a, k) for a in range(q)]
            for a in range(q):
                da = digs[a]
                row = a * q
                for b in range(q):
                    add[row + b] = self._undigits([(x + y) % p for x, y in zip(da, digs[b])])
        # candidates f = x^k + lower, lower encoded as an int: x - g for
        # g = 1, 2, ... over a prime field, else every lower in order. Times
        # x shifts the digits up and folds the top digit t back in as
        # t x^k = -t lower, encoded as minus_tf[t]
        shift = p ** (k - 1)
        for lower in range(q - 1, 0, -1) if k == 1 else range(q):
            minus_tf = [self._undigits([-t * d % p for d in self._digits(lower, k)])
                        for t in range(p)]
            exp, cur = [], 1
            while len(exp) < q - 1:
                exp.append(cur)
                top, rest = divmod(cur, shift)
                cur = add[rest * p * q + minus_tf[top]]
                if cur == 1:
                    break
            if cur == 1 and len(exp) == q - 1:
                break
        else:
            raise AssertionError("no primitive polynomial found")
        self.poly = None if k == 1 else self._digits(lower, k) + (1,)
        self.primitive = exp[1 % (q - 1)]
        self._exp = exp
        self._log = [0] * q
        for i, v in enumerate(exp):
            self._log[v] = i
        self._add = add
        self._neg = [add.index(0, a * q) - a * q for a in range(q)]

    def _digits(self, n: int, width: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(width):
            out.append(n % p)
            n //= p
        return tuple(out)

    def _undigits(self, digits: Sequence[int]) -> int:
        n = 0
        for d in reversed(digits):
            n = n * self.p + d
        return n

    # -- public arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a * self.q + b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a * self.q + self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("field inverse of zero")
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def units(self) -> list[int]:
        return list(self._exp)

    def sqrt2(self, a: int) -> int:
        """Square root in characteristic 2, where squaring is bijective."""
        if self.p != 2:
            raise ValueError("sqrt2 is a characteristic-2 shortcut")
        return self.pow(a, self.q // 2) if a else 0

    def dot(self, u: Sequence[int], v: Sequence[int]) -> int:
        if self.k == 1:
            return sum(map(mul, u, v)) % self.p
        s = 0
        for x, y in zip(u, v):
            if x and y:
                s = self.add(s, self.mul(x, y))
        return s

    def vec_add(self, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
        add, q = self._add, self.q
        return tuple(add[x * q + y] for x, y in zip(u, v))

    def vec_scale(self, c: int, v: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.mul(c, x) for x in v)


# -- matrices --------------------------------------------------------------


class FqMatrix:
    __slots__ = ("field", "rows", "cols")

    def __init__(self, field: FqField, rows: Iterable[Iterable[int]]):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.cols = tuple(zip(*self.rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, FqMatrix) and self.rows == other.rows and self.field.q == other.field.q

    def __hash__(self) -> int:
        return hash((self.field.q, self.rows))

    def __repr__(self) -> str:
        return f"FqMatrix(q={self.field.q}, {list(map(list, self.rows))})"

    def __mul__(self, other: "FqMatrix") -> "FqMatrix":
        dot, cols = self.field.dot, other.cols
        return FqMatrix(self.field, [tuple(dot(row, col) for col in cols)
                                     for row in self.rows])

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Row vector action v -> v * M."""
        dot = self.field.dot
        return tuple(dot(v, col) for col in self.cols)

    def det(self) -> int:
        _, pivots, d = _eliminate(self.field, self.rows)
        return d if len(pivots) == len(self.rows) else 0


def _eliminate(field: FqField, rows: Sequence[Sequence[int]]):
    # Gauss-Jordan: the nonzero rows of the reduced row echelon form, the
    # pivot columns, and d, the product of the pivots with the sign of the
    # row swaps (the determinant when every row of a square matrix pivots)
    F = field
    a = [list(r) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots = []
    d = 1
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            d = F.neg(d)
        d = F.mul(d, a[r][col])
        inv = F.inv(a[r][col])
        a[r] = [F.mul(inv, x) for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][col]:
                c = a[i][col]
                a[i] = [F.sub(x, F.mul(c, y)) for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in a[:r]), tuple(pivots), d


def rref(field: FqField, rows: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form and pivot columns; canonical per row space."""
    return _eliminate(field, rows)[:2]


class PackedSpace:
    """F_q^m with each vector one int; see the module docstring for the
    layout. Use PackedSpace.of(field, m); instances are cached.

    add adds two packed vectors. apply(x, T) is x * M, for T = tables(M):
    per row i of M, the packed c * row_i keyed by the slots of c.
    span_key(rows) is the reduced echelon basis of the span of packed
    rows, sorted descending: the rows of rref, packed.
    """

    _cache: dict[tuple[int, int], "PackedSpace"] = {}

    @classmethod
    def of(cls, field: FqField, m: int) -> "PackedSpace":
        if (field.q, m) not in cls._cache:
            cls._cache[field.q, m] = cls(field, m)
        return cls._cache[field.q, m]

    def __init__(self, field: FqField, m: int):
        p, k = field.p, field.k
        w = 1 if p == 2 else p.bit_length() + 1  # slot bits, guard included
        self.field = field
        self.width = k * w  # bits per coordinate
        self.mask = (1 << self.width) - 1
        self.shifts = tuple(self.width * (m - 1 - i) for i in range(m))
        # the slots of each field element, digit j in slot j, and back
        self.chunk = [sum(d << (j * w) for j, d in enumerate(field._digits(a, k)))
                      for a in range(field.q)]
        self.elem = {c: a for a, c in enumerate(self.chunk)}
        self._scales: dict[int, dict[int, int]] = {}
        # slots of a nonzero element -> its inverse and its negative
        self._inverse = {self.chunk[a]: field.inv(a) for a in range(1, field.q)}
        self._minus = {self.chunk[a]: field.neg(a) for a in range(1, field.q)}
        if p == 2:
            self.add, self.apply, self.span_key = xor, self._apply_xor, self._span_key_xor
        else:
            # s + bias sets the guard bit of each slot where s holds p or more
            guards = sum(1 << (s * w + w - 1) for s in range(k * m))
            self._carry = (guards - sum(p << (s * w) for s in range(k * m)), guards, w - 1, p)
            self.add, self.apply, self.span_key = self._add_odd, self._apply_odd, self._span_key_odd

    def pack(self, v: Sequence[int]) -> int:
        chunk = self.chunk
        return sum(chunk[a] << sh for a, sh in zip(v, self.shifts))

    def unpack(self, x: int) -> tuple[int, ...]:
        elem, mask = self.elem, self.mask
        return tuple(elem[(x >> sh) & mask] for sh in self.shifts)

    def _add_odd(self, a: int, b: int) -> int:
        bias, guards, shift, p = self._carry
        s = a + b
        return s - (((s + bias) & guards) >> shift) * p

    def scale(self, c: int, x: int) -> int:
        """c * x for a field element c."""
        if c == 1:
            return x
        tab = self._scales.get(c)
        if tab is None:
            mul, chunk = self.field.mul, self.chunk
            tab = self._scales[c] = {chunk[a]: chunk[mul(c, a)] for a in range(self.field.q)}
        mask = self.mask
        return sum(tab[(x >> sh) & mask] << sh for sh in self.shifts)

    def tables(self, M: FqMatrix) -> list[dict[int, int]]:
        out = []
        for row in M.rows:
            r = self.pack(row)
            out.append({self.chunk[c]: self.scale(c, r) for c in range(self.field.q)})
        return out

    def _apply_xor(self, x: int, T: list[dict[int, int]]) -> int:
        acc, mask = 0, self.mask
        for sh, t in zip(self.shifts, T):
            acc ^= t[(x >> sh) & mask]
        return acc

    def _apply_odd(self, x: int, T: list[dict[int, int]]) -> int:
        bias, guards, shift, p = self._carry
        acc, mask = 0, self.mask
        for sh, t in zip(self.shifts, T):
            c = (x >> sh) & mask
            if c:
                s = acc + t[c]
                acc = s - (((s + bias) & guards) >> shift) * p
        return acc

    # span_key is Gauss-Jordan: basis maps each pivot's shift to its row,
    # with pivot entry 1 and zeros at every other pivot. A new row is
    # reduced by the basis, pivots at its top nonzero slot, is scaled to
    # pivot entry 1 and is cleared from the rows before it. In
    # characteristic 2 a slot is the element itself and -c = c.

    def _span_key_xor(self, rows: Iterable[int]) -> tuple[int, ...]:
        scale, inverse, mask, width = self.scale, self._inverse, self.mask, self.width
        basis: dict[int, int] = {}
        for r in rows:
            for sh, b in basis.items():
                c = r >> sh & mask
                if c:
                    r ^= b if c == 1 else scale(c, b)
            if r:
                piv = (r.bit_length() - 1) // width * width
                c = r >> piv & mask
                if c != 1:
                    r = scale(inverse[c], r)
                for sh, b in basis.items():
                    c = b >> piv & mask
                    if c:
                        basis[sh] = b ^ (r if c == 1 else scale(c, r))
                basis[piv] = r
        return tuple(sorted(basis.values(), reverse=True))

    def _span_key_odd(self, rows: Iterable[int]) -> tuple[int, ...]:
        add, scale, mask, width = self.add, self.scale, self.mask, self.width
        minus, inverse = self._minus, self._inverse
        basis: dict[int, int] = {}
        for r in rows:
            for sh, b in basis.items():
                c = r >> sh & mask
                if c:
                    r = add(r, scale(minus[c], b))
            if r:
                piv = (r.bit_length() - 1) // width * width
                r = scale(inverse[r >> piv & mask], r)
                for sh, b in basis.items():
                    c = b >> piv & mask
                    if c:
                        basis[sh] = add(b, scale(minus[c], r))
                basis[piv] = r
        return tuple(sorted(basis.values(), reverse=True))


@dataclass(frozen=True, order=True)
class SubspaceFq:
    """A subspace keyed by its reduced-echelon basis; hashable and canonical."""

    field_q: int
    basis: tuple[tuple[int, ...], ...]

    @classmethod
    def from_vectors(cls, field: FqField, vectors: Sequence[Sequence[int]]) -> "SubspaceFq":
        rows, _ = rref(field, vectors)
        return cls(field.q, rows)

    @property
    def dim(self) -> int:
        return len(self.basis)


# -- classical forms -------------------------------------------------------


@dataclass(frozen=True)
class FormSpec:
    """A bilinear, quadratic, or hermitian form on F_q^dim.

    kind: symplectic | quadratic-plus | quadratic-minus | quadratic-odd
          | hermitian.
    gram holds the (polar) bilinear matrix; quad holds upper-triangular
    quadratic coefficients for the quadratic kinds (valid in every
    characteristic); q0 is the subfield order for hermitian forms, with
    conjugation a -> a^q0 applied to the second argument.
    """

    kind: str
    field_q: int
    dim: int
    gram: tuple[tuple[int, ...], ...]
    quad: tuple[tuple[int, ...], ...] | None = None
    q0: int | None = None

    @property
    def field(self) -> FqField:
        return FqField.of(self.field_q)

    def conj(self, a: int) -> int:
        return self.field.pow(a, self.q0) if a else 0

    def bilinear(self, x: Sequence[int], y: Sequence[int]) -> int:
        F = self.field
        if self.kind == "hermitian":
            y = [self.conj(v) for v in y]
        s = 0
        for i, xi in enumerate(x):
            if xi:
                s = F.add(s, F.mul(xi, F.dot(self.gram[i], y)))
        return s

    def quad_value(self, v: Sequence[int]) -> int:
        if self.quad is None:
            raise ValueError("not a quadratic form")
        return _quad_eval(self.field, self.quad, v)

    def is_isometry(self, M: FqMatrix) -> bool:
        # compares Q(e_i M) with Q(e_i) = quad[i][i], then the matrix of
        # B(e_i M, e_j M), which is M G conj(M)^T, with G in one product
        if self.quad is not None and any(
                self.quad_value(row) != self.quad[i][i] for i, row in enumerate(M.rows)):
            return False
        F, rows = self.field, M.rows
        if self.kind == "hermitian":
            rows = [[self.conj(a) for a in row] for row in rows]
        return (M * FqMatrix(F, self.gram) * FqMatrix(F, zip(*rows))).rows == self.gram


def _polar_from_quad(field: FqField, quad: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    # B(x, y) = Q(x + y) - Q(x) - Q(y); on basis vectors that is the
    # off-diagonal coefficient, plus twice the diagonal on the diagonal
    n = len(quad)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                g[i][j] = field.add(quad[i][i], quad[i][i])
            else:
                g[i][j] = quad[min(i, j)][max(i, j)]
    return tuple(tuple(r) for r in g)


def make_symplectic_form(field: FqField, m: int) -> FormSpec:
    """Hyperbolic pairs (e_i, f_i) at positions (i, n+i), m = 2n."""
    if m % 2:
        raise ValueError("symplectic forms need even dimension")
    n = m // 2
    g = [[0] * m for _ in range(m)]
    for i in range(n):
        g[i][n + i] = 1
        g[n + i][i] = field.neg(1)
    return FormSpec("symplectic", field.q, m, tuple(tuple(r) for r in g))


def _anisotropic_pair(field: FqField) -> tuple[int, int, int]:
    # lex-least (a, b, c) with a x^2 + b xy + c y^2 nonzero off the origin
    plane = list(itertools.product(range(field.q), repeat=2))[1:]
    for a, b, c in itertools.product(range(field.q), repeat=3):
        if all(_quad_eval(field, ((a, b), (0, c)), v) for v in plane):
            return a, b, c
    raise AssertionError("no anisotropic binary form found")


def make_quadratic_form(field: FqField, m: int, eps: int) -> FormSpec:
    """Standard quadratic form: eps=+1 plus type, -1 minus type, 0 odd dim.

    Plus type is n hyperbolic pairs Q = sum x_i y_i; minus type replaces
    the last pair by the lex-least anisotropic binary form; odd dimension
    appends a square term.
    """
    quad = [[0] * m for _ in range(m)]
    if eps == 0:
        if m % 2 == 0:
            raise ValueError("eps=0 needs odd dimension")
        n = m // 2
        for i in range(n):
            quad[i][n + i] = 1
        quad[m - 1][m - 1] = 1
        kind = "quadratic-odd"
    elif eps == 1:
        if m % 2:
            raise ValueError("plus type needs even dimension")
        n = m // 2
        for i in range(n):
            quad[i][n + i] = 1
        kind = "quadratic-plus"
    elif eps == -1:
        if m % 2:
            raise ValueError("minus type needs even dimension")
        n = m // 2
        for i in range(n - 1):
            quad[i][n - 1 + i] = 1
        a, b, c = _anisotropic_pair(field)
        quad[m - 2][m - 2] = a
        quad[m - 2][m - 1] = b
        quad[m - 1][m - 1] = c
        kind = "quadratic-minus"
    else:
        raise ValueError("eps must be +1, -1, or 0")
    qt = tuple(tuple(r) for r in quad)
    return FormSpec(kind, field.q, m, _polar_from_quad(field, qt), qt)


def make_hermitian_form(field: FqField, m: int) -> FormSpec:
    """Standard hermitian form over F_{q0^2}: antidiagonal pairs, odd tail."""
    q0 = int(math.isqrt(field.q))
    if q0 * q0 != field.q:
        raise ValueError("hermitian forms live over square-order fields")
    g = [[0] * m for _ in range(m)]
    ell = m // 2
    for i in range(ell):
        g[i][ell + i] = 1
        g[ell + i][i] = 1
    if m % 2:
        g[m - 1][m - 1] = 1
    return FormSpec("hermitian", field.q, m, tuple(tuple(r) for r in g), None, q0)


# -- subspace filters ------------------------------------------------------


def _restricted_quad(form: FormSpec, basis: Sequence[Sequence[int]]):
    ell = len(basis)
    gram = [[form.bilinear(basis[i], basis[j]) for j in range(ell)] for i in range(ell)]
    quad = None
    if form.quad is not None:
        quad = [[0] * ell for _ in range(ell)]
        for i in range(ell):
            quad[i][i] = form.quad_value(basis[i])
            for j in range(i + 1, ell):
                quad[i][j] = gram[i][j]
    return gram, quad


# the most vectors _count_singular lists
_ENUMERATE_CAP = 1 << 16


def _quad_eval(field: FqField, quad, v) -> int:
    s = 0
    for i, vi in enumerate(v):
        if not vi:
            continue
        for j in range(i, len(v)):
            if quad[i][j] and v[j]:
                s = field.add(s, field.mul(field.mul(vi, v[j]), quad[i][j]))
    return s


def _count_singular(field: FqField, quad, ell: int) -> int:
    # nonzero coordinate vectors v of F_q^ell with quad(v) = 0
    if field.q ** ell > _ENUMERATE_CAP:
        from .stabchain import ResourceLimit  # stabchain imports this module

        raise ResourceLimit(f"subspace of {field.q ** ell} vectors exceeds "
                            f"the enumeration cap {_ENUMERATE_CAP}")
    return sum(1 for v in itertools.product(range(field.q), repeat=ell)
               if any(v) and _quad_eval(field, quad, v) == 0)


def subspace_filter(form: FormSpec, basis: Sequence[Sequence[int]]) -> str | None:
    """The one seed filter that the span W of basis passes, or None.

    "totally-isotropic": the form, and Q for a quadratic form, vanishes on
    W. "nondegenerate-plus" / "nondegenerate-minus": a quadratic form whose
    restriction to W, of even dimension 2n, is nondegenerate; W is of plus
    type exactly when it holds (q^n - 1)(q^(n-1) + 1) nonzero singular
    vectors (Taylor, The Geometry of the Classical Groups, 1992), counted on
    coordinates over the restricted form. A count over more than
    _ENUMERATE_CAP vectors raises ResourceLimit.
    """
    F = form.field
    ell = len(basis)
    gram, quad = _restricted_quad(form, basis)
    if not any(map(any, gram)) and (quad is None or not any(quad[i][i] for i in range(ell))):
        return "totally-isotropic"
    if quad is None or ell % 2 or len(rref(F, gram)[0]) < ell:
        return None
    n = ell // 2
    plus = (F.q ** n - 1) * (F.q ** (n - 1) + 1)
    return "nondegenerate-plus" if _count_singular(F, quad, ell) == plus else "nondegenerate-minus"
