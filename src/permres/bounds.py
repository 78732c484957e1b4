"""Explicit order bounds and threshold integers, evaluated exactly or in
certified rational enclosures.

No verdict here ever comes from a bare floating-point comparison: integer
bounds use big-integer powering, and each real quantity is an exact rational
enclosure. The certificate is the documented correct rounding of the stdlib
decimal module's exp and ln: a rounded result's two neighbours enclose the
true value, and all arithmetic after that is on exact Fractions. Precision
escalates through a fixed ladder until the sign of the margin is certain.

The threshold M(eps) needs the margin's sign at only a few m. The margin is
nondecreasing from a certified point cap on, so the search starts at
max(14, cap), gallops up to the first success and bisects back to the last
failure; when the margin already holds there, it walks down to the first
failure, which assumes nothing about the margin below cap.

lemma22_check and theorem13_check import the structure and search layers
when they are called, so the formulas and thresholds load no group code.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, Context, Inexact
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .fq import ceil_log, require_int, require_keys

if TYPE_CHECKING:
    from .stabchain import PermGroup

__all__ = [
    "BoundReport",
    "CHECKS",
    "ceil_log",
    "evaluate",
    "lemma22_check",
    "m_epsilon",
    "n_c_delta",
    "theorem13_check",
    "thm13_compare",
    "formula_suite",
    "prod_bound",
    "faw_bound",
    "diag_bound",
    "subsets_bound",
    "partition_bound",
    "bcp_order_bound",
]

_DPS_LADDER = (30, 60, 120, 240)
_SCAN_FLOOR = 14  # smallest admissible threshold, ceil(5e)


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation. verdict is holds / fails only when the
    comparison is certified; None means no measured value was compared."""

    bound_name: str
    parameters: dict
    bound_value: object
    measured_value: object
    verdict: str | None


def prod_bound(deg: int, d_q: int, b_l: int) -> int:
    return ceil_log(deg, d_q) + b_l


def faw_bound(order: int, n: int) -> int:
    return ceil_log(n, order) + 3


def diag_bound(k: int, t_order: int) -> int:
    return max(4, ceil_log(t_order, k) + 2)


def subsets_bound(m: int, k: int) -> int:
    if not 1 <= k < m:
        raise ValueError("need 1 <= k < m")
    parts = -(-m // k)
    return ceil_log(parts, m) * (parts - 1)


def partition_bound(m: int, k: int) -> int:
    if k < 2 or m % k:
        raise ValueError("k must divide m and be >= 2")
    return max(6, ceil_log(m // k, k) + 3)


def bcp_order_bound(d: int, n: int) -> int:
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    return d ** (n - 1)


_FORMULAS = {
    "prod_bound": prod_bound,
    "faw_bound": faw_bound,
    "diag_bound": diag_bound,
    "subsets_bound": subsets_bound,
    "partition_bound": partition_bound,
    "bcp_order_bound": bcp_order_bound,
}


def formula_suite(name: str, params: dict, measured: int | None = None) -> BoundReport:
    """Evaluate a closed-form bound; optionally compare a measured value
    (measured <= bound reads as holds)."""
    if name not in _FORMULAS:
        raise ValueError(f"unknown formula {name!r}; have {sorted(_FORMULAS)}")
    if not isinstance(params, dict):
        raise ValueError("params must be an object")
    for key, v in params.items():
        require_int(key, v)
    if measured is not None:
        require_int("measured", measured)
    value = _FORMULAS[name](**params)
    verdict = None
    if measured is not None:
        verdict = "holds" if measured <= value else "fails"
    return BoundReport(name, dict(params), value, measured, verdict)


# -- rational enclosures ---------------------------------------------------


def _enclose(value, dps: int) -> tuple[Fraction, Fraction]:
    """Exact rational endpoints enclosing value(ctx), a correctly rounded
    decimal operation run in a fresh dps-digit context.

    A correctly rounded result lies within half a unit in the last place of
    the true value, so its two neighbours enclose it; an exact result is its
    own point (its neighbours at 0 would be subnormals with huge digits)."""
    ctx = Context(prec=dps, Emax=MAX_EMAX)
    v = value(ctx)
    if not ctx.flags[Inexact]:
        return Fraction(v), Fraction(v)
    return Fraction(ctx.next_minus(v)), Fraction(ctx.next_plus(v))


@lru_cache
def _exp(k: int, dps: int) -> tuple[Fraction, Fraction]:
    """Enclosure of e**k for an integer k."""
    return _enclose(lambda ctx: ctx.exp(k), dps)


@lru_cache
def _ln(x: Fraction, dps: int) -> tuple[Fraction, Fraction]:
    """Enclosure of ln x as ln(numerator) - ln(denominator): both arguments
    are exact integers, so nothing is rounded before the logs."""
    n_lo, n_hi = _enclose(lambda ctx: ctx.ln(x.numerator), dps)
    d_lo, d_hi = _enclose(lambda ctx: ctx.ln(x.denominator), dps)
    return n_lo - d_hi, n_hi - d_lo


def _margin_sign(m: int, base: Fraction, power: Fraction) -> int:
    """Certified sign of (m/e - 1)*ln(base**power) - (3/2)*ln m.

    Positive means m**(3/2) <= (1+eps)**(m/e - 1) strictly holds, with
    1 + eps = base**power. Escalates precision until the enclosure excludes
    zero. With m > e and ln(base) > 0 each product grows with its factors,
    so the low endpoints give the low end; a low ln endpoint below zero only
    makes lo negative, never a false positive."""
    for dps in _DPS_LADDER:
        e_lo, e_hi = _exp(1, dps)
        l_lo, l_hi = _ln(base, dps)
        g_lo, g_hi = _ln(Fraction(m), dps)
        lo = (m / e_hi - 1) * l_lo * power - Fraction(3, 2) * g_hi
        hi = (m / e_lo - 1) * l_hi * power - Fraction(3, 2) * g_lo
        if lo > 0:
            return 1
        if hi < 0:
            return -1
    raise ArithmeticError(f"margin sign at m={m} unresolved at dps {_DPS_LADDER[-1]}")


def _mstar_cap(base: Fraction, power: Fraction) -> int:
    """Integer upper bound for 3e / (2 ln(base**power)).

    The margin's derivative in m is ln(base**power)/e - 3/(2m), which is
    nonnegative from that point on: the margin is nondecreasing on
    [cap, oo), so there a failure can only precede a success. Below the cap
    it may fall, and nothing is assumed there."""
    for dps in _DPS_LADDER:
        l_lo, _l_hi = _ln(base, dps)
        if l_lo > 0:
            return int(3 * _exp(1, dps)[1] / (2 * l_lo * power)) + 1
    raise ArithmeticError(f"ln of {base} unresolved at dps {_DPS_LADDER[-1]}")


@lru_cache(maxsize=None)
def _m_threshold(base: Fraction, power: Fraction) -> int:
    """Minimal M >= 14 such that the defining inequality holds for every
    m >= M, where 1 + eps = base**power > 1.

    The search starts at m1 = max(14, cap), cap from _mstar_cap. If the
    margin fails at m1, it gallops up (m1+1, m1+2, m1+4, ...) to the first
    success and bisects between the last failure and that success; this
    needs the margin nondecreasing, which holds on [cap, oo). If the margin
    holds at m1, it holds on all of [m1, oo) by the same monotonicity, and
    a walk down from m1 - 1 stops at the first failure; that walk assumes
    nothing. Either way M is one past the last failure, or 14 if there is
    none."""
    m1 = max(_SCAN_FLOOR, _mstar_cap(base, power))
    if _margin_sign(m1, base, power) < 0:
        fail, step = m1, 1
        while _margin_sign(m1 + step, base, power) < 0:
            fail = m1 + step
            step *= 2
        hold = m1 + step
        while hold - fail > 1:
            mid = (fail + hold) // 2
            if _margin_sign(mid, base, power) < 0:
                fail = mid
            else:
                hold = mid
        M = hold
    else:
        M = m1
        while M > _SCAN_FLOOR and _margin_sign(M - 1, base, power) > 0:
            M -= 1
    # contract checks: holds at M and well beyond, fails just below unless clamped
    if _margin_sign(M, base, power) <= 0 or _margin_sign(M + 1000, base, power) <= 0:
        raise AssertionError(f"threshold margin fails at or beyond M = {M}")
    if M > _SCAN_FLOOR and _margin_sign(M - 1, base, power) >= 0:
        raise AssertionError(f"threshold margin holds below M = {M}")
    return M


def _positive_rational(name: str, value) -> Fraction:
    """value, an int, a float or a string such as "1/4", as an exact
    positive Fraction; anything else raises ValueError naming name."""
    bad = ValueError(f"{name} must be a rational number, not {value!r}")
    if isinstance(value, bool):  # true is no rational 1
        raise bad
    try:
        r = Fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        # a zero denominator is an input error, not a limit of the tool
        raise bad from None
    if r <= 0:
        raise ValueError(f"{name} must be positive")
    return r


def m_epsilon(eps) -> int:
    """Least M >= 14 with m**(3/2) <= (1+eps)**(m/e - 1) for all m >= M."""
    eps = _positive_rational("eps", eps)
    return _m_threshold(1 + eps, Fraction(1))


def n_c_delta(c: int, delta) -> int:
    """Recursive threshold: N(0, d) is the m threshold of d, and N(c, d)
    is max(N(c-1, e), M(e), c) with 1 + e = (1+d)**(3/5).

    Unrolled, N(c, delta) is the max of c and of M(e_k) for k = 1..c, where
    1 + e_k = (1+delta)**((3/5)**k). M cannot increase as eps grows: for
    m >= 14 > e the exponent m/e - 1 is positive, so the right side of
    m**(3/2) <= (1+eps)**(m/e - 1) grows with eps, the set of m where the
    inequality holds only grows, and so does every tail [M, oo) inside it.
    The e_k fall as k grows, so M(e_k) is largest at k = c, and
    N(c, delta) = max(c, M(e_c)): one threshold search, whatever c is. The
    shrunk parameter stays symbolic as (1+delta) to a rational power, so
    every comparison below is still certified."""
    require_int("c", c, 0)
    delta = _positive_rational("delta", delta)
    return max(c, _m_threshold(1 + delta, Fraction(3, 5) ** c))


# -- order bound checks ----------------------------------------------------


def lemma22_check(G: PermGroup, d: int) -> BoundReport:
    """Certified |G| <= d**(degree-1), bcp_order_bound, for a group with
    no alternating section of degree >= d. Exact big-integer comparison.

    The hypothesis is checked first and must resolve to a definite yes;
    in_gamma rejects d < 5, where no certificate exists (the d = 2 class
    is empty)."""
    from .structure import NO, UNKNOWN, in_gamma

    verdict = in_gamma(G, d)
    if verdict == NO:
        raise ValueError(f"group has an alternating section of degree >= {d}")
    if verdict == UNKNOWN:
        raise ValueError("section certificate unresolved; cannot apply the bound")
    order = G.order()
    bound = bcp_order_bound(d, G.degree)
    return BoundReport(
        "lemma22",
        {"d": d, "degree": G.degree},
        bound,
        order,
        "holds" if order <= bound else "fails",
    )


def thm13_compare(order: int, n: int, d: int, delta) -> BoundReport:
    """Certified order <= ((1+delta)*d/e)**(n-1), with no hypothesis check:
    use this for tightness probes against groups outside the hypothesis.

    The comparison multiplies through by e**(n-1): the power of e is the
    only non-rational factor, so its enclosure against an exact rational
    decides the verdict, at escalating precision."""
    require_int("d", d, 2)
    delta = _positive_rational("delta", delta)
    if order < 1 or n < 1:
        raise ValueError("need order, n >= 1")
    params = {"d": d, "delta": str(delta), "degree": n}
    rhs = (Fraction(d) * (1 + delta)) ** (n - 1)  # bound times e**(n-1), exact
    verdict = None
    for dps in _DPS_LADDER:
        e_lo, e_hi = _exp(n - 1, dps)
        if order * e_hi <= rhs:
            verdict = "holds"
            break
        if order * e_lo > rhs:
            verdict = "fails"
            break
    if verdict is None:
        verdict = "inconclusive-interval"
        bound_value = None
    else:  # enclosure of the real bound
        bound_value = (_approx(rhs, e_hi), _approx(rhs, e_lo))
    return BoundReport("thm13", params, bound_value, order, verdict)


def theorem13_check(G: PermGroup, c: int, d: int, delta) -> BoundReport:
    """thm13_compare's report, returned after verifying the hypothesis:
    every c-point stabilizer class (the whole group for c = 0) avoids
    alternating sections of degree >= d, and d clears the recursion
    threshold. thm13_compare runs first, so d and delta are checked before
    d is compared with anything. An unresolved hypothesis raises
    ValueError, as a failing one does: an unknown section, or a scan that
    its node budget cut short."""
    out = thm13_compare(G.order(), G.degree, d, delta)
    need = n_c_delta(c, delta)
    if d < need:
        raise ValueError(f"d = {d} is below the recursion threshold {need}")
    from .search import stabilizer_scan
    from .structure import YES, in_gamma

    if c == 0:
        if in_gamma(G, d) != YES:
            raise ValueError("section certificate unresolved or failing")
    else:
        rep = stabilizer_scan(G, c, f"gamma:{d}")
        if rep.verdict != "all-pass":
            raise ValueError(f"stabilizer scan came back {rep.verdict}")
    params = dict(out.parameters)
    params["c"] = c
    return BoundReport(out.bound_name, params, out.bound_value, out.measured_value, out.verdict)


# -- the checks the manifest ops and the bounds verb run -------------------

# check -> the params keys it reads; each is required but formula's measured
CHECKS = {
    "lemma22": ("d",),
    "thm13": ("c", "d", "delta"),
    "formula": ("name", "params", "measured"),
    "threshold-m": ("eps",),
    "threshold-n": ("c", "delta"),
}


def evaluate(name: str, params: dict, group: PermGroup | None = None):
    """Run the bounds check name on params: the threshold integer for
    threshold-m and threshold-n, else a BoundReport. lemma22 and thm13
    check group. A missing key raises KeyError, one the check does not
    read ValueError: no key has a default."""
    if name not in CHECKS:
        raise ValueError(f"unknown bounds check {name!r}; have {', '.join(CHECKS)}")
    require_keys(params, CHECKS[name], f"bounds check {name}")
    if name == "threshold-m":
        return m_epsilon(params["eps"])
    if name == "threshold-n":
        return n_c_delta(params["c"], params["delta"])
    if name == "formula":
        return formula_suite(params["name"], params["params"], measured=params.get("measured"))
    if group is None:
        raise ValueError(f"bounds check {name} needs a group: give a recipe")
    if name == "lemma22":
        return lemma22_check(group, params["d"])
    return theorem13_check(group, params["c"], params["d"], params["delta"])


def _approx(rhs: Fraction, e_pow: Fraction) -> str:
    """rhs / e_pow for display only; verdicts never read this. The quotient
    is never reduced (its gcd dominates at large degree); past the float
    range it shows 17 significant digits from the leading 200 bits of each
    term."""
    num, den = rhs.numerator * e_pow.denominator, rhs.denominator * e_pow.numerator
    try:
        return repr(num / den)
    except OverflowError:
        shift_n, shift_d = num.bit_length() - 200, max(0, den.bit_length() - 200)
        ctx = Context(prec=40, Emax=MAX_EMAX)
        v = ctx.multiply(ctx.divide(num >> shift_n, den >> shift_d),
                         ctx.power(2, shift_n - shift_d))
        return str(Context(prec=17, Emax=MAX_EMAX).plus(v))
