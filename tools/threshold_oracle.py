#!/usr/bin/env python3
"""Independent oracle for the m/N threshold integers, frozen into a golden file.

Scans the defining inequality m^(3/2) <= (1+eps)^(m/e - 1) directly with
80-digit mpmath floating point, with no intervals, and asserts every
margin is far from zero, so rounding cannot flip a verdict. It shares no code
and no numeric library with permres, which computes with the stdlib decimal
module. Writes tests/golden/m_epsilon.json.

Needs mpmath, from the dev extra (pip install -e '.[dev]').

Usage: python tools/threshold_oracle.py
"""

import json
import pathlib
import sys
from fractions import Fraction

from mpmath import mp, mpf, log, e, ceil

mp.dps = 80
MARGIN_FLOOR = mpf(10) ** -40
SCAN_FLOOR = 14  # ceil(5e)


def margin(m: int, log_one_plus_eps) -> mpf:
    """(m/e - 1) * ln(1+eps) - (3/2) * ln m; >= 0 iff the inequality holds."""
    return (mpf(m) / e - 1) * log_one_plus_eps - mpf(3) / 2 * log(m)


def m_threshold(log_one_plus_eps) -> int:
    """Minimal M >= 14 with nonnegative margin for every m >= M.

    The margin's derivative in m is ln(1+eps)/e - 3/(2m), positive beyond
    m* = 3e / (2 ln(1+eps)); scanning to that point settles the tail.
    """
    mstar = int(ceil(3 * e / (2 * log_one_plus_eps)))
    last_fail = SCAN_FLOOR - 1
    m = SCAN_FLOOR
    while True:
        g = margin(m, log_one_plus_eps)
        assert abs(g) > MARGIN_FLOOR, f"margin too close to zero at m={m}"
        if g < 0:
            last_fail = m
        if m >= mstar and g > 0:
            break
        m += 1
    M = max(SCAN_FLOOR, last_fail + 1)
    assert margin(M, log_one_plus_eps) > 0
    assert margin(M + 1000, log_one_plus_eps) > 0
    if M > SCAN_FLOOR:
        assert margin(M - 1, log_one_plus_eps) < 0
    return M


def log_power(delta: Fraction, k: int) -> mpf:
    """ln of (1+delta)^((3/5)^k), the k-fold recursion shrink of delta."""
    base = mpf(delta.numerator + delta.denominator) / mpf(delta.denominator)
    return log(base) * mpf(3) ** k / mpf(5) ** k


def n_threshold(c: int, delta: Fraction, level: int = 0) -> int:
    """The recursion N(c) = max(N(c-1) one level deeper, M one level deeper, c)
    with N(0) = M at the current level; each level multiplies the exponent
    of (1+delta) by 3/5."""
    if c == 0:
        return m_threshold(log_power(delta, level))
    return max(
        n_threshold(c - 1, delta, level + 1),
        m_threshold(log_power(delta, level + 1)),
        c,
    )


def main() -> None:
    eps_grid = ["1/10", "1/4", "1/2", "1", "2", "3"]
    m_rows = []
    for s in eps_grid:
        f = Fraction(s)
        m_rows.append({"eps": s, "M": m_threshold(log_power(f, 0))})

    n_rows = []
    for c in (0, 1, 2, 3, 4):
        for s in ("1/4", "1/2", "1", "2"):
            n_rows.append({"c": c, "delta": s, "N": n_threshold(c, Fraction(s))})

    out = {"dps": mp.dps, "m_epsilon": m_rows, "n_c_delta": n_rows}
    dest = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "m_epsilon.json"
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {dest}")
    for row in m_rows:
        print("  M(%s) = %d" % (row["eps"], row["M"]))
    for row in n_rows:
        print("  N(%d, %s) = %d" % (row["c"], row["delta"], row["N"]))


if __name__ == "__main__":
    sys.exit(main())
