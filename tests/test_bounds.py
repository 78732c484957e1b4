"""Threshold integers, ceiling logs, and certified order-bound checks."""

import json
import math
import pathlib
import sys
from fractions import Fraction

import pytest

from permres.bounds import (
    bcp_order_bound,
    ceil_log,
    diag_bound,
    faw_bound,
    formula_suite,
    lemma22_check,
    m_epsilon,
    n_c_delta,
    partition_bound,
    prod_bound,
    subsets_bound,
    theorem13_check,
    thm13_compare,
)
import permres.bounds as bounds
from permres.bounds import (
    _DPS_LADDER,
    _SCAN_FLOOR,
    _exp,
    _ln,
    _m_threshold,
    _margin_sign,
    _mstar_cap,
)
from permres.classical import classical_generators
from permres.constructions import (
    matrix_orbit_action,
    subsets_action,
    wreath_product_action,
)
from permres.perm import Perm
from permres import search
from permres.search import base_size_exact, distinguishing_number
from permres.stabchain import PermGroup

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "m_epsilon.json").read_text()
)


# -- ceiling logs ----------------------------------------------------------


def test_ceil_log_examples():
    assert ceil_log(2, 1) == 0
    assert ceil_log(36, 2) == 1
    assert ceil_log(36, 1451520) == 4
    assert ceil_log(3, 27) == 3
    assert ceil_log(3, 28) == 4


def test_ceil_log_bracket_property():
    for base in (2, 3, 5, 36):
        for x in (1, 2, base - 1, base, base + 1, base ** 3, base ** 3 + 1, 10 ** 6):
            t = ceil_log(base, x)
            assert base ** t >= x
            if t:
                assert base ** (t - 1) < x


def test_ceil_log_rejects_bad_input():
    with pytest.raises(ValueError):
        ceil_log(1, 10)
    with pytest.raises(ValueError):
        ceil_log(2, 0)


def test_formula_values():
    assert prod_bound(36, 2, 6) == 7
    assert faw_bound(1451520, 36) == 7
    assert diag_bound(2, 60) == 4
    assert partition_bound(6, 2) == 6
    assert subsets_bound(6, 2) == 4
    assert bcp_order_bound(6, 5) == 1296


def test_formula_suite_reports():
    rep = formula_suite("faw_bound", {"order": 1451520, "n": 36}, measured=6)
    assert rep.bound_value == 7
    assert rep.verdict == "holds"
    rep = formula_suite("diag_bound", {"k": 2, "t_order": 60}, measured=5)
    assert rep.verdict == "fails"
    rep = formula_suite("bcp_order_bound", {"d": 6, "n": 5})
    assert rep.verdict is None
    with pytest.raises(ValueError):
        formula_suite("no_such_bound", {})


# -- rational enclosures ---------------------------------------------------

# 75 decimals from the 80-digit mpmath oracle (tools/threshold_oracle.py)
REFERENCE_DIGITS = {
    "e": "2.718281828459045235360287471352662497757247093699959574966967627724076630354",
    "ln 2": "0.693147180559945309417232121458176568075500134360255254120680009493393621970",
    "ln 11/10": "0.095310179804324860043952123280765092220605365308644199185239808163001014236",
    "ln 973": "6.880384082186005062294137662318723512079681389937015104133468654780834728272",
}


@pytest.mark.parametrize("dps", _DPS_LADDER)
def test_enclosures_meet_reference_digits(dps):
    enclosures = {
        "e": _exp(1, dps),
        "ln 2": _ln(Fraction(2), dps),
        "ln 11/10": _ln(Fraction(11, 10), dps),
        "ln 973": _ln(Fraction(973), dps),
    }
    unit = Fraction(1, 10 ** 75)
    for name, (lo, hi) in enclosures.items():
        ref = Fraction(REFERENCE_DIGITS[name])
        # the true value lies within one unit of the reference's last decimal
        assert lo <= ref + unit and ref - unit <= hi, (name, dps)
        # at most four units in the last place of a dps-digit number in [1, 10)
        assert 0 < hi - lo <= Fraction(4, 10 ** (dps - 1)), (name, dps)
    assert _ln(Fraction(1), dps) == (0, 0)


# -- threshold integers ----------------------------------------------------


def test_m_epsilon_matches_golden():
    for row in GOLDEN["m_epsilon"]:
        assert m_epsilon(Fraction(row["eps"])) == row["M"], row


def test_n_c_delta_matches_golden():
    for row in GOLDEN["n_c_delta"]:
        assert n_c_delta(row["c"], Fraction(row["delta"])) == row["N"], row


def test_m_epsilon_floor_is_fourteen():
    # large eps clamps at ceil(5e) = 14
    for eps in (2, 3, 10, 100):
        assert m_epsilon(eps) >= 14
    assert m_epsilon(100) == 14


def test_m_epsilon_one_is_twenty_one():
    assert m_epsilon(1) == 21
    # the scan's boundary, certified: fails at 20, holds at 21
    assert _margin_sign(20, Fraction(2), Fraction(1)) < 0
    assert _margin_sign(21, Fraction(2), Fraction(1)) > 0


def test_m_epsilon_rejects_nonpositive():
    with pytest.raises(ValueError):
        m_epsilon(0)
    with pytest.raises(ValueError):
        m_epsilon(Fraction(-1, 2))


@pytest.mark.parametrize("value", [True, False, "1/0", "x", None, [1], float("inf")])
def test_eps_and_delta_refuse_what_is_no_rational(value):
    # true read as 1 and "1/0" raised ZeroDivisionError, a tool limit
    for name, call in (("eps", lambda: m_epsilon(value)),
                       ("delta", lambda: n_c_delta(1, value)),
                       ("delta", lambda: thm13_compare(24, 4, 5, value)),
                       ("delta", lambda: bounds.evaluate("threshold-n", {"c": 1, "delta": value}))):
        with pytest.raises(ValueError, match=f"^{name} must be a rational number, not "):
            call()


def test_n_base_case_is_m():
    for eps in (Fraction(1, 2), Fraction(1), Fraction(3)):
        assert n_c_delta(0, eps) == m_epsilon(eps)


def test_n_clamps_at_c():
    assert n_c_delta(5, 3) >= 5
    with pytest.raises(ValueError):
        n_c_delta(-1, 1)
    with pytest.raises(ValueError):
        n_c_delta(2, 0)


def test_n_memo_stable_across_calls():
    a = n_c_delta(2, Fraction(1, 2))
    b = n_c_delta(2, Fraction(1, 2))
    assert a == b == 141


def linear_scan_threshold(base, power):
    """The threshold by evaluating the margin at every m from 14 up to the
    first success at or past the monotone point, as the scan did before it
    galloped; the reference for _m_threshold."""
    cap = max(_SCAN_FLOOR, _mstar_cap(base, power))
    last_fail = _SCAN_FLOOR - 1
    m = _SCAN_FLOOR
    while True:
        s = _margin_sign(m, base, power)
        if s < 0:
            last_fail = m
        if m >= cap and s > 0:
            break
        m += 1
    return max(_SCAN_FLOOR, last_fail + 1)


def test_threshold_gallop_matches_linear_scan():
    # powers (3/5)**k are the shrunk parameters n_c_delta recurses through
    for eps in ("1/10", "1/4", "1/2", "1", "2", "3", "100"):
        for k in range(4):
            base, power = 1 + Fraction(eps), Fraction(3, 5) ** k
            assert _m_threshold(base, power) == linear_scan_threshold(base, power), (eps, k)


@pytest.fixture
def margin_evaluations(monkeypatch):
    """Counts _margin_sign calls made through the bounds module."""
    calls = [0]
    inner = bounds._margin_sign

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(bounds, "_margin_sign", counted)
    # thresholds are cached per (base, power); count from a cold cache
    bounds._m_threshold.cache_clear()
    return calls


def test_threshold_scan_evaluation_counts(margin_evaluations):
    # the linear scan made 227 and 2,879 evaluations; the counts include
    # the three contract checks per threshold. n_c_delta(4) needs only the
    # deepest threshold, M at (3/5)**4; the loop over all four made 84
    # evaluations and the recursion, which computed the deepest twice, 108.
    # A search from max(14, cap) made 20 and 24; starting one below the
    # float root, it fails there, holds one above, and makes 2 of the 5
    assert m_epsilon(Fraction(1, 10)) == 237
    assert margin_evaluations[0] == 5

    margin_evaluations[0] = 0
    bounds._m_threshold.cache_clear()
    assert n_c_delta(4, Fraction(1, 4)) == 973
    assert margin_evaluations[0] == 5


def _n_recursive(c, base, power):
    """N(c) by its recursive definition, as n_c_delta computed it before
    the recursion was unrolled; the reference for the loop."""
    if c == 0:
        return _m_threshold(base, power)
    child = power * Fraction(3, 5)
    return max(_n_recursive(c - 1, base, child), _m_threshold(base, child), c)


def test_n_c_delta_matches_recursive_definition():
    for delta in ("1", "1/2", "2", "1/4", "1/10", "5"):
        for c in range(9):
            want = _n_recursive(c, 1 + Fraction(delta), Fraction(1))
            assert n_c_delta(c, delta) == want, (c, delta)


def test_n_c_delta_needs_no_recursion_per_level():
    # the recursive form needed one frame per level of c; allow 30 frames
    # above this one, far fewer than c = 60 levels
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        n = n_c_delta(60, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert n == max(60, _m_threshold(Fraction(2), Fraction(3, 5) ** 60))


def test_thresholds_are_shared_across_levels():
    # N(1), ..., N(4) need M at (3/5)**k for k = 1..4 only: four threshold
    # searches for the whole grid, where the recursion's memo, keyed by c,
    # made fourteen
    bounds._m_threshold.cache_clear()
    for c in range(1, 5):
        n_c_delta(c, Fraction(1, 2))
    assert bounds._m_threshold.cache_info().misses == 4


# -- section-free order bound ----------------------------------------------


def test_lemma22_s5():
    rep = lemma22_check(PermGroup.symmetric(5), 6)
    assert rep.verdict == "holds"
    assert rep.bound_value == 6 ** 4
    assert rep.measured_value == 120


def test_lemma22_rejects_alternating_section():
    with pytest.raises(ValueError):
        lemma22_check(PermGroup.alternating(5), 5)


def test_lemma22_rejects_small_d():
    with pytest.raises(ValueError):
        lemma22_check(PermGroup.symmetric(4), 1)
    with pytest.raises(ValueError):
        lemma22_check(PermGroup.symmetric(4), 4)


def test_lemma22_solvable_group():
    # solvable: no alternating sections at all, any d >= 5 applies
    c4 = PermGroup(4, [Perm([1, 2, 3, 0])])
    rep = lemma22_check(c4, 5)
    assert rep.verdict == "holds"


def test_lemma22_matches_bcp_formula():
    rep = lemma22_check(PermGroup.symmetric(5), 6)
    assert rep.bound_value == bcp_order_bound(6, 5)


# -- certified threshold comparison ----------------------------------------


def test_thm13_trivial_group_holds():
    rep = theorem13_check(PermGroup.trivial(5), 0, 21, 1)
    assert rep.verdict == "holds"


def test_thm13_near_tightness_probe():
    # n = d: the symmetric group nearly saturates the bound; with slack
    # delta = 1 it still holds, with tiny slack it fails
    rep = thm13_compare(math.factorial(21), 21, 21, 1)
    assert rep.verdict == "holds"
    rep = thm13_compare(math.factorial(14), 14, 14, Fraction(1, 1000))
    assert rep.verdict == "fails"


def test_thm13_probe_narrows_with_delta():
    # ratio of bound to order shrinks as delta does; verdict flips at some point
    order = math.factorial(21)
    verdicts = [
        thm13_compare(order, 21, 21, delta).verdict
        for delta in (Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(1, 100))
    ]
    assert verdicts[0] == "holds"
    assert verdicts[-1] == "fails"
    assert sorted(verdicts, key=lambda v: v != "holds") == verdicts  # holds prefix


def test_thm13_rejects_d_below_threshold():
    with pytest.raises(ValueError):
        theorem13_check(PermGroup.trivial(5), 0, 20, 1)  # threshold is 21


def test_thm13_rejects_failing_scan():
    # generous delta drives the threshold down to 14; the two-point
    # stabilizers of S16 still carry an A14 section, so the scan fails
    assert n_c_delta(2, 100) == 14
    with pytest.raises(ValueError):
        theorem13_check(PermGroup.symmetric(16), 2, 14, 100)


def test_thm13_rejects_scan_cut_short(monkeypatch):
    # C7 on 7 points: its 30 classes of triples all pass, but a scan that
    # its budget stops after two nodes has seen none of them
    G = PermGroup(7, [Perm([1, 2, 3, 4, 5, 6, 0])])
    assert n_c_delta(3, 2) == 78
    assert theorem13_check(G, 3, 78, 2).verdict == "holds"
    inner = search.stabilizer_scan
    monkeypatch.setattr(search, "stabilizer_scan",
                        lambda G, c, predicate: inner(G, c, predicate, node_budget=2))
    with pytest.raises(ValueError, match="inconclusive"):
        theorem13_check(G, 3, 78, 2)


def test_thm13_rejects_failing_certificate():
    # A14 has itself as an alternating section, so gamma:14 resolves to no
    with pytest.raises(ValueError):
        theorem13_check(PermGroup.alternating(14), 0, 14, 100)


def test_thm13_small_symmetric_application():
    rep = theorem13_check(PermGroup.symmetric(10), 0, 21, 1)
    assert rep.verdict == "holds"
    assert rep.parameters["c"] == 0


def test_thm13_float_display_unchanged():
    rep = thm13_compare(1451520, 36, 73, 1)
    assert rep.verdict == "holds"
    assert rep.bound_value == ("3.5648649827549115e+60", "3.5648649827549115e+60")


def test_thm13_display_past_the_float_range():
    # the bound has about 34,600 digits, past the int-to-str conversion limit
    rep = thm13_compare(10 ** 50, 20000, 73, 1)
    assert rep.verdict == "holds"
    assert rep.bound_value == ("2.7379105158670717E+34599",) * 2


# -- measured base sizes vs formula bounds ---------------------------------


@pytest.fixture(scope="module")
def deg36():
    grp = classical_generators("GO-odd", 7, 2)
    return matrix_orbit_action(grp, kind="subspace", k=6, flt="nondegenerate-plus").group


def test_faw_bound_dominates_measured(deg36):
    b = base_size_exact(deg36).size
    assert b <= faw_bound(deg36.order(), deg36.degree)


def test_prod_bound_dominates_measured_wreath():
    A5 = PermGroup.alternating(5)
    S2 = PermGroup.symmetric(2)
    act = wreath_product_action(A5, S2)
    measured = base_size_exact(act.group).size
    d_q = distinguishing_number(S2).number
    b_l = base_size_exact(A5).size
    assert measured <= prod_bound(A5.degree, d_q, b_l)


def test_subsets_bound_dominates_measured():
    act = subsets_action(6, 2)
    measured = base_size_exact(act.group).size
    assert measured <= subsets_bound(6, 2)


@pytest.mark.parametrize("call", [
    lambda: n_c_delta(1.5, 1),
    lambda: n_c_delta(True, 1),
    lambda: lemma22_check(PermGroup.symmetric(5), 9.5),
    lambda: lemma22_check(PermGroup.symmetric(5), True),
    lambda: formula_suite("bcp_order_bound", {"d": 9.5, "n": 10}),
    lambda: formula_suite("subsets_bound", {"m": 6.5, "k": 2}),
    lambda: formula_suite("diag_bound", {"k": 5, "t_order": 60.5}),
    lambda: formula_suite("faw_bound", {"order": True, "n": 5}),
])
def test_bounds_reject_counts_that_are_not_integers(call):
    # n_c_delta(1.5, 1) once raised 3/5 to a float power, lemma22 at d = 9.5
    # reported the float bound 8145.0625, and bcp_order_bound at d = 9.5
    # the float 630249409.72...
    with pytest.raises(ValueError, match="integer"):
        call()


def test_unread_keys_of_mixed_types_are_named():
    # the unread keys were sorted as they are, and str and int do not compare
    with pytest.raises(ValueError, match=r"unknown params key 'x', 5 for bounds check"):
        bounds.evaluate("threshold-m", {5: 1, "x": 2, "eps": "1"})
