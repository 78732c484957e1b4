"""Backtrack searches over a permutation group: minimal bases, stabilizer
scans, distinguishing colorings, and counts of tuples with trivial
pointwise stabilizer.

Every search here is deterministic: orbits are walked in increasing point
order and representatives are smallest-in-orbit, so repeated runs give
identical witnesses. A budget never truncates an answer silently: a search
cut short raises ResourceLimit carrying whatever partial result exists, or
returns one marked as such (a partial base witness, a scan that is not
exhaustive).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .fq import ceil_log, require_int
from .stabchain import PermGroup, ResourceLimit, _has_preserving_element, orbit_leaders
from .structure import NO, UNKNOWN, YES, composition_factors, in_gamma, is_solvable

__all__ = [
    "BaseWitness",
    "ScanWitness",
    "ScanReport",
    "DistinguishingResult",
    "RegularCount",
    "base_lower_bound",
    "base_size_exact",
    "greedy_base",
    "stabilizer_scan",
    "distinguishing_number",
    "distinguishing_witness",
    "verify_distinguishing",
    "count_regular_tuples",
]


# -- base size -------------------------------------------------------------


@dataclass(frozen=True)
class BaseWitness:
    """A base for a group together with how much it proves.

    status is exact, upper-bound (greedy_base), or partial (the search
    ran out of node_budget; lower_bound and upper_bound bracket b). The
    proof_of_minimality marker is "order-bound" when the witness length
    equals the information-theoretic lower bound, "exhausted" when every
    shorter depth was searched to completion, and None otherwise.
    """

    points: tuple[int, ...] | None
    size: int | None
    status: str
    proof_of_minimality: str | None
    lower_bound: int
    upper_bound: int | None
    nodes: int


def base_lower_bound(G: PermGroup) -> int:
    """Smallest b with degree**b >= |G|, by exact integer comparison."""
    order = G.order()
    if order == 1:
        return 0
    if G.degree < 2:
        raise ValueError("nontrivial group needs degree >= 2")
    return ceil_log(G.degree, order)


def _verify_base(G: PermGroup, points: tuple[int, ...]) -> None:
    # independent of the search that produced the witness
    if G.pointwise_stabilizer(points).order() != 1:
        raise AssertionError(f"claimed base {points} has nontrivial stabilizer")


def base_size_exact(G: PermGroup, node_budget: int = 2_000_000) -> BaseWitness:
    """Exact minimal base size via iterative deepening.

    Branches only over orbit representatives of the current partial
    stabilizer (smallest point per orbit, increasing order); a branch is cut
    when the stabilizer order exceeds (largest orbit size) ** (remaining
    depth), since each further point divides the order by at most its orbit
    length, so the cut never removes a branch that completes to a base.
    Depths run up to degree - 1, which bounds b for a nontrivial group.
    Budget exhaustion returns a partial witness bracketing the answer
    instead of raising.
    """
    require_int("node_budget", node_budget, 1)
    if G.order() == 1:
        return BaseWitness((), 0, "exact", "order-bound", 0, 0, 0)
    lb = base_lower_bound(G)
    nodes = 0
    for target in range(lb, G.degree):

        def children(prefix: tuple[int, ...], H: PermGroup) -> list[list[int]]:
            rem = target - len(prefix)
            if rem <= 0:
                return []
            orbs = [o for o in H.orbits() if len(o) > 1]
            if H.order() > max(len(o) for o in orbs) ** rem:
                return []
            return orbs

        for prefix, H, _ in G.orbit_tree(children):
            nodes += 1
            if nodes > node_budget:
                upper = greedy_base(G)
                return BaseWitness(None, None, "partial", None, target, upper.size, nodes)
            if H.order() == 1:
                _verify_base(G, prefix)
                proof = "order-bound" if len(prefix) == lb else "exhausted"
                return BaseWitness(prefix, len(prefix), "exact", proof, lb, len(prefix), nodes)
    raise AssertionError("a nontrivial group has a base of at most degree - 1 points")


def greedy_base(G: PermGroup) -> BaseWitness:
    """Upper bound: repeatedly stabilize the orbit representative whose
    stabilizer is smallest. No minimality claim."""
    points: list[int] = []
    grp = G
    while grp.order() > 1:
        best: tuple[int, int, PermGroup] | None = None
        for orb in grp.orbits():
            if len(orb) == 1:
                continue
            stab = grp.point_stabilizer(orb[0])
            o = stab.order()
            if best is None or o < best[0]:
                best = (o, orb[0], stab)
        if best is None:
            raise AssertionError("a nontrivial group has a nontrivial orbit")
        points.append(best[1])
        grp = best[2]
    pts = tuple(points)
    _verify_base(G, pts)
    return BaseWitness(pts, len(pts), "upper-bound", None, base_lower_bound(G), len(pts), 0)


# -- stabilizer scan -------------------------------------------------------


@dataclass(frozen=True)
class ScanWitness:
    points: tuple[int, ...]
    order: int
    summary: str


@dataclass(frozen=True)
class ScanReport:
    """Outcome of testing a predicate on every c-point stabilizer class.

    verdict is all-pass, fail, or inconclusive (no class failed, and some
    class resolved to unknown or the walk was cut short by its budget, so
    exhaustive is False). classes counts the classes scanned; worst_witness
    is the scanned class with the largest stabilizer; first_failure is set
    on a fail verdict.
    """

    c: int
    predicate: str
    verdict: str
    worst_witness: ScanWitness | None
    first_failure: ScanWitness | None
    classes: int
    exhaustive: bool


def _structure_summary(H: PermGroup) -> str:
    if H.order() == 1:
        return "trivial"
    return " * ".join(f.name for f in composition_factors(H))


def _parse_predicate(predicate: str):
    if predicate == "solvable":
        return lambda H: YES if is_solvable(H) else NO
    head, _, d = predicate.partition(":")
    if head == "gamma" and d.isdecimal():
        return lambda H: in_gamma(H, int(d))
    raise ValueError(f"unknown predicate {predicate!r}")


def stabilizer_scan(
    G: PermGroup, c: int, predicate: str, node_budget: int = 500_000
) -> ScanReport:
    """Evaluate a conjugation-invariant predicate on the pointwise
    stabilizer of one representative tuple per orbit on distinct c-tuples.

    predicate: "solvable", or "gamma:d" for the no-alternating-section-of-
    degree->=d test (three-valued, so the verdict can be inconclusive).

    One orbit_tree walk branches over the orbits of the running stabilizer
    that avoid the prefix, so its depth-c nodes are the classes, and each
    class is tested when the walk reaches it. After node_budget nodes the
    walk stops with exhaustive=False. A failing class is a certificate, so
    the verdict is fail whenever one was reached; otherwise it is
    inconclusive if a class was unknown or the walk was cut short.
    """
    require_int("c", c, 1)
    require_int("node_budget", node_budget, 1)
    test = _parse_predicate(predicate)

    def children(prefix: tuple[int, ...], H: PermGroup) -> list[list[int]]:
        if len(prefix) == c:
            return []
        # H fixes each prefix point, so those are its singleton orbits
        return [orb for orb in H.orbits() if orb[0] not in prefix]

    worst: ScanWitness | None = None
    failure: ScanWitness | None = None
    classes = 0
    saw_unknown = False
    exhaustive = True
    for nodes, (pts, stab, _weight) in enumerate(G.orbit_tree(children), 1):
        if nodes > node_budget:
            exhaustive = False
            break
        if len(pts) < c:
            continue
        classes += 1
        order = stab.order()
        verdict = test(stab)
        if worst is None or order > worst.order:
            worst = ScanWitness(pts, order, _structure_summary(stab))
        if verdict == NO and failure is None:
            failure = ScanWitness(pts, order, _structure_summary(stab))
        elif verdict == UNKNOWN:
            saw_unknown = True
    if failure is not None:
        overall = "fail"
    elif saw_unknown or not exhaustive:
        overall = "inconclusive"
    else:
        overall = "all-pass"
    return ScanReport(c, predicate, overall, worst, failure, classes, exhaustive)


# -- distinguishing colorings ----------------------------------------------


@dataclass(frozen=True)
class DistinguishingResult:
    number: int
    coloring: tuple[int, ...]
    method: str


# groups above this order are not enumerated for the exact coloring search
_ELEM_CAP = 200_000
# distinguishing_witness above _ELEM_CAP: how many seeded random colorings
# it verifies, and their seed
_WITNESS_TRIES = 200
_PROBE_SEED = 0xD157


def verify_distinguishing(G: PermGroup, coloring) -> bool:
    """Check a coloring is preserved only by the identity, independently of
    the search that produced it: stabchain's backtrack over base images,
    never the list of prime-order elements the rigid-coloring search filters
    against. It stops at the first preserving non-identity element."""
    return not _has_preserving_element(G, coloring)


def _prime_order_elements(G: PermGroup, cap: int) -> list[tuple[Sequence[int], int]]:
    """(images, largest moved point) of one generator of each subgroup of
    prime order, sorted by largest moved point. The generators come from
    StabilizerChain.prime_order_generators, which scans one coset per
    suborbit at each level of the chain instead of every element, and
    keeps, of the p - 1 generators of each subgroup, the one mapping the
    first base point it moves to the least other point of that point's
    cycle. All of them preserve the same colorings and move the same
    points, so the list still decides rigidity and the coloring search
    finds the same first coloring.
    """
    if G.order() > cap:
        raise ResourceLimit(
            f"group order {G.order()} exceeds the exact-coloring element cap {cap};"
            " use distinguishing_witness for an upper bound"
        )
    rows = []
    for images in G.chain().prime_order_generators():
        last = len(images) - 1
        while images[last] == last:
            last -= 1
        rows.append((images, last))
    # ordered by largest moved point, so each done mask is a low-bit run
    rows.sort(key=itemgetter(1))
    return rows


def _coloring_tables(n: int, rows: list) -> tuple[list[list[int]], list[int]]:
    """Bitmasks over the rows _prime_order_elements returns, bit k for
    rows[k]: pairs[i][j], for j < i, holds the rows mapping i to j or j to
    i (a row with g(x) = y != x sets its bit in pairs[max(x, y)][min(x, y)]),
    and done[i] the rows whose largest moved point is at most i."""
    pairs: list[list[int]] = [[0] * i for i in range(n)]
    for k, (images, _) in enumerate(rows):
        bit = 1 << k
        for x, y in enumerate(images):
            if y > x:
                pairs[y][x] |= bit
            elif y < x:
                pairs[x][y] |= bit
    lasts = [last for _, last in rows]
    return pairs, [(1 << bisect_right(lasts, i)) - 1 for i in range(n)]


def _rigid_coloring_dfs(r: int, tables: tuple, leaders=None) -> tuple[int, ...] | None:
    """First r-coloring (canonical form: color k appears only after 0..k-1)
    preserved by no listed element, or None if none exists.

    tables are the _coloring_tables of the elements of prime order; a
    nontrivial preserving subgroup always contains one, so filtering
    against them is exact. The elements that survive a partial coloring
    are one mask: coloring point i with col kills the rows in pairs[i][j]
    for every colored j of another color, and an empty mask makes every
    completion rigid. Each frame ORs its point's pair masks by color once,
    for all the colors it tries.

    Points are colored in increasing order, so once point i is colored a
    survivor in done[i] has every moved point colored and preserves every
    completion: the branch holds no rigid coloring and the next color is
    tried at once.

    leaders, the orbit_leaders of the group, add a lex-leader cut: color
    col is refused at point j when some i in leaders[j] already has a color
    above col. Every G-image of a rigid coloring is rigid, so the first
    rigid coloring c* in DFS order, which is lexicographic over canonical
    colorings, is least among the canonical forms of its G-orbit. Take h
    fixing 0..i-1 with h(i) = j: the canonical form of c*.h agrees with c*
    before i, and at i it holds c*(j) when that color is used before i and
    a new color, never below c*(i), otherwise; so c*(i) <= c*(j), and no
    prefix of c* is cut.

    Both cuts remove only branches that hold no solution or come after c*,
    and every return is rigid, so the first coloring found is the one the
    uncut search finds, and None is returned exactly when no rigid
    r-coloring exists. The walk keeps one stack frame per colored point
    rather than one interpreter frame, so the degree is not bounded by the
    recursion limit.
    """
    pairs, done = tables
    n = len(done)
    if leaders is None:
        leaders = [()] * n
    coloring = [0] * n
    # frame i: survivors before point i is colored, colors used by points
    # 0..i-1, next color to try at point i, point i's pair masks by color
    stack = [[done[-1], 0, 0, []]]
    while stack:
        i = len(stack) - 1
        frame = stack[i]
        alive, used, col, by_color = frame
        if col > used or col == r:
            stack.pop()
            continue
        frame[2] = col + 1
        coloring[i] = col
        for c, mask in enumerate(by_color):
            if c != col:
                alive &= ~mask
        if alive & done[i]:
            continue  # dead branch: this survivor preserves every completion
        if not alive:
            coloring[i + 1:] = [0] * (n - i - 1)
            return tuple(coloring)
        # every survivor moves a point past i, so i + 1 < n
        used = max(used, col + 1)
        by_color = [0] * used
        for j, mask in enumerate(pairs[i + 1]):
            by_color[coloring[j]] |= mask
        floor = max(map(coloring.__getitem__, leaders[i + 1]), default=0)
        stack.append([alive, used, floor, by_color])
    return None


def _verified_rigid_coloring(
    G: PermGroup, r: int, tables: tuple, leaders: list[list[int]]
) -> tuple[int, ...] | None:
    hit = _rigid_coloring_dfs(r, tables, leaders)
    if hit is not None and not verify_distinguishing(G, hit):
        raise AssertionError(f"search returned a non-rigid coloring {hit}")
    return hit


def distinguishing_number(G: PermGroup, elem_cap: int = _ELEM_CAP) -> DistinguishingResult:
    """Least r admitting a coloring of the points with r colors whose only
    color-preserving group element is the identity, with a witness.

    Natural symmetric and alternating actions get closed forms (a repeated
    color pair leaves a transposition, so the full symmetric group forces
    degree many colors; dropping to even permutations saves exactly one).
    Everything else is exhaustive search, so the group order is capped.
    """
    require_int("elem_cap", elem_cap, 1)
    n = G.degree
    order = G.order()
    if order == 1:
        return DistinguishingResult(1, tuple([0] * n), "closed-form")
    if order == math.factorial(n):
        witness = tuple(range(n))
        if not verify_distinguishing(G, witness):
            raise AssertionError(f"closed-form witness {witness} is not rigid")
        return DistinguishingResult(n, witness, "closed-form")
    if n >= 3 and order == math.factorial(n) // 2:
        witness = tuple(range(n - 1)) + (n - 2,)
        if not verify_distinguishing(G, witness):
            raise AssertionError(f"closed-form witness {witness} is not rigid")
        return DistinguishingResult(n - 1, witness, "closed-form")
    tables = _coloring_tables(n, _prime_order_elements(G, elem_cap))
    leaders = orbit_leaders(G)
    for r in range(2, n + 1):
        hit = _verified_rigid_coloring(G, r, tables, leaders)
        if hit is not None:
            return DistinguishingResult(r, hit, "exhausted")
    raise AssertionError("coloring all points distinctly is always rigid")


def distinguishing_witness(G: PermGroup, r: int) -> tuple[int, ...] | None:
    """A verified r-coloring preserved only by the identity, or None.

    Groups of order up to _ELEM_CAP get the deterministic exhaustive
    search. Larger ones fall back to _WITNESS_TRIES seeded random colorings,
    then to coloring a base with fresh colors (rigid whenever the base fits
    in r - 1 colors). Every coloring returned has passed verify_distinguishing.
    Establishes an upper bound only; None does not prove impossibility.
    """
    n = G.degree
    require_int("r", r, 1)
    if G.order() == 1:
        return tuple([0] * n)
    if r == 1:
        return None  # every element preserves the one 1-coloring
    if G.order() <= _ELEM_CAP:
        tables = _coloring_tables(n, _prime_order_elements(G, _ELEM_CAP))
        return _verified_rigid_coloring(G, r, tables, orbit_leaders(G))
    rng = random.Random(_PROBE_SEED)
    tried = set()
    for _ in range(_WITNESS_TRIES):
        coloring = tuple(rng.randrange(r) for _ in range(n))
        if coloring not in tried and verify_distinguishing(G, coloring):
            return coloring
        tried.add(coloring)
    base = greedy_base(G).points
    if base is None:
        raise AssertionError("greedy_base returned no points")
    if len(base) < r:
        fresh = {p: i + 1 for i, p in enumerate(base)}
        coloring = tuple(fresh.get(x, 0) for x in range(n))
        if verify_distinguishing(G, coloring):
            return coloring
    return None


# -- regular tuple counting ------------------------------------------------


@dataclass(frozen=True)
class RegularCount:
    """Count of t-tuples of points whose pointwise stabilizer is trivial.

    exact is False when the search stopped early at the threshold; value is
    then a certified lower bound."""

    value: int
    t: int
    reached_threshold: bool
    exact: bool


def count_regular_tuples(
    L: PermGroup,
    t: int,
    threshold: int | None = None,
    first_point: int | None = None,
    node_budget: int = 1_000_000,
) -> RegularCount:
    """Exact number of t-tuples (repeats allowed) with trivial pointwise
    stabilizer, collapsing orbits of the running stabilizer.

    Each tree node branches over one representative per orbit and carries
    the product of orbit sizes as an exact integer weight; once the running
    stabilizer is trivial the remaining positions contribute degree ** rest
    at a stroke. The last position is counted from orbit lengths alone: by
    orbit-stabilizer a point's stabilizer in H is trivial exactly when its
    orbit has length |H|, so a node one position short of t settles its
    leaf children without building their stabilizers. Those leaves still
    count as nodes, in the preorder the walk would have reached them. With
    a threshold the search stops as soon as the running total certifies
    value >= threshold. first_point pins the first coordinate instead of
    branching over it.
    """
    require_int("t", t, 1)
    require_int("node_budget", node_budget, 1)
    if threshold is not None:
        require_int("threshold", threshold)
    n = L.degree

    def children(prefix: tuple[int, ...], H: PermGroup) -> list[list[int]]:
        # a trivial stabilizer is a leaf: its completions are counted at once;
        # the children of a node one short of t are settled in the loop below
        if len(prefix) >= t - 1 or H.order() == 1:
            return []
        return H.orbits()

    if first_point is None:
        walk = L.orbit_tree(children)
    else:
        walk = L.point_stabilizer(first_point).orbit_tree(children, (first_point,))
    total = 0
    nodes = 0
    for prefix, H, weight in walk:
        # what the node, then each leaf child it settles, adds in preorder:
        # None for a nontrivial stabilizer
        order = H.order()
        if order == 1:
            gains = [weight * n ** (t - len(prefix))]
        elif len(prefix) == t - 1:
            # by orbit-stabilizer a leaf child's stabilizer is trivial exactly
            # when its orbit has length |H|; its weight is then weight * |H|
            gains = [None] + [weight * order if len(orb) == order else None for orb in H.orbits()]
        else:
            gains = [None]
        for gain in gains:
            nodes += 1
            if nodes > node_budget:
                raise ResourceLimit(
                    "regular tuple count exceeded node budget",
                    partial=RegularCount(total, t, False, False),
                )
            if gain is not None:
                total += gain
                if threshold is not None and total >= threshold:
                    return RegularCount(total, t, True, False)
    reached = threshold is not None and total >= threshold
    return RegularCount(total, t, reached, True)
