"""Composition structure: solvability, factors, and alternating sections.

The factor descent peels a group apart by orbit kernels, block kernels,
derived subgroups, and last a proper normal subgroup N of a primitive G
that the probe finds: N is transitive, so G = N G_a (the Frattini
argument), and G/N = G_a/N_a has the factors of G_a less those of N_a.
Every step strictly reduces (degree, order). A perfect primitive G is
certified simple by its order and degree when they rule out both kinds
of minimal normal subgroup a proper N would contain (Dixon-Mortimer 1996,
Ch. 4, with Schreier's conjecture by CFSG and Burnside's p^a q^b
theorem): this settles A_n on n points, Sp(6,2) on 36 or 63 points,
L2(31) on 32 points, L3(4) and the Mathieu groups. Only the rest go to
the probe, whose choice of elements is sampled: prime-power degrees p^d
where the point stabilizer could be a perfect subgroup of GL(d, p), and
orders with three primes squared on a degree that is a proper power or
could be the order of a simple group, such as a diagonal T x T. Simple
factors are identified by order against a generated table; the one
documented order collision, at 20160, is settled by a scan of every
element for one of order 15, which A8 has and L3(4) lacks. Anything
unresolved is reported as unknown, never guessed.

Each factor carries one bracket [alt_lower, alt_upper] on its largest
alternating section, and the restricted classes Gamma_d are read from the
brackets alone: a factor is in Gamma_d when d > alt_upper, outside it when
d <= alt_lower, and unknown in between.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterator

from .fq import factorize, is_prime, require_int
from .perm import Perm, _from_images, _identity_images, left, table
from .stabchain import PermGroup, action_on_blocks, derived_subgroup, normal_closure

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class FactorDescriptor:
    """One composition factor.

    kind is one of cyclic, alternating, identified, unknown.
    [alt_lower, alt_upper] brackets the largest m with an A_m section, 4
    meaning "none for any m >= 5": lower is witnessed, and no m above upper
    is possible. The bracket is closed (lower == upper) exactly when that
    value is known; an unknown factor gets [4, alt_section_upper_bound].
    """

    kind: str
    order: int
    name: str
    alt_lower: int
    alt_upper: int
    note: str = ""

    def sort_key(self):
        return (self.order, self.kind, self.name)


def _cyclic(p: int) -> FactorDescriptor:
    return FactorDescriptor(kind="cyclic", order=p, name=f"C{p}", alt_lower=4, alt_upper=4)


def _alternating(m: int) -> FactorDescriptor:
    order = math.factorial(m) // 2
    return FactorDescriptor(kind="alternating", order=order, name=f"A{m}",
                            alt_lower=m, alt_upper=m)


def _unknown(order: int, note: str) -> FactorDescriptor:
    return FactorDescriptor(kind="unknown", order=order, name=f"?{order}", alt_lower=4,
                            alt_upper=alt_section_upper_bound(order), note=note)


# -- the simple-group order table -----------------------------------------


@lru_cache(maxsize=1)
def _table() -> dict[int, list[dict]]:
    # no fallback: read as empty, a missing table would make every factor unknown
    text = resources.files("permres.data").joinpath("simple_groups.json").read_text()
    payload = json.loads(text)
    by_order: dict[int, list[dict]] = {}
    for row in payload["groups"]:
        by_order.setdefault(row["order"], []).append(row)
    return by_order


def table_rows(order: int) -> list[dict]:
    return list(_table().get(order, []))


def _alt_degree(order: int) -> int | None:
    m, half = 5, 60
    while half < order:
        m += 1
        half = half * m
    return m if half == order else None


def alt_section_upper_bound(order: int) -> int:
    """Largest m not ruled out as an A_m section of a simple group of this order.

    Sound for simple groups only. Rules used: m!/2 must divide the order
    (sections obey Lagrange); a proper subgroup big enough to carry an A_m
    quotient has index t = order/(m!/2) at most, and the coset action embeds
    the simple group in Sym(t), so order must not exceed t!; the t = 1 route
    means the group itself is A_m, allowed only on exact order match.
    """
    upper = 4
    m = 5
    while True:
        half = math.factorial(m) // 2
        if half > order:
            break
        if order % half == 0:
            t_max = order // half
            if t_max == 1:
                viable = True  # could be A_m itself
            elif t_max >= 20:
                viable = True  # 20! already tops any order in scope
            else:
                viable = order <= math.factorial(t_max)
            if viable:
                upper = m
        m += 1
    return upper


def identify_simple(order: int, spectrum_probe=None) -> str | None:
    """Name a simple group of the given order, or None when unresolved.

    spectrum_probe(k) must say whether the group has an element of order
    k; it is consulted only for the order-20160 pair, where an element of
    order 15 separates the two candidates (A8 has one, L3(4) none).
    """
    if order < 2:
        return None
    if is_prime(order):
        return f"C{order}"
    candidates: list[str] = []
    m = _alt_degree(order)
    if m is not None and m >= 5:
        candidates.append(f"A{m}")
    rows = table_rows(order)
    for row in rows:
        if row["name"] not in candidates:
            candidates.append(row["name"])
    if not candidates:
        return None
    if len(candidates) == 1:
        return candidates[0]
    if sorted(candidates) == ["A8", "L3(4)"] and spectrum_probe is not None:
        return "A8" if spectrum_probe(15) else "L3(4)"
    return None


def _has_element_of_order(G: PermGroup, k: int) -> bool:
    """Whether some element of G has order k, by a scan of the chain's
    element images that stops at the first one; no Perm is built.

    g has order k exactly when g^k = 1 and g^j != 1 for 0 < j < k. The
    powers g^2, g^3, ... are left compositions of the raw images, and
    the walk stops at the first power that is 1, so an element of order
    below k costs only its order in compositions.
    """
    identity = _identity_images(G.degree)
    for images in G.chain().image_tuples():
        power, h = left(images), images
        for _ in range(k - 1):
            if h == identity:
                break
            h = power(table(h))
        else:
            if h == identity:
                return True
    return False


# -- derived series --------------------------------------------------------


def derived_series(G: PermGroup) -> list[PermGroup]:
    """G, G', G'', ... down to the perfect residual."""
    series = [G]
    while True:
        D = derived_subgroup(series[-1])
        if D.order() == series[-1].order():
            break
        series.append(D)
        if D.order() == 1:
            break
    return series


def is_solvable(G: PermGroup) -> bool:
    """Whether G is solvable, cached on G. A cached factor list decides it
    at once: G is solvable exactly when every factor is cyclic. Otherwise
    the derived series does."""
    if G._solvable is None:
        if G._factors is not None:
            G._solvable = all(f.kind == "cyclic" for f in G._factors)
        else:
            G._solvable = derived_series(G)[-1].order() == 1
    return G._solvable


# -- composition factor descent --------------------------------------------

# _find_proper_normal's random probes: how many, and their seed
_PROBE_SAMPLES = 64
_PROBE_SEED = 97


def composition_factors(G: PermGroup) -> list[FactorDescriptor]:
    """Composition factor multiset, sorted by (order, kind, name).

    Descent order: kernel of the action on one orbit, kernel of the action
    on a block system, derived subgroup. A perfect primitive group is
    then simple by its order and degree (_simple_by_order, certified), or
    else goes to a normal-closure probe (_find_proper_normal): a proper
    normal subgroup N found there splits G by G/N = G_a/N_a, and none
    means G is taken as simple. Factors whose order matches no table
    entry come back as kind unknown.

    A group that is_solvable has already found solvable runs no descent:
    by Jordan-Holder its factors are C_p, once for each prime power
    dividing |G|. No derived series is run just to find this out.

    The descent runs once per group: the sorted list is cached on G and
    each call returns a fresh copy of it. Its cost follows the degree, not
    the order, and no cap on the order or the degree guards it.
    """
    if G._factors is None:
        out: list[FactorDescriptor] = []
        if G._solvable:
            for p, e in factorize(G.order()).items():
                out.extend([_cyclic(p)] * e)
        else:
            _descend(G, out)
        prod = 1
        for f in out:
            prod *= f.order
        if prod != G.order():
            raise AssertionError("factor orders do not multiply to the group order")
        G._factors = sorted(out, key=FactorDescriptor.sort_key)
    return list(G._factors)


def _descend(G: PermGroup, out: list[FactorDescriptor]) -> None:
    order = G.order()
    if order == 1:
        return
    orbits = G.orbits()
    if len(orbits) > 1:
        moved = sorted(x for orb in orbits if len(orb) > 1 for x in orb)
        if len(moved) < G.degree:
            # faithful on its moved points, and keeps a cached derived subgroup
            _descend(G.restriction(moved), out)
            return
        first = orbits[0]
        rest = [x for orb in orbits[1:] for x in orb]
        image = G.restriction(first)
        kernel = G.pointwise_stabilizer(first).restriction(sorted(rest))
        _descend(image, out)
        _descend(kernel, out)
        return
    system = G.block_system()
    if system is not None:
        image, kernel = action_on_blocks(G, system)
        _descend(image, out)
        _descend(kernel, out)
        return
    D = derived_subgroup(G)
    dorder = D.order()
    if dorder < order:
        for p, e in sorted(factorize(order // dorder).items()):
            for _ in range(e):
                out.append(_cyclic(p))
        _descend(D, out)
        return
    # perfect, transitive, primitive: simple by its order and degree, or
    # else hunt for a proper normal subgroup
    N = None if _simple_by_order(order, G.degree) else _find_proper_normal(G)
    if N is None:
        out.append(_simple_descriptor(G))
        return
    # G is primitive, so N is transitive and G/N = G_a/N_a (Frattini)
    _descend(N, out)
    rest = composition_factors(G.point_stabilizer(0))
    for f in composition_factors(N.point_stabilizer(0)):
        if f not in rest:
            raise AssertionError("a factor of N_a is not a factor of G_a")
        rest.remove(f)
    out.extend(rest)


def _could_be_simple_order(n: int) -> bool:
    """Whether n could be a multiple of |T| for a nonabelian simple group
    T; False proves it is not. |T| is at least 60, has three prime divisors
    (Burnside's p^a q^b theorem), and is divisible by 4: it is even
    (Feit-Thompson), and a cyclic Sylow 2-subgroup would give T a normal
    2-complement (Burnside's transfer theorem). So is every multiple."""
    return n >= 60 and n % 4 == 0 and len(factorize(n)) >= 3


def _simple_by_order(order: int, degree: int) -> bool:
    """Whether every perfect primitive group of this order and degree is
    simple; False decides nothing (Dixon-Mortimer 1996, Ch. 4).

    A group of order n!/2 on n >= 5 points is A_n, the only subgroup of
    index 2 in S_n. Otherwise a proper nontrivial normal subgroup of such a
    G contains a minimal normal subgroup M of G, and M is transitive.
    (a) If M is abelian, it is regular, so degree = p^d and G_a = G/M is a
    nontrivial perfect subgroup of GL(d, p): d >= 2, |G_a| divides
    |GL(d, p)|, and some nonabelian simple order divides |G_a|, which
    _could_be_simple_order then admits. (b) If M = T^k with T nonabelian
    simple, k = 1 and C_G(M) = 1 would put G inside Aut(T) with G/T
    solvable (Schreier's conjecture, by CFSG) and perfect, so G = M.
    Otherwise G has O'Nan-Scott type HS, HC, SD, CD, PA or TW (Liebeck-
    Praeger-Saxl 1988), and:
    - |T|^2 divides |G|, and |T| has three prime divisors (Burnside's
      p^a q^b theorem), so three primes divide |G| squared;
    - the degree is |T| (HS, and SD with two factors) or a proper power:
      m^l with l >= 2 for PA, |T|^j with j >= 2 for the others.
    """
    if _alt_degree(order) == degree:
        return True
    powers = factorize(degree)
    if ((math.gcd(*powers.values()) >= 2 or _could_be_simple_order(degree))
            and sum(e >= 2 for e in factorize(order).values()) >= 3):
        return False
    if len(powers) == 1:
        ((p, d),) = powers.items()
        stabilizer = order // degree
        gl_order = math.prod(p**d - p**i for i in range(d))
        if d >= 2 and _could_be_simple_order(stabilizer) and gl_order % stabilizer == 0:
            return False
    return True


def _prime_order_powers(g: Perm) -> list[Perm]:
    """g^(o/p) for each prime p dividing the order o of g, read off its
    cycles: a cycle of length l sends its i-th point to its (i + k mod l)-th
    under g^k."""
    cycles = g.cycles()
    order = math.lcm(*map(len, cycles))
    out = []
    for p in sorted(factorize(order)):
        k = order // p
        images = list(range(g.degree))
        for c in cycles:
            for i, x in enumerate(c):
                images[x] = c[(i + k) % len(c)]
        out.append(_from_images(images))
    return out


def _probes(G: PermGroup) -> Iterator[Perm]:
    # built only as far as _find_proper_normal reads them
    yield from G.gens
    for i, a in enumerate(G.gens):
        for b in G.gens[i + 1:]:
            yield a * b
    rng, chain = random.Random(_PROBE_SEED), G.chain()
    for _ in range(_PROBE_SAMPLES):
        g = chain.random_element(rng)
        yield g
        yield from _prime_order_powers(g)


def _find_proper_normal(G: PermGroup) -> PermGroup | None:
    """A proper nontrivial normal subgroup, or None if none was found.

    The descent calls it only on the perfect primitive groups that
    _simple_by_order refuses: degree p^d with |G_a| dividing |GL(d, p)|,
    such as ASL(3,2) or 2^4:A6, or a degree that is a proper power or could
    be a simple order, with three primes squared in |G|, such as a diagonal
    T x T. The probes are every generator, pairwise generator products, and
    seeded random elements, each followed by its powers of prime order: a
    power of (a, b) in T x T lands in T x 1 when some prime divides the
    order of a to a higher power than that of b. Each probe's normal_closure stops, and is G itself,
    once its chain reaches |G|. All closures full is strong evidence of
    simplicity but not a proof for adversarial generating sets; a wrong
    survivor is caught later when its order matches nothing and it reports
    as unknown.
    """
    order = G.order()
    seen = set()
    for z in _probes(G):
        if z.is_identity() or z.images in seen:
            continue
        seen.add(z.images)
        N = normal_closure(G, [z])
        if 1 < N.order() < order:
            return N
    return None


def _simple_descriptor(G: PermGroup) -> FactorDescriptor:
    order = G.order()
    name = identify_simple(order, spectrum_probe=lambda k: _has_element_of_order(G, k))
    if name is None:
        return _unknown(order, "no unique order match")
    if name.startswith("A") and name[1:].isdigit():
        return _alternating(int(name[1:]))
    if name.startswith("C") and name[1:].isdigit():
        return _cyclic(int(name[1:]))
    row = next(r for r in table_rows(order) if r["name"] == name)
    return FactorDescriptor(kind="identified", order=order, name=name,
                            alt_lower=row["alt_lower"], alt_upper=row["alt_upper"])


# -- alternating sections and the restricted classes -----------------------


def max_alternating_section(f: FactorDescriptor) -> int | None:
    """Largest m >= 5 with an A_m section, 4 if none, None if unresolved:
    the closed bracket's value, never one for an unknown factor."""
    if f.kind != "unknown" and f.alt_lower == f.alt_upper:
        return f.alt_lower
    return None


def _factor_in_gamma(f: FactorDescriptor, d: int) -> str:
    if d <= f.alt_lower:
        return NO
    if d > f.alt_upper:
        return YES
    return UNKNOWN


def in_gamma(G: PermGroup, d: int) -> str:
    """Three-valued test: does every composition factor avoid A_d sections?

    Factor closure under subgroups, quotients, and extensions reduces the
    question to the factor multiset; that reduction is this library's own
    bookkeeping, not a quoted result.
    """
    require_int("d", d, 5)  # the restricted classes start at d = 5
    verdicts = [_factor_in_gamma(f, d) for f in composition_factors(G)]
    if any(v == NO for v in verdicts):
        return NO
    if all(v == YES for v in verdicts):
        return YES
    return UNKNOWN


def gamma_profile(G: PermGroup) -> dict:
    """Smallest d with a certified yes, plus how tight the certificate is.

    Every factor answers yes exactly when d exceeds its alt_upper, so the
    smallest such d >= 5 is one past the largest upper bound, however
    large that is.
    """
    factors = composition_factors(G)
    certified = max(5, max((f.alt_upper for f in factors), default=4) + 1)
    exact = all(max_alternating_section(f) is not None for f in factors)
    return {"min_certified_d": certified, "tight": exact}
