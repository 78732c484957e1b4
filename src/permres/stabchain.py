"""Stabilizer chains and the groups built on them.

Deterministic Schreier-Sims with explicit permutation transversals. Base
points are chosen as the smallest point in the largest remaining orbit
unless a base hint pins them down. Every search and orbit walk uses fixed
tie-breaks, so identical inputs give identical chains.

Point stabilizers are read off the group's own chain, one point at a
time. The stabilizer of the top level's point beta is the chain's tail;
that of a point p = beta^u in beta's basic orbit is the tail conjugated
by u, since G_p = (G_beta)^u, the cheap case of base change (Seress,
Permutation Group Algorithms, 2003, Ch. 5); a point fixed by the group
leaves it as it is. None of these runs Schreier-Sims. Only a point
outside the first basic orbit that the group moves costs one run, hinted
with the points still to stabilize and stopped at the known order: a base
and strong generating set whose basic orbits multiply to the group order
is complete (Seress, Ch. 4). A normal closure in a group with a chain
stops the same way once it reaches the group's order, and is then the
group itself.

Schreier-Sims is one sweep, _close, over one counter per orbit point
(see _Level). Each level's orbit is closed under that level's generators
at all times: a generator is installed by _Level.add, which closes the
orbit under it at once, so a sift or the sweep never finds an orbit to
finish.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .fq import is_prime, require_int
from .perm import Perm, _from_images, _identity_images, iter_alt_gens, iter_sym_gens, left, table


class ResourceLimit(RuntimeError):
    """A configured budget was exceeded; carries any partial result."""

    def __init__(self, message: str, partial: object = None):
        super().__init__(message)
        self.partial = partial


class _Level:
    # The orbit is closed under gens: only add() appends to gens.
    # done[k]: orbit[k] has been paired with gens[:done[k]] and each pair's
    # Schreier generator sifted; the list grows with the orbit.
    __slots__ = ("point", "gens", "orbit", "transversal", "tinv", "done")

    def __init__(self, point: int, identity: Perm):
        self.point = point
        self.gens: list[Perm] = []
        self.orbit: list[int] = [point]
        self.transversal: dict[int, Perm] = {point: identity}
        # inverses of transversal elements, filled in on first read
        self.tinv: dict[int, Perm] = {point: identity}
        self.done: list[int] = [0]

    def inverse(self, beta: int) -> Perm:
        """Inverse of the transversal element for beta, computed once."""
        u = self.tinv.get(beta)
        if u is None:
            u = self.tinv[beta] = self.transversal[beta].inv()
        return u

    def add(self, g: Perm) -> None:
        """Append g and close the orbit under it: the old points, already
        closed under the other gens, meet only g; new points meet all."""
        gens, orbit, transversal = self.gens, self.orbit, self.transversal
        gens.append(g)
        only_g = (g,)
        old = len(orbit)
        # the loop also walks the points appended while it runs
        for idx, beta in enumerate(orbit):
            u = transversal[beta]
            for s in only_g if idx < old else gens:
                gamma = s.images[beta]
                if gamma not in transversal:
                    transversal[gamma] = u * s
                    orbit.append(gamma)
        self.done += [0] * (len(orbit) - old)


class StabilizerChain:
    """Base, strong generators, and explicit transversals for a group.

    order, when given, is the order of the group the generators generate;
    construction then stops as soon as the chain reaches it. Only the
    construction uses it: a later extend closes the chain fully.
    """

    def __init__(
        self,
        degree: int,
        gens: Iterable[Perm] = (),
        base_hint: Sequence[int] = (),
        order: int | None = None,
    ):
        self.degree = degree
        self.identity = Perm.identity(degree)
        self.levels: list[_Level] = []
        seen = set()
        for b in base_hint:
            if not 0 <= b < degree:
                raise ValueError(f"base hint point {b} out of range")
            if b not in seen:
                seen.add(b)
                self.levels.append(_Level(b, self.identity))
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            residue, j = self._sift(g, 0)
            if not residue.is_identity():
                self._install(residue, j)
        self._close(order)

    def tail(self, k: int) -> "StabilizerChain":
        """Chain of the stabilizer of the first k base points: this chain's
        levels k and below, shared, not copied. Runs no Schreier-Sims."""
        return self._on_levels(self.levels[k:])

    def _on_levels(self, levels: list[_Level]) -> "StabilizerChain":
        # a chain on the given levels, built without __init__, so that
        # stabchain.chains_built counts only Schreier-Sims runs
        sub = object.__new__(StabilizerChain)
        sub.degree = self.degree
        sub.identity = self.identity
        sub.levels = levels
        return sub

    def conjugate(self, u: Perm) -> "StabilizerChain":
        """Chain of the conjugate group u^-1 G u, whose base is the image of
        this chain's base under u. Runs no Schreier-Sims: each strong
        generator is conjugated once, so the levels' generator lists stay
        nested by identity, each orbit keeps its order mapped through u,
        and each transversal element t becomes u^-1 t u."""
        u_inv, img = u.inv(), u.images
        conj: dict[int, Perm] = {}  # id of a strong generator -> its conjugate
        levels = []
        for lvl in self.levels:
            new = object.__new__(_Level)
            new.point = img[lvl.point]
            gens = []
            for g in lvl.gens:
                h = conj.get(id(g))
                if h is None:
                    h = conj[id(g)] = u_inv * g * u
                gens.append(h)
            new.gens = gens
            new.orbit = [img[b] for b in lvl.orbit]
            new.transversal = {
                img[b]: self.identity if b == lvl.point else u_inv * t * u
                for b, t in lvl.transversal.items()}
            new.tinv = {new.point: self.identity}
            new.done = list(lvl.done)
            levels.append(new)
        return self._on_levels(levels)

    # -- construction ----------------------------------------------------

    def extend(self, g: Perm, order: int | None = None) -> bool:
        """Add one generator; returns True if the group grew.

        order, when given, is the order of a group known to contain every
        element added so far. Closing then stops once the basic orbits
        multiply to it: they never multiply to more than the order of the
        group generated, so the chain is then complete and that group is
        the whole overgroup. A chain that falls short closes fully, as
        without order."""
        residue, j = self._sift(g, 0)
        if residue.is_identity():
            return False
        self._install(residue, j)
        self._close(order)
        return True

    def _sift(self, g: Perm, start: int) -> tuple[Perm, int]:
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            beta = g.images[lvl.point]
            if beta not in lvl.transversal:
                return g, i
            if beta != lvl.point:
                g = g * lvl.inverse(beta)
        return g, len(self.levels)

    def _install(self, g: Perm, j: int) -> None:
        # g fixes the base prefix before level j and moves level j's point
        if j == len(self.levels):
            self.levels.append(_Level(self._pick_point(g), self.identity))
        for i in range(j + 1):
            self.levels[i].add(g)

    def _pick_point(self, g: Perm) -> int:
        # smallest point in the largest cycle; cycles() lists each cycle from
        # its least point, by that point, and max keeps the first longest one
        return max(g.cycles(), key=len)[0]

    def _close(self, target: int | None = None) -> None:
        # The one sweep: walk up from the deepest level, sifting the Schreier
        # generator of every pair that done has not reached (an install has
        # already closed the orbits it grew) and, once a level that installed
        # is finished, restart at the deepest level. Ends when a walk installs
        # nothing or the basic orbits multiply to the target: each is at most
        # the index of the next stabilizer, so that product forces every
        # orbit and every level's group to be complete.
        if self.order() == target:
            return
        i = len(self.levels) - 1
        while i >= 0:
            lvl = self.levels[i]
            orbit, gens, done = lvl.orbit, lvl.gens, lvl.done
            installed = False
            for k, beta in enumerate(orbit):  # orbit grows with each install
                while done[k] < len(gens):
                    s = gens[done[k]]
                    done[k] += 1
                    sch = lvl.transversal[beta] * s * lvl.inverse(s.images[beta])
                    if sch.is_identity():
                        continue
                    residue, j = self._sift(sch, i + 1)
                    if residue.is_identity():
                        continue
                    self._install(residue, j)
                    if self.order() == target:
                        return
                    installed = True
            i = len(self.levels) - 1 if installed else i - 1

    # -- queries ---------------------------------------------------------

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lvl.point for lvl in self.levels)

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.orbit)
        return n

    def contains(self, g: Perm) -> bool:
        if g.degree != self.degree:
            return False
        residue, _ = self._sift(g, 0)
        return residue.is_identity()

    def gens_fixing_prefix(self, k: int) -> list[Perm]:
        """Strong generators of the stabilizer of the first k base points."""
        if k >= len(self.levels):
            return []
        return list(self.levels[k].gens)

    def canonical_coset_rep(self, g: Perm) -> Perm:
        """The canonical element of the right coset Hg, H this chain's group:
        the one whose images of the base points, in base order, are least.
        They are minimized level by level, and the result is unique because
        only the identity of H fixes every base point."""
        for lvl in self.levels:
            best = min(lvl.transversal, key=g.images.__getitem__)
            if best != lvl.point:
                g = lvl.transversal[best] * g
        return g

    def image_tuples(self) -> Iterator[Sequence[int]]:
        """Images of all elements, lazily: u_(k-1) * ... * u_0 with one
        transversal element u_i per level, the deepest level's choice
        varying slowest and every level's in orbit order. Each level's
        prefix product is composed once and shared by all its extensions,
        and each product is one left call on a table built once."""
        rows = [[lvl.transversal[b].images for b in lvl.orbit] for lvl in self.levels]
        if len(rows) <= 1:
            yield from rows[0] if rows else (self.identity.images,)
            return
        # every level but the deepest is only ever a right operand
        tables = [list(map(table, row)) for row in rows[:-1]]
        # one iterator per level, over that level's prefix products
        stack = [iter(rows[-1])]
        while stack:
            prefix = next(stack[-1], None)
            if prefix is None:
                stack.pop()
                continue
            i = len(rows) - len(stack)
            step = map(left(prefix), tables[i - 1])
            if i == 1:
                yield from step
            else:
                stack.append(step)

    def prime_order_generators(self) -> list[Sequence[int]]:
        """Images of one generator of each subgroup of prime order, found
        level by level from one coset per suborbit. No Perm is composed:
        every product is one left call on raw images.

        At level i, with base point b, basic orbit O and H = G^(i+1) the
        stabilizer of b in G^(i), the elements of G^(i) that move b map it
        into O - {b}, and those mapping b to r form the coset of the s * u_r
        with s in H, u_r the transversal element for r. Conjugating by
        h in H fixes b and carries that coset onto the one for r^h, so fix
        one representative r of each H-orbit on O - {b} and, for each point
        r' of its orbit, one h in H with r^h = r'. Every element y of G^(i)
        moving b is then h^-1 x h for exactly one triple (r, h, x): r is the
        representative of b^y's orbit, h the chosen element for b^y, and
        x = h y h^-1, which lies in r's coset. Each element of G other than
        the identity moves a first base point, so it is reached at exactly
        one level, once. Conjugation keeps the order, so only the x of
        prime order in each representative coset are powered: b's x-cycle
        has prime length p and x^p = 1.

        The elements of a subgroup K of prime order p all first move the
        same base point b, and b's K-orbit has p points. Exactly one of the
        p - 1 generators of K maps b to the least point of that orbit other
        than b. For y = h^-1 x h, b^y = r^h and b's y-cycle is the h-image
        of its x-cycle, so y is kept exactly when r^h is below the h-images
        of the other points of b's x-cycle besides b. One image sequence per
        subgroup of prime order comes back, in a fixed order.
        """
        identity = _identity_images(self.degree)
        out: list[Sequence[int]] = []
        for i, lvl in enumerate(self.levels):
            b = lvl.point
            if len(lvl.orbit) == 1:
                continue
            # b's cycle lies in O, so no prime above |O| is a cycle length
            primes = {p for p in range(2, len(lvl.orbit) + 1) if is_prime(p)}
            # per suborbit: r, u_r's table, and each h with its table and
            # a map applying h^-1 first
            cosets = [(r, table(lvl.transversal[r].images),
                       [(h, table(h), left(h_inv)) for h, h_inv in reached])
                      for r, reached in self._suborbit_transversals(i)]
            for s in self.tail(i + 1).image_tuples():
                times_s = left(s)
                for r, u, reached in cosets:
                    x = times_s(u)
                    rest = []  # the points of b's x-cycle after r
                    y = x[r]
                    while y != b:
                        rest.append(y)
                        y = x[y]
                    p = len(rest) + 2
                    if p not in primes:
                        continue
                    power, z = left(x), x
                    for _ in range(p - 1):
                        z = power(table(z))
                    if z != identity:
                        continue
                    for h, h_table, after_h_inv in reached:
                        if not rest or min(map(h.__getitem__, rest)) > h[r]:
                            out.append(after_h_inv(table(power(h_table))))  # h^-1 x h
        return out

    def _suborbit_transversals(self, i: int) -> list[tuple[int, list]]:
        """One (r, reached) per orbit of H = G^(i+1) on level i's basic
        orbit minus its point, in orbit order: r is the orbit's first point,
        and reached holds (h, h^-1) as images, one h in H for each point of
        the orbit, with r^h that point; r's own h is the identity."""
        lvl = self.levels[i]
        identity = _identity_images(self.degree)
        # each generator as a right operand, its inverse as a left one
        gens = [(table(g.images), left(g.inv().images)) for g in self.gens_fixing_prefix(i + 1)]
        out = []
        seen = {lvl.point}
        for r in lvl.orbit:
            if r in seen:
                continue
            seen.add(r)
            reached = [(identity, identity)]
            for h, h_inv in reached:  # grows while it is walked
                for g, after_g_inv in gens:
                    w = g[h[r]]
                    if w not in seen:
                        seen.add(w)
                        reached.append((left(h)(g), after_g_inv(table(h_inv))))
            out.append((r, reached))
        return out

    def elements(self, limit: int | None = None) -> Iterator[Perm]:
        """All elements, in image_tuples order. Guarded by limit if given."""
        if limit is not None and self.order() > limit:
            raise ResourceLimit(f"element enumeration of order {self.order()} exceeds limit {limit}")
        return map(_from_images, self.image_tuples())

    def random_element(self, rng) -> Perm:
        """Uniform element via one transversal representative per level."""
        g = self.identity
        for lvl in reversed(self.levels):
            beta = lvl.orbit[rng.randrange(len(lvl.orbit))]
            g = g * lvl.transversal[beta]
        return g

    def verify(self) -> None:
        """Deterministic re-check of every chain invariant; raises on failure."""
        for i, lvl in enumerate(self.levels):
            for g in lvl.gens:
                for j in range(i):
                    if g.images[self.levels[j].point] != self.levels[j].point:
                        raise AssertionError("strong generator moves an earlier base point")
            if i + 1 < len(self.levels):
                deeper = set(map(id, self.levels[i + 1].gens))
                if not deeper <= set(map(id, lvl.gens)):
                    raise AssertionError("generator lists are not nested")
            for beta, u in lvl.transversal.items():
                if u.images[lvl.point] != beta:
                    raise AssertionError("transversal representative maps base point wrongly")
            for beta in lvl.orbit:
                for s in lvl.gens:
                    gamma = s.images[beta]
                    if gamma not in lvl.transversal:
                        raise AssertionError("orbit not closed")
                    sch = lvl.transversal[beta] * s * lvl.inverse(gamma)
                    residue, _ = self._sift(sch, i + 1)
                    if not residue.is_identity():
                        raise AssertionError("Schreier generator fails to sift to identity")


class PermGroup:
    """A permutation group given by generators, with a cached chain.

    order_bound, when set, is the order of a group known to contain every
    generator, never an estimate. The first chain built without a base
    hint stops once its basic orbits multiply to it: they never multiply
    to more than the order of the group generated, so that chain is then
    complete. A bound the chain falls short of costs only time, as the
    chain then closes fully.
    """

    def __init__(self, degree: int, gens: Sequence[Perm], label: str | None = None):
        self.degree = degree
        self.gens = [g for g in gens if not g.is_identity()]
        for g in self.gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self.label = label
        self.order_bound: int | None = None
        self._chain: StabilizerChain | None = None
        # sorted composition factors, filled in by structure.composition_factors
        self._factors: list | None = None
        # whether the group is solvable, filled in by structure.is_solvable
        self._solvable: bool | None = None
        # the derived subgroup, filled in by derived_subgroup
        self._derived: PermGroup | None = None

    @classmethod
    def trivial(cls, degree: int, label: str | None = None) -> "PermGroup":
        return cls(degree, [], label)

    @classmethod
    def symmetric(cls, m: int) -> "PermGroup":
        return cls(m, list(iter_sym_gens(m)), label=f"Sym({m})")

    @classmethod
    def alternating(cls, m: int) -> "PermGroup":
        return cls(m, list(iter_alt_gens(m)), label=f"Alt({m})")

    def chain(self, base_hint: Sequence[int] = ()) -> StabilizerChain:
        """The cached chain, built to order_bound, or a new one whose base
        starts with base_hint, built to the cached chain's order when there
        is one and to order_bound when there is not."""
        if base_hint:
            order = self.order_bound if self._chain is None else self._chain.order()
            return StabilizerChain(self.degree, self.gens, base_hint=base_hint, order=order)
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.gens, order=self.order_bound)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def contains(self, g: Perm) -> bool:
        return self.chain().contains(g)

    def elements(self, limit: int | None = 10 ** 7) -> list[Perm]:
        return list(self.chain().elements(limit=limit))

    # -- orbits and blocks -----------------------------------------------

    def orbits(self) -> list[list[int]]:
        """Orbits on points, each sorted, ordered by smallest element."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            orb = [start]
            seen[start] = True
            idx = 0
            while idx < len(orb):
                x = orb[idx]
                for g in self.gens:
                    y = g.images[x]
                    if not seen[y]:
                        seen[y] = True
                        orb.append(y)
                idx += 1
            out.append(sorted(orb))
        return out

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def block_system(self) -> tuple[tuple[int, ...], ...] | None:
        """A nontrivial block system, or None when there is none.

        The group must be transitive. The blocks are sorted and ordered by
        smallest element. Every nontrivial system has a block through 0 and
        some b != 0, and so is refined by the finest congruence of (0, b)
        (Atkinson 1975); that congruence is the same for (0, b^h) with h
        fixing 0, so one b per orbit of the stabilizer of 0 is tried, in
        order, and the first congruence with more than one block is the one
        returned.
        """
        if not self.is_transitive():
            raise ValueError("block systems require a transitive group")
        # the first suborbit is {0}
        for orb in self.point_stabilizer(0).orbits()[1:]:
            part = self._finest_congruence(0, orb[0])
            blocks = {}
            for x in range(self.degree):
                blocks.setdefault(part[x], []).append(x)
            if len(blocks) > 1:
                return tuple(map(tuple, blocks.values()))
        return None

    def _finest_congruence(self, a: int, b: int) -> list[int]:
        n = self.degree
        parent = list(range(n))

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        def union(x: int, y: int) -> None:
            rx, ry = find(x), find(y)
            if rx > ry:
                rx, ry = ry, rx
            parent[ry] = rx

        union(a, b)
        work = [(a, b)]
        while work:
            x, y = work.pop()
            for g in self.gens:
                u, v = find(g.images[x]), find(g.images[y])
                if u != v:
                    union(u, v)
                    work.append((u, v))
        return [find(x) for x in range(n)]

    def is_primitive(self) -> bool:
        """Transitive with no nontrivial block system. Degree 1 counts."""
        return self.is_transitive() and self.block_system() is None

    # -- stabilizers -----------------------------------------------------

    def point_stabilizer(self, point: int) -> "PermGroup":
        return self.pointwise_stabilizer((point,))

    def pointwise_stabilizer(self, points: Sequence[int]) -> "PermGroup":
        """Stabilizer of each of the points, read off this group's own chain.

        The points are peeled off one at a time, with beta the point of the
        current chain's top level. For p = beta the stabilizer's chain is the
        tail below that level; for p in beta's basic orbit it is that tail
        conjugated by the transversal element u taking beta to p, since
        G_p = (G_beta)^u; for a p that every generator fixes it is the
        current chain itself. None of these runs Schreier-Sims. Any other
        point (one in another orbit) falls back to one hinted run for the
        points that are left, stopped at the current group's known order.
        The returned group keeps the chain so reached, so its order and
        membership tests run no second Schreier-Sims."""
        for p in points:
            require_int("point", p)
            if not 0 <= p < self.degree:
                raise ValueError(f"point {p} out of range for degree {self.degree}")
        pts = list(dict.fromkeys(points))  # first occurrences, in order
        chain, gens = self.chain(), self.gens
        for i, p in enumerate(pts):
            if not chain.levels:
                break  # the trivial group fixes every point
            top = chain.levels[0]
            if p == top.point:
                chain = chain.tail(1)
            elif p in top.transversal:
                chain = chain.tail(1).conjugate(top.transversal[p])
            elif all(g.images[p] == p for g in gens):
                continue
            else:
                rest = pts[i:]
                hinted = StabilizerChain(self.degree, gens, base_hint=rest, order=chain.order())
                chain = hinted.tail(len(rest))  # it fixes the later points
            gens = chain.gens_fixing_prefix(0)
        stab = PermGroup(self.degree, gens)
        # a tail shares _Level objects with the chain it was cut from, and a
        # fixed point shares the whole chain; nothing extends a group's
        # cached chain, and that must stay so, or an extend would reach into
        # both. The rule holds across manifest checks too: checks on one
        # recipe share one group.
        stab._chain = chain
        return stab

    def restriction(self, points: Sequence[int]) -> "PermGroup":
        """Action on an invariant point set, relabeled to 0..len-1.

        When the group fixes every point left out, the action is faithful
        and a derived subgroup already found comes along, restricted the
        same way, so it is not built again."""
        index = {p: i for i, p in enumerate(points)}
        gens = []
        for g in self.gens:
            try:
                imgs = tuple(index[g.images[p]] for p in points)
            except KeyError:
                raise ValueError("point set is not invariant") from None
            gens.append(_from_images(imgs))
        out = PermGroup(len(points), gens, label=self.label)
        derived = self._derived
        if derived is not None and all(
                g.images[x] == x for g in self.gens for x in range(self.degree) if x not in index):
            out._derived = out if derived is self else derived.restriction(points)
        return out

    # -- orbit tree ------------------------------------------------------

    def orbit_tree(
        self,
        children: Callable[[tuple[int, ...], "PermGroup"], Sequence[list[int]]],
        prefix: tuple[int, ...] = (),
        weight: int = 1,
    ) -> Iterator[tuple[tuple[int, ...], "PermGroup", int]]:
        """Depth-first preorder walk over point tuples, yielding
        (prefix, H, weight) with H the pointwise stabilizer reached so far.

        This group is the root node. children(prefix, H) returns the orbits
        of H to branch into, a subsequence of H.orbits(); a child appends
        its orbit's smallest point, stabilizes that point, and multiplies
        the weight by the orbit length, so the weight is |root| / |H|. A
        child's stabilizer is built only when the walk reaches it: callers
        count their own nodes and stop with break or return. A caller may
        also leave a node's orbits out of children and settle them itself
        without building a stabilizer; it counts those nodes too.

        A child's chain is read off its parent's (see pointwise_stabilizer):
        a child whose point lies in its parent's first basic orbit, or is
        fixed by the parent, costs no Schreier-Sims run, and any other child
        one run, stopped at the parent's known order.
        """
        yield prefix, self, weight
        for orb in children(prefix, self):
            point = orb[0]
            yield from self.point_stabilizer(point).orbit_tree(
                children, prefix + (point,), weight * len(orb))


# -- chain walks of the coloring searches ----------------------------------


def orbit_leaders(G: PermGroup) -> list[list[int]]:
    """For each point j, the points i < j whose basic orbit holds j in the
    chain on base 0, 1, ..., n - 1: the orbit of i under the pointwise
    stabilizer of 0..i-1. One hinted run, stopped at |G| once it is known."""
    leaders: list[list[int]] = [[] for _ in range(G.degree)]
    for i, lvl in enumerate(G.chain(base_hint=range(G.degree)).levels):
        for j in lvl.orbit:
            if j != i:
                leaders[j].append(i)
    return leaders


def _has_preserving_element(G: PermGroup, coloring: Sequence[int]) -> bool:
    """True when some non-identity element of G preserves the coloring.

    Depth-first search over base images with color and fixed-point pruning,
    stopping at the first leaf that is not the identity. The chain is hinted
    with every point, so most of its levels have a trivial basic orbit.
    Those levels are dropped: each has one branch, and the fixed_at table
    already checks its point. The search then walks one stack entry per
    remaining level, a depth bounded by the base length and not by the
    degree.
    """
    n = G.degree
    if len(coloring) != n:
        raise ValueError("coloring length must match degree")
    if not G.gens:
        return False

    class_size: dict[int, int] = {}
    for c in coloring:
        class_size[c] = class_size.get(c, 0) + 1
    order_key = sorted(range(n), key=lambda x: (class_size[coloring[x]], coloring[x], x))
    chain = G.chain(base_hint=order_key)  # stops at |G| when that is known
    levels = [lvl for lvl in chain.levels if len(lvl.orbit) > 1]

    # per level: points first fixed by that level's group, computed from its
    # gens; the group below the last level is trivial, so every point is
    # listed once
    fixed_at: list[list[int]] = []
    prev: set[int] = set()
    for gens in [lvl.gens for lvl in levels] + [[]]:
        fixed = set(range(n)).difference(*(g.moved() for g in gens))
        fixed_at.append(sorted(fixed - prev))
        prev |= fixed

    def branches(lvl: _Level, u: Perm) -> Iterator[Perm]:
        # the coset representatives below u that keep lvl's point's color
        color, images, transversal = coloring[lvl.point], u.images, lvl.transversal
        return (transversal[beta] * u for beta in lvl.orbit if coloring[images[beta]] == color)

    # stack[i] yields the depth-i nodes still to visit, in orbit order
    stack: list[Iterator[Perm]] = [iter([chain.identity])]
    while stack:
        u = next(stack[-1], None)
        if u is None:
            stack.pop()
            continue
        # points newly determined at this depth must keep their colors; at
        # a leaf every point has been checked
        i = len(stack) - 1
        if any(coloring[u.images[x]] != coloring[x] for x in fixed_at[i]):
            continue
        if i < len(levels):
            stack.append(branches(levels[i], u))
        elif not u.is_identity():
            return True
    return False


# -- actions with kernels -------------------------------------------------


def action_on_blocks(G: PermGroup, blocks: Sequence[Sequence[int]]) -> tuple[PermGroup, PermGroup]:
    """Induced action on a block system, with its kernel inside G.

    Each generator acts on the points and the block labels at once; the
    kernel is read off a chain whose base starts with the labels, and is
    returned as a subgroup of G in its original action. That action is a
    copy of G, so its chain stops at |G|; the label levels' orbits multiply
    to the image's order and the levels below to the kernel's, which become
    their order bounds.
    """
    n, nblocks = G.degree, len(blocks)
    where = {x: bi for bi, blk in enumerate(blocks) for x in blk}
    label_images = [tuple(where[g.images[blk[0]]] for blk in blocks) for g in G.gens]
    big_gens = [Perm([*g.images, *(n + v for v in limg)])
                for g, limg in zip(G.gens, label_images)]
    chain = StabilizerChain(n + nblocks, big_gens, base_hint=list(range(n, n + nblocks)),
                            order=G.order())
    kernel_gens = [_from_images(bg.images[:n]) for bg in chain.gens_fixing_prefix(nblocks)]
    image = PermGroup(nblocks, [_from_images(limg) for limg in label_images])
    kernel = PermGroup(n, kernel_gens)
    kernel.order_bound = chain.tail(nblocks).order()
    image.order_bound = chain.order() // kernel.order_bound
    return image, kernel


def normal_closure(G: PermGroup, seeds: Sequence[Perm]) -> PermGroup:
    """Smallest normal subgroup of G containing the seed elements.

    The returned group keeps the stabilizer chain built here, so asking it
    for its order or membership runs no second Schreier-Sims.

    When G already has a chain, its order is handed to every extend, and
    once the closure's basic orbits multiply to it G itself is returned:
    a subgroup of G of order |G| is G. A proper closure never reaches that
    order, so it is built in full. Without a cached chain no Schreier-Sims
    run is started to learn |G|.
    """
    target = None if G._chain is None else G._chain.order()
    chain = StabilizerChain(G.degree)
    conjugators = [(g.inv(), g) for g in G.gens]
    gens: list[Perm] = []
    work: list[Perm] = []

    def grew(x: Perm) -> bool:
        if not chain.extend(x, order=target):
            return False
        gens.append(x)
        work.append(x)
        return True

    for s in seeds:
        if grew(s) and chain.order() == target:
            return G
    while work:
        k = work.pop()
        for g_inv, g in conjugators:
            if grew(g_inv * k * g) and chain.order() == target:
                return G
    closure = PermGroup(G.degree, gens)
    closure._chain = chain
    return closure


def derived_subgroup(G: PermGroup) -> PermGroup:
    """The normal closure of the commutators of G's generators, built once
    per group and cached on it."""
    if G._derived is None:
        comms = []
        gs = G.gens
        for i in range(len(gs)):
            for j in range(i + 1, len(gs)):
                comms.append(gs[i].inv() * gs[j].inv() * gs[i] * gs[j])
        G._derived = normal_closure(G, comms)
    return G._derived
