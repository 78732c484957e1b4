"""Permutation actions built from matrices, cosets, and combinatorial data.

Every construction returns a LabeledAction: a permutation group together
with the list of objects its points stand for. Orbits are enumerated by
one breadth-first closure over canonical labels, which keeps the image of
every (label, generator) pair as it goes; the labels are then sorted so
that point numbering is deterministic across runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .fq import FqField, FqMatrix, SubspaceFq, subspace_filter
from .perm import Perm, _from_images, iter_alt_gens, iter_sym_gens
from .stabchain import PermGroup

if TYPE_CHECKING:
    from .classical import MatrixGroup

DEGREE_CAP = 100_000


class ConstructionError(ValueError):
    pass


@dataclass
class LabeledAction:
    group: PermGroup
    labels: list
    index: dict
    act: Callable | None = None  # (label, generator object) -> label

    @property
    def degree(self) -> int:
        return len(self.labels)

    def perm_of(self, obj) -> Perm:
        """Permutation induced by any object the stored action understands."""
        if self.act is None:
            raise ConstructionError("action does not support external objects")
        try:
            images = [self.index[self.act(lbl, obj)] for lbl in self.labels]
        except KeyError:
            raise ConstructionError("object maps a label outside the orbit") from None
        if len(set(images)) != len(images):
            raise ConstructionError("object does not permute the labels")
        return Perm(images)


def _orbit_action(seed, gens, act, label=None) -> LabeledAction:
    # one breadth-first pass: each (label, generator) image is computed
    # once, kept as the index of its label in discovery order, and every
    # index is renumbered once the orbit is closed so that labels are sorted
    found = [seed]
    where = {seed: 0}
    rows = [[] for _ in gens]
    for lbl in found:  # found grows as the orbit closes
        for row, g in zip(rows, gens):
            img = act(lbl, g)
            t = where.get(img)
            if t is None:
                if len(found) >= DEGREE_CAP:
                    raise ConstructionError(f"orbit exceeds cap {DEGREE_CAP}")
                t = where[img] = len(found)
                found.append(img)
            row.append(t)
    order = sorted(range(len(found)), key=found.__getitem__)
    new = [0] * len(found)
    for i, t in enumerate(order):
        new[t] = i
    labels = [found[t] for t in order]
    perms = [Perm([new[row[t]] for t in order]) for row in rows]
    index = {lbl: i for i, lbl in enumerate(labels)}
    return LabeledAction(PermGroup(len(labels), perms, label=label), labels, index, act)


# -- matrix orbit actions --------------------------------------------------


def _vector_act(v, M: FqMatrix):
    return M.apply(v)


def _subspace_act(field: FqField):
    def act(W: SubspaceFq, M: FqMatrix):
        return SubspaceFq.from_vectors(field, [M.apply(row) for row in W.basis])
    return act


def _check_seed_filter(grp: MatrixGroup, seed, kind: str, flt: str) -> None:
    # a vector is checked as the line it spans: it is nonsingular exactly
    # when that line is not totally isotropic
    if flt == "all":
        return
    form = grp.form
    if form is None:
        raise ConstructionError("filters need an invariant form")
    if kind == "vector":
        if flt not in ("nonsingular", "totally-isotropic"):
            raise ConstructionError(f"unknown vector filter {flt!r}")
        isotropic = subspace_filter(form, [seed]) == "totally-isotropic"
        if isotropic and flt == "nonsingular":
            raise ConstructionError("seed vector is singular")
        if not isotropic and flt == "totally-isotropic":
            raise ConstructionError("seed vector is not isotropic")
        return
    if flt not in ("totally-isotropic", "nondegenerate-plus", "nondegenerate-minus"):
        raise ConstructionError(f"unknown subspace filter {flt!r}")
    if subspace_filter(form, seed.basis) != flt:
        raise ConstructionError(f"seed subspace is not {flt}")


def matrix_orbit_action(grp: MatrixGroup, seed=None, kind: str = "vector",
                        flt: str = "all", k: int | None = None) -> LabeledAction:
    """Orbit of a vector or a subspace under the matrix generators.

    kind "vector": labels are row vectors, seed defaults to e_0 and may
    not be the zero vector; a k is refused.
    kind "subspace": labels are canonical subspaces, seed defaults to the
    span of the first k standard basis vectors; k must lie in 1..m-1, a
    seed must span neither 0 nor all of F_q^m, and a k given with a seed
    must be the seed's dimension.
    flt restricts the seed (all / totally-isotropic / nondegenerate-plus /
    nondegenerate-minus / nonsingular); the orbit inherits the property.

    The group's order_bound, which stops its first chain, is the matrix
    group's abstract order, less its scalars on subspaces, where they act
    trivially; a group of unknown order (abstract_order 0) gets none.
    """
    field, m = grp.field, grp.m
    if seed is not None and not isinstance(seed, SubspaceFq):
        # a vector seed is one row, a subspace seed a list of rows
        rows = [seed] if kind == "vector" else seed
        if not (isinstance(rows, (list, tuple)) and all(
                isinstance(row, (list, tuple)) and len(row) == m
                and all(type(x) is int and 0 <= x < field.q for x in row)
                for row in rows)):
            shape = "a vector" if kind == "vector" else "a list of vectors"
            raise ConstructionError(
                f"seed must be {shape} of {m} entries in 0..{field.q - 1}")
    if kind == "vector":
        if k is not None:
            raise ConstructionError(f"space vector takes no k, got {k!r}")
        if seed is None:
            seed = tuple(1 if i == 0 else 0 for i in range(m))
        else:
            seed = tuple(seed)
            if not any(seed):
                raise ConstructionError("seed vector is zero")
        act = _vector_act
    elif kind == "subspace":
        if seed is None:
            if k is None:
                raise ConstructionError("subspace kind needs a seed or k")
            if not 1 <= k < m:
                raise ConstructionError(f"subspace k must lie in 1..{m - 1}, got {k}")
            seed = SubspaceFq.from_vectors(
                field, [tuple(1 if j == i else 0 for j in range(m)) for i in range(k)])
        elif not isinstance(seed, SubspaceFq):
            seed = SubspaceFq.from_vectors(field, [tuple(v) for v in seed])
        if not 0 < seed.dim < m:
            raise ConstructionError(
                f"subspace seed spans dimension {seed.dim}, not one in 1..{m - 1}")
        if k not in (None, seed.dim):
            raise ConstructionError(f"subspace k is {k}, but the seed spans dimension {seed.dim}")
        act = _subspace_act(field)
    else:
        raise ConstructionError(f"unknown space {kind!r}")
    _check_seed_filter(grp, seed, kind, flt)
    action = _orbit_action(seed, grp.matrices, act, label=grp.label)
    order = grp.abstract_order or None
    if order and kind == "subspace":
        from .classical import scalar_kernel_order

        order //= scalar_kernel_order(grp)
    action.group.order_bound = order
    return action


def affine_action(grp: MatrixGroup) -> LabeledAction:
    """Affine group V:H on the full vector space: the orbit of the zero
    vector under the linear parts and the translations by an F_p-basis of
    V, which generate all of V. Degree q^m."""
    field, m = grp.field, grp.m
    if field.q ** m > DEGREE_CAP:
        raise ConstructionError(f"degree {field.q}^{m} exceeds cap {DEGREE_CAP}")
    # b * e_i for b in the F_p-basis 1, x, ..., x^(k-1) of F_q, the field
    # elements p^s; over a prime field that is e_i alone
    shifts = [tuple(field.p ** s if j == i else 0 for j in range(m))
              for i in range(m) for s in range(field.k)]

    def act(v, g):
        # a translation is a vector, a linear part a matrix
        return field.vec_add(v, g) if isinstance(g, tuple) else g.apply(v)

    return _orbit_action(tuple([0] * m), grp.matrices + shifts, act,
                         label=f"{field.q}^{m}:{grp.label}")


# -- coset actions ---------------------------------------------------------


def coset_action(G: PermGroup, H: PermGroup) -> LabeledAction:
    """Action of G on the right cosets of H, with canonical coset labels."""
    gchain = G.chain()
    for h in H.gens:
        if not gchain.contains(h):
            raise ConstructionError("H is not a subgroup of G")
    index_bound = gchain.order() // H.chain().order()
    if index_bound > DEGREE_CAP:
        raise ConstructionError(f"index {index_bound} exceeds cap {DEGREE_CAP}")
    hchain = H.chain()

    # a coset is labeled by the images of its canonical representative,
    # as a tuple: labels print the same at every degree
    def act(lbl, g: Perm):
        return tuple(hchain.canonical_coset_rep(_from_images(lbl) * g).images)

    seed = tuple(hchain.canonical_coset_rep(Perm.identity(G.degree)).images)
    return _orbit_action(seed, G.gens, act, label=f"[{G.label or 'G'}:{H.label or 'H'}]")


# -- symmetric-group combinatorial actions ---------------------------------


def _orbit_of_all(seed, m: int, alt: bool, act, degree: int, name: str) -> LabeledAction:
    # S_m and A_m are transitive on the k-sets and partitions asked for, so
    # the orbit of one of them lists all, and its size checks the formula
    gens = list(iter_alt_gens(m) if alt else iter_sym_gens(m))
    action = _orbit_action(seed, gens, act, label=name)
    if action.degree != degree:
        raise AssertionError(f"orbit has {action.degree} points, expected {degree}")
    return action


def subsets_action(m: int, k: int, alt: bool = False) -> LabeledAction:
    """S_m or A_m on k-element subsets of {0..m-1}. Needs 1 <= k < m/2."""
    if not 1 <= k or not 2 * k < m:
        raise ConstructionError(f"subsets need 1 <= k < m/2, got k={k}, m={m}")
    degree = math.comb(m, k)
    if degree > DEGREE_CAP:
        raise ConstructionError("degree exceeds cap")

    def act(lbl, g: Perm):
        return tuple(sorted(g.images[x] for x in lbl))

    return _orbit_of_all(tuple(range(k)), m, alt, act, degree,
                         f"{'A' if alt else 'S'}{m} on {k}-sets")


def partitions_action(m: int, k: int, alt: bool = False) -> LabeledAction:
    """S_m or A_m on partitions of {0..m-1} into m/k blocks of size k."""
    if not 1 < k or m % k or not 2 * k <= m:
        raise ConstructionError(f"partitions need k | m, 1 < k <= m/2, got k={k}, m={m}")
    n_parts = m // k
    degree = math.factorial(m) // (math.factorial(k) ** n_parts * math.factorial(n_parts))
    if degree > DEGREE_CAP:
        raise ConstructionError("degree exceeds cap")

    def act(lbl, g: Perm):
        blocks = [tuple(sorted(g.images[x] for x in blk)) for blk in lbl]
        return tuple(sorted(blocks))

    seed = tuple(tuple(range(i, i + k)) for i in range(0, m, k))
    return _orbit_of_all(seed, m, alt, act, degree,
                         f"{'A' if alt else 'S'}{m} on {k}-part partitions")


# -- wreath products -------------------------------------------------------


def wreath_imprimitive(L: PermGroup, P: PermGroup) -> LabeledAction:
    """L wr P acting on blocks: degree deg(L) * deg(P)."""
    d, k = L.degree, P.degree
    if d * k > DEGREE_CAP:
        raise ConstructionError("degree exceeds cap")
    labels = [(i, x) for i in range(k) for x in range(d)]
    index = {lbl: t for t, lbl in enumerate(labels)}
    perms = []
    for i in range(k):
        for g in L.gens:
            images = [index[(j, g.images[x] if j == i else x)] for (j, x) in labels]
            perms.append(Perm(images))
    for p in P.gens:
        images = [index[(p.images[j], x)] for (j, x) in labels]
        perms.append(Perm(images))
    group = PermGroup(d * k, perms, label=f"{L.label or 'L'} wr {P.label or 'P'}")
    return LabeledAction(group, labels, index)


def wreath_product_action(L: PermGroup, P: PermGroup) -> LabeledAction:
    """L wr P in the product action: degree deg(L)^deg(P), labels tuples."""
    d, k = L.degree, P.degree
    if d ** k > DEGREE_CAP:
        raise ConstructionError("degree exceeds cap")
    labels = sorted(itertools.product(range(d), repeat=k))
    index = {lbl: t for t, lbl in enumerate(labels)}
    perms = []
    for i in range(k):
        for g in L.gens:
            images = []
            for lbl in labels:
                new = list(lbl)
                new[i] = g.images[lbl[i]]
                images.append(index[tuple(new)])
            perms.append(Perm(images))
    for p in P.gens:
        pinv = p.inv()
        images = []
        for lbl in labels:
            images.append(index[tuple(lbl[pinv.images[j]] for j in range(k))])
        perms.append(Perm(images))
    group = PermGroup(d ** k, perms,
                      label=f"{L.label or 'L'} wr {P.label or 'P'} (product)")
    return LabeledAction(group, labels, index)


# -- diagonal type ---------------------------------------------------------


def diagonal_type_group(T: PermGroup, include_swap: bool = True,
                        outer: Perm | None = None) -> LabeledAction:
    """Group between T x T and its extensions, acting on the right cosets
    of the diagonal (Dixon-Mortimer, Permutation Groups, 1996, Sec. 4.5).

    T x T, and with include_swap the swap of its factors, act on two
    copies of T's points as in T wr S2; outer, when given, is a permutation
    normalizing T that acts on both copies. The point stabilizer is
    generated by the diagonal elements (t, t), the swap and outer, so the
    coset of (a, b) stands for a^-1 b in T, on which (a, b) acts by
    t -> a^-1 t b, the swap by inversion and outer by conjugation.
    """
    d = T.degree
    if outer is not None:
        if outer.degree != d:
            raise ConstructionError(f"outer map has degree {outer.degree}, T has {d}")
        oinv, chain = outer.inv(), T.chain()
        if not all(chain.contains(oinv * g * outer) for g in T.gens):
            raise ConstructionError("outer map is not an automorphism of T")

    def doubled(g: Perm) -> Perm:
        return Perm([*g.images, *(d + x for x in g.images)])

    top = PermGroup(2, [Perm([1, 0])] if include_swap else [])
    wreath = wreath_imprimitive(T, top).group.gens  # T on each copy, then the swap
    extra = [doubled(outer)] if outer is not None else []
    G = PermGroup(2 * d, wreath + extra)
    diagonal = PermGroup(2 * d, [doubled(t) for t in T.gens] + wreath[2 * len(T.gens):] + extra)
    act = coset_action(G, diagonal)
    act.group.label = f"diag({T.label or 'T'})"
    return act
