"""Permutations of a fixed finite domain.

Points are 0-based internally and 1-based in printed output.
Composition uses the right-action convention throughout: (p * q) means
"apply p, then q", so the image of x is q(p(x)).

A permutation stores its images as bytes when its degree is at most 256,
since a byte holds the points 0..255, and as a tuple above that. On bytes,
p * q is one bytes.translate call, through q's images padded to a 256-byte
table, the inverse one bytes.maketrans call and the identity test one
compare; on a tuple, p * q is one itemgetter call. _pack alone makes that
choice. left and table carry it to the walks elsewhere that compose raw
images without building a Perm: left(a)(table(b)) is the images of a * b
in either storage.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator, Sequence


_IDENT = bytes(range(256))
# _PAD[n] fills n images out to a 256-byte translate table
_PAD = [_IDENT[n:] for n in range(257)]


def _pack(images: Sequence[int]) -> Sequence[int]:
    """The stored form of an image sequence: bytes up to degree 256, a
    tuple above. Each is returned as is when already in that form."""
    if type(images) is bytes:  # no permutation has more than 256 bytes
        return images
    return bytes(images) if len(images) <= 256 else tuple(images)


@lru_cache(maxsize=None)
def _identity_images(degree: int) -> Sequence[int]:
    return _pack(range(degree))


def left(a: Sequence[int]):
    """The map t -> a * b, for t = table(b): a's images composed with b's."""
    return a.translate if type(a) is bytes else itemgetter(*a)


def table(b: Sequence[int]) -> Sequence[int]:
    """b's images as the right operand of left: padded to 256 for bytes."""
    return b + _PAD[len(b)] if type(b) is bytes else b


_new = object.__new__


class Perm:
    """Immutable permutation of {0, ..., degree-1}. images is a read-only
    sequence of ints, the image of each point: bytes up to degree 256 and
    a tuple above. Build a tuple or list from it to concatenate it."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for v in images:
            # type, not isinstance: a bool is no image
            if type(v) is not int or not 0 <= v < n or seen[v]:
                raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
            seen[v] = True
        object.__setattr__(self, "images", _pack(images))

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return _from_images(_identity_images(degree))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]], degree: int) -> "Perm":
        """Build from 0-based disjoint cycles."""
        images = list(range(degree))
        for cyc in cycles:
            cyc = list(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def __mul__(self, other: "Perm") -> "Perm":
        # right action: x^(self*other) = (x^self)^other
        a, b = self.images, other.images
        # _from_images, inlined: this is the hottest call in the package
        p = _new(Perm)
        if type(a) is bytes:
            # padded for self's degree, the table is 256 bytes long only
            # when other's degree is the same; translate refuses any other
            p.images = a.translate(b + _PAD[len(a)])
        else:
            p.images = itemgetter(*a)(b)
        return p

    def inv(self) -> "Perm":
        images = self.images
        p = _new(Perm)
        if type(images) is bytes:
            # maketrans maps each image back to its point
            p.images = bytes.maketrans(images, _IDENT[:len(images)])[:len(images)]
            return p
        out = [0] * len(images)
        for i, v in enumerate(images):
            out[v] = i
        p.images = tuple(out)
        return p

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, 0-based, each starting at its least point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def moved(self) -> list[int]:
        return [i for i, v in enumerate(self.images) if v != i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({format_permutation(self)!r}, degree={self.degree})"

    def __str__(self) -> str:
        return format_permutation(self)


def _from_images(images: Sequence[int]) -> Perm:
    """A Perm on images already known to be a permutation, built without
    __init__'s check; Perm(images) is the public entry."""
    p = _new(Perm)
    p.images = _pack(images)
    return p


def format_permutation(p: Perm) -> str:
    """Cycle notation with 1-based points; identity prints as '()'."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in cyc) + ")" for cyc in cycs)


def iter_sym_gens(m: int) -> Iterator[Perm]:
    """Standard generators of the full symmetric group on m points."""
    if m >= 2:
        yield Perm.from_cycles([(0, 1)], m)
    if m >= 3:
        yield Perm.from_cycles([tuple(range(m))], m)


def iter_alt_gens(m: int) -> Iterator[Perm]:
    """Standard generators of the alternating group on m points."""
    if m >= 3:
        yield Perm.from_cycles([(0, 1, 2)], m)
    if m >= 4:
        if m % 2 == 1:
            yield Perm.from_cycles([tuple(range(m))], m)
        else:
            yield Perm.from_cycles([tuple(range(1, m))], m)
