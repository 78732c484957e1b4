"""Permutations of a fixed finite domain.

Points are 0-based internally and 1-based in all textual input and output.
Composition uses the right-action convention throughout: (p * q) means
"apply p, then q", so the image of x is q(p(x)).
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator, Sequence


class ParseError(ValueError):
    """Malformed permutation or generator-file text; carries a position."""

    def __init__(self, message: str, pos: int | None = None, line: int | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if pos is not None:
            loc.append(f"position {pos}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.pos = pos
        self.line = line


@lru_cache(maxsize=None)
def _identity_images(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


class Perm:
    """Immutable permutation of {0, ..., degree-1}, stored as an image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int], validate: bool = True):
        images = tuple(images)
        if validate:
            n = len(images)
            seen = [False] * n
            for v in images:
                if not isinstance(v, int) or not 0 <= v < n or seen[v]:
                    raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
                seen[v] = True
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(_identity_images(degree), validate=False)

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]], degree: int) -> "Perm":
        """Build from 0-based disjoint cycles."""
        images = list(range(degree))
        for cyc in cycles:
            cyc = list(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return cls(tuple(images), validate=True)

    @property
    def degree(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def apply(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        # right action: x^(self*other) = (x^self)^other
        images = self.images
        if len(images) > 1:
            return Perm(itemgetter(*images)(other.images), validate=False)
        # itemgetter() cannot be built from no indices, and from one index
        # it returns a bare item instead of a tuple
        return Perm(tuple(other.images[v] for v in images), validate=False)

    def inv(self) -> "Perm":
        images = self.images
        out = [0] * len(images)
        for i, v in enumerate(images):
            out[v] = i
        return Perm(tuple(out), validate=False)

    def __pow__(self, k: int) -> "Perm":
        n = len(self.images)
        if k < 0:
            return self.inv() ** (-k)
        result = Perm.identity(n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self, other: "Perm") -> "Perm":
        """other^-1 * self * other."""
        return other.inv() * self * other

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

    def cycle_type(self) -> tuple[int, ...]:
        """Sorted lengths of all cycles, fixed points included."""
        return tuple(sorted(len(c) for c in self.cycles(include_fixed=True)))

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def moved(self) -> list[int]:
        return [i for i, v in enumerate(self.images) if v != i]

    def min_moved(self) -> int | None:
        for i, v in enumerate(self.images):
            if v != i:
                return i
        return None

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm({format_permutation(self)!r}, degree={self.degree})"

    def __str__(self) -> str:
        return format_permutation(self)


def format_permutation(p: Perm) -> str:
    """Cycle notation with 1-based points; identity prints as '()'."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in cyc) + ")" for cyc in cycs)


def parse_permutation(text: str, degree: int) -> Perm:
    """Parse cycle notation like '(1 2 3)(4 5)' or an image list '[2, 3, 1]'.

    Points are 1-based and must lie in 1..degree. Cycles must be disjoint.
    Raises ParseError with a character position on malformed input.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty permutation text", 0)
    if s.startswith("["):
        return _parse_image_list(s, degree)
    return _parse_cycles(s, degree)


def _parse_image_list(s: str, degree: int) -> Perm:
    if not s.endswith("]"):
        raise ParseError("unterminated image list", len(s) - 1)
    body = s[1:-1]
    parts = [p for p in body.replace(",", " ").split() if p]
    if len(parts) != degree:
        raise ParseError(f"image list has {len(parts)} entries, expected {degree}", 0)
    images = []
    seen = set()
    for part in parts:
        if not part.isdigit():
            raise ParseError(f"bad image entry {part!r}", s.find(part))
        v = int(part)
        if not 1 <= v <= degree:
            raise ParseError(f"image {v} out of range 1..{degree}", s.find(part))
        if v in seen:
            raise ParseError(f"repeated image {v}", s.find(part))
        seen.add(v)
        images.append(v - 1)
    return Perm(tuple(images), validate=False)


def _parse_cycles(s: str, degree: int) -> Perm:
    images = list(range(degree))
    used: set[int] = set()
    i, n = 0, len(s)
    while i < n:
        while i < n and s[i].isspace():
            i += 1
        if i >= n:
            break
        if s[i] != "(":
            raise ParseError(f"expected '(' but found {s[i]!r}", i)
        i += 1
        cyc: list[int] = []
        while True:
            while i < n and (s[i].isspace() or s[i] == ","):
                i += 1
            if i >= n:
                raise ParseError("unterminated cycle", n - 1)
            if s[i] == ")":
                i += 1
                break
            j = i
            while j < n and s[j].isdigit():
                j += 1
            if j == i:
                raise ParseError(f"expected point or ')' but found {s[i]!r}", i)
            v = int(s[i:j])
            if not 1 <= v <= degree:
                raise ParseError(f"point {v} out of range 1..{degree}", i)
            if v - 1 in used:
                raise ParseError(f"repeated point {v} in cycles", i)
            used.add(v - 1)
            cyc.append(v - 1)
            i = j
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return Perm(tuple(images), validate=True)


def read_generator_file(text: str) -> tuple[int, list[Perm], str | None]:
    """Parse the plain-text generator format.

    First non-comment line is 'degree N', optionally followed by
    'label <text>'; each further non-comment line is one permutation in
    cycle notation. '#' starts a comment. Returns (degree, gens, label).
    """
    degree = None
    label = None
    gens: list[Perm] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "degree" or not parts[1].isdigit():
                raise ParseError("first line must be 'degree N'", line=lineno)
            degree = int(parts[1])
            if degree < 1:
                raise ParseError("degree must be at least 1", line=lineno)
            continue
        if line.startswith("label "):
            label = line[len("label "):].strip()
            continue
        try:
            gens.append(parse_permutation(line, degree))
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    if degree is None:
        raise ParseError("missing 'degree N' header", line=1)
    return degree, gens, label


def write_generator_file(degree: int, gens: Sequence[Perm], label: str | None = None) -> str:
    lines = [f"degree {degree}"]
    if label:
        lines.append(f"label {label}")
    lines.extend(format_permutation(g) for g in gens)
    return "\n".join(lines) + "\n"


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
