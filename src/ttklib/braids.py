"""Braid words and the twisted-torus-knot braids.

A braid word on ``strands`` strands is a sequence of nonzero integers:
letter i > 0 is the generator sigma_i (strand i crosses OVER strand
i+1), letter -i is its inverse.

``braid_for`` builds K(p,q,r,n) for every 1 <= r <= p+q, on the fewest
strands s.  The twist block (s_{r-1}...s_1)^{n*r} realizes n FULL
twists on r adjacent strands.
- s = min(p,q) when r <= min(p,q) and min(p,q) >= 2, else s = max(p,q)
  when r <= max(p,q): the torus braid (s_{s-1}...s_1)^{p+q-s} on s
  strands, then the twist block.  Choosing between p and q uses
  K(p,q,r,n) = K(q,p,r,n), the symmetry of the torus knot T(p,q).
- otherwise s = p+q: the twist block on p+q strands, then U(q,p), the q
  leftmost strands passing under the p rightmost.  At r = p+q the twist
  block is n full twists on every strand.
Twisted torus links are Lorenz links with explicit braids (J. Birman and
I. Kofman, "A new twist on Lorenz links", J. Topology 2, 2009).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import DomainError


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.strands < 1:
            raise DomainError("a braid needs at least one strand")
        object.__setattr__(self, "letters", tuple(self.letters))
        for x in self.letters:
            if not isinstance(x, int) or x == 0 or abs(x) > self.strands - 1:
                raise DomainError(f"letter {x} out of range for {self.strands} strands")

    @property
    def crossing_count(self):
        return len(self.letters)

    @property
    def writhe(self):
        return sum(1 if x > 0 else -1 for x in self.letters)

    def mirror(self):
        """Negate every crossing; the closure is the mirror link."""
        return BraidWord(self.strands, tuple(-x for x in self.letters))

    def __mul__(self, other):
        if self.strands != other.strands:
            raise DomainError("cannot concatenate braids on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def permutation(self):
        """perm[i] = final position of the strand entering at position i."""
        pos = list(range(self.strands))  # pos[j] = strand currently at position j
        for x in self.letters:
            i = abs(x) - 1
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        perm = [0] * self.strands
        for j, strand in enumerate(pos):
            perm[strand] = j
        return tuple(perm)

    def component_count(self):
        """Number of components of the closure (cycles of the permutation)."""
        perm = self.permutation()
        seen = [False] * self.strands
        count = 0
        for i in range(self.strands):
            if seen[i]:
                continue
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
        return count

    def is_knot(self):
        return self.component_count() == 1

    def to_text(self):
        body = " ".join(str(x) for x in self.letters)
        return f"B{self.strands}:" + (" " + body if body else "")

    @classmethod
    def from_text(cls, text):
        head, _, body = text.strip().partition(":")
        if not head.startswith("B"):
            raise DomainError(f"bad braid text {text!r}")
        try:
            strands = int(head[1:])
            letters = tuple(int(tok) for tok in body.split())
        except ValueError as exc:
            raise DomainError(f"bad braid text {text!r}") from exc
        return cls(strands, letters)


@dataclass(frozen=True)
class TTKParams:
    """Parameters (p, q, r, cable_m, twist_n) of a twisted torus knot.

    Every 1 <= r <= p+q is valid, and ``braid_for`` builds each of them
    when cable_m = 1.  q = 1 and r = 1 are tolerated so that the
    degenerate small members of the Fibonacci unknot family still
    resolve to braids.
    """

    p: int
    q: int
    r: int
    twist_n: int
    cable_m: int = 1

    def __post_init__(self):
        if self.p < 2 or self.q < 1:
            raise DomainError(f"need p >= 2 and q >= 1, got ({self.p}, {self.q})")
        if gcd(self.p, self.q) != 1:
            raise DomainError(f"p = {self.p} and q = {self.q} are not coprime")
        if not (1 <= self.r <= self.p + self.q):
            raise DomainError(f"need 1 <= r <= p+q, got r = {self.r}")
        if self.twist_n == 0:
            raise DomainError("twist_n must be nonzero")
        if gcd(self.cable_m, self.twist_n) != 1:
            raise DomainError("cable_m and twist_n must be coprime")

    def label(self):
        if self.cable_m == 1:
            return f"K({self.p},{self.q},{self.r},{self.twist_n})"
        return f"K({self.p},{self.q},{self.r},{self.cable_m},{self.twist_n})"


def _descending_run(top):
    """(sigma_top ... sigma_1) as letters; empty when top < 1."""
    return list(range(top, 0, -1))


def _block_power(run, exponent):
    """run^exponent, a negative exponent giving inverted, reversed copies."""
    if exponent >= 0:
        return run * exponent
    inv = [-x for x in reversed(run)]
    return inv * (-exponent)


def torus_braid(p, q):
    """The (p,q) torus braid on p strands: (sigma_{p-1}...sigma_1)^q."""
    if p < 2:
        raise DomainError("torus braid needs p >= 2")
    return BraidWord(p, _block_power(_descending_run(p - 1), q))


def pass_under_block(q, p):
    """U(q, p): the q leftmost strands pass across the p rightmost, on
    p+q strands: product for i from q down to 1 of
    (sigma_i sigma_{i+1} ... sigma_{i+p-1}).

    The crossing sign is pinned by requiring the mirror relation between
    K(p,q,p+q,-1) and K(p,p+q,q,+1) to hold exactly on Jones polynomials
    (with negative letters the closure is the mirror of the intended
    knot, and that relation fails).
    """
    letters = []
    for i in range(q, 0, -1):
        letters.extend(range(i, i + p))
    return letters


def braid_for(params):
    """K(p,q,r,n) as a braid word on the fewest strands s (see the
    module docstring): the torus braid on s in {p, q} strands followed
    by the twist block, or on p+q strands the twist block followed by
    U(q, p)."""
    if params.cable_m != 1:
        raise DomainError("braid construction requires cable_m = 1")
    p, q, r = params.p, params.q, params.r
    small, big = sorted((p, q))
    twist = _block_power(_descending_run(r - 1), params.twist_n * r)
    s = small if r <= small and small >= 2 else big
    if r <= s:
        return BraidWord(s, _block_power(_descending_run(s - 1), p + q - s) + twist)
    return BraidWord(p + q, twist + pass_under_block(q, p))
