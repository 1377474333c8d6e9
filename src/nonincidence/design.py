"""Core incidence-structure types for triple systems.

Points are always labeled 0..v-1.  Blocks are 3-element point sets stored
as sorted tuples; the block list is kept in lexicographic order so that a
design has exactly one canonical serialization.  Incidence is kept once,
as arbitrary-width integer bitmasks: one mask over blocks per point.
Loading and is_subsystem read these masks, and certificate checks read
the block tuples.  A mask over points per block is built by its one
reader, the exact search's tree over point sets (search.py), from the
block list.

Pair questions are answered by two rules.  The pair rule: points x and
y lie on a common block iff ``point_incidence[x] & point_incidence[y]``
is nonzero, and since no pair lies on two blocks that block is unique;
Design.from_blocks applies it to refuse a repeated pair.  The count rule:
k distinct blocks hold 3k distinct pairs, so blocks inside a w-point set
cover every pair of it exactly when there are w(w-1)/6 of them.
validate_design applies it to all v points, so a design is an STS(v)
exactly when 3b = v(v-1)/2, and is_subsystem to a point set.  The
callers that need the third point of a pair, find_subsystem and _orbits
in the exact search, read Design.third instead: a v x v table, built on
first use and then kept.  _orbits also reads Design.pasch, the number of
Pasch configurations through each block, built from third on first use
and kept likewise.  Neither table is built by from_blocks, by
validate_design or by certificate checks, which never need them.

Every design has at most MAX_ORDER points; from_blocks refuses a larger
order before it allocates anything.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import eq, itemgetter


DIGEST_ALGORITHM = "sha256"

# The largest order a design may have.  Design.from_blocks and the
# constructions check it before they allocate anything that grows with v,
# so an order such as 10**9 is refused at once: from_blocks would take 16
# bytes a point before it reads a block.  At the limit that is 1.6 MB, so
# a sparse design file of that order still loads.  An STS near the limit
# is far past what a construction can hold: its point masks alone take
# about v^3/48 bytes.
MAX_ORDER = 100_000


class DesignError(ValueError):
    """Malformed design input (bad block shape, out-of-range point, repeated pair)."""


class DigestMismatchError(ValueError):
    """Certificate is bound to a different design than the one supplied."""


@dataclass(frozen=True)
class Design:
    """An incidence structure with v points and blocks of size 3.

    Immutable after construction; all operations on it are pure.  The
    constructor enforces shape (3 distinct in-range int points per block,
    bool excluded) and that no pair of points lies on two blocks, which
    also rules out a repeated block: a design is an STS or a partial one.
    Whether every pair is covered is checked separately, so that partial
    designs can be inspected: :func:`validate_design` applies the count
    rule (module docstring) to the block count.

    The repeated-pair check is the pair rule applied block by block in
    canonical order: before block i sets its bits, a nonzero AND of two
    of its points' masks names a pair that an earlier block holds.
    """

    v: int
    blocks: tuple[tuple[int, int, int], ...]
    point_incidence: tuple[int, ...] = field(repr=False)

    @classmethod
    def from_blocks(cls, v: int, blocks) -> "Design":
        if not _is_int(v) or v < 1:
            raise DesignError(f"point count {v!r} is not a positive integer")
        check_order(v)
        canon = []
        append = canon.append
        for blk in blocks:
            pts = tuple(blk)
            if len(pts) == 3:
                a, b, c = pts
                if type(a) is type(b) is type(c) is int:
                    # Three compare-swaps sort the block.
                    if a > b:
                        a, b = b, a
                    if b > c:
                        b, c = c, b
                        if a > b:
                            a, b = b, a
                    if 0 <= a < b < c < v:
                        append((a, b, c))
                        continue
            raise _block_error(blk, pts, v)
        canon.sort()
        point_inc = [0] * v
        for i, (a, b, c) in enumerate(canon):
            # Two points share an earlier block iff their masks meet.
            pa, pb, pc = point_inc[a], point_inc[b], point_inc[c]
            if pa & pb or pa & pc or pb & pc:
                pair = (a, b) if pa & pb else (a, c) if pa & pc else (b, c)
                raise DesignError(f"pair {pair} lies on two blocks")
            bit = 1 << i
            point_inc[a] = pa | bit
            point_inc[b] = pb | bit
            point_inc[c] = pc | bit
        return cls(v, tuple(canon), tuple(point_inc))

    @property
    def b(self) -> int:
        return len(self.blocks)

    def all_blocks_mask(self) -> int:
        return (1 << self.b) - 1

    def canonical_json(self) -> str:
        return self._canonical_json

    @cached_property
    def _canonical_json(self) -> str:
        # The bytes of json.dumps with sort_keys and no spaces, in one
        # format pass: from_blocks admits only int labels, which %d
        # prints as json does.  Computed on first use and kept in the
        # instance's __dict__, which the frozen fields, eq, hash and repr
        # never look at; the digest and a written design share it.
        return '{"blocks":[%s],"v":%d}' % (
            ",".join(map("[%d,%d,%d]".__mod__, self.blocks)), self.v)

    def digest(self) -> str:
        return self._digest

    @cached_property
    def _digest(self) -> str:
        # Kept like _canonical_json.
        return hashlib.sha256(self._canonical_json.encode()).hexdigest()

    @cached_property
    def _block_points(self) -> tuple[int, ...]:
        # The mask over the points of each block, kept like _digest; see
        # search.py, whose tree is its one reader.
        return tuple(1 << a | 1 << b | 1 << c for a, b, c in self.blocks)

    @cached_property
    def third(self) -> tuple[tuple[int, ...], ...]:
        """third[a][b]: the third point of the block through a and b, or -1.

        -1 marks a pair on no block, so a partial design has a table too.
        Cached like _digest: one v x v table per instance, built on first
        use and outside eq, hash and repr.
        """
        table = [[-1] * self.v for _ in range(self.v)]
        for a, b, c in self.blocks:
            table[a][b] = table[b][a] = c
            table[a][c] = table[c][a] = b
            table[b][c] = table[c][b] = a
        return tuple(map(tuple, table))

    @cached_property
    def pasch(self) -> tuple[int, ...]:
        """pasch[i]: the Pasch configurations that hold block i.

        A Pasch configuration is four blocks on six points, each point on
        two of them.  One that holds {a, b, c} has three more blocks
        {b, z, y}, {a, y, x} and {c, z, x}, where z is the one point of
        the six on no block with a.  So it is counted once, at its z: the
        z with third[a][third[b][z]] == third[c][z].  z = a always passes,
        as third[a][third[b][a]] = third[a][c] = b = third[c][a], and is
        taken off.  third holds -1 for a point with itself and for a pair
        on no block, and two -1s must not match.  So the left side reads a
        copy of each row with -2 for -1 and -2 appended, the entry that
        index -1 reads: a -1 anywhere on the way gives -2, which no entry
        of third is.  So a partial design gets a table too.  One C-level
        pass per block.  Cached like third, and built only by its one
        reader, the exact search's orbits.
        """
        third = self.third
        rows = [tuple(x if x >= 0 else -2 for x in row) + (-2,) for row in third]
        chain = [itemgetter(*row) for row in third]
        return tuple(sum(map(eq, chain[b](rows[a]), third[c])) - 1
                     for a, b, c in self.blocks)

    @classmethod
    def from_json(cls, text: str) -> "Design":
        """Design from its JSON form.

        Raises DesignError on a missing key, on JSON nested too deep to
        parse, and wherever from_blocks does.
        """
        try:
            data = json.loads(text)
            return cls.from_blocks(data["v"], data["blocks"])
        except (KeyError, TypeError, RecursionError) as exc:
            raise DesignError(f"malformed design file: {exc}") from exc


def check_order(v: int) -> None:
    """DesignError, a ValueError, when the order v is above MAX_ORDER."""
    if v > MAX_ORDER:
        raise DesignError(f"order {v} is above the limit of {MAX_ORDER}")


def _point_mask(d: Design, points) -> int:
    m = 0
    for p in points:
        if not 0 <= p < d.v:
            raise DesignError(f"point {p} outside 0..{d.v - 1}")
        m |= 1 << p
    return m


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of an STS validity check: the pairs no block covers."""

    v: int
    uncovered: int

    @property
    def ok(self) -> bool:
        return self.uncovered == 0


def validate_design(d: Design) -> ValidityReport:
    """Whether d is an STS(v), by the count rule.

    No pair lies on two blocks, so the b blocks cover 3b of the v(v-1)/2
    pairs and leave the rest uncovered.  An inadmissible order always
    leaves some: either 6 does not divide v(v-1), or v is even, and then
    the blocks through a point cover an even number of its v - 1
    partners, so it misses one.
    """
    return ValidityReport(d.v, d.v * (d.v - 1) // 2 - 3 * d.b)


@dataclass(frozen=True)
class NonincidenceCertificate:
    """Witness that the points Y and the blocks indexed by C never meet.

    Bound to one specific labeled design through a hash of its canonical
    serialization; verification refuses to run against any other design.
    """

    v: int
    Y: tuple[int, ...]
    C: tuple[int, ...]
    design_digest: str
    digest_algorithm: str = DIGEST_ALGORITHM
    meta: dict = field(default_factory=dict)

    @classmethod
    def build(cls, d: Design, Y, C, meta=None) -> "NonincidenceCertificate":
        """Certificate for d; DesignError on a malformed Y or C entry."""
        Y, C = tuple(Y), tuple(C)
        _check_entries(Y, d.v, "point")
        _check_entries(C, d.b, "block index")
        return cls(
            v=d.v,
            Y=tuple(sorted(Y)),
            C=tuple(sorted(C)),
            design_digest=d.digest(),
            meta=dict(meta or {}),
        )

    def to_json(self) -> str:
        """The fields as JSON, read in place: no copy of Y, C or meta."""
        return json.dumps(vars(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NonincidenceCertificate":
        """Certificate from its JSON form.

        Raises DesignError on a missing key, on JSON nested too deep to
        parse, a non-integer order, or a non-integer, bool, out-of-range or
        repeated entry of Y or C.  Block indices are only checked to be
        non-negative here; their upper end is checked by
        certificate_violations, which knows the design.
        """
        try:
            data = json.loads(text)
            cert = cls(
                v=data["v"],
                Y=tuple(data["Y"]),
                C=tuple(data["C"]),
                design_digest=data["design_digest"],
                digest_algorithm=data.get("digest_algorithm", DIGEST_ALGORITHM),
                meta=data.get("meta", {}),
            )
        except (KeyError, TypeError, RecursionError) as exc:
            raise DesignError(f"malformed certificate file: {exc!r}") from exc
        if not _is_int(cert.v):
            raise DesignError(f"order {cert.v!r} is not an integer")
        _check_entries(cert.Y, cert.v, "point")
        _check_entries(cert.C, None, "block index")
        return cert


def _block_error(blk, pts: tuple, v: int) -> DesignError:
    """Why ``pts``, read from ``blk``, is not a block of a design on v points.

    The shape checks in their order: a 3-set, then int points, then the
    range.  Called only for a block that fails one of them.
    """
    if len(pts) != 3 or len(set(pts)) != 3:
        return DesignError(f"block {blk!r} is not a 3-set")
    if not type(pts[0]) is type(pts[1]) is type(pts[2]) is int:
        return DesignError(f"block {blk!r} has a point that is not an integer")
    return DesignError(f"block {blk!r} has a point outside 0..{v - 1}")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_entries(values, n: int | None, what: str) -> None:
    """DesignError unless values are distinct ints in 0..n-1 (n=None: >= 0)."""
    for x in values:
        if not _is_int(x):
            raise DesignError(f"{what} {x!r} is not an integer")
        if x < 0 or n is not None and x >= n:
            top = "" if n is None else n - 1
            raise DesignError(f"{what} {x} outside 0..{top}")
    if len(set(values)) != len(values):
        raise DesignError(f"a {what} is listed twice")


def certificate_violations(d: Design, cert: NonincidenceCertificate):
    """All (point, block index) incidences that break the certificate.

    Raises DesignError when Y or C holds a non-integer, out-of-range or
    repeated entry: such a claim is malformed, not merely incident.
    """
    _check_entries(cert.Y, d.v, "point")
    _check_entries(cert.C, d.b, "block index")
    Y = set(cert.Y)
    return [(p, i) for i in cert.C for p in d.blocks[i] if p in Y]


def verify_certificate(
    d: Design, cert: NonincidenceCertificate, require_square: bool = False
) -> bool:
    """True iff no certified point lies on any certified block.

    Raises DigestMismatchError when the certificate was issued for a
    different design or under another digest algorithm, and DesignError
    when Y or C is malformed (see certificate_violations); with
    require_square also demands |Y| = |C|.
    """
    if (cert.v != d.v or cert.digest_algorithm != DIGEST_ALGORITHM
            or cert.design_digest != d.digest()):
        raise DigestMismatchError(
            "certificate digest does not match the supplied design"
        )
    bad = certificate_violations(d, cert)
    if not cert.Y or not cert.C:
        return False
    if require_square and len(cert.Y) != len(cert.C):
        return False
    return not bad


def is_subsystem(d: Design, points) -> tuple[bool, tuple[int, ...]]:
    """Whether the blocks inside the nonempty point set form an STS on it.

    By the count rule this holds iff w(w-1)/6 blocks lie inside the
    w-point set: they then cover each of its pairs once.  That alone
    implies the rest.  No block meets the set in exactly 2 points, since
    that pair is already covered inside.  And w is an admissible order:
    the blocks through a point of the set pair up its w - 1 partners, so
    w is odd, and 6 divides w(w-1), so w is 1 or 3 mod 6.
    Interior block indices are returned either way: the blocks that meet
    no point outside the set.
    """
    zmask = _point_mask(d, points)
    w = zmask.bit_count()
    outside = 0
    for p, inc in enumerate(d.point_incidence):
        if not zmask >> p & 1:
            outside |= inc
    interior = tuple(_bits(d.all_blocks_mask() & ~outside))
    return w > 0 and 6 * len(interior) == w * (w - 1), interior
