"""Core incidence-structure types for triple systems.

Points are always labeled 0..v-1.  Blocks are 3-element point sets stored
as sorted tuples; the block list is kept in lexicographic order so that a
design has exactly one canonical serialization.  Incidence is kept twice,
as arbitrary-width integer bitmasks: one mask over blocks per point and
one mask over points per block.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field


DIGEST_ALGORITHM = "sha256"


class DesignError(ValueError):
    """Malformed design input (bad block shape, out-of-range point)."""


class DigestMismatchError(ValueError):
    """Certificate is bound to a different design than the one supplied."""


@dataclass(frozen=True)
class Design:
    """An incidence structure with v points and blocks of size 3.

    Immutable after construction; all operations on it are pure.  The
    constructor only enforces shape (3 distinct in-range int points per
    block, bool excluded, no duplicate blocks); STS validity is checked
    separately by :func:`validate_design` so that broken candidates can
    be inspected.
    """

    v: int
    blocks: tuple[tuple[int, int, int], ...]
    point_incidence: tuple[int, ...] = field(repr=False)
    block_mask: tuple[int, ...] = field(repr=False)

    @classmethod
    def from_blocks(cls, v: int, blocks) -> "Design":
        if not _is_int(v) or v < 1:
            raise DesignError(f"point count {v!r} is not a positive integer")
        canon = []
        for blk in blocks:
            pts = tuple(blk)
            if len(pts) != 3 or len(set(pts)) != 3:
                raise DesignError(f"block {blk!r} is not a 3-set")
            if not type(pts[0]) is type(pts[1]) is type(pts[2]) is int:
                raise DesignError(f"block {blk!r} has a point that is not an integer")
            pts = tuple(sorted(pts))
            if pts[0] < 0 or pts[2] >= v:
                raise DesignError(f"block {blk!r} has a point outside 0..{v - 1}")
            canon.append(pts)
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise DesignError(f"duplicate block {a!r}")
        point_inc = [0] * v
        block_mask = []
        for i, blk in enumerate(canon):
            m = 0
            for p in blk:
                point_inc[p] |= 1 << i
                m |= 1 << p
            block_mask.append(m)
        return cls(v, tuple(canon), tuple(point_inc), tuple(block_mask))

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def replication(self) -> int:
        """Blocks through each point in a valid STS: (v-1)/2."""
        return (self.v - 1) // 2

    def all_blocks_mask(self) -> int:
        return (1 << self.b) - 1

    def canonical_json(self) -> str:
        return json.dumps(
            {"v": self.v, "blocks": [list(b) for b in self.blocks]},
            separators=(",", ":"),
            sort_keys=True,
        )

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "Design":
        data = json.loads(text)
        try:
            return cls.from_blocks(data["v"], data["blocks"])
        except (KeyError, TypeError) as exc:
            raise DesignError(f"malformed design file: {exc}") from exc


def _point_mask(d: Design, points) -> int:
    m = 0
    for p in points:
        if not 0 <= p < d.v:
            raise DesignError(f"point {p} outside 0..{d.v - 1}")
        m |= 1 << p
    return m


def _covered_mask(d: Design, points) -> int:
    """Bitmask of block indices meeting the given point set."""
    m = 0
    for p in _bits(_point_mask(d, points)):
        m |= d.point_incidence[p]
    return m


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class ValidityReport:
    """Per-invariant outcome of an STS validity check.

    All violations are collected rather than failing on the first one,
    so a broken construction can be diagnosed in one pass.
    """

    v: int
    admissible_order: bool
    block_count_ok: bool
    replication_ok: bool
    uncovered_pairs: tuple[tuple[int, int], ...]
    overcovered_pairs: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return (
            self.admissible_order
            and self.block_count_ok
            and self.replication_ok
            and not self.uncovered_pairs
            and not self.overcovered_pairs
        )

    def problems(self) -> list[str]:
        out = []
        if not self.admissible_order:
            out.append(f"order {self.v} is not 1 or 3 mod 6")
        if not self.block_count_ok:
            out.append("block count is not v(v-1)/6")
        if not self.replication_ok:
            out.append("some point does not lie in (v-1)/2 blocks")
        if self.uncovered_pairs:
            out.append(f"{len(self.uncovered_pairs)} uncovered pairs: "
                       f"{list(self.uncovered_pairs[:5])}")
        if self.overcovered_pairs:
            out.append(f"{len(self.overcovered_pairs)} multiply covered pairs: "
                       f"{list(self.overcovered_pairs[:5])}")
        return out


def validate_design(d: Design) -> ValidityReport:
    """Check whether d is an STS(v); reports every violated invariant."""
    v = d.v
    counts = {}
    for blk in d.blocks:
        for i in range(3):
            for j in range(i + 1, 3):
                pair = (blk[i], blk[j])
                counts[pair] = counts.get(pair, 0) + 1
    uncovered = []
    for x in range(v):
        for y in range(x + 1, v):
            if (x, y) not in counts:
                uncovered.append((x, y))
    overcovered = [p for p, c in sorted(counts.items()) if c > 1]
    r = (v - 1) // 2
    replication_ok = (v - 1) % 2 == 0 and all(
        m.bit_count() == r for m in d.point_incidence
    )
    return ValidityReport(
        v=v,
        admissible_order=v % 6 in (1, 3),
        block_count_ok=d.b * 6 == v * (v - 1),
        replication_ok=replication_ok,
        uncovered_pairs=tuple(uncovered),
        overcovered_pairs=tuple(overcovered),
    )


def disjoint_block_count(d: Design, points) -> int:
    """Number of blocks avoiding every point of the given set."""
    return d.b - _covered_mask(d, points).bit_count()


@dataclass(frozen=True)
class CoverageProfile:
    """Intersection statistics of the blocks meeting a point set Y.

    For a valid STS the last three fields are forced by counting:
    sum_sizes = r*s, sum_pairs = s(s-1)/2 and sum_squares = s(s+r-1).
    """

    s: int
    c: int
    sum_sizes: int
    sum_pairs: int
    sum_squares: int


def coverage_profile(d: Design, points) -> CoverageProfile:
    ymask = _point_mask(d, points)
    s = ymask.bit_count()
    covered = _covered_mask(d, points)
    c = sum_sizes = sum_pairs = sum_squares = 0
    for i in _bits(covered):
        k = (d.block_mask[i] & ymask).bit_count()
        c += 1
        sum_sizes += k
        sum_pairs += k * (k - 1) // 2
        sum_squares += k * k
    return CoverageProfile(s, c, sum_sizes, sum_pairs, sum_squares)


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
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NonincidenceCertificate":
        """Certificate from its JSON form.

        Raises DesignError on a missing key, a non-integer order, or a
        non-integer, bool, out-of-range or repeated entry of Y or C.  Block
        indices are only checked to be non-negative here; their upper end
        is checked by certificate_violations, which knows the design.
        """
        data = json.loads(text)
        try:
            cert = cls(
                v=data["v"],
                Y=tuple(data["Y"]),
                C=tuple(data["C"]),
                design_digest=data["design_digest"],
                digest_algorithm=data.get("digest_algorithm", DIGEST_ALGORITHM),
                meta=data.get("meta", {}),
            )
        except (KeyError, TypeError) as exc:
            raise DesignError(f"malformed certificate file: {exc!r}") from exc
        if not _is_int(cert.v):
            raise DesignError(f"order {cert.v!r} is not an integer")
        _check_entries(cert.Y, cert.v, "point")
        _check_entries(cert.C, None, "block index")
        return cert


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
    ymask = _point_mask(d, cert.Y)
    return [(p, i) for i in cert.C for p in _bits(d.block_mask[i] & ymask)]


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
    """Whether the blocks inside the point set form an STS on it.

    For an enclosing design without repeated pairs this holds iff no block
    meets the set in exactly 2 points, the set size w is an admissible
    order and w(w-1)/6 blocks lie inside (in a valid STS the last follows
    from the first).  Interior block indices are returned either way.
    """
    zmask = _point_mask(d, points)
    w = zmask.bit_count()
    interior = []
    ok = w % 6 in (1, 3)
    for i, m in enumerate(d.block_mask):
        k = (m & zmask).bit_count()
        if k == 3:
            interior.append(i)
        elif k == 2:
            ok = False
    return ok and len(interior) == w * (w - 1) // 6, tuple(interior)


def is_maximal_arc(d: Design, points) -> bool:
    """True iff the set has (v+1)/2 points and every block meets it in 0 or 2."""
    ymask = _point_mask(d, points)
    if 2 * ymask.bit_count() != d.v + 1:
        return False
    return all(
        (m & ymask).bit_count() in (0, 2) for m in d.block_mask
    )
