"""Print the exact search's counts on a fixed list of designs.

Usage: python tools/search_counts.py SRC

SRC is a source directory that holds the nonincidence package, such as
this tree's src/ or another commit's src/ unpacked beside it.  For each
design the script prints nodes_visited, best_s and exact of
exact_max_nonincident at its default budget, and the first 12 hex digits
of the design's digest, one row per design.  Node counts are
deterministic, so two trees whose tables differ in some row search
differently there, or, where the digest differs, build a different
design.  The designs are the exact_ladder rungs,
build_sts(25,0), build_sts(31,1), doubling(build_sts(15,1)), bose(15),
and the hill-climbed embed_subsystem(13,39,0) and
embed_subsystem(21,91,0).  Every step of build_sts(25,0) is a step of
the full-point ceiling decision: at s = 14, where E >= m, it finds no W
with a full point and lifts the floor, and the swap search then meets
the ceiling before the tree.  So its row counts that decision alone,
beside build_sts(19,1)'s refutation and build_sts(27,1)'s
point-transitive group.  The two embed_subsystem designs are at
equality-family orders, which the subsystem decision proves at 0 nodes,
so their rows show whether the climb's designs moved at orders where
partner lists pass 21 entries.  The whole list takes about 1.5 s.  If
the package imported is not the one under SRC, as when another copy is
installed first, it prints nothing and exits 2.  Standard library only.
"""

from __future__ import annotations

import sys
from pathlib import Path

DESIGNS = (
    ("doubling(build_sts(9,1))", lambda c: c.doubling(c.build_sts(9, 1))[0]),
    ("build_sts(19,1)", lambda c: c.build_sts(19, 1)),
    ("build_sts(25,1)", lambda c: c.build_sts(25, 1)),
    ("build_sts(25,0)", lambda c: c.build_sts(25, 0)),
    ("build_sts(27,1)", lambda c: c.build_sts(27, 1)),
    ("build_sts(31,1)", lambda c: c.build_sts(31, 1)),
    ("doubling(build_sts(15,1))", lambda c: c.doubling(c.build_sts(15, 1))[0]),
    ("bose(15)", lambda c: c.bose(15)),
    ("embed_subsystem(13,39,0)", lambda c: c.embed_subsystem(13, 39, 0).design),
    ("embed_subsystem(21,91,0)", lambda c: c.embed_subsystem(21, 91, 0).design),
)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    from nonincidence import constructions, search

    if src not in Path(search.__file__).resolve().parents:
        print(f"nonincidence was not imported from {src}", file=sys.stderr)
        return 2
    print(f"{'nodes':>9} {'best_s':>6} {'exact':>5} {'digest':>12}  design")
    for name, make in DESIGNS:
        d = make(constructions)
        rep = search.exact_max_nonincident(d)
        print(f"{rep.nodes_visited:9d} {rep.best_s:6d} {str(rep.exact):>5} "
              f"{d.digest()[:12]}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
