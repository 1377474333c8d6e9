"""Print the exact search's counts on a fixed list of designs.

Usage: python tools/search_counts.py SRC

SRC is a source directory that holds the nonincidence package, such as
this tree's src/ or another commit's src/ unpacked beside it.  For each
design the script prints nodes_visited, best_s and exact of
exact_max_nonincident at its default budget, one row per design.  Node
counts are deterministic, so two trees whose tables differ in some row
search differently there.  The designs are the exact_ladder rungs,
build_sts(31,1), doubling(build_sts(15,1)) and bose(15); the whole list
takes about 1.5 s.  If the package imported is not the one under SRC,
as when another copy is installed first, it prints nothing and exits 2.
Standard library only.
"""

from __future__ import annotations

import sys
from pathlib import Path

DESIGNS = (
    ("doubling(build_sts(9,1))", lambda c: c.doubling(c.build_sts(9, 1))[0]),
    ("build_sts(19,1)", lambda c: c.build_sts(19, 1)),
    ("build_sts(25,1)", lambda c: c.build_sts(25, 1)),
    ("build_sts(27,1)", lambda c: c.build_sts(27, 1)),
    ("build_sts(31,1)", lambda c: c.build_sts(31, 1)),
    ("doubling(build_sts(15,1))", lambda c: c.doubling(c.build_sts(15, 1))[0]),
    ("bose(15)", lambda c: c.bose(15)),
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
    print(f"{'nodes':>9} {'best_s':>6} {'exact':>5}  design")
    for name, make in DESIGNS:
        rep = search.exact_max_nonincident(make(constructions))
        print(f"{rep.nodes_visited:9d} {rep.best_s:6d} {str(rep.exact):>5}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
