"""Command-line workflows: construct, bound, families, search, verify.

Exit codes: 0 success, 1 verification/validation failure or a file that
cannot be read or written, 2 usage error, 3 retryable budget exhaustion,
4 certificate digest mismatch.  A stdout whose reader has closed it, as
`families --zmax N | head -2` does, is a file that cannot be written:
the command stops at once with exit 1 and no message.  Usage errors
include a negative --budget, --seed or --zmax, construct given both
--sub and --double-from, an inadmissible order, --sub 1 or --double-from
1, whose sub-design has no block to certify, a search --out that names
its --design file, which the report would overwrite, a construct
certificate path <stem>.cert.json that names its --out file, which the
certificate would overwrite, a construct order above MAX_ORDER (100,000)
that no budget refusal stops first, and a bound --curve order above
MAX_ORDER, whose v + 1 rows are refused before any is made; bound
without --curve is one number at any order.  A design file whose order is
above MAX_ORDER cannot be read: search and verify exit 1 before they
allocate anything for it.  families --zmax prints each record as it is
made, so it never holds the whole list.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import bounds as bnd
from . import constructions as cons
from . import search as srch
from .design import (
    Design,
    DesignError,
    DigestMismatchError,
    NonincidenceCertificate,
    certificate_violations,
    is_subsystem,
    validate_design,
    verify_certificate,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_DIGEST = 4

log = logging.getLogger("nonincidence")


def _default_cert_path(out: str) -> Path:
    # Not with_name, which raises on an --out with no name, such as "" or
    # "/"; such an --out fails as a file that cannot be written.
    p = Path(out)
    return p.parent / (p.stem + ".cert.json")


def _same_file(a: str, b: str) -> bool:
    """Whether paths a and b name one file: the same path, another spelling
    of it, or a link to it.  When either is missing, their resolved paths
    are compared, so a dangling link to the other path counts too.
    """
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _remove_unfinished(path: str) -> None:
    """Remove an output left unfinished at path, if it is a regular file:
    an --out such as /dev/null or a FIFO is left alone.  An OSError from
    the removal is swallowed, so the caller's own error or exception
    stands.
    """
    try:
        if Path(path).is_file():
            Path(path).unlink()
    except OSError:
        pass


def _load_design(path: str) -> Design:
    return Design.from_json(Path(path).read_text())


def cmd_construct(args) -> int:
    v = args.order
    cert_path = _default_cert_path(args.out)
    if ((args.double_from is not None or args.sub is not None)
            and _same_file(cert_path, args.out)):
        print(f"error: the certificate path {cert_path} names the --out "
              f"file {args.out}", file=sys.stderr)
        return EXIT_USAGE
    # A missing directory is learnt before the build, not after it.
    if not Path(args.out).parent.is_dir():
        exc = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                args.out)
        print(f"error: cannot write: {exc}", file=sys.stderr)
        return EXIT_FAIL
    cert = None
    try:
        if args.double_from is not None:
            w = args.double_from
            if 2 * w + 1 != v:
                raise ValueError(
                    f"doubling STS({w}) gives order {2 * w + 1}, not {v}")
            sub = cons.build_sts(w, seed=args.seed, move_budget=args.budget)
            if not sub.blocks:
                raise ValueError(
                    f"a doubled STS({w}) has no block to certify")
            design, arc = cons.doubling(sub)
            _, interior = is_subsystem(design, range(w))
            cert = NonincidenceCertificate.build(
                design, arc, interior,
                meta={"construction": "doubling", "w": w, "arc": True},
            )
        elif args.sub is not None:
            emb = cons.embed_subsystem(
                args.sub, v, seed=args.seed, move_budget=args.budget
            )
            design = emb.design
            cert = cons.subsystem_complement_certificate(emb)
        else:
            design = cons.build_sts(v, seed=args.seed, move_budget=args.budget)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except cons.BudgetExhausted as exc:
        print(f"error: {exc} (retry with another seed)", file=sys.stderr)
        return EXIT_BUDGET
    wrote = False
    try:
        Path(args.out).write_text(design.canonical_json())
        wrote = True
        log.info("wrote design order %d to %s", v, args.out)
        if cert is not None:
            Path(cert_path).write_text(cert.to_json())
            log.info("wrote certificate |Y|=%d |C|=%d to %s",
                     len(cert.Y), len(cert.C), cert_path)
    except OSError as exc:
        # A design without the certificate it was built with is not kept.
        if wrote:
            _remove_unfinished(args.out)
        print(f"error: cannot write: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_bound(args) -> int:
    try:
        s = bnd.nonincidence_upper_bound(args.order)
        curve = bnd.intersection_curve_data(args.order) if args.curve else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if curve is not None:
        sys.stdout.write(curve.to_csv())
    else:
        print(s)
    return EXIT_OK


def cmd_families(args) -> int:
    if args.classify is not None:
        rec = bnd.classify_equality_order(args.classify)
        if rec is None:
            print("none")
        else:
            print(json.dumps(asdict(rec), sort_keys=True))
        return EXIT_OK
    for rec in bnd.iter_equality_orders(args.zmax):
        print(json.dumps(asdict(rec), sort_keys=True))
    return EXIT_OK


def cmd_search(args) -> int:
    if _same_file(args.out, args.design):
        print(f"error: --out names the --design file {args.design}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        d = _load_design(args.design)
    except (OSError, DesignError, ValueError) as exc:
        print(f"error: cannot read design: {exc}", file=sys.stderr)
        return EXIT_FAIL
    missing = validate_design(d).uncovered
    if missing:
        print(f"error: design file is not a valid STS: {missing} uncovered pairs",
              file=sys.stderr)
        return EXIT_FAIL
    # The report path is opened before the search, so a path that cannot
    # be written fails at once rather than after the search.
    out = None
    try:
        out = open(args.out, "w")
        with out:
            if args.greedy:
                rep = srch.greedy_max_nonincident(d)
            else:
                rep = srch.exact_max_nonincident(d, node_budget=args.budget)
            out.write(rep.to_json())
        out = None
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_FAIL
    finally:
        # A report that was opened but not finished, because the search
        # raised or was interrupted or the write failed, is removed.
        if out is not None:
            _remove_unfinished(args.out)
    print(f"best_s={rep.best_s} exact={rep.exact} bound={rep.bound_used} "
          f"nodes={rep.nodes_visited}")
    if not args.greedy and not rep.exact:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        d = _load_design(args.design)
        cert = NonincidenceCertificate.from_json(Path(args.cert).read_text())
        ok = verify_certificate(d, cert, require_square=args.require_square)
    except DigestMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIGEST
    except (OSError, DesignError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    s = len(cert.Y)
    t = len(cert.C)
    try:
        ceiling = bnd.disjoint_block_bound(d.v, s)
        fv = bnd.nonincidence_upper_bound(d.v)
    except ValueError:
        # The bounds refuse an order with no STS; a partial design there
        # is reported without them.
        ceiling = fv = None
    if ok:
        # The bound counts the blocks avoiding Y, so it holds for partial
        # systems too: a verified claim above it is a verifier fault.
        if fv is not None and min(s, t) > fv:
            raise AssertionError(
                f"verified claim min(|Y|, |C|)={min(s, t)} above the "
                f"theoretical ceiling {fv}"
            )
        print(f"OK: s={s} blocks={t} disjoint-block ceiling={ceiling} "
              f"square-bound={fv}")
        return EXIT_OK
    bad = certificate_violations(d, cert)
    if bad:
        p, i = bad[0]
        print(f"FAIL: point {p} lies on block {i} {d.blocks[i]} "
              f"({len(bad)} incidences total)")
    elif args.require_square and s != t:
        print(f"FAIL: claim is not square (|Y|={s}, |C|={t})")
    else:
        print("FAIL: empty certificate")
    return EXIT_FAIL


def _count(text: str) -> int:
    """An argparse type: an integer that is 0 or more."""
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or n < 0:
        raise argparse.ArgumentTypeError(f"need an integer >= 0, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nonincidence",
        description="Construct, bound, search and verify nonincident "
                    "point/block sets in Steiner triple systems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build an STS and optional certificate")
    c.add_argument("--order", type=int, required=True)
    how = c.add_mutually_exclusive_group()
    how.add_argument("--sub", type=int, help="embed a sub-STS of this order")
    how.add_argument("--double-from", type=int,
                     help="double an STS of this order (order must be 2w+1)")
    c.add_argument("--seed", type=_count, default=0)
    c.add_argument("--budget", type=_count, default=cons.DEFAULT_MOVE_BUDGET,
                   help="move budget of each hill-climb")
    c.add_argument("--out", required=True)
    c.set_defaults(func=cmd_construct)

    b = sub.add_parser("bound", help="print the square-nonincidence upper bound")
    b.add_argument("--order", type=int, required=True)
    b.add_argument("--curve", action="store_true",
                   help="emit the bound-vs-diagonal CSV instead")
    b.set_defaults(func=cmd_bound)

    f = sub.add_parser("families", help="orders where the bound is attained")
    g = f.add_mutually_exclusive_group(required=True)
    g.add_argument("--zmax", type=_count)
    g.add_argument("--classify", type=int)
    f.set_defaults(func=cmd_families)

    s = sub.add_parser("search", help="search a design for nonincident sets")
    s.add_argument("--design", required=True)
    s.add_argument("--greedy", action="store_true",
                   help="run the greedy heuristic instead of exact search")
    s.add_argument("--budget", type=_count, default=srch.DEFAULT_NODE_BUDGET)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_search)

    vf = sub.add_parser("verify", help="check a certificate against a design")
    vf.add_argument("--design", required=True)
    vf.add_argument("--cert", required=True)
    vf.add_argument("--require-square", action="store_true")
    vf.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("NONINCIDENCE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Python flushes stdout again at exit,
        # so stdout is pointed at devnull to keep that flush from failing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
