"""The three workloads of the construct -> search -> verify benchmark.

Every workload is a closed loop with one client: each op starts after the
previous one ends, in one process and one thread (`workers=1` throughout).
A run is a setup followed by passes over the workload's job list; pass k of
a run always gets the same inputs for the same seed.

Ops call the package through module attributes (`search.exact_max_nonincident`
and so on) at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import signal
import tempfile
import time

from nonincidence import bounds, cli, constructions, design, search

# exact_ladder: one node budget shared by every ladder design, just above
# the 1,718,688 nodes build_sts(25, 1) needs, so v=25 is proved and v=27 is
# cut off by the budget.
LADDER_NODE_BUDGET = 1_750_000
# The ladder is a fixed design set (the ROADMAP re-anchor table), so
# frontier_v measures the search and not the draw; the run seed sets only
# the order in which each pass searches it.
LADDER_DESIGN_SEED = 1
LADDER = (
    ("doubling(build_sts(9))", 19,
     lambda: constructions.doubling(constructions.build_sts(9, LADDER_DESIGN_SEED))[0]),
    ("build_sts(19,1)", 19, lambda: constructions.build_sts(19, LADDER_DESIGN_SEED)),
    ("build_sts(25,1)", 25, lambda: constructions.build_sts(25, LADDER_DESIGN_SEED)),
    ("build_sts(27,1)", 27, lambda: constructions.build_sts(27, LADDER_DESIGN_SEED)),
)
# Input fingerprints: sha256 of each ladder design's canonical JSON when the
# benchmark was defined.  A different digest means constructions changed
# what the ladder searches, so its search figures are not comparable.
LADDER_DIGESTS = {
    "doubling(build_sts(9))":
        "5b678168c4a20cd8d80572eaaacd04afa62d2c0a142d3c62f9cf7bb5ba8417b8",
    "build_sts(19,1)":
        "d37a520111773ea45469d9e44daa9106976213ad0686f0334fbf8708373ec8ac",
    "build_sts(25,1)":
        "3a8e81e0e6b6bd3941bf21ed78fbfc1d1d5790606ec903aba80338db3ef94228",
    "build_sts(27,1)":
        "3418474dfdf61f4acbb35c1f603bbd784456daccdb2113c8beb461cdce3693a9",
}

# build_certify: (label, order, w), where w is the sub-order for embed and
# the doubled order for doubling.
BUILD_JOBS = (
    ("embed(9,21)", 21, 9),
    ("embed(13,39)", 39, 13),
    ("embed(15,63)", 63, 15),
    ("embed(21,91)", 91, 21),
    ("embed(31,127)", 127, 31),
    ("bose(99)", 99, None),
    ("doubling(bose(45))", 91, 45),
)

# cli_roundtrip: (label, order, construct arguments, search node budget).
# The v=19 and v=21 budgets leave room above the nodes any seed tried
# needed (at most 96,298 at v=21), so those searches are proved; at v=39
# and v=91 the budget runs out and the search exits 3.
CLI_JOBS = (
    ("21 --sub 9", 21, ["--sub", "9"], 200_000),
    ("39 --sub 13", 39, ["--sub", "13"], 20_000),
    ("91 --sub 21", 91, ["--sub", "21"], 10_000),
    ("19 --double-from 9", 19, ["--double-from", "9"], 200_000),
)

# Hill-climbing is Las Vegas: a seed can reach a state it never completes
# from, and the package documents BudgetExhausted (CLI exit 3) as "retry with
# another seed".  Ops do that: they retry with the next seed, count the
# retry, and keep its time in the op.  The move budget bounds what a stuck
# seed costs (about 0.7 s at v=39); completions that succeed at these orders
# took at most 0.2 s.
MOVE_BUDGET = 500_000
MAX_ATTEMPTS = 4

SMALL_V = 21  # smoke size: only jobs of order <= SMALL_V


# Host speed probe.  On a shared host the CPU speed flips between states
# about 40% apart every few seconds, for this benchmark and for a fixed loop
# alike.  So a fixed pure-Python loop is timed before and after every op and,
# from a timer signal, every PROBE_INTERVAL_S inside it.  Each op's times
# are multiplied by PROBE_REF_S over the mean of those probe times: they
# read as seconds at the speed the benchmark was defined at.  Probe time
# spent inside an op is taken out of the op's times.  The loop, PROBE_REF_S
# and PROBE_INTERVAL_S must never change, or figures stop being comparable.
PROBE_REF_S = 0.004
PROBE_INTERVAL_S = 0.5


def _probe_loop() -> int:
    acc = 0
    for i in range(40_000):
        acc += (i * i) & 1023
    return acc


class SpeedProbe:
    """Probe samples of one run phase; `latest` is the most recent one."""

    def __init__(self):
        self.samples: list[float] = []
        self.latest: float | None = None
        self._stolen = 0.0  # probe time spent inside ops so far

    def clock(self) -> float:
        """perf_counter without the probe time spent inside ops."""
        return time.perf_counter() - self._stolen

    def sample(self) -> float:
        t0 = time.perf_counter()
        _probe_loop()
        self.latest = time.perf_counter() - t0
        self.samples.append(self.latest)
        return self.latest

    def _sample_inside(self, signum, frame) -> None:
        self._stolen += self.sample()

    def timed(self, fn):
        """Call fn(); return its result and the factor that scales its times."""
        first = len(self.samples)
        if self.latest is None:
            self.sample()
        else:
            first -= 1  # the sample taken right after the previous op
        old = signal.signal(signal.SIGALRM, self._sample_inside)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            self.sample()
        around = self.samples[first:]
        return result, PROBE_REF_S * len(around) / sum(around)


class CheckFailed(Exception):
    """An output check failed; the op counts as failed."""


def check(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def pass_seed(seed: int, k: int) -> int:
    """Design seed for pass k: the run seed itself for pass 0."""
    return seed if k == 0 else random.Random(f"{seed}/{k}").randrange(1 << 30)


def plain_nonincident(blocks, Y, C) -> bool:
    """Tuple scan, no bitmasks: Y and C are distinct, in range and disjoint."""
    ys = set(Y)
    if len(ys) != len(Y) or len(set(C)) != len(C):
        return False
    if not all(0 <= i < len(blocks) for i in C):
        return False
    return all(not ys.intersection(blocks[i]) for i in C)


def check_search_cert(blocks, best_s: int, ceiling: int, Y, C) -> None:
    check(best_s <= ceiling, f"best_s={best_s} above the ceiling {ceiling}")
    check(len(Y) == len(C) == best_s,
          f"search certificate |Y|={len(Y)} |C|={len(C)}, best_s={best_s}")
    check(plain_nonincident(blocks, Y, C), "search certificate fails the tuple scan")


def family_sub_order(v: int) -> int | None:
    """w when v is an equality-family order, where a sub-STS(w) reaches the ceiling."""
    rec = bounds.classify_equality_order(v)
    return rec.w if rec is not None else None


def frontier(rows) -> int:
    """Largest v such that every design of order <= v in rows was proved."""
    best = 0
    for v in sorted({r["v"] for r in rows}):
        if not all(r["proved"] for r in rows if r["v"] == v):
            break
        best = v
    return best


class Op:
    """Timed steps of one op; a kind timed twice in one op adds up."""

    def __init__(self, clock):
        self.clock = clock
        self.t: dict[str, float] = {}

    @contextlib.contextmanager
    def timed(self, kind: str):
        t0 = self.clock()
        yield
        self.t[kind] = self.t.get(kind, 0.0) + self.clock() - t0


class Pass:
    """What one pass over a job list did; op and step times are scaled."""

    def __init__(self, k: int, probe: SpeedProbe):
        self.k = k
        self.probe = probe
        self.factors: list[float] = []
        self.ops: list[float] = []
        self.steps: list[tuple[str, dict[str, float]]] = []  # (job, step times)
        self.rows: list[dict] = []
        self.failures: list[str] = []
        self.counters: dict[str, int] = {}

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def run(self, tracer, label: str, v: int, fn) -> None:
        """Run one op; a failure is recorded and the pass goes on."""
        if tracer is not None:
            tracer.op = f"p{self.k}:{label}"
        op = Op(self.probe.clock)
        try:
            row, factor = self.probe.timed(lambda: fn(op))
        except Exception as exc:  # any failure is a failed op, never an abort
            self.failures.append(f"pass {self.k} {label}: {type(exc).__name__}: {exc}")
            row = {"best_s": 0, "proved": False}
        else:
            scaled = {kind: dt * factor for kind, dt in op.t.items()}
            self.factors.append(factor)
            self.ops.append(sum(scaled.values()))
            self.steps.append((label, {"op": self.ops[-1], **scaled}))
        self.rows.append({"job": label, "v": v, **row})


class ExactLadder:
    """exact_max_nonincident on the fixed ladder designs built in setup."""

    name = "exact_ladder"
    trace_passes = 1

    def __init__(self, seed: int, small: bool, out_dir: str):
        self.seed = seed
        self.jobs = [j for j in LADDER if not small or j[1] <= SMALL_V]

    def setup(self, clock) -> dict:
        built, construct = [], []
        for label, v, build in self.jobs:
            t0 = clock()
            d = build()
            construct.append((label, clock() - t0))
            built.append({
                "label": label, "design": d, "valid": design.validate_design(d).ok,
                "digest": d.digest(), "ceiling": bounds.nonincidence_upper_bound(d.v),
                "blocks": d.blocks,
            })
        return {"designs": built, "construct": construct}

    def teardown(self, state) -> None:
        pass

    def inputs(self, state) -> dict:
        out = {"node_budget": LADDER_NODE_BUDGET, "design_seed": LADDER_DESIGN_SEED,
               "designs": {}, "input_changed": []}
        for e in state["designs"]:
            out["designs"][e["label"]] = e["digest"]
            if e["digest"] != LADDER_DIGESTS[e["label"]]:
                out["input_changed"].append(e["label"])
        return out

    def run_pass(self, state, k: int, p: Pass, tracer=None) -> None:
        entries = list(state["designs"])
        random.Random(f"{self.seed}/{k}").shuffle(entries)
        for e in entries:
            p.run(tracer, e["label"], e["design"].v, lambda op, e=e: self._op(op, e))

    @staticmethod
    def _op(op: Op, e: dict) -> dict:
        d = e["design"]
        with op.timed("search"):
            rep = search.exact_max_nonincident(d, node_budget=LADDER_NODE_BUDGET)
        with op.timed("verify"):
            ok = design.verify_certificate(d, rep.certificate, require_square=True)
        check(e["valid"], f"{e['label']} is not a valid STS")
        check(ok, "search certificate does not verify")
        cert = rep.certificate
        check_search_cert(e["blocks"], rep.best_s, e["ceiling"], cert.Y, cert.C)
        return {"digest": e["digest"][:12], "nodes": rep.nodes_visited,
                "best_s": rep.best_s, "exact": rep.exact,
                "proved": rep.exact or rep.best_s == e["ceiling"],
                "search_s": op.t["search"]}


class BuildCertify:
    """Construct a design, validate it, certify it, and run greedy on it."""

    name = "build_certify"
    trace_passes = 30

    def __init__(self, seed: int, small: bool, out_dir: str):
        self.seed = seed
        self.jobs = [j for j in BUILD_JOBS if not small or j[1] <= SMALL_V]

    def setup(self, clock) -> dict:
        ref = {v: {"ceiling": bounds.nonincidence_upper_bound(v),
                   "family_w": family_sub_order(v)} for _, v, _ in self.jobs}
        state = {"ref": ref}
        label, v, w = self.jobs[0]
        try:  # one untimed op, so that lazy set-up is done before timing
            self._op(Op(clock), state, v, w, label, self.seed)
        except Exception:
            pass  # pass 0 runs this op again and counts its failure
        return state

    def teardown(self, state) -> None:
        pass

    def inputs(self, state) -> dict:
        return {"jobs": [j[0] for j in self.jobs],
                "design_seed_pass0": self.seed}

    def run_pass(self, state, k: int, p: Pass, tracer=None) -> None:
        ds = pass_seed(self.seed, k)
        for label, v, w in self.jobs:
            p.run(tracer, label, v,
                  lambda op, v=v, w=w, label=label: self._op(op, state, v, w, label, ds))

    @staticmethod
    def _op(op: Op, state, v: int, w, label: str, ds: int) -> dict:
        ref = state["ref"][v]
        retries = 0
        with op.timed("construct"):
            if label.startswith("embed"):
                while True:
                    try:
                        emb = constructions.embed_subsystem(
                            w, v, ds + retries, move_budget=MOVE_BUDGET)
                        break
                    except constructions.BudgetExhausted:
                        retries += 1
                        if retries == MAX_ATTEMPTS:
                            raise
                d = emb.design
            elif label.startswith("doubling"):
                d, arc = constructions.doubling(constructions.bose(w))
            else:
                d = constructions.bose(v)
        with op.timed("verify"):
            valid = design.validate_design(d).ok
            if label.startswith("embed"):
                cert = constructions.subsystem_complement_certificate(emb)
            elif label.startswith("doubling"):
                _, interior = design.is_subsystem(d, range(w))
                cert = design.NonincidenceCertificate.build(d, arc, interior)
            else:
                cert = None
            cert_ok = cert is None or design.verify_certificate(d, cert)
        with op.timed("search"):
            rep = search.greedy_max_nonincident(d)
        with op.timed("verify"):
            greedy_ok = design.verify_certificate(d, rep.certificate, require_square=True)
        check(valid, f"{label} seed {ds} is not a valid STS")
        check(cert_ok, "construction certificate does not verify")
        proved = rep.best_s == ref["ceiling"]
        if cert is not None:
            check(plain_nonincident(d.blocks, cert.Y, cert.C),
                  "construction certificate fails the tuple scan")
            if label.startswith("embed"):
                want = (v - w, min(w * (w - 1) // 6, v - w))
            else:
                want = (w + 1, w * (w - 1) // 6)
            check((len(cert.Y), len(cert.C)) == want,
                  f"construction certificate is {len(cert.Y)}x{len(cert.C)}, want {want}")
            if ref["family_w"] == w:
                check(len(cert.Y) == len(cert.C) == ref["ceiling"],
                      "subsystem certificate misses the ceiling at a family order")
                proved = True
        check(greedy_ok, "greedy certificate does not verify as square")
        cert_g = rep.certificate
        check_search_cert(d.blocks, rep.best_s, ref["ceiling"], cert_g.Y, cert_g.C)
        return {"design_seed": ds + retries, "budget_exhausted": retries,
                "best_s": rep.best_s, "steps": rep.nodes_visited, "proved": proved}


class CliRoundtrip:
    """In-process `nonincidence` CLI calls over files: construct, search, verify."""

    name = "cli_roundtrip"
    trace_passes = 12

    def __init__(self, seed: int, small: bool, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.jobs = [j for j in CLI_JOBS if not small or j[1] <= SMALL_V]

    @staticmethod
    def _cli(argv) -> tuple[int, str]:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit 2
            rc = exc.code
        return rc, buf.getvalue()

    def setup(self, clock) -> dict:
        ws = tempfile.mkdtemp(prefix="cli-", dir=self.out_dir)
        state = {"ws": ws,
                 "ref": {v: bounds.nonincidence_upper_bound(v) for _, v, _, _ in self.jobs}}
        warm = os.path.join(ws, "warm.json")
        rc, _ = self._cli(["construct", "--order", "19", "--double-from", "9",
                           "--out", warm])
        if rc == 0:
            self._cli(["verify", "--design", warm,
                       "--cert", os.path.join(ws, "warm.cert.json")])
        return state

    def teardown(self, state) -> None:
        shutil.rmtree(state["ws"], ignore_errors=True)

    def inputs(self, state) -> dict:
        return {"jobs": [{"job": j[0], "budget": j[3]} for j in self.jobs],
                "design_seed_pass0": self.seed}

    def run_pass(self, state, k: int, p: Pass, tracer=None) -> None:
        ds = pass_seed(self.seed, k)
        for job in self.jobs:
            p.run(tracer, job[0], job[1],
                  lambda op, job=job: self._op(op, state, p, job, ds))

    def _op(self, op: Op, state, p: Pass, job, ds: int) -> dict:
        label, v, extra, budget = job
        ceiling = state["ref"][v]
        base = os.path.join(state["ws"], f"v{v}")
        dpath, cpath = base + ".json", base + ".cert.json"
        rpath, spath = base + ".report.json", base + ".search-cert.json"
        retries = 0
        with op.timed("construct"):
            while True:
                rc, out = self._cli(["construct", "--order", str(v), *extra,
                                     "--seed", str(ds + retries),
                                     "--budget", str(MOVE_BUDGET), "--out", dpath])
                if rc != 3 or retries + 1 == MAX_ATTEMPTS:
                    break
                retries += 1
        check(rc == 0, f"construct exit {rc}: {out.strip()}")
        p.count("cli.bytes_written", os.path.getsize(dpath) + os.path.getsize(cpath))

        with op.timed("search"):
            rc, out = self._cli(["search", "--design", dpath,
                                 "--budget", str(budget), "--out", rpath])
        p.count("cli.bytes_read", os.path.getsize(dpath))
        with open(rpath) as fh:
            report = json.load(fh)
        p.count("cli.bytes_written", os.path.getsize(rpath))
        check(rc == (0 if report["exact"] else 3),
              f"search exit {rc} with exact={report['exact']}: {out.strip()}")

        with open(dpath) as fh:
            blocks = sorted(tuple(sorted(b)) for b in json.load(fh)["blocks"])
        with open(cpath) as fh:
            claim = json.load(fh)
        if "--double-from" in extra:
            w = int(extra[1])
            want = (w + 1, w * (w - 1) // 6)  # the arc against the sub-blocks
        else:
            want = (ceiling, ceiling)  # every CLI_JOBS --sub order is a family order
        got = (len(claim["Y"]), len(claim["C"]))
        check(got == want, f"construct certificate is {got[0]}x{got[1]}, want {want}")
        check(plain_nonincident(blocks, claim["Y"], claim["C"]),
              "construct certificate fails the tuple scan")
        cert = report["certificate"]
        check_search_cert(blocks, report["best_s"], ceiling, cert["Y"], cert["C"])
        with open(spath, "w") as fh:
            json.dump(cert, fh)

        with op.timed("verify"):
            rc, out = self._cli(["verify", "--design", dpath, "--cert", cpath])
        p.count("cli.bytes_read", os.path.getsize(dpath) + os.path.getsize(cpath))
        check(rc == 0 and out.startswith("OK"), f"verify exit {rc}: {out.strip()}")
        with op.timed("verify"):
            rc, out = self._cli(["verify", "--design", dpath, "--cert", spath,
                                 "--require-square"])
        p.count("cli.bytes_read", os.path.getsize(dpath) + os.path.getsize(spath))
        check(rc == 0 and out.startswith("OK"),
              f"verify --require-square exit {rc}: {out.strip()}")
        return {"design_seed": ds + retries, "budget_exhausted": retries,
                "nodes": report["nodes_visited"],
                "best_s": report["best_s"], "exact": report["exact"],
                "proved": report["exact"] or report["best_s"] == ceiling}


WORKLOADS = {w.name: w for w in (ExactLadder, BuildCertify, CliRoundtrip)}
