import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from functools import cached_property
from pathlib import Path

import pytest

import nonincidence
from nonincidence import (
    MAX_ORDER,
    Design,
    DesignError,
    NonincidenceCertificate,
    cli,
    intersection_curve_data,
    nonincidence_upper_bound,
)
from nonincidence.cli import (
    EXIT_BUDGET,
    EXIT_DIGEST,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from conftest import FANO_BLOCKS


def run(*argv):
    return main(list(argv))


class TestConstruct:
    def test_plain_design(self, tmp_path):
        out = tmp_path / "d9.json"
        assert run("construct", "--order", "9", "--out", str(out)) == EXIT_OK
        d = Design.from_json(out.read_text())
        assert d.v == 9 and d.b == 12

    def test_with_subsystem_writes_certificate(self, tmp_path, capsys):
        out = tmp_path / "d21.json"
        rc = run("construct", "--order", "21", "--sub", "9",
                 "--seed", "1", "--out", str(out))
        assert rc == EXIT_OK
        cert_path = tmp_path / "d21.cert.json"
        cert = NonincidenceCertificate.from_json(cert_path.read_text())
        assert len(cert.Y) == 12 and len(cert.C) == 12
        assert cert.meta["moves"] > 0 and cert.meta["evictions"] >= 0

    def test_doubling_writes_arc(self, tmp_path):
        out = tmp_path / "d19.json"
        rc = run("construct", "--order", "19", "--double-from", "9",
                 "--out", str(out))
        assert rc == EXIT_OK
        cert = NonincidenceCertificate.from_json(
            (tmp_path / "d19.cert.json").read_text()
        )
        assert len(cert.Y) == 10
        assert cert.meta["arc"] is True

    def test_doubling_smallest_block(self, tmp_path):
        # STS(3) has one block, so doubling it certifies 4 points against
        # that block; only STS(1), with no block, is refused.
        out = tmp_path / "d7.json"
        assert run("construct", "--order", "7", "--double-from", "3",
                   "--out", str(out)) == EXIT_OK
        cert = NonincidenceCertificate.from_json(
            (tmp_path / "d7.cert.json").read_text())
        assert (len(cert.Y), len(cert.C)) == (4, 1)
        assert run("verify", "--design", str(out), "--cert",
                   str(tmp_path / "d7.cert.json")) == EXIT_OK

    def test_inadmissible_order(self, tmp_path, capsys):
        rc = run("construct", "--order", "11", "--out", str(tmp_path / "x.json"))
        assert rc == EXIT_USAGE
        assert "inadmissible" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,says", [
        (("--order", "8"), "inadmissible"),
        (("--order", "0"), "inadmissible"),
        (("--order", "-5"), "inadmissible"),
        (("--order", "11", "--sub", "3"), "inadmissible"),
        (("--order", "8", "--double-from", "3"), "gives order 7, not 8"),
        (("--order", "7", "--sub", "1"), "no block"),
        (("--order", "3", "--double-from", "1"), "no block"),
        (("--order", "7", "--sub", "7"), "cannot properly contain"),
    ], ids=["8", "0", "negative", "sub_in_11", "doubling_mismatch", "sub_1",
            "double_from_1", "sub_of_own_order"])
    def test_usage_error_writes_nothing(self, tmp_path, capsys, flags, says):
        # The builders' ValueError is the one check; nothing is written.
        rc = run("construct", *flags, "--out", str(tmp_path / "x.json"))
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert says in err
        assert not any(tmp_path.iterdir())

    def test_budget_exhaustion_exit_code(self, tmp_path, capsys):
        # The budget bounds every climb: STS(25) and the doubling input
        # STS(13) are hill-climbed too.
        for flags in [("--order", "21", "--sub", "9", "--budget", "2"),
                      ("--order", "25", "--budget", "1"),
                      ("--order", "27", "--double-from", "13", "--budget", "1")]:
            rc = run("construct", *flags, "--out", str(tmp_path / "x.json"))
            assert rc == EXIT_BUDGET, flags
            err = capsys.readouterr().err
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1
            assert not any(tmp_path.iterdir())

    def test_budget_that_cannot_finish_is_refused_at_once(self, tmp_path,
                                                          capsys):
        # A move adds at most one block, and this order needs about 1.7e59
        # of them.  The climb allocated its v x v tables first and died
        # with OverflowError.
        start = time.perf_counter()
        rc = run("construct", "--order", str(10**30 + 3),
                 "--out", str(tmp_path / "x.json"))
        assert time.perf_counter() - start < 1
        assert rc == EXIT_BUDGET
        err = capsys.readouterr().err
        assert err == (f"error: no STS({10**30 + 3}) completion within "
                       "10000000 moves (retry with another seed)\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [("--order", "25"),
                                       ("--order", "27", "--double-from", "13"),
                                       ("--order", "21", "--sub", "9")],
                             ids=["build", "doubling", "sub"])
    def test_budget_changes_no_draw(self, tmp_path, flags):
        # A budget only stops a climb, so the default budget and one that
        # is smaller but still enough write the same bytes.
        for name, extra in [("a", ()), ("b", ("--budget", "100000"))]:
            out = tmp_path / name / "d.json"
            out.parent.mkdir()
            assert run("construct", *flags, "--seed", "3", *extra,
                       "--out", str(out)) == EXIT_OK
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in files:
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    @pytest.mark.parametrize("flags,message", [
        (("--sub", "7", "--double-from", "9"), "not allowed with argument"),
        (("--seed", "-1"), "--seed: need an integer >= 0"),
    ], ids=["sub-and-double", "negative-seed"])
    def test_dropped_option_is_usage_error(self, tmp_path, capsys, flags, message):
        # Either would drop an option silently: --sub beside --double-from
        # would be ignored, and random.Random seeds with abs(), so --seed -1
        # would build the design of --seed 1.
        with pytest.raises(SystemExit) as exc:
            run("construct", "--order", "19", *flags,
                "--out", str(tmp_path / "x.json"))
        assert exc.value.code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_mismatched_doubling_order(self, tmp_path, capsys):
        rc = run("construct", "--order", "21", "--double-from", "9",
                 "--out", str(tmp_path / "x.json"))
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: doubling STS(9) gives order 19, not 21\n")

    @pytest.mark.parametrize("flags", [
        (), ("--sub", "31"), ("--double-from", "63")],
        ids=["plain", "sub", "double"])
    def test_missing_out_directory_fails_before_the_build(
            self, tmp_path, monkeypatch, capsys, flags):
        # The directory of --out is asked for before anything is built, so
        # a large design costs nothing: each construction fails if called.
        def refuse(*args, **kwargs):
            raise AssertionError("built before --out was checked")

        for name in ("build_sts", "embed_subsystem", "doubling"):
            monkeypatch.setattr(cli.cons, name, refuse)
        out = tmp_path / "missing" / "x.json"
        assert run("construct", "--order", "127", *flags,
                   "--out", str(out)) == EXIT_FAIL
        err = capsys.readouterr().err
        assert err == ("error: cannot write: [Errno 2] No such file or "
                       f"directory: '{out}'\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,path", [
        (("--out", "missing/x.json"), "missing/x.json"),
        (("--sub", "7", "--out", "d.json"), "d.cert.json"),
        (("--sub", "7", "--out", ""), "Is a directory"),
        (("--double-from", "9", "--out", "/"), "Is a directory"),
    ], ids=["design", "certificate", "empty", "root"])
    def test_unwritable_output(self, tmp_path, monkeypatch, capsys, flags, path):
        # A directory sits where d.json's certificate would go.  An --out
        # with no file name has no certificate path either; it fails as a
        # design that cannot be written, not with a traceback.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.cert.json").mkdir()
        assert run("construct", "--order", "19", *flags) == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error:") and path in err
        assert len(err.strip().splitlines()) == 1
        # No design is left behind without its certificate.
        assert not (tmp_path / "d.json").exists()

    def test_failed_certificate_leaves_an_out_that_is_no_file(
            self, tmp_path, monkeypatch, capsys):
        # The design went through the link to /dev/null, the certificate
        # could not be written, and the cleanup removed the link.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x.json").symlink_to("/dev/null")
        (tmp_path / "x.cert.json").mkdir()
        assert run("construct", "--order", "21", "--sub", "9", "--seed", "1",
                   "--out", "x.json") == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert (tmp_path / "x.json").is_symlink()

    def test_failed_cleanup_keeps_the_error(self, tmp_path, monkeypatch,
                                            capsys):
        # A design that cannot be removed, as /proc/self/fd/1 cannot, made
        # the cleanup raise PermissionError past the error line.
        def refuse(self, missing_ok=False):
            raise PermissionError(1, "Operation not permitted", str(self))

        monkeypatch.chdir(tmp_path)
        (tmp_path / "x.cert.json").mkdir()
        monkeypatch.setattr(cli.Path, "unlink", refuse)
        assert run("construct", "--order", "21", "--sub", "9", "--seed", "1",
                   "--out", "x.json") == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write:")
        assert len(err.strip().splitlines()) == 1

    def test_no_certificate_path_option(self, tmp_path, capsys):
        # The certificate always goes to <stem>.cert.json, which is never
        # --out; --cert-out naming --out kept the certificate alone.
        out = str(tmp_path / "x.json")
        with pytest.raises(SystemExit) as exc:
            run("construct", "--order", "19", "--sub", "7", "--out", out,
                "--cert-out", out)
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --cert-out" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags,links", [
        (("--order", "19", "--double-from", "9"),
         {"x.json": "d.json", "x.cert.json": "x.json"}),
        (("--order", "21", "--sub", "9", "--seed", "1"),
         {"x.cert.json": "x.json"}),
        (("--order", "21", "--sub", "9", "--seed", "1"),
         {"x.json": None, "x.cert.json": None}),
    ], ids=["symlink_chain", "dangling_symlink", "hardlink"])
    def test_certificate_over_its_design_is_usage_error(
            self, tmp_path, monkeypatch, capsys, flags, links):
        # x.cert.json names --out x.json, so the certificate overwrote the
        # design it came with (d.json through the chain) and construct
        # still exited 0.  None marks a hard link to d.json.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.json").write_text("old")
        for name, target in links.items():
            if target is None:
                (tmp_path / name).hardlink_to(tmp_path / "d.json")
            else:
                (tmp_path / name).symlink_to(target)
        before = {p.name: p.is_file() and p.read_text()
                  for p in tmp_path.iterdir()}
        assert run("construct", *flags, "--out", "x.json") == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the certificate path x.cert.json "
                                "names the --out file x.json\n")
        assert {p.name: p.is_file() and p.read_text()
                for p in tmp_path.iterdir()} == before

    def test_negative_budget_is_usage_error(self, tmp_path, capsys):
        # Before, a move budget of -1 ran out at once and exited 3 with
        # "retry with another seed".
        with pytest.raises(SystemExit) as exc:
            run("construct", "--order", "21", "--sub", "9", "--budget", "-1",
                "--out", str(tmp_path / "x.json"))
        assert exc.value.code == EXIT_USAGE
        assert "--budget: need an integer >= 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestBound:
    def test_prints_bound(self, capsys):
        assert run("bound", "--order", "39") == EXIT_OK
        assert capsys.readouterr().out.strip() == "26"

    def test_order_3(self, capsys):
        assert run("bound", "--order", "3") == EXIT_OK
        assert capsys.readouterr().out.strip() == "0"

    def test_curve_csv(self, capsys):
        assert run("bound", "--order", "39", "--curve") == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "s,bound,diagonal"
        assert lines[1 + 26] == "26,26,26"

    def test_inadmissible(self, capsys):
        assert run("bound", "--order", "8") == EXIT_USAGE


class TestFamilies:
    def test_zmax0(self, capsys):
        assert run("families", "--zmax", "0") == EXIT_OK
        recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [r["v"] for r in recs] == [1, 21, 39, 91]
        assert [r["s"] for r in recs] == [0, 12, 26, 70]

    def test_classify_hit(self, capsys):
        assert run("families", "--classify", "91") == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["family"] == 4 and rec["z"] == 0

    def test_classify_exact_output(self, capsys):
        assert run("families", "--classify", "91") == EXIT_OK
        assert capsys.readouterr().out == (
            '{"family": 4, "s": 70, "t": 47, "u": 8, "v": 91, "w": 21, "z": 0}\n'
        )

    def test_classify_miss(self, capsys):
        assert run("families", "--classify", "15") == EXIT_OK
        assert capsys.readouterr().out.strip() == "none"

    @pytest.mark.parametrize("zmax", ["-1", "x"])
    def test_bad_zmax_is_usage_error(self, capsys, zmax):
        # Before, -1 ended in a ValueError traceback.
        with pytest.raises(SystemExit) as exc:
            run("families", "--zmax", zmax)
        assert exc.value.code == EXIT_USAGE
        assert "--zmax: need an integer >= 0" in capsys.readouterr().err


class TestSearch:
    def test_exact_on_fano(self, tmp_path, capsys):
        design = tmp_path / "f.json"
        report = tmp_path / "rep.json"
        assert run("construct", "--order", "7", "--seed", "1",
                   "--out", str(design)) == EXIT_OK
        assert run("search", "--design", str(design),
                   "--out", str(report)) == EXIT_OK
        data = json.loads(report.read_text())
        assert data["best_s"] == 2 and data["exact"] is True

    def test_greedy_on_embedded_21(self, tmp_path):
        design = tmp_path / "d.json"
        report = tmp_path / "rep.json"
        run("construct", "--order", "21", "--sub", "9", "--seed", "1",
            "--out", str(design))
        assert run("search", "--design", str(design), "--greedy",
                   "--out", str(report)) == EXIT_OK
        data = json.loads(report.read_text())
        assert data["exact"] is False
        assert data["best_s"] <= 12

    def test_family_order_proved_by_subsystem(self, tmp_path, capsys):
        # v=39 is a family order: the embedded sub-STS(13) proves 26.
        design = tmp_path / "d39.json"
        report = tmp_path / "rep.json"
        assert run("construct", "--order", "39", "--sub", "13",
                   "--out", str(design)) == EXIT_OK
        assert run("search", "--design", str(design),
                   "--out", str(report)) == EXIT_OK
        data = json.loads(report.read_text())
        assert data["exact"] is True and data["best_s"] == 26
        assert "nodes=0" in capsys.readouterr().out

    def test_report_and_certificate_keys(self, tmp_path):
        design = tmp_path / "d21.json"
        report = tmp_path / "rep.json"
        run("construct", "--order", "21", "--sub", "9", "--seed", "1",
            "--out", str(design))
        assert run("search", "--design", str(design),
                   "--out", str(report)) == EXIT_OK
        data = json.loads(report.read_text())
        assert set(data) == {"best_s", "bound_used", "certificate",
                             "elapsed_seconds", "exact", "method",
                             "nodes_visited"}
        cert_keys = {"C", "Y", "design_digest", "digest_algorithm", "meta", "v"}
        assert set(data["certificate"]) == cert_keys
        written = json.loads((tmp_path / "d21.cert.json").read_text())
        assert set(written) == cert_keys

    def test_corrupt_design_rejected(self, tmp_path, capsys):
        design = tmp_path / "bad.json"
        design.write_text(json.dumps(
            {"v": 7, "blocks": [[0, 1, 2], [0, 3, 4], [0, 5, 6]]}
        ))
        rc = run("search", "--design", str(design), "--out",
                 str(tmp_path / "r.json"))
        assert rc == EXIT_FAIL
        assert "uncovered pairs" in capsys.readouterr().err

    def test_bool_label_rejected(self, tmp_path, capsys):
        design = tmp_path / "bool.json"
        design.write_text(Design.from_blocks(7, FANO_BLOCKS).canonical_json()
                          .replace("[0,1,2]", "[0,true,2]"))
        rc = run("search", "--design", str(design), "--out",
                 str(tmp_path / "r.json"))
        assert rc == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error:") and "True" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "r.json").exists()

    def test_budget_truncation_exit_code(self, tmp_path):
        design = tmp_path / "d15.json"
        run("construct", "--order", "15", "--out", str(design))
        rc = run("search", "--design", str(design), "--budget", "5",
                 "--out", str(tmp_path / "r.json"))
        assert rc == EXIT_BUDGET

    def test_budget_zero_and_negative(self, tmp_path, capsys):
        # Greedy meets the Fano ceiling, so a budget of 0 still proves it;
        # a negative budget was read as exhausted and exited 3.
        design = tmp_path / "f.json"
        report = tmp_path / "r.json"
        design.write_text(Design.from_blocks(7, FANO_BLOCKS).canonical_json())
        assert run("search", "--design", str(design), "--budget", "0",
                   "--out", str(report)) == EXIT_OK
        report.unlink()
        with pytest.raises(SystemExit) as exc:
            run("search", "--design", str(design), "--budget", "-1",
                "--out", str(report))
        assert exc.value.code == EXIT_USAGE
        assert "--budget: need an integer >= 0" in capsys.readouterr().err
        assert not report.exists()

    def test_unwritable_report(self, tmp_path, monkeypatch, capsys):
        # The report path fails before any search starts.
        def no_search(*args, **kwargs):
            pytest.fail("searched before the report path was opened")

        monkeypatch.setattr(cli.srch, "exact_max_nonincident", no_search)
        design = tmp_path / "f.json"
        design.write_text(Design.from_blocks(7, FANO_BLOCKS).canonical_json())
        rc = run("search", "--design", str(design),
                 "--out", str(tmp_path / "missing" / "r.json"))
        assert rc == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error:") and "r.json" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("out", ["d.json", "./d.json", "link.json", "hard.json"],
                             ids=["same", "dot", "symlink", "hardlink"])
    def test_report_over_its_design_is_usage_error(
            self, tmp_path, monkeypatch, capsys, out):
        # The report overwrote the design, so a later verify failed with
        # "malformed design file: 'v'".
        monkeypatch.chdir(tmp_path)
        design = tmp_path / "d.json"
        text = Design.from_blocks(7, FANO_BLOCKS).canonical_json()
        design.write_text(text)
        (tmp_path / "link.json").symlink_to(design)
        (tmp_path / "hard.json").hardlink_to(design)
        assert run("search", "--design", "d.json", "--out", out) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --out names the --design file "
                                "d.json\n")
        assert design.read_text() == text

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_failed_search_leaves_no_report(self, tmp_path, monkeypatch, exc):
        # The report is opened before the search, so a search that raises
        # or is interrupted must remove it rather than leave it empty.
        def broken(*args, **kwargs):
            raise exc("search stopped")

        monkeypatch.setattr(cli.srch, "exact_max_nonincident", broken)
        design = tmp_path / "f.json"
        design.write_text(Design.from_blocks(7, FANO_BLOCKS).canonical_json())
        with pytest.raises(exc):
            run("search", "--design", str(design),
                "--out", str(tmp_path / "r.json"))
        assert not (tmp_path / "r.json").exists()

    def test_failed_cleanup_keeps_the_interrupt(self, tmp_path, monkeypatch):
        # The cleanup's PermissionError replaced the KeyboardInterrupt.
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        def refuse(self, missing_ok=False):
            raise PermissionError(1, "Operation not permitted", str(self))

        monkeypatch.setattr(cli.srch, "exact_max_nonincident", interrupted)
        monkeypatch.setattr(cli.Path, "unlink", refuse)
        design = tmp_path / "f.json"
        design.write_text(Design.from_blocks(7, FANO_BLOCKS).canonical_json())
        with pytest.raises(KeyboardInterrupt):
            run("search", "--design", str(design),
                "--out", str(tmp_path / "r.json"))


class TestVerify:
    @pytest.fixture
    def artifacts(self, tmp_path):
        design = tmp_path / "d21.json"
        run("construct", "--order", "21", "--sub", "9", "--seed", "1",
            "--out", str(design))
        return design, tmp_path / "d21.cert.json"

    def test_valid_certificate(self, artifacts, capsys):
        design, cert = artifacts
        rc = run("verify", "--design", str(design), "--cert", str(cert),
                 "--require-square")
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "s=12" in out and "square-bound=12" in out

    def test_injected_incidence_named(self, artifacts, tmp_path, capsys):
        design, cert_path = artifacts
        d = Design.from_json(design.read_text())
        cert = NonincidenceCertificate.from_json(cert_path.read_text())
        block_pt = d.blocks[cert.C[0]][0]
        bad = NonincidenceCertificate(
            v=cert.v,
            Y=tuple(sorted(set(cert.Y) | {block_pt})),
            C=cert.C,
            design_digest=cert.design_digest,
        )
        bad_path = tmp_path / "bad.cert.json"
        bad_path.write_text(bad.to_json())
        rc = run("verify", "--design", str(design), "--cert", str(bad_path))
        assert rc == EXIT_FAIL
        assert f"point {block_pt} lies on block" in capsys.readouterr().out

    def test_wrong_design_digest_code(self, artifacts, tmp_path):
        _, cert = artifacts
        other = tmp_path / "d9.json"
        run("construct", "--order", "9", "--out", str(other))
        rc = run("verify", "--design", str(other), "--cert", str(cert))
        assert rc == EXIT_DIGEST


class TestVerifyRejectsMalformed:
    @pytest.fixture
    def bose9(self, tmp_path):
        design = tmp_path / "d9.json"
        assert run("construct", "--order", "9", "--out", str(design)) == EXIT_OK
        return design, Design.from_json(design.read_text())

    def _verify(self, tmp_path, design, data, *flags):
        cert = tmp_path / "c.json"
        cert.write_text(json.dumps(data))
        return run("verify", "--design", str(design), "--cert", str(cert), *flags)

    def _claim(self, d, Y, C):
        return {"v": d.v, "design_digest": d.digest(), "Y": Y, "C": C}

    def test_forged_duplicates_fail(self, bose9, tmp_path, capsys):
        # Five copies of point 0 and of one block avoiding it would claim
        # s=5, above the STS(9) ceiling of 3.
        design, d = bose9
        i = next(i for i, blk in enumerate(d.blocks) if 0 not in blk)
        rc = self._verify(tmp_path, design, self._claim(d, [0] * 5, [i] * 5),
                          "--require-square")
        assert rc == EXIT_FAIL
        out = capsys.readouterr()
        assert "OK" not in out.out
        assert "listed twice" in out.err

    def test_other_digest_algorithm_is_digest_error(self, bose9, tmp_path, capsys):
        # A sha256 digest labelled as md5 must not verify.
        design, d = bose9
        data = self._claim(d, [0], [next(i for i, blk in enumerate(d.blocks)
                                         if 0 not in blk)])
        data["digest_algorithm"] = "md5"
        rc = self._verify(tmp_path, design, data)
        assert rc == EXIT_DIGEST
        out = capsys.readouterr()
        assert "OK" not in out.out and out.err.startswith("error:")

    def test_out_of_range_block_index_fails(self, bose9, tmp_path, capsys):
        design, d = bose9
        rc = self._verify(tmp_path, design, self._claim(d, [0], [999]))
        assert rc == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error:") and "999" in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_y_key_fails(self, bose9, tmp_path, capsys):
        design, d = bose9
        data = self._claim(d, [0], [1])
        del data["Y"]
        rc = self._verify(tmp_path, design, data)
        assert rc == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'Y'" in err
        assert len(err.strip().splitlines()) == 1

    def test_bool_label_in_design_fails(self, bose9, tmp_path, capsys):
        # The first canonical block starts with point 0.
        design, d = bose9
        design.write_text(d.canonical_json().replace("[[0,", "[[false,", 1))
        rc = self._verify(tmp_path, design, self._claim(d, [0], [1]))
        assert rc == EXIT_FAIL
        err = capsys.readouterr().err
        assert err.startswith("error:") and "False" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["verify", "search"])
    def test_repeated_pair_in_design_fails(self, bose9, tmp_path, capsys, command):
        # A second block through the pair of block 0's first two points.
        design, d = bose9
        a, b, _ = d.blocks[0]
        c = next(p for p in range(d.v) if p not in d.blocks[0])
        design.write_text(json.dumps(
            {"v": d.v, "blocks": [list(blk) for blk in d.blocks] + [[a, b, c]]}
        ))
        report = tmp_path / "r.json"
        if command == "verify":
            rc = self._verify(tmp_path, design, self._claim(d, [0], [1]))
        else:
            rc = run("search", "--design", str(design), "--out", str(report))
        assert rc == EXIT_FAIL
        out = capsys.readouterr()
        assert out.out == "" and not report.exists()
        assert out.err.startswith("error:") and "lies on two blocks" in out.err
        assert len(out.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("ny,nc,over", [(4, 4, True), (9, 3, False), (3, 3, False)])
    def test_claim_above_square_bound_is_internal_error(
            self, bose9, tmp_path, capsys, monkeypatch, ny, nc, over):
        # The square bound at v=9 is 3.  Only a faulty verifier can pass a
        # claim above it, so one is forced here by patching the verifier.
        design, d = bose9
        monkeypatch.setattr(cli, "verify_certificate", lambda *args, **kw: True)
        data = self._claim(d, list(range(ny)), list(range(nc)))
        if over:
            with pytest.raises(AssertionError, match=r"=4 above .* ceiling 3"):
                self._verify(tmp_path, design, data)
            assert "OK" not in capsys.readouterr().out
        else:
            assert self._verify(tmp_path, design, data) == EXIT_OK
            assert capsys.readouterr().out.startswith("OK")

    @pytest.mark.parametrize("Y,nc,flags,says", [
        ([0], 2, ("--require-square",), "claim is not square (|Y|=1, |C|=2)"),
        ([], 1, (), "empty certificate"),
    ], ids=["not_square", "empty"])
    def test_incidence_free_claim_fails(self, bose9, tmp_path, capsys,
                                        Y, nc, flags, says):
        # No certified point lies on a certified block, yet the claim fails.
        design, d = bose9
        C = [i for i, blk in enumerate(d.blocks) if 0 not in blk][:nc]
        rc = self._verify(tmp_path, design, self._claim(d, Y, C), *flags)
        assert rc == EXIT_FAIL
        assert capsys.readouterr().out == f"FAIL: {says}\n"

    def test_inadmissible_order_reports_without_bounds(self, tmp_path, capsys):
        design = tmp_path / "d8.json"
        d = Design.from_blocks(8, [(0, 1, 2), (3, 4, 5)])
        design.write_text(d.canonical_json())
        rc = self._verify(tmp_path, design, self._claim(d, [0], [1]))
        assert rc == EXIT_OK
        assert "square-bound=None" in capsys.readouterr().out



DEEP = "[" * 200_000 + "]" * 200_000


class TestHostileInput:
    """Files that the JSON parser or the allocator cannot take get one
    error line and exit 1, never a traceback."""

    @pytest.fixture
    def files(self, tmp_path):
        # A Fano design and a certificate for it that verifies.
        d = Design.from_blocks(7, FANO_BLOCKS)
        i = next(i for i, blk in enumerate(d.blocks) if 0 not in blk)
        design, cert = tmp_path / "d.json", tmp_path / "c.json"
        design.write_text(d.canonical_json())
        cert.write_text(NonincidenceCertificate.build(d, [0], [i]).to_json())
        return design, cert

    @staticmethod
    def _one_error(rc, capsys):
        assert rc == EXIT_FAIL
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:")
        assert len(out.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["search", "verify"])
    @pytest.mark.parametrize("text", [
        DEEP,
        json.dumps({"v": 10**100, "blocks": [[0, 1, 2]]}),
        json.dumps({"v": 2**62, "blocks": [[0, 1, 2]]}),
    ], ids=["deep_nesting", "order_10e100", "order_2e62"])
    def test_design_file(self, files, tmp_path, capsys, command, text):
        # These raised RecursionError, OverflowError and MemoryError.  Both
        # orders fail before anything is allocated.
        design, cert = files
        design.write_text(text)
        report = tmp_path / "r.json"
        if command == "search":
            rc = run("search", "--design", str(design), "--out", str(report))
        else:
            rc = run("verify", "--design", str(design), "--cert", str(cert))
        self._one_error(rc, capsys)
        assert not report.exists()

    @pytest.mark.parametrize("v,missing", [(999, 498498), (11, 52)],
                             ids=["order_999", "inadmissible_11"])
    def test_one_block_file_counts_uncovered_pairs(
            self, files, tmp_path, capsys, v, missing):
        # One block covers 3 of the v(v-1)/2 pairs.  The count alone says
        # so: no pair is listed, so the whole check stays small.
        design, _ = files
        design.write_text(json.dumps({"v": v, "blocks": [[0, 1, 2]]}))
        report = tmp_path / "r.json"
        tracemalloc.start()
        try:
            rc = run("search", "--design", str(design), "--out", str(report))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_FAIL
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: design file is not a valid STS: {missing} "
                           "uncovered pairs\n")
        assert not report.exists()
        assert peak < 5 * 2**20

    def test_deeply_nested_certificate(self, files, capsys):
        design, cert = files
        argv = ["verify", "--design", str(design), "--cert", str(cert)]
        assert run(*argv) == EXIT_OK
        capsys.readouterr()
        cert.write_text(DEEP)
        self._one_error(run(*argv), capsys)


# The address space of a child run by _run_capped, in bytes.  A check
# that is missing then ends in a MemoryError inside the child, never on
# the host.
CHILD_ADDRESS_SPACE = 512 * 2**20


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def _capped_child(argv):
    """The argument list and keywords that run the CLI with argv in a
    child process whose address space alone is capped at
    CHILD_ADDRESS_SPACE."""
    src = str(Path(nonincidence.__file__).resolve().parents[1])
    return ([sys.executable, "-m", "nonincidence.cli", *argv],
            dict(env=dict(os.environ, PYTHONPATH=src), text=True,
                 preexec_fn=_cap_address_space))


def _run_capped(*argv):
    """Run the CLI with argv in a capped child (_capped_child); return the
    completed process."""
    args, kwargs = _capped_child(argv)
    return subprocess.run(args, capture_output=True, timeout=120, **kwargs)


class TestOrderLimit:
    """An order above MAX_ORDER gets one error line and the documented
    exit code before anything that grows with it is allocated."""

    def test_limit_is_inclusive(self):
        assert Design.from_blocks(MAX_ORDER, []).v == MAX_ORDER
        with pytest.raises(DesignError, match="above the limit"):
            Design.from_blocks(MAX_ORDER + 1, [])

    @pytest.mark.parametrize("flags", [
        ("--order", str(10**30 + 5)),
        # The first Bose order above the limit.
        ("--order", str(next(v for v in range(MAX_ORDER + 1, MAX_ORDER + 7)
                             if v % 6 == 3))),
        ("--order", str(10**30 + 3), "--budget", str(10**60)),
        ("--order", str(10**30 + 3), "--sub", "7", "--budget", str(10**60)),
    ], ids=["bose_10e30", "bose_limit", "climb_10e30", "embed_10e30"])
    def test_construct(self, tmp_path, flags):
        # Bose is refused at once; a climb is refused once its budget test
        # passes, so a budget that cannot finish still exits 3 first.
        out = tmp_path / "x.json"
        proc = _run_capped("construct", *flags, "--out", str(out))
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == (f"error: order {flags[1]} is above the limit "
                               f"of {MAX_ORDER}\n")
        assert not any(tmp_path.iterdir())

    def test_curve(self):
        # The curve has v + 1 rows, so its order is limited as a design's
        # is; the bound alone is one number at any order.
        order = "1000000003"
        proc = _run_capped("bound", "--order", order, "--curve")
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == (f"error: order {order} is above the limit "
                               f"of {MAX_ORDER}\n")
        proc = _run_capped("bound", "--order", order)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert int(proc.stdout) == nonincidence_upper_bound(int(order))
        with pytest.raises(DesignError, match="above the limit"):
            intersection_curve_data(int(order))

    def test_families_print_as_they_are_made(self):
        # A list of every record up to this z does not fit in the child,
        # so the first records arrive only if each is printed as made.
        args, kwargs = _capped_child(("families", "--zmax", "100000000"))
        child = subprocess.Popen(args, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, **kwargs)
        try:
            first = [json.loads(child.stdout.readline())["v"]
                     for _ in range(3)]
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
        assert first == [1, 21, 39]

    @pytest.mark.parametrize("command", ["search", "verify"])
    def test_design_file(self, tmp_path, command):
        design = tmp_path / "d.json"
        design.write_text(json.dumps({"v": 10**9, "blocks": [[0, 1, 2]]}))
        if command == "search":
            argv = ("--out", str(tmp_path / "r.json"))
        else:
            cert = tmp_path / "c.json"
            cert.write_text(json.dumps({"v": 10**9, "Y": [3], "C": [0],
                                        "design_digest": "0"}))
            argv = ("--cert", str(cert))
        proc = _run_capped(command, "--design", str(design), *argv)
        assert proc.returncode == EXIT_FAIL, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.endswith(f"order {10**9} is above the limit of "
                                    f"{MAX_ORDER}\n")
        assert len(proc.stderr.splitlines()) == 1
        assert not (tmp_path / "r.json").exists()


class TestClosedStdout:
    """A reader that closes stdout early is a file that cannot be written:
    the command stops with exit 1 and prints nothing to stderr, neither a
    traceback nor the interpreter's note that its flush at exit failed."""

    def _wait(self, child, err):
        try:
            code = child.wait(timeout=60)
        finally:
            child.kill()
            child.wait()
        err.seek(0)
        return code, err.read()

    def test_families_after_two_records(self, tmp_path):
        args, kwargs = _capped_child(("families", "--zmax", "100000000"))
        with open(tmp_path / "err", "w+") as err:
            child = subprocess.Popen(args, stdout=subprocess.PIPE,
                                     stderr=err, **kwargs)
            with child.stdout:
                first = [json.loads(child.stdout.readline())["v"]
                         for _ in range(2)]
            code, text = self._wait(child, err)
        assert first == [1, 21]
        assert code == EXIT_FAIL
        assert text == ""

    def test_curve_with_no_reader(self, tmp_path):
        # The curve is one write, which a pipe may take whole before its
        # reader gets to close it, so here the reader is gone from the
        # start.
        args, kwargs = _capped_child(("bound", "--order", "99999", "--curve"))
        r, w = os.pipe()
        os.close(r)
        with open(tmp_path / "err", "w+") as err:
            try:
                child = subprocess.Popen(args, stdout=w, stderr=err, **kwargs)
            finally:
                os.close(w)
            code, text = self._wait(child, err)
        assert code == EXIT_FAIL
        assert text == ""


def test_construct_search_verify_round_trip(tmp_path):
    design = tmp_path / "d.json"
    report = tmp_path / "rep.json"
    run("construct", "--order", "13", "--seed", "3", "--out", str(design))
    # Serialization is idempotent.
    text = design.read_text()
    assert Design.from_json(text).canonical_json() == text
    assert run("search", "--design", str(design),
               "--out", str(report)) == EXIT_OK
    data = json.loads(report.read_text())
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps(data["certificate"]))
    assert run("verify", "--design", str(design), "--cert", str(cert),
               "--require-square") == EXIT_OK


class TestCallsInOneProcess:
    """main() builds its parser once; no call may leak into the next."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_construct_formats_the_design_once(self, tmp_path, monkeypatch):
        # The certificate's digest and the written file share one
        # canonical text.
        formatted = []
        fmt = Design._canonical_json.func

        def counted(d):
            formatted.append(d.v)
            return fmt(d)

        prop = cached_property(counted)
        prop.__set_name__(Design, "_canonical_json")
        monkeypatch.setattr(Design, "_canonical_json", prop)
        for order, flag, w in (("21", "--sub", "9"),
                               ("19", "--double-from", "9")):
            assert run("construct", "--order", order, flag, w, "--out",
                       str(tmp_path / f"d{order}.json")) == EXIT_OK
        assert formatted == [21, 19]
        for order in ("21", "19"):
            text = (tmp_path / f"d{order}.json").read_text()
            assert Design.from_json(text).canonical_json() == text

    def test_search_method_is_per_call(self, tmp_path):
        design = tmp_path / "d.json"
        greedy, exact = tmp_path / "greedy.json", tmp_path / "exact.json"
        assert run("construct", "--order", "13", "--seed", "3",
                   "--out", str(design)) == EXIT_OK
        assert run("search", "--design", str(design), "--greedy",
                   "--out", str(greedy)) == EXIT_OK
        assert run("search", "--design", str(design),
                   "--out", str(exact)) == EXIT_OK
        assert json.loads(greedy.read_text())["method"] == "greedy"
        assert json.loads(exact.read_text())["method"] == "exact"

    def test_require_square_is_per_call(self, tmp_path):
        # The doubling certificate holds 10 points and 12 blocks.
        design = tmp_path / "d19.json"
        cert = tmp_path / "d19.cert.json"
        assert run("construct", "--order", "19", "--double-from", "9",
                   "--out", str(design)) == EXIT_OK
        assert run("verify", "--design", str(design), "--cert", str(cert),
                   "--require-square") == EXIT_FAIL
        assert run("verify", "--design", str(design),
                   "--cert", str(cert)) == EXIT_OK

    def test_usage_error_between_valid_calls(self, tmp_path):
        assert run("construct", "--order", "9",
                   "--out", str(tmp_path / "a.json")) == EXIT_OK
        with pytest.raises(SystemExit) as exc:
            run("construct", "--order", "19", "--sub", "9", "--double-from",
                "9", "--out", str(tmp_path / "x.json"))
        assert exc.value.code == EXIT_USAGE
        assert run("construct", "--order", "9",
                   "--out", str(tmp_path / "b.json")) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    def test_command_replaced_after_the_first_call_runs(self, tmp_path,
                                                        monkeypatch):
        # A tracer wraps cli.cmd_* after an untraced first call has built
        # the parser; the wrapper must still see every later call.
        design = tmp_path / "d19.json"
        cert = tmp_path / "d19.cert.json"
        assert run("construct", "--order", "19", "--double-from", "9",
                   "--out", str(design)) == EXIT_OK
        seen = []
        real = cli.cmd_verify

        def wrapper(args):
            seen.append(args.cert)
            return real(args)

        monkeypatch.setattr(cli, "cmd_verify", wrapper)
        assert run("verify", "--design", str(design),
                   "--cert", str(cert)) == EXIT_OK
        assert seen == [str(cert)]

    def test_log_level_is_read_on_every_call(self, tmp_path, monkeypatch,
                                             capsys):
        def construct(name):
            out = tmp_path / name
            assert run("construct", "--order", "7", "--out", str(out)) == EXIT_OK
            return out, capsys.readouterr().err

        monkeypatch.delenv("NONINCIDENCE_LOG", raising=False)
        _, first = construct("a.json")
        monkeypatch.setenv("NONINCIDENCE_LOG", "INFO")
        out, second = construct("b.json")
        monkeypatch.delenv("NONINCIDENCE_LOG")
        _, third = construct("c.json")
        assert first == "" and third == ""
        assert second == f"INFO nonincidence: wrote design order 7 to {out}\n"

    @pytest.mark.parametrize("name", ["chatty", "basic_format"])
    def test_unknown_log_level_is_warning(self, tmp_path, monkeypatch, name):
        # A name that is no level, even one that logging defines as another
        # thing (BASIC_FORMAT is a string), logs at WARNING.  A fresh
        # process, whose root logger has no handler yet.
        monkeypatch.setenv("NONINCIDENCE_LOG", name)
        child = _run_capped("construct", "--order", "7",
                            "--out", str(tmp_path / "d.json"))
        assert (child.returncode, child.stdout, child.stderr) == (EXIT_OK, "", "")
