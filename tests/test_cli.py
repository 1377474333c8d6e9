import json

import pytest

from nonincidence import Design, NonincidenceCertificate
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

    def test_inadmissible_order(self, tmp_path, capsys):
        rc = run("construct", "--order", "11", "--out", str(tmp_path / "x.json"))
        assert rc == EXIT_USAGE
        assert "inadmissible" in capsys.readouterr().err

    def test_budget_exhaustion_exit_code(self, tmp_path):
        rc = run("construct", "--order", "21", "--sub", "9",
                 "--budget", "2", "--out", str(tmp_path / "x.json"))
        assert rc == EXIT_BUDGET

    def test_mismatched_doubling_order(self, tmp_path):
        rc = run("construct", "--order", "21", "--double-from", "9",
                 "--out", str(tmp_path / "x.json"))
        assert rc == EXIT_USAGE


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

    def test_inadmissible_order_reports_without_bounds(self, tmp_path, capsys):
        design = tmp_path / "d8.json"
        d = Design.from_blocks(8, [(0, 1, 2), (3, 4, 5)])
        design.write_text(d.canonical_json())
        rc = self._verify(tmp_path, design, self._claim(d, [0], [1]))
        assert rc == EXIT_OK
        assert "square-bound=None" in capsys.readouterr().out


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
