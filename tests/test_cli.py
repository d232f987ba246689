"""End-to-end tests of the command-line interface.

Commands run in process through main(argv) so exit codes and output
files are exercised without subprocess overhead.
"""

import json

import pytest

from frobsieve.cli import main
from frobsieve.elliptic import EndomorphismElement
from frobsieve.ffcore import Poly, is_irreducible
from frobsieve.sieve2d import (
    BivariatePoly,
    EERestriction,
    JLSetup,
    LinearSystemEE,
    NSClassEE,
    ee_relation,
    ee_setup,
    jl_relation,
    linear_system_ee,
)


@pytest.fixture(scope="module")
def rep_files(tmp_path_factory):
    """One stored representation per kind, built through the CLI itself."""
    base = tmp_path_factory.mktemp("reps")
    paths = {}
    specs = {
        "kummer": ["--kind", "kummer", "--p", "43", "--d", "6"],
        "artin-schreier": ["--kind", "artin-schreier", "--p", "7"],
        "torus": ["--kind", "torus", "--p", "13", "--d", "7", "--u-r", "8"],
        "elliptic-residue": ["--kind", "elliptic-residue", "--p", "11", "--d", "7"],
    }
    for kind, argv in specs.items():
        out = base / f"{kind}.json"
        assert main(["build"] + argv + ["--out", str(out)]) == 0
        paths[kind] = out
    return paths


class TestBuild:
    def test_kummer_envelope(self, rep_files):
        doc = json.loads(rep_files["kummer"].read_text())
        assert doc["manifest"]["command"] == "build"
        assert doc["manifest"]["params"]["p"] == 43
        rep = doc["rep"]
        assert rep["kind"] == "kummer"
        assert rep["params"]["zeta"] == 37
        assert rep["params"]["r"] == 3
        assert is_irreducible(Poly(rep["A"], 43))

    def test_torus_base_override(self, rep_files):
        rep = json.loads(rep_files["torus"].read_text())["rep"]
        assert rep["A"] == [1, 4, 4, 10, 12, 3, 9, 1]
        assert rep["params"]["tau"] == 4
        assert rep["frobenius"]["variant"] == "homography"

    def test_elliptic_carries_curve(self, rep_files):
        rep = json.loads(rep_files["elliptic-residue"].read_text())["rep"]
        assert rep["curve"]["coeffs_short"] == [2, 7]
        assert rep["frobenius"]["variant"] == "curve-translation"

    def test_missing_degree_rejected(self, capsys):
        assert main(["build", "--kind", "kummer", "--p", "43"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "ValueError"

    def test_additive_degree_conflict(self):
        assert main(["build", "--kind", "artin-schreier", "--p", "7",
                     "--d", "6"]) == 2

    def test_seed_flag_gone(self, rep_files):
        # no builder draws at random, so build takes no seed
        assert "seed" not in json.loads(rep_files["kummer"].read_text())["manifest"]["params"]
        with pytest.raises(SystemExit) as exc:
            main(["build", "--kind", "kummer", "--p", "43", "--d", "6", "--seed", "1"])
        assert exc.value.code == 2


class TestCheck:
    @pytest.mark.parametrize(
        "kind", ["kummer", "artin-schreier", "torus", "elliptic-residue"]
    )
    def test_round_trip(self, rep_files, kind, tmp_path):
        out = tmp_path / "check.json"
        assert main(["check", str(rep_files[kind]), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] is True
        names = {c["name"] for c in doc["checks"]}
        assert "frobenius-consistency" in names
        assert "modulus-irreducible" in names

    def test_elliptic_lists_skipped_check(self, rep_files, tmp_path):
        # degree-invariance never runs on an elliptic rep, so it is not
        # reported as ok; the other kinds run it and carry no skipped key
        for kind, path in rep_files.items():
            out = tmp_path / f"{kind}.json"
            assert main(["check", str(path), "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            names = [c["name"] for c in doc["checks"]]
            if kind == "elliptic-residue":
                assert "degree-invariance" not in names
                assert "elliptic-model" in names
                assert doc["skipped"] == [
                    {"name": "degree-invariance", "detail": "needs live curve data"}
                ]
            else:
                assert "degree-invariance" in names
                assert "skipped" not in doc

    def test_raw_rep_accepted(self, rep_files, tmp_path):
        raw = json.loads(rep_files["kummer"].read_text())["rep"]
        path = tmp_path / "raw.json"
        path.write_text(json.dumps(raw))
        assert main(["check", str(path)]) == 0

    def test_corrupted_modulus(self, rep_files, tmp_path, capsys):
        doc = json.loads(rep_files["kummer"].read_text())
        doc["rep"]["A"][0] = (doc["rep"]["A"][0] + 1) % 43
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "check.json"
        assert main(["check", str(bad), "--out", str(out)]) == 4
        report = json.loads(out.read_text())
        assert report["ok"] is False
        failed = [c for c in report["checks"] if not c["ok"]]
        assert failed and failed[0]["name"] == "frobenius-consistency"

    def test_tampered_torus_tau(self, rep_files, tmp_path):
        # tau lives in params and in the homography; an edit to params alone
        # used to pass check and then fail dlog with exit 3
        doc = json.loads(rep_files["torus"].read_text())
        doc["rep"]["params"]["tau"] = (doc["rep"]["params"]["tau"] + 1) % 13
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "check.json"
        assert main(["check", str(bad), "--out", str(out)]) == 4
        report = json.loads(out.read_text())
        assert report["ok"] is False
        failed = [c for c in report["checks"] if not c["ok"]]
        assert failed and failed[0]["name"] == "frobenius-consistency"
        assert "params.tau" in failed[0]["detail"]
        assert main(["dlog", str(bad), "--kappa", "2", "--out", str(tmp_path / "d.json")]) == 4

    def test_corrupted_elliptic_image(self, rep_files, tmp_path):
        # images[1] = x^p still matches, so only the whole chain catches this
        doc = json.loads(rep_files["elliptic-residue"].read_text())
        images = doc["rep"]["frobenius"]["images"]
        images[3] = [(c + 1) % 11 for c in images[3]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "check.json"
        assert main(["check", str(bad), "--out", str(out)]) == 4
        report = json.loads(out.read_text())
        failed = [c for c in report["checks"] if not c["ok"]]
        assert failed and failed[0]["name"] == "frobenius-consistency"
        assert "image 3" in failed[0]["detail"]

    def test_missing_file(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["rep"].pop("frobenius"),
            lambda doc: doc["rep"]["frobenius"].update(variant="curve-translation"),
            lambda doc: doc["rep"].update(p=44),
            lambda doc: doc["rep"].update(A=[3]),
            None,  # truncated JSON
        ],
        ids=["no-frobenius", "curve-variant", "p-44", "constant-A", "truncated"],
    )
    @pytest.mark.parametrize("command", ["check", "orbits", "dlog"])
    def test_malformed_rep_exits_4(self, rep_files, tmp_path, capsys, edit, command):
        text = rep_files["kummer"].read_text()
        if edit is None:
            text = text[: len(text) // 2]
        else:
            doc = json.loads(text)
            edit(doc)
            text = json.dumps(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        extra = [] if command == "check" else ["--kappa", "2"]
        assert main([command, str(bad)] + extra) == 4
        out, err = capsys.readouterr()
        if command == "check":
            report = json.loads(out)
            assert report["ok"] is False
            assert [c["name"] for c in report["checks"]] == ["frobenius-consistency"]
        else:
            assert json.loads(err)["code"] == "InconsistentFrobenius"


class TestOrbits:
    def test_additive_single_orbit(self, rep_files, tmp_path):
        out = tmp_path / "orbits.json"
        assert main(["orbits", str(rep_files["artin-schreier"]),
                     "--kappa", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == 2
        assert len(doc["orbits"]) == 1
        assert doc["orbits"][0]["size"] == 7
        assert doc["orbits"][0]["kernel"] is False

    def test_orbit_table_shape(self, rep_files, tmp_path):
        out = tmp_path / "orbits.json"
        assert main(["orbits", str(rep_files["kummer"]),
                     "--kappa", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        # 43 + 903 irreducibles fold into far fewer orbit columns
        assert doc["columns"] - 1 == len(doc["orbits"])
        assert doc["columns"] < 946
        for row in doc["orbits"]:
            assert row["size"] >= 1
            assert is_irreducible(Poly(row["anchor"], 43))


class TestDlog:
    def test_table_and_target(self, rep_files, tmp_path):
        out = tmp_path / "dlog.json"
        code = main(["dlog", str(rep_files["kummer"]), "--kappa", "2",
                     "--target", "5,1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert int(doc["group_order"]) == 43**6 - 1
        assert doc["verified"] is True
        assert "workers" not in doc["manifest"]["params"]
        assert len(doc["table"]["logs"]) == doc["columns"]
        # spot check one table entry by hand
        p = 43
        g = Poly(doc["generator"], p)
        A = Poly(json.loads(rep_files["kummer"].read_text())["rep"]["A"], p)
        from frobsieve.ffcore import QuotientField

        ring = QuotientField(A)
        key, lam = next(iter(doc["table"]["logs"].items()))
        value = ring.el([int(c) for c in key.split(",")])
        assert ring.pow(ring.el(g), int(lam)) == value

    @pytest.mark.parametrize("target", ["5,x", "0,0"])
    def test_bad_target_fails_before_table(self, rep_files, monkeypatch, capsys, target):
        def no_table(*args, **kwargs):
            raise AssertionError("compute_logs ran for a bad target")

        monkeypatch.setattr("frobsieve.cli.compute_logs", no_table)
        code = main(["dlog", str(rep_files["kummer"]), "--kappa", "2",
                     "--target", target])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["code"] == "ValueError"

    def test_workers_flag_gone(self, rep_files):
        with pytest.raises(SystemExit) as exc:
            main(["dlog", str(rep_files["kummer"]), "--kappa", "2", "--workers", "2"])
        assert exc.value.code == 2


class TestJLSieve:
    ARGS = ["--p", "43", "--df", "3", "--dg", "2", "--d", "6",
            "--ux", "1", "--uy", "1", "--kappa", "2", "--budget", "120"]

    def test_relations_sound(self, tmp_path):
        out = tmp_path / "jl.jsonl"
        assert main(["jl-sieve"] + self.ARGS + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        manifest = json.loads(lines[0])
        setup = JLSetup.from_json(manifest["setup"])
        assert len(lines) > 1
        for line in lines[1:]:
            rec = json.loads(line)
            lam = BivariatePoly.from_json(43, rec["lam"])
            rebuilt = jl_relation(setup, lam, 2)
            assert rebuilt is not None
            assert rebuilt.to_json() == rec

    def test_byte_determinism(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(["jl-sieve"] + self.ARGS + ["--out", str(a)]) == 0
        assert main(["jl-sieve"] + self.ARGS + ["--out", str(b)]) == 0
        la, lb = a.read_text().splitlines(), b.read_text().splitlines()
        assert la[1:] == lb[1:]
        ma, mb = json.loads(la[0]), json.loads(lb[0])
        ma.pop("generated_at"), mb.pop("generated_at")
        assert ma == mb

    def test_target_exhaustion(self, tmp_path, capsys):
        out = tmp_path / "jl.jsonl"
        code = main(["jl-sieve"] + self.ARGS
                    + ["--target", "10000", "--out", str(out)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "SieveTimeout"
        # partial relations still land in the file
        assert err["context"]["found"] == len(out.read_text().splitlines()) - 1


class TestEESieve:
    def test_relations_match_library(self, rep_files, tmp_path):
        out = tmp_path / "ee.jsonl"
        code = main(["ee-sieve", "--rep", str(rep_files["elliptic-residue"]),
                     "--class", "2,2,1,0", "--kappa", "4", "--budget", "60",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        manifest = json.loads(lines[0])
        assert manifest["class"] == {"d1": 2, "d2": 2, "xi": [1, 0]}
        assert len(lines) > 1

        setup = ee_setup(11, 7)
        cls = NSClassEE(2, 2, EndomorphismElement(1, 0, setup.curve.trace(), 11))
        restr = EERestriction(setup, linear_system_ee(setup, cls), 4)
        for line in lines[1:]:
            rec = json.loads(line)
            rebuilt = ee_relation(restr, rec["coeffs"], 4)
            assert rebuilt is not None
            assert rebuilt.to_json() == rec

    # hand edits of a CLI-built 11^7 rep: t* -> -t* (the other sign, a
    # point of the same subgroup) and a4 -> a4 + 1
    EDITS = {
        "params.t_star": lambda rep: rep["params"].update(t_star=[6, 2]),
        "t_star": lambda rep: rep.update(t_star=[6, 2]),
        "params.a4": lambda rep: rep["params"].update(a4=3),
        "curve.a4": lambda rep: rep["curve"].update(coeffs_short=[3, 7]),
    }

    def _edited(self, rep_files, tmp_path, names):
        doc = json.loads(rep_files["elliptic-residue"].read_text())
        assert doc["rep"]["t_star"] == [6, 9]
        assert doc["rep"]["curve"]["coeffs_short"] == [2, 7]
        for name in names:
            self.EDITS[name](doc["rep"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        return bad

    @pytest.mark.parametrize("name", list(EDITS))
    def test_one_copy_edited_exits_4(self, rep_files, tmp_path, capsys, name):
        # the value is stored twice, in params and beside it, and the two
        # copies disagree: check and ee-sieve both refuse the file
        bad = self._edited(rep_files, tmp_path, [name])
        out = tmp_path / "check.json"
        assert main(["check", str(bad), "--out", str(out)]) == 4
        failed = [c for c in json.loads(out.read_text())["checks"] if not c["ok"]]
        assert failed and failed[0]["name"] == "frobenius-consistency"
        field = name.split(".")[-1]
        assert f"params.{field} against" in failed[0]["detail"]
        capsys.readouterr()
        assert main(["ee-sieve", "--rep", str(bad), "--class", "2,2,1,0",
                     "--budget", "5", "--out", str(tmp_path / "ee.jsonl")]) == 4
        assert json.loads(capsys.readouterr().err)["code"] == "InconsistentFrobenius"

    @pytest.mark.parametrize(
        "names, what",
        [(["params.t_star", "t_star"], "t_star"), (["params.a4", "curve.a4"], "curve")],
        ids=["t_star", "curve"],
    )
    def test_both_copies_edited_refused_by_ee_sieve(self, rep_files, tmp_path, capsys,
                                                     names, what):
        # copies that agree pass the cross-check, but ee-sieve rebuilds its
        # model from (p, d) and refuses a rep that stores another one
        bad = self._edited(rep_files, tmp_path, names)
        out = tmp_path / "ee.jsonl"
        assert main(["ee-sieve", "--rep", str(bad), "--class", "2,2,1,0",
                     "--budget", "5", "--out", str(out)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "InconsistentFrobenius"
        assert f"the rep's {what}" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "names, what",
        [(["params.t_star", "t_star"], "t_star"), (["params.a4", "curve.a4"], "curve")],
        ids=["t_star", "curve"],
    )
    def test_both_copies_edited_refused_by_check(self, rep_files, tmp_path, names, what):
        # check rebuilds the model from (p, d) too, and names the field
        bad = self._edited(rep_files, tmp_path, names)
        out = tmp_path / "check.json"
        assert main(["check", str(bad), "--out", str(out)]) == 4
        failed = [c for c in json.loads(out.read_text())["checks"] if not c["ok"]]
        assert [c["name"] for c in failed] == ["elliptic-model"]
        assert f"the rep's {what}" in failed[0]["detail"]

    def test_wrong_kind_rejected(self, rep_files, capsys):
        code = main(["ee-sieve", "--rep", str(rep_files["kummer"]),
                     "--class", "2,2,1,0"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["code"] == "ValueError"

    def test_malformed_class(self, rep_files):
        assert main(["ee-sieve", "--rep", str(rep_files["elliptic-residue"]),
                     "--class", "2,2"]) == 2
