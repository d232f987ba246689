"""End-to-end tests of the command-line interface.

Commands run in process through main(argv) so exit codes and output
files are exercised without subprocess overhead.
"""

import json

import pytest

from frobsieve.cli import main
from frobsieve.elliptic import EndomorphismElement
from frobsieve.ffcore import Poly, is_irreducible
from frobsieve.galoisrep import rep_from_json
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
    projective_class,
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "kummer", "--p", "43", "--d", "6"],
            ["--kind", "kummer", "--p", "43", "--d", "6", "--r", "5"],
            ["--kind", "artin-schreier", "--p", "7"],
            ["--kind", "artin-schreier", "--p", "7", "--a", "3"],
            ["--kind", "torus", "--p", "13", "--d", "7"],
            ["--kind", "torus", "--p", "13", "--d", "7", "--u-r", "8"],
            ["--kind", "elliptic-residue", "--p", "11", "--d", "7"],
        ],
        ids=["kummer", "kummer-r", "artin-schreier", "artin-schreier-a", "torus",
             "torus-u_r", "elliptic-residue"],
    )
    def test_written_file_loads_back(self, tmp_path, argv):
        # a file is its build: loading it rebuilds the same document
        out = tmp_path / "rep.json"
        assert main(["build"] + argv + ["--out", str(out)]) == 0
        stored = json.loads(out.read_text())["rep"]
        assert rep_from_json(stored).to_json() == stored
        assert main(["check", str(out), "--out", str(tmp_path / "check.json")]) == 0

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
        # degree-invariance runs on every kind, on an elliptic rep through
        # the curve data its load carries, so no check is reported skipped
        # and every kind runs the same four checks
        for kind, path in rep_files.items():
            out = tmp_path / f"{kind}.json"
            assert main(["check", str(path), "--out", str(out)]) == 0
            doc = json.loads(out.read_text())
            names = [c["name"] for c in doc["checks"]]
            assert names == ["frobenius-consistency", "modulus-irreducible",
                             "frobenius-sample", "degree-invariance"]
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
        assert "field 'frobenius.images[3]'" in failed[0]["detail"]

    # hand edits of values the file stores once, so that no second copy in
    # it disagrees: params.u_r, m and sign of the 13^7 torus file, and the
    # curve data of the 11^7 elliptic file; each differs from the build
    SINGLE_EDITS = {
        "params.u_r": ("torus", lambda rep: rep["params"].update(u_r=9)),
        "params.m": ("torus", lambda rep: rep["params"].update(m=3)),
        "params.sign": ("torus", lambda rep: rep["params"].update(sign="+")),
        "Y": ("elliptic-residue", lambda rep: rep["Y"].__setitem__(0, (rep["Y"][0] + 1) % 11)),
        "isogeny.kernel_poly": ("elliptic-residue", lambda rep: rep["isogeny"]["kernel_poly"]
                                .__setitem__(0, (rep["isogeny"]["kernel_poly"][0] + 1) % 11)),
        # -a, the other point of E/T with the same x: its fiber is the same
        "target": ("elliptic-residue", lambda rep: rep["target"]
                   .__setitem__(1, -rep["target"][1] % 11)),
        "curve.order": ("elliptic-residue", lambda rep: rep["curve"].update(order=8)),
        "params.x_a": ("elliptic-residue", lambda rep: rep["params"].update(x_a=7)),
    }

    def _single_edit(self, rep_files, tmp_path, name):
        kind, edit = self.SINGLE_EDITS[name]
        doc = json.loads(rep_files[kind].read_text())
        before = json.dumps(doc)
        edit(doc["rep"])
        assert json.dumps(doc) != before
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        return bad

    @pytest.mark.parametrize("name", list(SINGLE_EDITS))
    def test_single_edit_exits_4(self, rep_files, tmp_path, name):
        bad = self._single_edit(rep_files, tmp_path, name)
        out = tmp_path / "check.json"
        assert main(["check", str(bad), "--out", str(out)]) == 4
        report = json.loads(out.read_text())
        assert report["ok"] is False
        assert [c["name"] for c in report["checks"]] == ["frobenius-consistency"]
        assert name in report["checks"][0]["detail"]

    @pytest.mark.parametrize(
        "name", [n for n, (kind, _) in SINGLE_EDITS.items() if kind == "elliptic-residue"]
    )
    @pytest.mark.parametrize(
        "command",
        [["orbits", "{rep}", "--kappa", "2"],
         ["dlog", "{rep}", "--kappa", "2"],
         ["ee-sieve", "--rep", "{rep}", "--class", "2,2,1,0", "--budget", "5"]],
        ids=["orbits", "dlog", "ee-sieve"],
    )
    def test_single_elliptic_edit_refused_by_every_command(self, rep_files, tmp_path,
                                                           capsys, name, command):
        bad = self._single_edit(rep_files, tmp_path, name)
        out = tmp_path / "out.json"
        argv = [str(bad) if a == "{rep}" else a for a in command]
        assert main(argv + ["--out", str(out)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "InconsistentFrobenius"
        assert f"field '{name}' is " in err["message"]
        assert not out.exists()

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

    def test_byte_determinism(self, rep_files, tmp_path):
        args = ["ee-sieve", "--rep", str(rep_files["elliptic-residue"]),
                "--class", "2,2,1,0", "--kappa", "4", "--budget", "60"]
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        la, lb = a.read_text().splitlines(), b.read_text().splitlines()
        assert len(la) > 1
        assert la[1:] == lb[1:]
        ma, mb = json.loads(la[0]), json.loads(lb[0])
        ma.pop("generated_at"), mb.pop("generated_at")
        assert ma == mb

    def test_fixed_places_reported_on_stderr(self, rep_files, tmp_path, capsys):
        # one stderr line per side with the degrees of the places every
        # norm carries, plus a warning where one exceeds kappa; stdout
        # carries the same relation lines as the out file and nothing else
        args = ["ee-sieve", "--rep", str(rep_files["elliptic-residue"]),
                "--class", "2,2,1,0", "--budget", "60"]
        out = tmp_path / "ee.jsonl"
        assert main(args + ["--kappa", "4", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "ee-sieve: side a: every norm has fixed places of degree [1, 3]",
            "ee-sieve: side b: every norm has fixed places of degree [2]",
            "ee-sieve: 7 relations in 7 projective classes",
        ]
        assert main(args + ["--kappa", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == out.read_text().splitlines()[1:]
        assert len(captured.err.splitlines()) == 3
        # at kappa 2 the cubic place on side a leaves no smooth section
        assert main(args + ["--kappa", "2", "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[1] == ("ee-sieve: warning: side a has a fixed place of degree 3 "
                          "> kappa = 2, so no section can be smooth")
        assert err[3] == "ee-sieve: 0 relations in 0 projective classes"
        assert len(err) == 4
        assert len(out.read_text().splitlines()) == 1  # the manifest alone

    def test_projective_classes_reported_on_stderr(self, rep_files, tmp_path, capsys):
        # the last stderr line counts the relations and their projective
        # classes, read here off the written rows; stdout and the out file
        # carry the same relation lines, with a partial list on a timeout
        args = ["ee-sieve", "--rep", str(rep_files["elliptic-residue"]),
                "--class", "2,2,1,0", "--kappa", "4"]
        out = tmp_path / "ee.jsonl"
        for extra, code in ((["--budget", "200"], 0),
                            (["--budget", "200", "--target", "500"], 3)):
            assert main(args + extra + ["--out", str(out)]) == code
            err = capsys.readouterr().err.splitlines()
            assert main(args + extra) == code
            captured = capsys.readouterr()
            rows = [json.loads(line) for line in out.read_text().splitlines()[1:]]
            assert captured.out.splitlines()[1:] == out.read_text().splitlines()[1:]
            classes = {projective_class(row["coeffs"], 11) for row in rows}
            assert len(rows) > len(classes) > 1
            assert err[2] == f"ee-sieve: {len(rows)} relations in {len(classes)} projective classes"
            assert captured.err.splitlines()[:3] == err[:3]

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
        # the value is stored twice, in params and beside it, and the
        # edited copy differs from the build: check and ee-sieve both
        # refuse the file and name that copy
        bad = self._edited(rep_files, tmp_path, [name])
        out = tmp_path / "check.json"
        assert main(["check", str(bad), "--out", str(out)]) == 4
        failed = [c for c in json.loads(out.read_text())["checks"] if not c["ok"]]
        assert failed and failed[0]["name"] == "frobenius-consistency"
        field = {"curve.a4": "curve.coeffs_short"}.get(name, name)
        assert f"field '{field}' is " in failed[0]["detail"]
        capsys.readouterr()
        assert main(["ee-sieve", "--rep", str(bad), "--class", "2,2,1,0",
                     "--budget", "5", "--out", str(tmp_path / "ee.jsonl")]) == 4
        assert json.loads(capsys.readouterr().err)["code"] == "InconsistentFrobenius"

    @pytest.mark.parametrize(
        "names, what",
        [(["params.t_star", "t_star"], "params.t_star"),
         (["params.a4", "curve.a4"], "params.a4")],
        ids=["t_star", "curve"],
    )
    def test_both_copies_edited_refused_by_ee_sieve(self, rep_files, tmp_path, capsys,
                                                     names, what):
        # copies that agree with each other still differ from the build
        # from (p, d): the load refuses the file at its first such field
        bad = self._edited(rep_files, tmp_path, names)
        out = tmp_path / "ee.jsonl"
        assert main(["ee-sieve", "--rep", str(bad), "--class", "2,2,1,0",
                     "--budget", "5", "--out", str(out)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "InconsistentFrobenius"
        assert f"field '{what}' is " in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "names, what",
        [(["params.t_star", "t_star"], "params.t_star"),
         (["params.a4", "curve.a4"], "params.a4")],
        ids=["t_star", "curve"],
    )
    def test_both_copies_edited_refused_by_check(self, rep_files, tmp_path, names, what):
        # check loads through the same builder, and names the field
        bad = self._edited(rep_files, tmp_path, names)
        out = tmp_path / "check.json"
        assert main(["check", str(bad), "--out", str(out)]) == 4
        failed = [c for c in json.loads(out.read_text())["checks"] if not c["ok"]]
        assert [c["name"] for c in failed] == ["frobenius-consistency"]
        assert f"field '{what}' is " in failed[0]["detail"]

    def test_wrong_kind_rejected(self, rep_files, capsys):
        code = main(["ee-sieve", "--rep", str(rep_files["kummer"]),
                     "--class", "2,2,1,0"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["code"] == "ValueError"

    def test_malformed_class(self, rep_files):
        assert main(["ee-sieve", "--rep", str(rep_files["elliptic-residue"]),
                     "--class", "2,2"]) == 2
