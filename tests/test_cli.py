import hashlib
import importlib
import json
import os
import subprocess
import sys

import pytest

import hallie
import hallie.hall
from hallie.cli import run
from hallie.linalg import FMatrix


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def algebra(name):
    return hallie.example_algebra_path(name)


class TestKnitCommand:
    def test_json_output(self, capsys):
        code, out, _ = invoke(capsys, "knit", "--algebra", algebra("a2"))
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "hallie"
        assert doc["version"] == hallie.__version__
        assert [v["id"] for v in doc["vertices"]] == ["0-1", "1-1", "1-0"]
        assert doc["vertices"][2]["tau"] == "0-1"
        assert "config" in doc

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = invoke(capsys, "knit", "--algebra", algebra("a3_bound"),
                             "--with-maps")
        _, second, _ = invoke(capsys, "knit", "--algebra", algebra("a3_bound"),
                              "--with-maps")
        assert first == second

    def test_text_format(self, capsys):
        code, out, _ = invoke(capsys, "knit", "--algebra", algebra("a2"),
                              "--format", "text")
        assert code == 0
        assert "3 vertices" in out

    def test_csv_format(self, capsys):
        code, out, _ = invoke(capsys, "knit", "--algebra", algebra("a2"),
                              "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "id,dim,projective,tau"


class TestHallCommand:
    def test_projective_line(self, capsys):
        code, out, _ = invoke(capsys, "hall", "--algebra", algebra("a2"),
                              "--triple", "1-0/1-0/1-0:2")
        assert code == 0
        doc = json.loads(out)
        assert doc["phi"] == [1, 1]
        assert doc["phi_at_1"] == 2
        assert doc["primes"] == [2, 3]
        assert doc["validation_prime"] == 5

    def test_constant(self, capsys):
        code, out, _ = invoke(capsys, "hall", "--algebra", algebra("a2"),
                              "--triple", "0-1/1-0/1-1")
        assert code == 0
        assert json.loads(out)["phi"] == [1]

    def test_oversized_ext_walk_ends_with_exit_3(self, capsys):
        # dim Ext¹ = 25: 2^25 extension classes at the first prime
        code, _, err = invoke(capsys, "hall", "--algebra", algebra("a2"),
                              "--triple", "0-1:5/1-0:5/1-1:5")
        assert code == 3
        assert "2^25 classes > bound 1000000" in err

    def test_ext_walk_below_the_bound_runs(self, capsys):
        # dim Ext¹ = 9: 3^9 = 19,683 classes at p = 3, the largest node
        code, out, _ = invoke(capsys, "hall", "--algebra", algebra("a2"),
                              "--triple", "0-1:3/1-0:3/1-1:3")
        assert code == 0
        assert json.loads(out)["phi"] == [1]

    def test_unknown_id(self, capsys):
        code, _, err = invoke(capsys, "hall", "--algebra", algebra("a2"),
                              "--triple", "9-9/1-0/1-1")
        assert code == 2
        assert "unknown AR vertex id" in err

    def test_bad_triple_shape(self, capsys):
        code, _, err = invoke(capsys, "hall", "--algebra", algebra("a2"),
                              "--triple", "1-0/1-1")
        assert code == 2


class TestEulerCommand:
    def test_value(self, capsys):
        code, out, _ = invoke(capsys, "euler", "--algebra", algebra("a2"),
                              "--triple", "0-1/1-0/1-1")
        assert code == 0
        assert json.loads(out)["euler_characteristic"] == 1


class TestLieCommand:
    def test_tables(self, capsys):
        code, out, _ = invoke(capsys, "lie", "--algebra", algebra("a2"))
        assert code == 0
        doc = json.loads(out)
        assert doc["hall_table"]["brackets"]["0-1|1-0"] == \
            {"target": "1-1", "coefficient": -1}
        assert doc["euler_table"]["brackets"]["0-1|1-0"] == \
            {"target": "1-1", "coefficient": 1}

    def test_text(self, capsys):
        code, out, _ = invoke(capsys, "lie", "--algebra", algebra("a2"),
                              "--format", "text")
        assert code == 0
        assert "[0-1, 1-0] = -1 * 1-1" in out

    # sha256 of the JSON stdout of ``lie``; any change to either table, to
    # the provenance block or to the formatting shows up here
    @pytest.mark.parametrize("name,digest", [
        ("a3", "4fe22756a78cdebdb146a7bb42a012a93084a40034605c37d100be94574a3caf"),
        ("a3_bound",
         "28e587603418084bd81cdb52db9e253049a17012e37be12889a78d03ee0f5813"),
        ("csquare",
         "f8cd7fb9dd5f9f44340b7825d6938cc52d0d4fbabce14438ac638ec49c97f0a1"),
    ])
    def test_json_digest(self, capsys, name, digest):
        code, out, _ = invoke(capsys, "lie", "--algebra", algebra(name))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestVerifyCommand:
    def test_a2_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--algebra", algebra("a2"))
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        names = [c["name"] for c in doc["checks"]]
        assert "sign-twist isomorphism" in names
        assert "root system comparison" in names

    def test_bound_algebra_skips_root_comparison(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--algebra", algebra("a3_bound"))
        assert code == 0
        doc = json.loads(out)
        root = [c for c in doc["checks"] if c["name"] == "root system comparison"]
        assert root and "skipped" in root[0]["detail"]

    def test_custom_primes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--algebra", algebra("a2"),
                              "--primes", "3,5")
        assert code == 0

    def test_each_prime_knitted_once(self, capsys, monkeypatch):
        """Field independence compares the quivers the family knitted for
        counting instead of knitting the verify primes again."""
        primes = []
        real = hallie.knit

        def counted(spec, p, config=None):
            primes.append(p)
            return real(spec, p, config)
        for module in ("hallie.hall", "hallie.knit"):
            monkeypatch.setattr(importlib.import_module(module), "knit", counted)
        code, _, _ = invoke(capsys, "verify", "--algebra", algebra("a2"))
        assert code == 0
        assert sorted(primes) == [2, 3, 5]


    def test_every_mesh_is_checked(self, capsys, monkeypatch):
        """One stored ν block zeroed in the quiver over F_3, the second
        verify prime: knitting does not look at ν again, so only the
        re-check of every mesh can fail.  It fails the knit check, the
        report is printed, and no later check runs."""
        real = hallie.hall.knit

        def doctored(spec, p, config=None):
            ar = real(spec, p, config)
            if p == 3:
                nu = ar.meshes["1-0"].nu[0]
                nu["1"] = FMatrix.zeros(ar.field, *nu["1"].shape)
            return ar
        monkeypatch.setattr(hallie.hall, "knit", doctored)
        code, out, err = invoke(capsys, "verify", "--algebra", algebra("a2"))
        assert code == 1 and not err
        doc = json.loads(out)
        assert doc["ok"] is False
        assert [(c["name"], c["ok"]) for c in doc["checks"]] == [("knit", False)]
        assert "nu not surjective" in doc["checks"][0]["detail"]
        code, out, _ = invoke(capsys, "verify", "--algebra", algebra("a2"),
                              "--format", "text")
        assert code == 1
        assert out.splitlines() == [
            "FAIL knit: " + doc["checks"][0]["detail"], "VERIFICATION FAILED"]

    def test_field_dependence_fails_its_check(self, capsys, monkeypatch):
        """A quiver over F_3 that is not the one over F_2 (a3 knitted in
        place of a2) passes the knit check and fails field independence."""
        real = hallie.hall.knit
        a3 = hallie.load_algebra(algebra("a3"))
        monkeypatch.setattr(hallie.hall, "knit", lambda spec, p, config=None: real(
            a3 if p == 3 else spec, p, config))
        code, out, _ = invoke(capsys, "verify", "--algebra", algebra("a2"),
                              "--format", "text")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("ok  knit:")
        assert lines[1].startswith("FAIL field independence: ")
        assert lines[2:] == ["VERIFICATION FAILED"]


class TestErrorPaths:
    def test_cyclic_input(self, capsys, tmp_path):
        bad = tmp_path / "cyclic.json"
        bad.write_text(json.dumps({
            "vertices": ["1", "2"],
            "arrows": [{"id": "a", "from": "1", "to": "2"},
                       {"id": "b", "from": "2", "to": "1"}],
            "relations": []}))
        code, _, err = invoke(capsys, "knit", "--algebra", str(bad))
        assert code == 2
        assert "cycle" in err

    def test_malformed_arrows_are_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "arrows.json"
        bad.write_text(json.dumps({"vertices": ["1", "2"], "arrows": 5}))
        code, _, err = invoke(capsys, "verify", "--algebra", str(bad))
        assert code == 2
        assert "'arrows' must be a list" in err

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "knit", "--algebra", "/nonexistent.json")
        assert code == 2

    def test_vertex_limit(self, capsys, tmp_path):
        subspace4 = tmp_path / "wild.json"
        subspace4.write_text(json.dumps({
            "vertices": ["1", "2", "3", "4", "5"],
            "arrows": [{"id": a, "from": v, "to": "5"}
                       for a, v in zip("abcd", "1234")],
            "relations": []}))
        code, _, err = invoke(capsys, "knit", "--algebra", str(subspace4),
                              "--max-vertices", "30")
        assert code == 3

    def test_composite_prime_rejected(self, capsys):
        code, _, err = invoke(capsys, "verify", "--algebra", algebra("a2"),
                              "--primes", "4,5")
        assert code == 2

    def test_nonpositive_caps_rejected(self, capsys):
        code, _, err = invoke(capsys, "knit", "--algebra", algebra("a2"),
                              "--max-vertices", "0")
        assert code == 2
        code, _, err = invoke(capsys, "hall", "--algebra", algebra("a2"),
                              "--triple", "0-1/1-0/1-1", "--jobs", "-1")
        assert code == 2

    def test_jobs_other_than_one_rejected(self, capsys):
        code, _, err = invoke(capsys, "hall", "--algebra", algebra("a2"),
                              "--triple", "0-1/1-0/1-1", "--jobs", "2")
        assert code == 2
        assert "--jobs" in err

    def test_seed_rejected(self, capsys):
        """Nothing is drawn at random, so there is no seed to set; the
        ``config`` block keeps ``"seed": 0`` as a constant."""
        for argv in (("knit", "--algebra", algebra("a2"), "--seed", "1"),
                     ("verify", "--algebra", algebra("a2"), "--seed", "0")):
            with pytest.raises(SystemExit) as exc:
                run(list(argv))
            assert exc.value.code == 2
            assert "--seed" in capsys.readouterr().err
        code, out, _ = invoke(capsys, "verify", "--algebra", algebra("a2"))
        assert code == 0 and json.loads(out)["config"]["seed"] == 0

    def test_malformed_primes_rejected(self, capsys):
        for flags in (("--primes", "x"), ("--primes", ""), ("--primes", " , ")):
            code, _, err = invoke(capsys, "verify", "--algebra", algebra("a2"),
                                  *flags)
            assert code == 2, flags
            assert err.startswith("error: "), flags
        code, _, err = invoke(capsys, "hall", "--algebra", algebra("a2"),
                              "--triple", "0-1/1-0/1-1",
                              "--exclude-primes", "2,,y")
        assert code == 2
        assert "'y'" in err

    def test_primes_rejected_where_unused(self, capsys):
        for command, extra in (("lie", ()),
                               ("hall", ("--triple", "0-1/1-0/1-1")),
                               ("euler", ("--triple", "0-1/1-0/1-1"))):
            for primes in ("4", "7,11,13"):
                code, _, err = invoke(capsys, command, "--algebra", algebra("a2"),
                                      "--primes", primes, *extra)
                assert code == 2, (command, primes)
                assert "--primes" in err
        code, out, _ = invoke(capsys, "hall", "--algebra", algebra("a2"),
                              "--triple", "0-1/1-0/1-1", "--primes", "auto")
        assert code == 0
        assert json.loads(out)["phi"] == [1]

    def test_knit_takes_one_prime(self, capsys):
        """knit knits over one field: a list of primes is refused, not cut
        to its first entry."""
        code, out, err = invoke(capsys, "knit", "--algebra", algebra("a2"),
                                "--primes", "2,3")
        assert code == 2
        assert "--primes" in err and not out
        code, out, _ = invoke(capsys, "knit", "--algebra", algebra("a2"),
                              "--primes", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["prime"] == 3 and doc["config"]["primes"] == [3]


def test_cli_import_skips_code_generation_and_resources():
    """``import hallie.cli``, which every CLI process pays for, loads neither
    ``dataclasses`` (and the ``inspect`` it pulls in), whose decorators
    generate and compile methods at import, nor ``importlib.resources``,
    which only the shipped-example helpers use.  ``-S`` keeps ``site`` from
    loading any of them first."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hallie.__file__)))
    probe = (f"import sys; sys.path.insert(0, {src!r}); import hallie.cli; "
             "print(sorted(m for m in ('dataclasses', 'inspect', "
             "'importlib.resources') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-S", "-c", probe],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
