"""End-to-end tests for the command-line interface.

Most tests drive cli.main() in process and capture stdout/stderr; one
runs the module as a subprocess to cover the real entry point.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import pathlib
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulab import bounds, cli, polyprod
from eulab.bounds import verify_t1
from eulab.core import OMEGA, ONE, EInt
from eulab.factor import factor_rational
from oracles import validate_output


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_manifest(err):
    return json.loads(err.strip().splitlines()[-1])


def write_set(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def seeded_eint_lines(seed, size=60, coord=100):
    """size distinct elements with coordinates in [-coord, coord]."""
    rng = random.Random(seed)
    points = set()
    while len(points) < size:
        points.add((rng.randint(-coord, coord), rng.randint(-coord, coord)))
    return [f"{a},{b}" for a, b in sorted(points)]


INT64_MAX = 2**63 - 1


class TestFactor:
    def test_rational_28(self, capsys):
        code, out, _ = run_cli(["factor", "--n", "28"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["factors"] == [{"p": 2, "e": 2}, {"p": 7, "e": 1}]
        assert obj["n"] == 28 and obj["sign"] == 1
        validate_output("factor", obj)

    def test_rational_negative(self, capsys):
        code, out, _ = run_cli(["factor", "--n", "-12"], capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["sign"] == -1
        assert obj["factors"] == [{"p": 2, "e": 2}, {"p": 3, "e": 1}]

    def test_eisenstein(self, capsys):
        code, out, _ = run_cli(["factor", "--e", "3,3"], capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["e"] == "3,3"
        assert obj["unit"] == "1,0"
        assert obj["factors"] == [{"p": "2,1", "e": 2}]
        validate_output("factor", obj)

    def test_requires_exactly_one_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["factor", "--n", "4", "--e", "1,0"])
        assert exc.value.code == 2

    def test_zero_rejected(self, capsys):
        code, _, err = run_cli(["factor", "--e", "0,0"], capsys)
        assert code == 2
        assert "zero" in err

    def test_out_of_range_coordinate(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["factor", "--e", "9223372036854775808,0"])
        assert exc.value.code == 2


class TestSmallQueries:
    def test_omega_e(self, capsys):
        code, out, _ = run_cli(["omega-e", "--e", "6,0"], capsys)
        obj = json.loads(out)
        assert code == 0 and obj == {"e": "6,0", "omega": 2}
        validate_output("omega-e", obj)

    def test_tau(self, capsys):
        code, out, _ = run_cli(["tau", "--e", "3,3"], capsys)
        obj = json.loads(out)
        assert code == 0 and obj == {"e": "3,3", "tau": 18}
        validate_output("tau", obj)

    def test_crho_minus_omega(self, capsys):
        code, out, _ = run_cli(["crho", "--rho", "0,-1"], capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["c_rho"] == "2,1"
        assert obj["tau"] == 12
        assert obj["threshold"] == 146
        assert obj["primes"] == [{"pi": "2,1", "gamma": 0, "delta": 1, "c": 1}]
        validate_output("crho", obj)

    def test_crho_negative_unit(self, capsys):
        code, out, _ = run_cli(["crho", "--rho", "-1,-1"], capsys)
        obj = json.loads(out)
        assert code == 0 and obj["c_rho"] == "1,0" and obj["tau"] == 6

    def test_crho_rejects_zero(self, capsys):
        code, _, err = run_cli(["crho", "--rho", "0,0"], capsys)
        assert code == 2


class TestVerify:
    def test_trials_pass(self, capsys):
        code, out, err = run_cli(
            ["verify", "t1", "--trials", "3", "--size", "6", "--seed", "5"],
            capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["all_passed"] is True
        assert len(obj["reports"]) == 3
        assert [r["seed"] for r in obj["reports"]] == ["5:0", "5:1", "5:2"]
        validate_output("verify", obj)
        manifest = last_manifest(err)
        assert manifest["seed"] == 5
        assert manifest["subcommand"] == "verify"

    def test_single_set(self, tmp_path, capsys):
        path = write_set(tmp_path, "s.txt", ["1,0", "0,1", "2,0"])
        code, out, _ = run_cli(["verify", "t1", "--set", path], capsys)
        obj = json.loads(out)
        assert code == 0
        assert len(obj["reports"]) == 1
        assert obj["reports"][0]["seed"] is None
        assert obj["reports"][0]["omega"] == 1

    def test_t2_requires_rho(self, capsys):
        code, _, err = run_cli(["verify", "t2", "--trials", "1"], capsys)
        assert code == 2 and "--rho" in err

    def test_rho_only_for_t2(self, capsys):
        code, _, err = run_cli(
            ["verify", "cor1", "--rho", "0,1", "--trials", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("token", ["t1", "cor1", "rho-minus1"])
    def test_general_only_for_t2(self, capsys, token):
        code, out, err = run_cli(
            ["verify", token, "--general", "--trials", "1"], capsys)
        assert code == 2 and out == ""
        assert "--general" in err

    def test_set_file_of_comments_only(self, tmp_path, capsys):
        path = write_set(tmp_path, "empty.txt", ["# no values", "", "# end"])
        code, out, err = run_cli(["verify", "cor1", "--set", path], capsys)
        assert code == 2 and out == ""
        assert err == f"eulab: {path}: no elements\n"

    def test_integer_theorem_set_file(self, tmp_path, capsys):
        path = write_set(tmp_path, "ints.txt", ["1", "2", "3"])
        code, out, _ = run_cli(["verify", "cor1", "--set", path], capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["reports"][0]["omega"] == 2

    def test_failed_bound_exits_1(self, tmp_path, capsys, monkeypatch):
        report = verify_t1([ONE, OMEGA, EInt(2, 0)])
        failing = dataclasses.replace(report, passed=False)
        monkeypatch.setattr(bounds, "verify_t1",
                            lambda elements, seed=None: failing)
        path = write_set(tmp_path, "s.txt", ["1,0", "0,1", "2,0"])
        code, out, _ = run_cli(["verify", "t1", "--set", path], capsys)
        assert code == 1
        assert json.loads(out)["all_passed"] is False

    @pytest.mark.parametrize("shape", [
        ["--trials", "0"], ["--trials", "-1"], ["--size", "1"],
        ["--size", "-3"],
    ])
    def test_bad_trial_shape(self, capsys, shape):
        code, out, _ = run_cli(["verify", "t1", *shape], capsys)
        assert code == 2
        assert out == ""

    def test_range_too_small_for_size(self):
        # this once looped forever, hence the subprocess and the timeout
        proc = subprocess.run(
            [sys.executable, "-m", "eulab.cli", "verify", "t1", "--size",
             "50", "--range", "2"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "range too small" in proc.stderr

    def test_negative_range(self, capsys):
        # the size rule alone passes it: (2 * -5 + 1)^2 = 81 >= 2
        code, out, err = run_cli(["verify", "t1", "--range", "-5", "--size",
                                  "2"], capsys)
        assert code == 2
        assert out == ""
        assert "range too small for the requested set size" in err

    def test_tokens_follow_theorems(self):
        assert cli.VERIFY_TOKENS == ("t1", "t2", "cor1", "cor2",
                                     "rho-minus1", "erdos-turan")

    def test_bad_theorem_token(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "lemma9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("token,s", [("cor1", -1), ("cor2", 1)])
    def test_large_set_matches_factor_rational(self, tmp_path, capsys,
                                               token, s):
        # pair values near 3e18 leave cofactors far above the pair sieve
        values = [1234567891, 1699999993, 1700000000, 1700000001, 1700000003]
        path = write_set(tmp_path, "big.txt", map(str, values))
        code, out, _ = run_cli(["verify", token, "--set", path], capsys)
        expected = sorted({
            p for a, b in itertools.combinations(values, 2)
            for p, _ in factor_rational(a * a + s * a * b + b * b).factors})
        report = json.loads(out)["reports"][0]
        assert code == 0
        assert report["witness_primes"] == expected
        assert report["omega"] == len(expected)

    @pytest.mark.parametrize("token", ["cor1", "cor2"])
    def test_pair_value_out_of_range(self, tmp_path, capsys, token):
        path = write_set(tmp_path, "s.txt", ["5000000000", "6000000000"])
        code, out, err = run_cli(["verify", token, "--set", path], capsys)
        assert code == 2
        assert out == ""
        assert "beyond the declared 64-bit input range" in err

    # Computed before the pair values were sieved, when each one went
    # through factor_rational (cor1, cor2) or factor_e (t1, t2, rho-minus1).
    @pytest.mark.parametrize("argv,digest", [
        (["cor1", "--trials", "2", "--size", "150", "--range", "2000",
          "--seed", "5"],
         "f53947fa4b3bb07564a8e78b21f239fefaca7e6f549a3cfbdc2823e68efb5031"),
        (["cor2", "--trials", "2", "--size", "150", "--range", "2000",
          "--seed", "5"],
         "9a3121a5f1dd52779cad18f89a00525241ef33e36353bf9e49a367e9e0cc03a8"),
        (["t1", "--set", "eints"],
         "e5d4cc82fa954e892d5c9098a60a95eb4f4c15219bc3431e597ca12f82877a78"),
        (["t2", "--rho", "0,1", "--set", "eints"],
         "a49c4cc8207ed302daf94b0cfa73175e84cf9553ff4f3bdf5bef1ce444e307d2"),
        (["cor1", "--set", "ints"],
         "5ca7e7f64fd7f2ad2b2b366586965378b2ba0084fc71818037d33799a7293373"),
        (["cor2", "--set", "ints"],
         "0e6d6dc3e9df97e321eba09412d20798f26cbe3458cae4f0d6974467e35dd376"),
        (["rho-minus1", "--set", "eints"],
         "41d3028b1dc6973405e557aa15361ccc38eef73ffc7c55a35e2af3b850305412"),
        (["erdos-turan", "--set", "ints"],
         "ef88c4fafb42551f8c1c9155ebae31f7d45ec5253eb8b2ea853f4e4f5e94658d"),
        (["t1", "--trials", "2", "--size", "200", "--range", "60",
          "--seed", "5"],
         "45e3ed28c034f704c97c76997aa092214574c8f325f0ac0d4a5f25e1af8f5381"),
        (["t2", "--rho", "0,1", "--trials", "2", "--size", "200",
          "--range", "60", "--seed", "5"],
         "2abb753e5f292b7f3a2eeef7c08c5ad00e9bfc22b44292bca1d0cc3140db550a"),
        (["rho-minus1", "--trials", "2", "--size", "200", "--range", "60",
          "--seed", "5"],
         "04017d776d1c2961aa3bb4b31839bc1ac0afe1ede3e0ffda5a5c8625460e7baa"),
    ], ids=["cor1-trials", "cor2-trials", "t1-set", "t2-set", "cor1-set",
            "cor2-set", "rho-minus1-set", "erdos-turan-set", "t1-trials",
            "t2-trials", "rho-minus1-trials"])
    def test_pinned_digests(self, tmp_path, capsys, argv, digest):
        files = {
            "eints": write_set(tmp_path, "e.txt",
                               ["1,0", "0,1", "2,0", "3,-1", "5,2"]),
            "ints": write_set(tmp_path, "i.txt", ["3", "5", "7", "12", "20"]),
        }
        argv = [files.get(arg, arg) for arg in argv]
        code, _, err = run_cli(["verify", *argv], capsys)
        assert code == 0
        assert last_manifest(err)["output_digest"] == digest


    # In each set a zero pair value comes first in pair order, before a
    # pair value out of range; the verifier flags it.  The digests were
    # computed when each pair value was factored on its own.
    @pytest.mark.parametrize("argv,lines,digest", [
        (["t1"], ["1,0", "-7,0", "7,0", f"{2**32},0", "-1,0"],
         "1609169d5cd4ff439f72f61832a9aef1a612916d61bcb3527d9940857cc2f85f"),
        (["t1"], ["-1,0", "1,0", f"{INT64_MAX},0"],
         "89f274c80a91bb175d9cfc664f11e30513d0ce9e72b15d5855028ee54b1e2222"),
        (["t2", "--rho", "0,1"], ["1,0", "1,1", f"{2**62},{-2**62}"],
         "d54592730d3d2a1c189e6d8e27e273a07db03f972d888fc4ca61ce1255972d11"),
        (["t2", "--rho", "1,0", "--general"],
         ["-1,0", "1,0", f"{INT64_MAX},0"],
         "9d0a4c64861e4ba8d17293bf3c59882877c18d304ca0d4f329e5bf1ade6fa26e"),
    ], ids=["t1-norm", "t1-sum", "t2-rho-b", "t2-general"])
    def test_zero_pair_before_out_of_range_pair(self, tmp_path, capsys, argv,
                                                lines, digest):
        path = write_set(tmp_path, "s.txt", lines)
        code, out, err = run_cli(["verify", *argv, "--set", path], capsys)
        report = json.loads(out)["reports"][0]
        assert code == 0
        assert report["flagged_zero_factor"] is True
        assert report["omega"] == "infinite"
        assert report["witness_primes"] == []
        assert last_manifest(err)["output_digest"] == digest

    # t2 at rho = 1 through --general takes the product of a + b over
    # a != b, whose primes the pairs i < j of t1 carry; a set holding x
    # and -x has the zero pair sum x + (-x) in both
    @pytest.mark.parametrize("extra,zero", [([], False),
                                            (["-7,3", "7,-3"], True)],
                             ids=["zero-free", "x-and-minus-x"])
    def test_t2_general_at_rho_1_matches_t1(self, tmp_path, capsys, extra,
                                            zero):
        lines = [line for line in seeded_eint_lines(31, size=60, coord=50)
                 if int(line.split(",")[0]) > 0] + extra
        path = write_set(tmp_path, "s.txt", lines)
        reports = []
        for argv in (["t1"], ["t2", "--rho", "1,0", "--general"]):
            code, out, _ = run_cli(["verify", *argv, "--set", path], capsys)
            assert code in (0, 1)
            reports.append(json.loads(out)["reports"][0])
        t1, t2 = reports
        assert t2["rho"] == "1,0"
        assert t1["flagged_zero_factor"] is t2["flagged_zero_factor"] is zero
        assert t1["omega"] == t2["omega"]
        assert t1["witness_primes"] == t2["witness_primes"]
        assert (t1["omega"] == "infinite") is zero

    # A pair value out of range (in rho*b, in the sum, or by its norm)
    # comes before the first zero pair value; rho-minus1 has no zero pair.
    @pytest.mark.parametrize("argv,lines,error", [
        (["t1"], ["1,0", "-7,0", "7,0", f"{2**32},0"],
         "norm exceeds the 64-bit rational factorization range"),
        (["t1"], ["1,0", "-7,0", "7,0", f"{INT64_MAX},0"],
         "coordinate out of 64-bit range: (9223372036854775808,0)"),
        (["t2", "--rho", "0,1"], ["-1,-1", "-1,0", f"{2**62},{-2**62}"],
         "coordinate out of 64-bit range: "
         "(4611686018427387904,9223372036854775808)"),
        (["t2", "--rho", "0,1"], ["0,1", "1,1", f"{INT64_MAX},0"],
         "coordinate out of 64-bit range: (0,9223372036854775808)"),
        (["t2", "--rho", "0,1"], ["0,1", "1,1", f"{2**33},0"],
         "norm exceeds the 64-bit rational factorization range"),
        (["t2", "--rho", "2,1"], ["-1,0", "0,1", f"{INT64_MAX},0"],
         "coordinate out of 64-bit range: "
         "(18446744073709551614,9223372036854775807)"),
        (["rho-minus1"], ["1,0", f"{-INT64_MAX},0", "2,0"],
         "coordinate out of 64-bit range: (9223372036854775808,0)"),
        (["rho-minus1"], ["1,0", f"{2**33},0", "2,0"],
         "norm exceeds the 64-bit rational factorization range"),
    ], ids=["t1-norm", "t1-sum", "t2-rho-b", "t2-sum", "t2-norm",
            "t2-rho-b-no-zero", "rho-minus1-sum", "rho-minus1-norm"])
    def test_out_of_range_pair_before_zero_pair(self, tmp_path, capsys, argv,
                                                lines, error):
        path = write_set(tmp_path, "s.txt", lines)
        code, out, err = run_cli(["verify", *argv, "--set", path], capsys)
        assert code == 2
        assert out == ""
        assert err == f"eulab: {error}\n"


class TestRefine:
    def test_additive_chain(self, tmp_path, capsys):
        path = write_set(tmp_path, "s.txt", ["1,0", "2,0", "3,0", "5,0"])
        code, out, _ = run_cli(["refine", "--set", path], capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["mode"] == "t1"
        assert obj["rho"] is None
        assert all(s["rule"] == "uv" for s in obj["steps"])
        assert obj["checks"]["valuation_transfer_ok"] is True
        assert obj["snapshots"][0] == obj["initial"]
        assert obj["snapshots"][-1] == obj["final"]
        validate_output("refine", obj)

    def test_rho_one_is_additive(self, tmp_path, capsys):
        path = write_set(tmp_path, "s.txt", ["1,0", "2,0", "4,0"])
        code, out, _ = run_cli(["refine", "--set", path, "--rho", "1,0"],
                               capsys)
        assert code == 0
        assert json.loads(out)["mode"] == "t1"

    def test_twisted_chain(self, tmp_path, capsys):
        path = write_set(tmp_path, "s.txt",
                         ["1,0", "2,0", "4,0", "5,0", "7,0"])
        code, out, _ = run_cli(["refine", "--set", path, "--rho", "0,1"],
                               capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["mode"] == "t2"
        assert obj["rho"] == "0,1"
        assert all(s["rule"] in ("lemma2", "lemma4") for s in obj["steps"])
        assert obj["checks"]["divisibility_transfer_ok"] is True
        validate_output("refine", obj)

    def test_bad_line_reports_number(self, tmp_path, capsys):
        path = write_set(tmp_path, "bad.txt", ["1,0", "nonsense", "3,0"])
        code, _, err = run_cli(["refine", "--set", path], capsys)
        assert code == 2
        assert f"{path}:2: bad element 'nonsense'" in err
        path = write_set(tmp_path, "big.txt",
                         ["1,0", "9223372036854775808,0"])
        code, _, err = run_cli(["refine", "--set", path], capsys)
        assert code == 2
        assert f"{path}:2:" in err

    def test_bad_integer_reports_number(self, tmp_path, capsys):
        path = write_set(tmp_path, "ints.txt", ["1", "2", "x3"])
        code, _, err = run_cli(["verify", "cor1", "--set", path], capsys)
        assert code == 2
        assert f"{path}:3: bad integer 'x3'" in err

    def test_comments_and_blanks_skipped(self, tmp_path, capsys):
        path = write_set(tmp_path, "c.txt",
                         ["# header", "", "1,0", "  ", "2,0", "3,0"])
        code, out, _ = run_cli(["refine", "--set", path], capsys)
        assert code == 0
        assert json.loads(out)["initial"] == ["1,0", "2,0", "3,0"]

    def test_zero_pair_sum_rejected(self, tmp_path, capsys):
        path = write_set(tmp_path, "z.txt", ["1,0", "-1,0", "2,0"])
        code, _, err = run_cli(["refine", "--set", path], capsys)
        assert code == 2
        assert "zero" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(["refine", "--set", "/no/such/file"], capsys)
        assert code == 2

    # The first zero pair value in pair order is named: i < j for the
    # additive chain, every i != j with --rho.  The seeded sets come from
    # seeded_eint_lines.
    @pytest.mark.parametrize("lines,rho,pair", [
        (["1,0", "2,0", "-3,0", "3,0", "-5,0", "5,0"], None,
         "(-3,0) + (3,0)"),
        (["-1,0", "0,1", "2,0", "0,-2", "3,1", "-1,-2", "5,0"], "0,1",
         "(0,1) + rho*(-1,0)"),
        (5, None, "(-58,-58) + (58,58)"),
        (2, "0,-1", "(93,2) + rho*(-91,-93)"),
        (11, "2,1", "(-96,75) + rho*(7,-82)"),
    ], ids=["additive", "omega", "seed5-additive", "seed2-0,-1",
            "seed11-2,1"])
    def test_zero_factor_names_first_pair(self, tmp_path, capsys, lines,
                                          rho, pair):
        if isinstance(lines, int):
            lines = seeded_eint_lines(lines)
        argv = ["refine", "--set", write_set(tmp_path, "z.txt", lines)]
        if rho is not None:
            argv += ["--rho", rho]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == f"eulab: zero factor from pair {pair}\n"

    # A pair value out of range comes before any zero pair value.
    @pytest.mark.parametrize("lines,rho,error", [
        (["1,0", f"{INT64_MAX},0", "-5,0", "5,0"], None,
         "coordinate out of 64-bit range: (9223372036854775808,0)"),
        (["1,0", "-5,0", "5,0", f"{2**33},0"], None,
         "norm exceeds the 64-bit rational factorization range"),
        (["-1,0", "0,1", f"{2**62},{-2**62}"], "0,1",
         "coordinate out of 64-bit range: "
         "(4611686018427387904,9223372036854775808)"),
        (["0,1", "1,1", f"{INT64_MAX},0"], "0,1",
         "coordinate out of 64-bit range: (0,9223372036854775808)"),
        (["0,1", "1,1", f"{2**33},0"], "0,1",
         "norm exceeds the 64-bit rational factorization range"),
    ], ids=["additive-sum", "additive-norm", "rho-b", "rho-sum", "rho-norm"])
    def test_out_of_range_pair_before_zero_pair(self, tmp_path, capsys,
                                                lines, rho, error):
        argv = ["refine", "--set", write_set(tmp_path, "w.txt", lines)]
        if rho is not None:
            argv += ["--rho", rho]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == f"eulab: {error}\n"

    # Computed when each pair value was factored on its own with factor_e.
    @pytest.mark.parametrize("rho,digest", [
        (None,
         "945998812f6b03215eaa3676a2917e61332f89e1a5915315655ad375fb5a8775"),
        ("0,-1",
         "42ddb44578463f1587fe5a3c8121a7a5a3c0ce24bc3f904994c54b642ebd40fe"),
        ("2,1",
         "37995273c803ad08d8c5e87e106189fbe9a134d3bbab021102d507c5c2afcdfe"),
        ("-2,-1",
         "f9b7fec76ebb3139c045ca082efb7b2bbb3755c59659e8dd473609663c9a720c"),
    ], ids=["additive", "0,-1", "2,1", "-2,-1"])
    def test_pinned_digests(self, tmp_path, capsys, rho, digest):
        path = write_set(tmp_path, "s.txt", seeded_eint_lines(1))
        argv = ["refine", "--set", path]
        if rho is not None:
            argv += ["--rho", rho]
        code, _, err = run_cli(argv, capsys)
        assert code == 0
        assert last_manifest(err)["output_digest"] == digest

    def test_twisted_sum_out_of_range(self, tmp_path, capsys):
        # every element fits in 64 bits, but a + rho*b does not
        path = write_set(tmp_path, "wide.txt",
                         ["4611686018427387904,0", "1,0"])
        code, out, err = run_cli(["refine", "--set", path, "--rho", "2,1"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert "64-bit" in err


class TestSearch:
    def test_json_shape(self, capsys):
        code, out, _ = run_cli(
            ["search", "--k", "3", "--max", "25", "--primitive",
             "--all-witnesses"], capsys)
        obj = json.loads(out)
        assert code == 0
        assert list(obj) == ["k", "max", "minimum", "witness_count",
                             "witnesses", "nodes_visited", "seconds"]
        assert obj["minimum"] == 3
        assert [1, 2, 3] in obj["witnesses"]
        validate_output("search", obj)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["search", "--k", "3", "--max", "20", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,max,minimum,witness_count,examples"
        assert lines[1].startswith("3,20,3,")

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            ["search", "--k", "2", "--max", "12", "--out", str(target)],
            capsys)
        assert code == 0
        assert out == ""
        obj = json.loads(target.read_text())
        assert obj["k"] == 2 and obj["max"] == 12

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            ["search", "--k", "2", "--max", "5", "--out", str(target)],
            capsys)
        assert code == 2
        assert out == ""
        assert f"eulab: cannot write {target}" in err

    def test_digest_ignores_timing(self, capsys):
        argv = ["search", "--k", "3", "--max", "20"]
        _, _, err1 = run_cli(argv, capsys)
        _, _, err2 = run_cli(argv, capsys)
        d1 = last_manifest(err1)["output_digest"]
        d2 = last_manifest(err2)["output_digest"]
        assert d1 == d2

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("argv,digest", [
        (["--k", "3", "--max", "60", "--all-witnesses"],
         "af7ad01361a16288ff9f99692a16e90b9d061f7d12d572197d6d11f8c2049b35"),
        (["--k", "4", "--max", "100", "--primitive"],
         "5b19d8f084a711b291e0f0d9ccb802d6e0bc1e52fddfd733707f058d7f0ca244"),
        (["--k", "8", "--max", "36", "--primitive", "--all-witnesses"],
         "5ec9ab18a146a33fe849ddbc2c9ce46cd80cfba9044c3259c3ff9c13486376f8"),
    ], ids=["k3-m60-all", "k4-m100-primitive", "k8-m36-primitive-all"])
    def test_pinned_digests(self, capsys, argv, digest, workers):
        code, _, err = run_cli(["search", *argv, "--workers", workers],
                               capsys)
        assert code == 0
        assert last_manifest(err)["output_digest"] == digest

    def test_bad_bounds(self, capsys):
        code, _, err = run_cli(["search", "--k", "0", "--max", "10"], capsys)
        assert code == 2
        code, _, err = run_cli(["search", "--k", "3", "--max", "9999"],
                               capsys)
        assert code == 2

    @pytest.mark.parametrize("extra", [["--k", "1"],
                                       ["--k", "3", "--workers", "0"]])
    def test_bad_shape_exits_before_table(self, capsys, monkeypatch, extra):
        built = []
        monkeypatch.setattr(cli, "PairPrimeCache", built.append)
        code, _, err = run_cli(["search", "--max", "2000", *extra], capsys)
        assert code == 2
        assert "eulab:" in err
        assert built == []

    def test_table_bound_exits_before_table(self, capsys):
        code, out, err = run_cli(["search", "--k", "3", "--max", "2001"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert "max_element must be in 2..2000" in err
        assert "building" not in err


class TestPolyprod:
    @pytest.fixture()
    def poly_file(self, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"n": 3, "r": [1, 1, 1], "m": [2, 1]}))
        return str(path)

    def test_omega_example(self, tmp_path, capsys, poly_file):
        a = write_set(tmp_path, "a.txt", ["1", "2", "3"])
        code, out, _ = run_cli(
            ["polyprod", "--poly", poly_file, "--set-a", a, "--set-b", a],
            capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["omega"] == 5
        assert obj["independence"] is None
        validate_output("polyprod", obj)

    def test_independence(self, tmp_path, capsys, poly_file):
        a = write_set(tmp_path, "a.txt", ["1", "2", "3", "4", "5"])
        b = write_set(tmp_path, "b.txt", ["1", "2", "3", "4"])
        code, out, _ = run_cli(
            ["polyprod", "--poly", poly_file, "--set-a", a, "--set-b", b,
             "--check-independence"], capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["independence"]["independent"] is True
        assert obj["independence"]["singular_subset"] is None
        assert obj["independence"]["subsets_checked"] > 0
        validate_output("polyprod", obj)

    # n = 5 puts the line of 5 * 10^7 subsets times n^3 between |B| = 35,
    # C(36, 5) = 376,992 subsets, and |B| = 36, C(37, 5) = 435,897
    @pytest.fixture()
    def quartic_file(self, tmp_path):
        path = tmp_path / "quartic.json"
        path.write_text(json.dumps({"n": 5, "r": [1] * 5, "m": [1] * 4}))
        return str(path)

    def test_independence_past_the_line_exits_2(self, tmp_path, capsys,
                                                quartic_file, monkeypatch):
        def determinant(rows):
            raise AssertionError("a determinant was computed")

        monkeypatch.setattr(polyprod, "integer_determinant", determinant)
        a = write_set(tmp_path, "a.txt", [str(v) for v in range(1, 37)])
        start = time.perf_counter()
        code, out, err = run_cli(
            ["polyprod", "--poly", quartic_file, "--set-a", a, "--set-b", a,
             "--check-independence"], capsys)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == ("eulab: independence check of 435897 subsets of 5 "
                       "rows is past the line of 50000000 subsets times "
                       "n^3\n")

    def test_independence_below_the_line_is_unchanged(
            self, tmp_path, capsys, quartic_file, monkeypatch):
        # the digest was taken before the line existed, with every
        # determinant computed; distinct positive y make every subset
        # nonsingular, so a stub answering 1 gives the same output fast
        calls = []
        monkeypatch.setattr(polyprod, "integer_determinant",
                            lambda rows: calls.append(rows) or 1)
        a = write_set(tmp_path, "a.txt", [str(v) for v in range(1, 36)])
        code, out, err = run_cli(
            ["polyprod", "--poly", quartic_file, "--set-a", a, "--set-b", a,
             "--check-independence"], capsys)
        assert code == 0
        assert len(calls) == math.comb(36, 5) == 376992
        assert last_manifest(err)["output_digest"] == \
            "cd2f98530a342c0e78be419293281133e046963a5cf61ef4bc53b13227727fbb"

    def test_size_rule_exits_2_before_omega(self, tmp_path, capsys,
                                            monkeypatch):
        # |A| < |B| with --check-independence: 60,000 values near 10^17
        # took 31 s to factor before the size rule was read
        def factor(n):
            raise AssertionError("a value was factored")

        monkeypatch.setattr(polyprod, "factor_rational", factor)
        path = tmp_path / "sum.json"
        path.write_text(json.dumps({"n": 2, "r": [1, 1], "m": [1]}))
        rng = random.Random(17)
        values = rng.sample(range(10**17, 2 * 10**17), 500)
        a = write_set(tmp_path, "a.txt", map(str, values[:200]))
        b = write_set(tmp_path, "b.txt", map(str, values[200:]))
        start = time.perf_counter()
        code, out, err = run_cli(
            ["polyprod", "--poly", str(path), "--set-a", a, "--set-b", b,
             "--check-independence"], capsys)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == "eulab: need |A| >= |B| >= 2, got |A| = 200, " \
                      "|B| = 300\n"

    def test_omega_past_the_line_exits_2(self, tmp_path, capsys,
                                         monkeypatch):
        def factor(n):
            raise AssertionError("a value was factored")

        monkeypatch.setattr(polyprod, "factor_rational", factor)
        path = tmp_path / "sum.json"
        path.write_text(json.dumps({"n": 2, "r": [1, 1], "m": [1]}))
        a = write_set(tmp_path, "a.txt",
                      [str(2**62 - v) for v in range(1, 122)])
        b = write_set(tmp_path, "b.txt",
                      [str(2**62 - v) for v in range(1, 101)])
        start = time.perf_counter()
        code, out, err = run_cli(
            ["polyprod", "--poly", str(path), "--set-a", a, "--set-b", b],
            capsys)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == ("eulab: omega of 12100 values of f is past the line "
                       "of 12000 values\n")

    def test_output_keys_in_order(self, tmp_path, capsys, poly_file):
        a = write_set(tmp_path, "a.txt", ["1", "2", "3", "4", "5"])
        code, out, _ = run_cli(
            ["polyprod", "--poly", poly_file, "--set-a", a, "--set-b", a,
             "--check-independence"], capsys)
        assert code == 0
        assert list(json.loads(out)) == ["n", "size_a", "size_b", "omega",
                                         "independence"]

    def test_malformed_poly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        a = write_set(tmp_path, "a.txt", ["1", "2"])
        code, _, err = run_cli(
            ["polyprod", "--poly", str(path), "--set-a", a, "--set-b", a],
            capsys)
        assert code == 2
        assert "invalid JSON" in err

    def test_huge_exponent_exits_2(self, tmp_path, capsys):
        # 2^(10^8) is refused before it is built, and the message names
        # the pair instead of printing a 30-million-digit value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 3, "r": [1, 1, 1],
                                    "m": [10**8, 1]}))
        a = write_set(tmp_path, "a.txt", [str(v) for v in range(2, 7)])
        b = write_set(tmp_path, "b.txt", [str(v) for v in range(2, 6)])
        code, out, err = run_cli(
            ["polyprod", "--poly", str(path), "--set-a", a, "--set-b", b],
            capsys)
        assert code == 2
        assert out == ""
        assert "eulab: f(2,2) exceeds the 64-bit factoring range" in err

    @pytest.mark.parametrize("spec", [
        {"n": 2.0, "r": [1, 1], "m": [1]},
        {"n": 2, "r": [1.5, 1], "m": [1]},
        {"n": 2, "r": [1, 1], "m": [1.7]},
        {"n": 2, "r": ["1", 1], "m": [1]},
        {"n": 2, "r": [1, 1], "m": [True]},
    ])
    def test_non_integer_spec_exits_2(self, tmp_path, capsys, spec):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(spec))
        a = write_set(tmp_path, "a.txt", ["1", "2"])
        code, out, err = run_cli(
            ["polyprod", "--poly", str(path), "--set-a", a, "--set-b", a],
            capsys)
        assert code == 2
        assert out == ""
        assert "must be an integer" in err or "must be integers" in err
        assert "Traceback" not in err

    def test_missing_poly_file(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        a = write_set(tmp_path, "a.txt", ["1", "2"])
        code, out, err = run_cli(
            ["polyprod", "--poly", path, "--set-a", a, "--set-b", a], capsys)
        assert code == 2 and out == ""
        assert err == f"eulab: cannot read {path}: No such file or directory\n"

    def test_missing_keys(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"n": 3, "r": [1, 1, 1]}))
        a = write_set(tmp_path, "a.txt", ["1", "2"])
        code, _, err = run_cli(
            ["polyprod", "--poly", str(path), "--set-a", a, "--set-b", a],
            capsys)
        assert code == 2


# polyprod set values, small or at the edges: 1, and around the 63-bit
# line of x + y (2^62) and of x^2 (isqrt(2^63) = 3037000499), and past it;
# exponents small or at the lines of x^m
_POLY_VALUES = st.integers(1, 40) | st.integers(1, 40) | st.sampled_from([
    1, 2**31 - 1, 3037000499, 3037000500, 2**62 - 1, 2**62, 2**63 - 1,
    2**63])
_POLY_EXPONENTS = st.integers(0, 3) | st.sampled_from([21, 31, 62, 63])


class TestPolyprodFuzz:
    # Exit status 0, 1 or 2 for every input, never a traceback, and a
    # manifest line exactly when the status is 0 or 1.  Sets of up to 7
    # values may repeat a value and may have |A| < |B|.
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 4), check=st.booleans(), data=st.data())
    def test_exit_contract(self, n, check, data):
        spec = {"n": n,
                "r": data.draw(st.lists(st.integers(1, 9), min_size=n,
                                        max_size=n)),
                "m": data.draw(st.lists(_POLY_EXPONENTS, min_size=n - 1,
                                        max_size=n - 1))}
        sets = [data.draw(st.lists(_POLY_VALUES, min_size=1, max_size=7))
                for _ in "ab"]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as folder:
            folder = pathlib.Path(folder)
            (folder / "poly.json").write_text(json.dumps(spec))
            argv = ["polyprod", "--poly", str(folder / "poly.json")]
            for name, values in zip("ab", sets):
                write_set(folder, f"{name}.txt", map(str, values))
                argv += [f"--set-{name}", str(folder / f"{name}.txt")]
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv + ["--check-independence"] * check)
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        assert not any("Traceback" in line for line in lines)
        if code == 2:
            assert out.getvalue() == ""
            assert lines and lines[-1].startswith("eulab: ")
        else:
            assert "output_digest" in json.loads(lines[-1])
            validate_output("polyprod", json.loads(out.getvalue()))


class TestReproducibility:
    def test_identical_params_identical_output(self, capsys):
        argv = ["verify", "cor2", "--trials", "4", "--size", "10",
                "--range", "60", "--seed", "42"]
        code1, out1, err1 = run_cli(argv, capsys)
        code2, out2, err2 = run_cli(argv, capsys)
        assert (code1, out1) == (code2, out2)
        m1, m2 = last_manifest(err1), last_manifest(err2)
        assert m1["output_digest"] == m2["output_digest"]
        assert m1["params"] == m2["params"]

    def test_manifest_fields(self, capsys):
        _, _, err = run_cli(["tau", "--e", "2,1"], capsys)
        manifest = last_manifest(err)
        assert list(manifest) == ["subcommand", "params", "seed", "version",
                                  "wall_time", "output_digest"]

    def test_digest_nulling(self):
        a = {"nodes_visited": 5, "seconds": 0.2, "minimum": 3,
             "inner": [{"seconds": 9.9}]}
        b = {"nodes_visited": 77, "seconds": 1.4, "minimum": 3,
             "inner": [{"seconds": 0.1}]}
        assert cli.output_digest(a) == cli.output_digest(b)
        c = dict(a, minimum=4)
        assert cli.output_digest(a) != cli.output_digest(c)


def reference_digest(out):
    """output_digest by its definition: copy out with every volatile key
    nulled at any depth, then hash the canonical JSON."""
    def null(obj):
        if isinstance(obj, dict):
            return {k: None if k in ("seconds", "nodes_visited") else null(v)
                    for k, v in obj.items()}
        if isinstance(obj, list):
            return [null(v) for v in obj]
        return obj

    canon = json.dumps(null(out), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# keys and strings that look like volatile members without being one
_KEYS = st.sampled_from(["seconds", "nodes_visited", "minimum", 'a"seconds',
                         "seconds:", 'nodes_visited"']) | st.text(max_size=6)
_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False)
           | st.sampled_from(['"seconds":', "nodes_visited", 'x":'])
           | st.text(max_size=8))
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=24)


def _subcommand_argv(subcommand, tmp_path):
    """One small real invocation of each subcommand."""
    if subcommand == "refine":
        return ["refine", "--set",
                write_set(tmp_path, "e.txt", ["1,0", "0,1", "2,0", "3,-1",
                                              "5,2", "7,3"]),
                "--rho", "2,1"]
    if subcommand == "polyprod":
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"n": 3, "r": [1, 1, 1], "m": [2, 1]}))
        values = write_set(tmp_path, "a.txt", ["1", "2", "3", "4", "5"])
        return ["polyprod", "--poly", str(poly), "--set-a", values,
                "--set-b", values, "--check-independence"]
    return {
        "factor": ["factor", "--e", "-84,-420"],
        "omega-e": ["omega-e", "--e", "12,0"],
        "tau": ["tau", "--e", "2,1"],
        "crho": ["crho", "--rho", "1,2"],
        "verify": ["verify", "t2", "--rho", "2,1", "--trials", "2",
                   "--size", "8", "--range", "30", "--seed", "3"],
        "search": ["search", "--k", "3", "--max", "12"],
    }[subcommand]


class TestDigest:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.dictionaries(_KEYS, _JSON, max_size=5))
    def test_matches_recursive_nulling(self, out):
        assert cli.output_digest(out) == reference_digest(out)

    @pytest.mark.parametrize("subcommand", list(cli._HANDLERS))
    def test_real_output_matches_recursive_nulling(self, subcommand,
                                                    tmp_path, capsys):
        code, out, err = run_cli(_subcommand_argv(subcommand, tmp_path),
                                 capsys)
        assert code in (0, 1)
        obj = json.loads(out)
        assert last_manifest(err)["output_digest"] == reference_digest(obj)
        assert cli.output_digest(obj) == reference_digest(obj)


def _render_argv(case, tmp_path):
    """One real invocation per output shape: every subcommand, each
    verify token and both refine chains."""
    if case in ("refine", "polyprod"):
        return _subcommand_argv(case, tmp_path)
    if case == "refine-additive":
        return _subcommand_argv("refine", tmp_path)[:3]
    if case.startswith("verify "):
        token = case.split()[1]
        rho = ["--rho", "2,1"] if token == "t2" else []
        return ["verify", token, *rho, "--trials", "2", "--size", "8",
                "--range", "30", "--seed", "3"]
    return {
        "factor-n": ["factor", "--n", "-9223372021822390277"],
        "factor-e": ["factor", "--e", "-84,-420"],
        "omega-e": ["omega-e", "--e", "12,0"],
        "tau": ["tau", "--e", "2,1"],
        "crho": ["crho", "--rho", "-2,-1"],
        "search": ["search", "--k", "3", "--max", "12", "--all-witnesses"],
    }[case]


# JSON values of every kind json.dumps takes, and lists of only str or
# only int (the renderer's joined leaves) or only bool (never joined)
_TEXT = st.text() | st.sampled_from(
    ['"', "\\", "a\"b\\c", "\n\t\x00\x1f\x7f", "\u00e9\u2603\U0001f600"])
_RENDER_LEAVES = (st.none() | st.booleans()
                  | st.integers() | st.integers(-2**200, 2**200)
                  | st.floats() | st.sampled_from([float("nan"), float("inf"),
                                                   -float("inf"), -0.0])
                  | _TEXT)
_RENDER_JSON = st.recursive(
    _RENDER_LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(_TEXT, max_size=5) | st.lists(st.integers(), max_size=5)
    | st.lists(st.booleans(), max_size=5)
    | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=30)


class TestRender:
    @pytest.mark.parametrize("case", [
        "factor-n", "factor-e", "omega-e", "tau", "crho",
        *(f"verify {t}" for t in cli.VERIFY_TOKENS),
        "refine", "refine-additive", "search", "polyprod"])
    def test_subcommand_output(self, case, tmp_path, capsys, monkeypatch):
        rendered = []
        real = cli._render_json

        def render(obj):
            rendered.append(obj)
            return real(obj)

        monkeypatch.setattr(cli, "_render_json", render)
        code, out, _ = run_cli(_render_argv(case, tmp_path), capsys)
        assert code in (0, 1)
        [obj] = rendered
        assert out == json.dumps(obj, indent=2) + "\n"

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_RENDER_JSON)
    def test_matches_json_dumps(self, value):
        assert cli._render_json(value) == json.dumps(value, indent=2)

    def test_bool_and_non_str_keys(self):
        for value in ([True, False], [1, True], {"a": [0, False]},
                      {1: "x", "b": [2]}, {None: 1.5, True: []}, [[], {}],
                      {"n": [-0.0, float("nan"), 10**30]}):
            assert cli._render_json(value) == json.dumps(value, indent=2)


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_call_order_does_not_leak(self, tmp_path, capsys):
        path = write_set(tmp_path, "s.txt", ["1,0", "2,0", "3,0", "5,0"])
        calls = {
            "refine": ["refine", "--set", path],
            "verify": ["verify", "t1", "--trials", "2", "--size", "6",
                       "--seed", "5"],
            "rejected": ["verify", "t1", "--size", "many"],
            "cli-error": ["verify", "cor1", "--rho", "1,0"],
            "search": ["search", "--k", "3", "--max", "12",
                       "--format", "csv"],
        }

        def run_in(order):
            got = {}
            for name in order:
                try:
                    code = cli.main(calls[name])
                except SystemExit as exc:
                    code = exc.code
                got[name] = (code, capsys.readouterr().out)
            return got

        first = run_in(["refine", "verify", "rejected", "cli-error",
                        "search"])
        second = run_in(["search", "cli-error", "rejected", "verify",
                         "refine"])
        assert first == second
        assert [first[k][0] for k in calls] == [0, 0, 2, 2, 0]
        assert first["search"][1].startswith("k,max,minimum")


class TestSubprocess:
    def test_module_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eulab.cli", "omega-e", "--e", "12,0"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["omega"] == 2

    def test_digest_does_not_load_libcrypto(self):
        # hashlib would map OpenSSL's libcrypto (_hashlib) into the process
        # for the one manifest digest; the built-in module keeps it out
        script = """if True:
            import contextlib, importlib.util, io, json, sys
            import eulab.cli as cli
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \\
                    contextlib.redirect_stderr(err):
                code = cli.main(["verify", "erdos-turan", "--trials", "2",
                                 "--size", "6", "--range", "100",
                                 "--seed", "1"])
            loaded = "_hashlib" in sys.modules
            builtin = any(importlib.util.find_spec(name) is not None
                          for name in ("_sha2", "_sha256"))
            print(json.dumps({"code": code, "stdout": out.getvalue(),
                              "manifest": err.getvalue().splitlines()[-1],
                              "loaded": loaded, "builtin": builtin}))
        """
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["code"] == 0
        assert json.loads(result["manifest"])["output_digest"] == \
            reference_digest(json.loads(result["stdout"]))
        if result["builtin"]:
            assert not result["loaded"]
