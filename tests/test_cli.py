from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from rmlist import AnfPolynomial, FunctionTable, __version__, anf_to_table
from rmlist.cli import _build_parser, main
from rmlist.errors import (
    ApproximationFailure,
    InputError,
    InvariantFailure,
    ScaleError,
)
from rmlist.manifest import load_manifest, sha256_file

from conftest import table_of
from oracles import write_function_file


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.delenv("RMLIST_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv: str) -> int:
    return main(list(argv))


class TestExitCodes:
    def test_distinct_codes(self):
        codes = {
            cls.exit_code
            for cls in (InputError, ScaleError, ApproximationFailure, InvariantFailure)
        }
        assert len(codes) == 4
        assert 0 not in codes
        assert ApproximationFailure("x").exit_code == 4

    def test_input_error_exit(self, outdir, capsys):
        assert run("enum", "--n", "2", "--d", "3", "--out", "e.csv") == 2
        assert "error:" in capsys.readouterr().err

    def test_scale_error_exit(self, outdir):
        assert run("enum", "--n", "6", "--d", "3", "--out", "e.csv") == 3

    @pytest.mark.parametrize(
        "argv,code",
        [
            # 7^(8+7) scanned values, past 2^32.
            (("enum", "--q", "7", "--n", "7", "--d", "1"), 3),
            # 7^12 points, past the 2^20 block-length cap.
            (("enum", "--q", "7", "--n", "12", "--d", "1"), 2),
            (("construct", "--q", "2", "--n", "21", "--d", "2", "--k", "1"), 2),
        ],
    )
    def test_grm_cap_exits(self, outdir, argv, code):
        assert run("grm", *argv, "--out", "g.csv") == code
        assert not Path("g.csv").exists()
        assert not Path("g.csv.manifest.json").exists()

    def test_approx_table_cap_exit(self, outdir):
        # m = 17745 tables of 2^20 bits is past the 2^32-bit cap: exit 3, no files.
        write_function_file("zero.txt", FunctionTable.zero(20))
        assert run("approx", "--function", "zero.txt", "--k", "1", "--eps", "1/2",
                   "--delta", "1/4", "--out", "a.json") == 3
        assert not Path("a.json").exists()
        assert not Path("a.json.manifest.json").exists()

    def test_weight_gate_exit(self, outdir):
        write_function_file("ones.txt", FunctionTable.ones(3))
        code = run("approx", "--function", "ones.txt", "--k", "1",
                   "--eps", "1/2", "--delta", "1/4", "--out", "a.json")
        assert code == 2

    def test_float_alpha_rejected(self, outdir):
        assert run("enum", "--n", "2", "--d", "1", "--alpha", "0.5",
                   "--out", "e.csv") == 2


class TestEnumCommand:
    def test_writes_csv_and_alpha_queries(self, outdir, capsys):
        assert run("enum", "--n", "2", "--d", "1", "--alpha", "1/2",
                   "--alpha", "1/4", "--out", "enum.csv") == 0
        out = capsys.readouterr().out
        assert "A(1/2): 7" in out
        assert "A(1/4): 1" in out
        lines = Path("enum.csv").read_text().splitlines()
        assert lines[2:] == ["0,0,1", "2,1/2,6", "4,1,1"]

    def test_sharded_outputs_byte_identical(self, outdir):
        run("enum", "--n", "4", "--d", "2", "--out", "a.csv")
        run("enum", "--n", "4", "--d", "2", "--shards", "4", "--out", "b.csv")
        run("enum", "--n", "4", "--d", "2", "--shards", "4", "--workers", "2",
            "--out", "c.csv")
        a = Path("a.csv").read_bytes()
        assert a == Path("b.csv").read_bytes() == Path("c.csv").read_bytes()

    def test_manifest_written(self, outdir):
        run("enum", "--n", "2", "--d", "1", "--out", "enum.csv")
        manifest = load_manifest("enum.csv.manifest.json")
        assert manifest.command == "enum"
        assert manifest.params["n"] == 2
        assert manifest.outputs["enum.csv"] == sha256_file("enum.csv")


class TestListdecodeCommand:
    def test_ball_around_zero(self, outdir):
        write_function_file("zero.txt", FunctionTable.zero(4))
        assert run("listdecode", "--center", "zero.txt", "--alpha", "1/4",
                   "--n", "4", "--d", "2", "--out", "ball.csv") == 0
        lines = Path("ball.csv").read_text().splitlines()
        assert len(lines) == 2 + 141

    def test_full_listing_guarded(self, outdir):
        write_function_file("zero.txt", FunctionTable.zero(2))
        assert run("listdecode", "--center", "zero.txt", "--alpha", "1",
                   "--n", "2", "--d", "1", "--out", "ball.csv") == 2
        assert run("listdecode", "--center", "zero.txt", "--alpha", "1",
                   "--n", "2", "--d", "1", "--allow-full",
                   "--out", "ball.csv") == 0
        assert len(Path("ball.csv").read_text().splitlines()) == 2 + 8

    def test_mismatched_n_rejected(self, outdir):
        write_function_file("zero.txt", FunctionTable.zero(3))
        assert run("listdecode", "--center", "zero.txt", "--alpha", "1/4",
                   "--n", "4", "--d", "2", "--out", "ball.csv") == 2


class TestApproxCommand:
    def test_zero_function_report(self, outdir, capsys):
        write_function_file("f.txt", FunctionTable.zero(3))
        assert run("approx", "--function", "f.txt", "--k", "1", "--eps", "1/2",
                   "--delta", "1/4", "--seed", "3", "--out", "approx.json") == 0
        out = capsys.readouterr().out
        assert "achieved_distance: 0" in out
        record = json.loads(Path("approx.json").read_text())
        assert record["n"] == 3
        assert record["achieved_distance"] == "0"
        assert len(record["samples"]) == record["m"]

    @pytest.mark.parametrize(
        "function,k,eps,delta,seed,digest",
        [
            (FunctionTable(6, 0x8080808080808080), "1", "1/2", "1/4", "9",  # x1x2x3
             "33668594ec59b583d36bffe0493012c743be03733015fab124fadd3e925657e7"),
            (FunctionTable(5, 1 << 13), "2", "3/4", "1/2", "5",
             "31bb4b8bd8637331371c488169efc4b8f0103b9a5ca8d00c2ce38ccfdb597cb0"),
            (FunctionTable(8, (1 << 3) | (1 << 100) | (1 << 201)), "3", "9/10", "1/2", "7",
             "f481c08c151106facc336ffe8e131c1af98ba823be4374072af77f82c1139803"),
            (anf_to_table(AnfPolynomial.from_variable_lists(10, [[1, 2, 4]])),
             "1", "1/2", "1/8", "1",
             "799a19d64839b13ed99ced8fce86f91e729ae485ac5ca088e8760a6eca862e5e"),
            (FunctionTable(7, sum(1 << x for x in (2, 19, 40, 77, 90, 111, 127))),
             "2", "3/4", "1/4", "11",
             "b3379826174d707af6959e83587e325d5089592a96444a70fadfaa7f8ffbbddf"),
        ],
    )
    def test_output_bytes_unchanged(self, outdir, function, k, eps, delta, seed, digest):
        # Digests of the records written by the build that kept its derivative tables.
        write_function_file("f.txt", function)
        assert run("approx", "--function", "f.txt", "--k", k, "--eps", eps,
                   "--delta", delta, "--seed", seed, "--out", "a.json") == 0
        assert sha256_file("a.json") == digest
        assert load_manifest("a.json.manifest.json").outputs == {"a.json": digest}

    def test_deterministic_output(self, outdir):
        p = AnfPolynomial.from_variable_lists(4, [[1, 2, 3]])
        write_function_file("f.txt", anf_to_table(p))
        run("approx", "--function", "f.txt", "--k", "1", "--eps", "1/2",
            "--delta", "1/4", "--seed", "9", "--out", "a.json")
        run("approx", "--function", "f.txt", "--k", "1", "--eps", "1/2",
            "--delta", "1/4", "--seed", "9", "--out", "b.json")
        assert Path("a.json").read_bytes() == Path("b.json").read_bytes()


class TestVerifyCommand:
    def test_exhaustive_single_derivative(self, outdir):
        assert run("verify", "single-der", "--n", "3", "--exhaustive",
                   "--out", "v.json") == 0
        report = json.loads(Path("v.json").read_text())
        assert report["max_deviation"] == "0"
        assert report["functions_checked"] + report["zero_bias_skipped"] == 256

    def test_single_derivative_one_function(self, outdir):
        p = AnfPolynomial.from_variable_lists(2, [[1, 2]])
        write_function_file("f.txt", anf_to_table(p))
        assert run("verify", "single-der", "--function", "f.txt",
                   "--out", "v.json") == 0
        report = json.loads(Path("v.json").read_text())
        assert report["max_deviation"] == "0"

    def test_single_derivative_balanced_rejected(self, outdir):
        p = AnfPolynomial.from_variable_lists(2, [[1]])
        write_function_file("f.txt", anf_to_table(p))
        assert run("verify", "single-der", "--function", "f.txt",
                   "--out", "v.json") == 2

    def test_representation(self, outdir):
        p = AnfPolynomial.from_variable_lists(3, [[1, 2, 3]])
        write_function_file("f.txt", anf_to_table(p))
        assert run("verify", "representation", "--function", "f.txt",
                   "--k", "2", "--eps", "1/4", "--out", "v.json") == 0
        report = json.loads(Path("v.json").read_text())
        assert report["max_deviation"] == "0"
        assert report["tuples_checked"] == 64

    def test_bias_bounds(self, outdir):
        p = AnfPolynomial.from_variable_lists(3, [[1, 2, 3]])
        write_function_file("f.txt", anf_to_table(p))
        assert run("verify", "bias-bounds", "--function", "f.txt",
                   "--k", "2", "--eps", "1/4", "--out", "v.json") == 0
        report = json.loads(Path("v.json").read_text())
        assert report["violations"] == 0

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_bias_bounds_samples_below_one(self, outdir, capsys, samples):
        # n*(k-1) = 26 > 24 selects the sampled path, where no sample checks nothing.
        write_function_file("f.txt", FunctionTable(13, 1))
        assert run("verify", "bias-bounds", "--function", "f.txt", "--k", "3",
                   "--eps", "1/2", "--samples", samples, "--out", "v.json") == 2
        assert capsys.readouterr().out == ""
        assert not Path("v.json").exists()
        assert not Path("v.json.manifest.json").exists()

    def test_overweight_precondition(self, outdir):
        write_function_file("f.txt", FunctionTable.ones(3))
        assert run("verify", "bias-bounds", "--function", "f.txt",
                   "--k", "1", "--eps", "1/2", "--out", "v.json") == 2

    def test_missing_function_flag(self, outdir):
        assert run("verify", "representation", "--k", "1", "--eps", "1/2",
                   "--out", "v.json") == 2

    @pytest.mark.parametrize(
        "function,k,eps,digest",
        [
            (FunctionTable(3, 128), "2", "1/4",  # x1x2x3
             "389c7ba16eb2b237b350490f69cec476b3eb9a7d4e2690e655cd7896e8f8d993"),
            (FunctionTable(6, 6758152515158529), "2", "1/4",  # 8 ones drawn by random.Random(71)
             "c28445f426bb598491b439e273195127db053a839d7d86b1cc69306125a5ade2"),
            (FunctionTable(6, 158329682788864), "2", "1/3",  # 4 ones drawn by random.Random(72)
             "8e7f2b5adb0fb460cbfb19df0c38027c04237e5353eec7e8daf49f0759775c03"),
        ],
    )
    def test_representation_bytes_unchanged(self, outdir, function, k, eps, digest):
        # Digests of the output written by the rational-arithmetic check.
        write_function_file("f.txt", function)
        assert run("verify", "representation", "--function", "f.txt",
                   "--k", k, "--eps", eps, "--out", "v.json") == 0
        assert sha256_file("v.json") == digest
        assert load_manifest("v.json.manifest.json").outputs == {"v.json": digest}

    @pytest.mark.parametrize(
        "identity,n,extra",
        [
            # 4^17 derived table bits
            ("single-der", 17, ()),
            # 2^(n(k+1)) derived table bits: 2^(12*3), then 2^(17*2)
            ("representation", 12, ("--k", "2", "--eps", "1/2")),
            ("representation", 17, ("--k", "1", "--eps", "1/2")),
            # the exhaustive walk's 2^(nk) = 2^(17*2) derived table bits
            ("bias-bounds", 17, ("--k", "2", "--eps", "1/2")),
            # the sampled check's (k-1) * samples * 2^n = 2 * 2000 * 2^21
            ("bias-bounds", 21, ("--k", "3", "--eps", "1/2")),
        ],
    )
    def test_derived_table_cap_exit(self, outdir, identity, n, extra):
        write_function_file("f.txt", FunctionTable(n, 1))
        assert run("verify", identity, "--function", "f.txt", *extra,
                   "--out", "v.json") == 3
        assert not Path("v.json").exists()
        assert not Path("v.json.manifest.json").exists()


    def test_bias_bound_violation_keeps_its_output_and_manifest(self, outdir, monkeypatch):
        # Unreachable under the weight gate; lifted, a heavy function violates the bounds.
        from rmlist import derivatives

        monkeypatch.setattr(derivatives, "require_low_weight", lambda *args: None)
        write_function_file("f.txt", FunctionTable(3, 0b01111110))
        assert run("verify", "bias-bounds", "--function", "f.txt", "--k", "2",
                   "--eps", "1/2", "--out", "v.json") == 5
        assert json.loads(Path("v.json").read_text())["violations"] > 0
        manifest = load_manifest("v.json.manifest.json")
        assert manifest.command == "verify"
        assert manifest.outputs == {"v.json": sha256_file("v.json")}


class TestFailedRunLeavesNoManifest:
    """A run that fails before it writes leaves neither an output nor a manifest
    behind, not even those of an earlier run to the same path."""

    def test_input_error_after_a_run(self, outdir):
        assert run("enum", "--n", "3", "--d", "1", "--out", "x.csv") == 0
        assert Path("x.csv.manifest.json").exists()
        assert run("enum", "--n", "3", "--d", "5", "--out", "x.csv") == 2
        assert not Path("x.csv").exists()
        assert not Path("x.csv.manifest.json").exists()

    def test_scale_error_after_a_run_of_another_command(self, outdir):
        assert run("enum", "--n", "3", "--d", "1", "--out", "x.csv") == 0
        assert run("bounds", "--n", "5", "--d", "2", "--k", "1", "--eps", "1/20",
                   "--out", "x.csv") == 3
        assert not Path("x.csv").exists()
        assert not Path("x.csv.manifest.json").exists()

    def test_rerun_records_the_new_output(self, outdir):
        assert run("enum", "--n", "3", "--d", "1", "--out", "x.csv") == 0
        assert run("enum", "--n", "3", "--d", "2", "--out", "x.csv") == 0
        manifest = load_manifest("x.csv.manifest.json")
        assert manifest.params["d"] == 2
        assert manifest.outputs == {"x.csv": sha256_file("x.csv")}
        assert run("replay", "x.csv.manifest.json", "--out-dir", "again") == 0


class TestBoundsCommand:
    def test_table_contains_both_formulas(self, outdir, capsys):
        assert run("bounds", "--n", "5", "--d", "2", "--k", "1",
                   "--eps", "1/2", "--out", "bounds.csv") == 0
        text = Path("bounds.csv").read_text()
        assert text.splitlines()[0] == "formula,n,d,k,eps,log2_value,terms,value_hex"
        assert "accumulative-weight" in text
        assert "list-size" in text

    @pytest.mark.parametrize("eps", ["1/10", "1/20", "1/1000"])
    def test_value_cap_exits(self, outdir, eps):
        # At 1/10 the accumulative value fits and the list value does not:
        # neither is built.
        start = time.perf_counter()
        assert run("bounds", "--n", "5", "--d", "2", "--k", "1", "--eps", eps,
                   "--out", "b.csv") == 3
        assert time.perf_counter() - start < 0.5
        assert not Path("b.csv").exists()
        assert not Path("b.csv.manifest.json").exists()


class TestBoundsOutputDigests:
    """sha256 of fixed ``bounds`` tables: terms, log2 values and both integers in hex."""

    @pytest.mark.parametrize(
        "n,d,k,eps,digest",
        [
            # The first two have k = d - 1 and write the near_minimum_bound line.
            (5, 2, 1, "1/2",
             "7cc952d14c4b97a1bb5b2aafe028e67a895ea9ac68fcb4413dde72fbd64a7a32"),
            (4, 3, 2, "1/2",
             "59212147de83f5d635181056a49315e6044a2300975f4cb65d0ace4dd3dcffac"),
            (6, 3, 1, "3/4",
             "f513ba38012d6ffd2c53afd2a1ee2a1aa2cbde4b2d7f4c18f4ef5af675aa86cf"),
        ],
        ids=["bounds-5-2-1", "bounds-4-3-2", "bounds-6-3-1"],
    )
    def test_output_bytes(self, outdir, n, d, k, eps, digest):
        assert run("bounds", "--n", str(n), "--d", str(d), "--k", str(k),
                   "--eps", eps, "--out", "b.csv") == 0
        assert sha256_file("b.csv") == digest


class TestConstructCommand:
    def test_family_stream(self, outdir, capsys):
        assert run("construct", "--family", "lower-bound", "--n", "6",
                   "--d", "2", "--k", "1", "--out", "family.txt") == 0
        out = capsys.readouterr().out
        assert "distinct: 1024" in out
        assert "weight: 1/2" in out

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_limit_below_one(self, outdir, capsys, limit):
        assert run("construct", "--n", "6", "--d", "2", "--k", "1",
                   "--limit", limit, "--out", "family.txt") == 2
        assert capsys.readouterr().out == ""
        assert not Path("family.txt").exists()
        assert not Path("family.txt.manifest.json").exists()


class TestGrmCommands:
    def test_thresholds(self, outdir, capsys):
        assert run("grm", "thresholds", "--q", "3", "--d", "2",
                   "--out", "thr.csv") == 0
        out = capsys.readouterr().out
        assert "r_1: 1/3" in out
        assert "r_2: 2/3" in out

    def test_enum(self, outdir, capsys):
        assert run("grm", "enum", "--q", "3", "--n", "2", "--d", "2",
                   "--out", "g.csv") == 0
        assert "codewords: 729" in capsys.readouterr().out
        assert Path("g.csv").read_text().startswith("# q=3,n=2,d=2,dimension=6")

    def test_construct(self, outdir, capsys):
        assert run("grm", "construct", "--q", "3", "--n", "3", "--d", "2",
                   "--k", "1", "--out", "fam.csv") == 0
        assert "claimed_weight: 1/3" in capsys.readouterr().out

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_construct_limit_below_one(self, outdir, capsys, limit):
        assert run("grm", "construct", "--q", "3", "--n", "3", "--d", "2", "--k", "1",
                   "--limit", limit, "--out", "fam.csv") == 2
        assert capsys.readouterr().out == ""
        assert not Path("fam.csv").exists()
        assert not Path("fam.csv.manifest.json").exists()

    def test_bias_scan(self, outdir):
        Path("t.txt").write_text("q 3\nn 1\nvalues 012\n")
        assert run("grm", "bias-scan", "--table", "t.txt", "--out", "scan.json") == 0
        report = json.loads(Path("scan.json").read_text())
        assert report["mean_all_equals_one_minus_weight"] is True
        assert report["residue_counts"][0] == [3, 0, 0]


class TestGrmOutputDigests:
    """sha256 of fixed F_q outputs: enumerator CSVs and construction member order."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (("enum", "--q", "3", "--n", "2", "--d", "2"),
             "9a2361c4b64fd30b3b568770eea2c8b3e83ea7012b293dc772f61bab894c23ec"),
            (("enum", "--q", "5", "--n", "2", "--d", "2"),
             "e3706826ff16793c78e3872bd521b96eaf4d795637ffdf4213b01f20513d3f6e"),
            (("enum", "--q", "7", "--n", "2", "--d", "2"),
             "2efadd4a1a4f6008002dca1adaeba58ceffa166bfa445cb4479da32bcc00e6f4"),
            (("enum", "--q", "2", "--n", "5", "--d", "2"),
             "a6e3edc5757a1e1d74cc32c2883fcad3f547c5342b832fe5ea25f7a918a131b3"),
            (("construct", "--q", "3", "--n", "3", "--d", "2", "--k", "1"),
             "9f0828f65b1129be63e91f198f220ff794097705b2a4e096551d874308b30af4"),
            (("construct", "--q", "3", "--n", "4", "--d", "3", "--k", "2"),
             "969eff8c35d0bcf3bedec014f7137de7c62fa5e2a41ca06ae2170261c4a9c41c"),
            (("construct", "--q", "7", "--n", "2", "--d", "3", "--k", "3"),
             "b03fa9b4668444a021c0c0dc5a07e119f98d9f23e197f806a7dc4a0e70862aee"),
        ],
        ids=["enum-3-2-2", "enum-5-2-2", "enum-7-2-2", "enum-2-5-2", "construct-3-3-2-1",
             "construct-3-4-3-2", "construct-7-2-3-3"],
    )
    def test_output_bytes(self, outdir, argv, digest):
        assert run("grm", *argv, "--out", "g.csv") == 0
        assert sha256_file("g.csv") == digest


class TestListdecodeOutputDigests:
    """sha256 of fixed ball CSVs: member order within a distance is canonical ANF order."""

    @pytest.mark.parametrize(
        "n,d,alpha,center,digest",
        [
            # Around the codeword x1x2 + x3 + x2x4: the 141-member ball of 0, translated.
            (4, 2, "1/4", table_of(4, [1, 2], [3], [2, 4]),
             "06002e2e490750601ce9f99c219569179ee5eca007d91f4619cd46faea781385"),
            # The codeword 1 + x1x3 + x2x5 + x4 with four flips: 9,204 members at five distances.
            (5, 2, "3/8", FunctionTable(5, table_of(5, [], [1, 3], [2, 5], [4]).bits
                                        ^ (1 << 0 | 1 << 7 | 1 << 19 | 1 << 26)),
             "ea06057afa61fab55670a1facf2eceefa6bcd38f75c88db715e0e6371934365c"),
            # x1x2 + x3x4, bent on x1..x4: all 16 members tie at distance 24.
            (6, 1, "3/8", table_of(6, [1, 2], [3, 4]),
             "fcfcb4ee32f2c8f1efea906084af53a60e358eb9be4276be3ef347df544e323d"),
        ],
        ids=["rm-4-2-codeword", "rm-5-2-noisy", "rm-6-1-ties"],
    )
    def test_output_bytes(self, outdir, n, d, alpha, center, digest):
        write_function_file("center.txt", center)
        assert run("listdecode", "--center", "center.txt", "--alpha", alpha,
                   "--n", str(n), "--d", str(d), "--out", "ball.csv") == 0
        assert sha256_file("ball.csv") == digest


class TestReplay:
    @pytest.mark.parametrize(
        "argv,outname",
        [
            (("enum", "--n", "4", "--d", "2", "--shards", "2"), "enum.csv"),
            (("construct", "--n", "5", "--d", "2", "--k", "2"), "family.txt"),
            (("grm", "enum", "--q", "3", "--n", "2", "--d", "2"), "grm_enum.csv"),
            (("grm", "thresholds", "--q", "2", "--d", "4"), "thresholds.csv"),
        ],
    )
    def test_byte_identical(self, outdir, argv, outname):
        assert run(*argv, "--out", outname) == 0
        assert run("replay", f"{outname}.manifest.json", "--out-dir", "again") == 0
        assert Path(outname).read_bytes() == (Path("again") / outname).read_bytes()

    def test_approx_replay(self, outdir):
        p = AnfPolynomial.from_variable_lists(4, [[1, 2, 3]])
        write_function_file("f.txt", anf_to_table(p))
        run("approx", "--function", "f.txt", "--k", "1", "--eps", "1/2",
            "--delta", "1/4", "--seed", "11", "--out", "approx.json")
        assert run("replay", "approx.json.manifest.json", "--out-dir", "again") == 0
        assert Path("approx.json").read_bytes() == (
            Path("again") / "approx.json"
        ).read_bytes()

    def test_detects_tampering(self, outdir):
        run("enum", "--n", "2", "--d", "1", "--out", "enum.csv")
        manifest_path = Path("enum.csv.manifest.json")
        data = json.loads(manifest_path.read_text())
        data["outputs"]["enum.csv"] = "0" * 64
        manifest_path.write_text(json.dumps(data))
        assert run("replay", str(manifest_path), "--out-dir", "again") == 5


class TestRepeatedCalls:
    """``main`` builds its parser once per process; no call may leak into the next."""

    def test_alpha_default_not_shared(self, outdir, capsys):
        assert run("enum", "--n", "2", "--d", "1", "--alpha", "1/2",
                   "--alpha", "1/4", "--out", "a.csv") == 0
        capsys.readouterr()
        assert run("enum", "--n", "2", "--d", "1", "--out", "b.csv") == 0
        assert "A(" not in capsys.readouterr().out
        assert json.loads(Path("b.csv.manifest.json").read_text())["params"]["alphas"] == []

    def test_allow_full_not_sticky(self, outdir):
        write_function_file("zero.txt", FunctionTable.zero(2))
        argv = ("listdecode", "--center", "zero.txt", "--alpha", "1",
                "--n", "2", "--d", "1", "--out", "ball.csv")
        assert run(*argv, "--allow-full") == 0
        assert run(*argv) == 2

    def test_rejection_then_valid_call(self, outdir):
        with pytest.raises(SystemExit) as exc:
            run("enum", "--n", "two", "--d", "1", "--out", "bad.csv")
        assert exc.value.code == 2
        assert run("enum", "--n", "2", "--d", "1", "--out", "good.csv") == 0
        assert Path("good.csv").exists()
        assert not Path("bad.csv").exists()

    def test_version_twice(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run("--version")
            assert exc.value.code == 0
            assert capsys.readouterr().out.strip() == __version__

    def test_parser_built_once(self, outdir):
        run("enum", "--n", "2", "--d", "1", "--out", "a.csv")
        run("grm", "thresholds", "--q", "2", "--d", "2", "--out", "t.csv")
        run("replay", "a.csv.manifest.json", "--out-dir", "again")
        assert _build_parser.cache_info().misses == 1


class TestOutDirEnv:
    def test_relative_outputs_land_in_env_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "results"
        monkeypatch.setenv("RMLIST_OUT_DIR", str(target))
        monkeypatch.chdir(tmp_path)
        assert run("enum", "--n", "2", "--d", "1", "--out", "enum.csv") == 0
        assert (target / "enum.csv").exists()
        assert not (tmp_path / "enum.csv").exists()
