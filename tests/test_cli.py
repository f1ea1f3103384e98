"""CLI contract: output formats, JSON twins, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schubcalc.cli as cli
from schubcalc.core import GrassmannContext, dim_partition_to_symbol, dual_partition
from schubcalc.search import VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRender:
    def test_example_grid(self, capsys):
        code, out, err = run(
            capsys, "render", "--k", "2", "--n", "6", "--partition", "3,3,3"
        )
        assert code == 0
        assert out == "# # # .\n# # # .\n# # # .\n"
        assert err == ""

    def test_overlay_json_twin(self, capsys):
        code, out, _ = run(
            capsys,
            "render", "--k", "2", "--n", "6",
            "--partition", "4,4,0", "--overlay", "1,1,1",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["diagram"] == "* # # #\n* # # #\n* . . .\n"
        assert data["partition"] == [4, 4, 0]


class TestConvert:
    def test_from_symbol(self, capsys):
        code, out, _ = run(
            capsys,
            "convert", "--k", "2", "--n", "6", "--symbol", "4,5,6",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["dim_partition"] == [3, 3, 3]
        assert data["codim_partition"] == [1, 1, 1]
        assert data["dual_symbol"] == [2, 3, 4]
        assert data["dim"] == 9
        assert data["codim"] == 3

    def test_from_partition_with_padding(self, capsys):
        code, out, _ = run(
            capsys,
            "convert", "--k", "2", "--n", "6", "--partition", "4,4",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["symbol"] == [1, 6, 7]

    def test_text_mentions_both_conventions(self, capsys):
        code, out, _ = run(capsys, "convert", "--k", "2", "--n", "6", "--symbol", "4,5,6")
        assert code == 0
        assert "dim partition" in out and "codim partition" in out


class TestProduct:
    def test_pieri_text(self, capsys):
        code, out, _ = run(capsys, "product", "--k", "1", "--n", "3", "--a", "1", "--b", "1")
        assert code == 0
        assert out == "σ(2) + σ(1,1)\n"

    def test_vanishing_product(self, capsys):
        code, out, _ = run(
            capsys, "product", "--k", "2", "--n", "6", "--a", "1,1,1", "--b", "4"
        )
        assert code == 0
        assert out == "0\n"

    def test_json_twin(self, capsys):
        _, out, _ = run(
            capsys,
            "product", "--k", "1", "--n", "3", "--a", "1", "--b", "1",
            "--format", "json",
        )
        data = json.loads(out)
        assert data["terms"] == [
            {"partition": [1, 1], "coeff": 1},
            {"partition": [2, 0], "coeff": 1},
        ]


class TestVanishes:
    def test_hyperplane_point_pair(self, capsys):
        code, out, _ = run(
            capsys,
            "vanishes", "--k", "2", "--n", "6", "--i", "4,5,6", "--j", "1,6,7",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["vanishes"] is True

    def test_cross_validate(self, capsys):
        code, out, _ = run(
            capsys,
            "vanishes", "--k", "2", "--n", "6", "--i", "4,5,6", "--j", "1,6,7",
            "--cross-validate", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["lr_product_zero"] is True and data["agree"] is True

    def test_cross_validate_deep_hook_pair(self, capsys):
        # the codim partitions (2, 1^600) and (2, 1^599) of G(1199, 1201) as
        # symbols: the LR check walks 600 letters deep and must not fail
        ctx = GrassmannContext(1199, 1201)
        i, j = (
            ",".join(map(str, dim_partition_to_symbol(ctx, dual_partition(ctx, p))))
            for p in ((2,) + (1,) * 600 + (0,) * 599, (2,) + (1,) * 599 + (0,) * 600)
        )
        code, out, _ = run(
            capsys,
            "vanishes", "--k", "1199", "--n", "1201", "--i", i, "--j", j,
            "--cross-validate", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["vanishes"] is False and data["lr_product_zero"] is False
        assert data["agree"] is True

    def test_cross_validation_disagreement_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_lr_vanishes", lambda ctx, a, b: False)
        code, out, _ = run(
            capsys,
            "vanishes", "--k", "2", "--n", "6", "--i", "4,5,6", "--j", "1,6,7",
            "--cross-validate",
        )
        assert code == 1
        assert out.splitlines()[-1] == "LR cross-check: nonzero (DISAGREES)"


class TestMdPairsCommand:
    def test_report(self, capsys):
        code, out, _ = run(
            capsys, "mdpairs", "--k", "2", "--n", "6", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["egd"] == 6
        assert data["md_pairs"] == [
            {"a": [1, 1, 1], "b": [4, 0, 0], "codims": [3, 4], "type": [3, 4]}
        ]

    def test_byte_deterministic_modulo_elapsed(self, capsys):
        _, out1, _ = run(capsys, "mdpairs", "--k", "2", "--n", "6", "--format", "json")
        _, out2, _ = run(capsys, "mdpairs", "--k", "2", "--n", "6", "--format", "json")
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("elapsed_ms")
        d2.pop("elapsed_ms")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_output_file_matches_stdout_json(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        _, out, _ = run(
            capsys,
            "mdpairs", "--k", "2", "--n", "6", "--format", "json",
            "--output", str(target),
        )
        assert target.read_text() == out

    def test_cross_validation_disagreement_exits_one(self, capsys, monkeypatch):
        import schubcalc.search as search

        # Fill the _shell_zeros memo first, so the stubbed vanishing test cannot poison it.
        search.compute_egd(search.GrassmannContext(1, 4))
        monkeypatch.setattr(search, "_not_contained", lambda *args: True)
        code, out, err = run(capsys, "mdpairs", "--k", "1", "--n", "4", "--cross-validate")
        assert code == 1
        assert out == ""
        assert err.startswith("error: vanishing criterion disagrees with LR product")


class TestEgdCommand:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "egd", "--k", "2", "--n", "6", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"k": 2, "n": 6, "egd": 6}

    def test_oversized_request_exits_two_before_building_a_layer(self, capsys, monkeypatch):
        import schubcalc.search as search

        def refuse(ctx, lo, hi):
            raise AssertionError(f"_box_layers({ctx}, {lo}, {hi}) built for an oversized request")

        monkeypatch.setattr(search, "_box_layers", refuse)
        code, out, err = run(capsys, "egd", "--k", "30", "--n", "60")
        assert code == 2
        assert out == ""
        assert err.startswith("error: G(30,60) has 3000205515 basis pairs")
        assert str(search.MAX_SCAN_PAIRS) in err


class TestOversizedRequests:
    """Every oversized request is refused before a layer, a long list or a cell is built."""

    @pytest.mark.parametrize("argv", [
        "egd --k 1 --n 60000",
        "egd --k 1 --n 200000",
        "egd --k 1 --n 1000000000",
        "egd --k 3000 --n 6000",
        "egd --k 6000 --n 12000",
        "egd --k 199998 --n 200000",
        "classify --n 100000",
        "classify --n 37",
        "render --k 0 --n 1000001 --partition 1",
        "render --k 999999999 --n 1000000000 --partition 1",
        "convert --k 9999999 --n 10000000 --partition 1",
        "product --k 9999999 --n 10000000 --a 1 --b 1",
    ])
    def test_exits_two_at_once(self, capsys, monkeypatch, argv):
        import schubcalc.morphisms as morphisms
        import schubcalc.search as search

        real_sizes = search._layer_sizes

        def small_sizes(ctx, hi):
            if hi > 10_000:
                raise AssertionError(f"_layer_sizes({ctx}, {hi}) built for an oversized request")
            return real_sizes(ctx, hi)

        def refuse(*args):
            raise AssertionError(f"{args} built for an oversized request")

        monkeypatch.setattr(search, "_layer_sizes", small_sizes)
        monkeypatch.setattr(search, "_box_layers", refuse)
        monkeypatch.setattr(morphisms, "classify", refuse)
        monkeypatch.setattr(cli, "normalize_partition", refuse)
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert err.startswith("error: G(")
        if argv == "classify --n 37":
            assert err.startswith("error: G(12,37) has 10084016 basis pairs")
        if argv.startswith("render"):
            assert "box cells, over the size limit of 1000000" in err
        if argv.startswith(("convert", "product")):
            assert err == (
                "error: G(9999999,10000000) has 10000000 partition parts, "
                "over the size limit of 1000000\n"
            )

    def test_product_within_the_limit_is_answered(self, capsys):
        argv = "product --k 99999 --n 100000 --a 1 --b 1".split()
        assert run(capsys, *argv) == (0, "σ(1,1)\n", "")


class TestModuleEntryPoint:
    """``python -m schubcalc`` runs ``__main__`` and ``main_entry`` in a fresh process."""

    @pytest.mark.parametrize("argv,code,out", [
        ("egd --k 2 --n 5", 0, "egd(G(2,5)) = 5\n"),
        ("egd --k 2", 2, ""),
    ])
    def test_exit_code_and_output(self, argv, code, out):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "schubcalc", *argv.split()],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == code
        assert done.stdout == out
        assert done.stderr.startswith("error:") == (code == 2)


class TestVerifyCommand:
    def test_prop_comp_single(self, capsys):
        code, out, _ = run(capsys, "verify", "prop-comp", "--k", "1", "--n", "3")
        assert code == 0
        assert "pass" in out
        assert "hypothesis space" in out

    def test_thm_md_single(self, capsys):
        code, out, _ = run(capsys, "verify", "thm-md", "--k", "2", "--n", "5")
        assert code == 0
        assert "pass" in out

    def test_egd_sweep(self, capsys):
        code, out, _ = run(
            capsys, "verify", "egd-sweep", "--max-n", "4", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "pass"
        assert len(data["contexts"]) == sum(n for n in range(1, 5))

    def test_sweep_mode(self, capsys):
        code, out, _ = run(
            capsys, "verify", "thm-md", "--max-n", "5", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "pass"
        assert {(c["k"], c["n"]) for c in data["contexts"]} == {
            (k, n) for n in range(3, 6) for k in range(1, n - 1)
        }

    @pytest.mark.parametrize("claim", ["thm-md", "prop-comp", "egd-sweep"])
    def test_every_claim_sweeps_to_ten_by_default(self, capsys, monkeypatch, claim):
        def passing(ctx):
            return VerificationReport(claim=claim, k=ctx.k, n=ctx.n, status="pass")

        for name in ("verify_thm_md", "verify_prop_comp", "verify_egd"):
            monkeypatch.setattr(cli, name, passing)
        code, out, _ = run(capsys, "verify", claim, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["max_n"] == 10
        assert max(c["n"] for c in data["contexts"]) == 10

    def test_counterexample_exits_one(self, capsys, monkeypatch):
        fake = VerificationReport(
            claim="thm-md", k=2, n=6, status="fail",
            counterexamples=({"kind": "unexpected-zero-pair", "a": [1], "b": [2]},),
            hypothesis_count=3,
        )
        monkeypatch.setattr(cli, "verify_thm_md", lambda ctx: fake)
        code, out, _ = run(capsys, "verify", "thm-md", "--k", "2", "--n", "6")
        assert code == 1
        assert "fail" in out

    @pytest.mark.parametrize("max_n", ["37", "40"])
    @pytest.mark.parametrize("claim", ["egd-sweep", "thm-md", "prop-comp"])
    def test_oversized_sweep_exits_two_before_its_first_context(
        self, capsys, monkeypatch, claim, max_n
    ):
        import schubcalc.search as search

        def refuse(ctx, lo, hi):
            raise AssertionError(f"_box_layers({ctx}, {lo}, {hi}) built for an oversized sweep")

        made = []
        real_context = cli.GrassmannContext

        def recording_context(k, n):
            made.append((k, n))
            return real_context(k, n)

        monkeypatch.setattr(search, "_box_layers", refuse)
        monkeypatch.setattr(cli, "GrassmannContext", recording_context)
        code, out, err = run(capsys, "verify", claim, "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert err.startswith("error: G(12,37) has 10084016 basis pairs")
        assert str(search.MAX_SCAN_PAIRS) in err
        assert made[-1] == (12, 37)  # nothing of the range beyond it is built

    @pytest.mark.parametrize("argv", [
        "verify thm-md --k 18 --n 37",
        "mdpairs --k 18 --n 37 --cross-validate",
    ])
    def test_oversized_lr_cross_check_exits_two_before_building_a_layer(
        self, capsys, monkeypatch, argv
    ):
        import schubcalc.search as search

        def refuse(ctx, lo, hi):
            raise AssertionError(f"_box_layers({ctx}, {lo}, {hi}) built for an oversized LR check")

        monkeypatch.setattr(search, "_box_layers", refuse)
        code, out, err = run(capsys, *argv.split())
        assert code == 2
        assert out == ""
        assert err.startswith("error: G(18,37) has 10948109 basis pairs")
        assert err.endswith(f"over the scan limit of {search.MAX_SCAN_PAIRS}\n")

    def test_thm_md_sweep_stops_at_the_scan_limit(self, capsys, monkeypatch):
        import schubcalc.search as search

        def passing(ctx):
            return VerificationReport(claim="thm-md", k=ctx.k, n=ctx.n, status="pass")

        monkeypatch.setattr(cli, "verify_thm_md", passing)
        code, out, _ = run(capsys, "verify", "thm-md", "--max-n", "36", "--format", "json")
        assert code == 0
        assert json.loads(out)["contexts"][-1]["n"] == 36
        code, out, err = run(capsys, "verify", "thm-md", "--max-n", "37")
        assert code == 2
        assert out == ""
        assert err.startswith("error: G(12,37) has 10084016 basis pairs")
        assert str(search.MAX_SCAN_PAIRS) in err

    def test_egd_sweep_with_a_single_context_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "egd-sweep", "--k", "1", "--n", "4")
        assert code == 2
        assert out == ""
        assert err == "error: egd-sweep is a sweep; use --max-n, not --k/--n\n"

    def test_mixed_flags_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "thm-md", "--k", "2")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("claim", ["thm-md", "prop-comp"])
    def test_max_n_with_single_context_rejected(self, capsys, claim):
        code, out, err = run(
            capsys, "verify", claim, "--k", "2", "--n", "6", "--max-n", "3"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--max-n" in err

    @pytest.mark.parametrize(
        "claim,max_n", [("thm-md", "2"), ("prop-comp", "-3"), ("egd-sweep", "0")]
    )
    def test_sweep_without_contexts_rejected(self, capsys, claim, max_n):
        code, out, err = run(capsys, "verify", claim, "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "no context" in err


class TestClassifyCommand:
    def test_single(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--l", "3", "--k", "2", "--n", "6", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "NONCONSTANT_IMPLIES_ISOMORPHISM"
        assert data["reason"]["identity"] == "l=n-k-1"

    def test_table_glyphs(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "6", "--format", "json")
        assert code == 0
        assert json.loads(out)["glyph_grid"] == [
            "------",
            "CICCIC",
            "CCIICC",
            "CCIICC",
            "CICCIC",
            "------",
        ]

    def test_table_text_alignment(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "6")
        assert code == 0
        assert out.splitlines()[0].split() == ["l\\k"] + [str(k) for k in range(6)]

    def test_l_without_k_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "--l", "1", "--n", "6")
        assert code == 2
        assert err.startswith("error:")


class TestJsonTwin:
    """The JSON twin is built only when it is printed or written."""

    @pytest.mark.parametrize("argv", [
        "product --k 1 --n 3 --a 1 --b 1",
        "convert --k 2 --n 6 --partition 3",
        "egd --k 2 --n 6",
        "verify thm-md --max-n 6",
        "classify --n 5",
    ])
    def test_text_without_output_builds_no_twin(self, capsys, monkeypatch, argv):
        expected = run(capsys, *argv.split())

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called for a text-only result")

        monkeypatch.setattr(cli.json, "dumps", refuse)
        assert run(capsys, *argv.split()) == expected
        with pytest.raises(AssertionError, match="json.dumps called"):
            cli.main([*argv.split(), "--format", "json"])


class TestErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "egd", "--k", "2", "--n", "6", "--frobnicate")
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_integers(self, capsys):
        code, _, err = run(capsys, "render", "--k", "2", "--n", "6", "--partition", "3,x,3")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv,err", [
        (["vanishes", "--k", "1", "--n", "4", "--i", "1,x", "--j", "1,2"],
         "error: argument --i: expected comma-separated integers, got '1,x'\n"),
        (["render", "--k", "1", "--n", "3", "--partition", "a"],
         "error: argument --partition: expected comma-separated integers, got 'a'\n"),
    ])
    def test_bad_list_argument_names_the_expected_form(self, capsys, argv, err):
        assert run(capsys, *argv) == (2, "", err)

    def test_invalid_partition_for_context(self, capsys):
        code, _, err = run(capsys, "render", "--k", "2", "--n", "6", "--partition", "9,0,0")
        assert code == 2
        assert err.startswith("error:")

    def test_invalid_context(self, capsys):
        code, _, err = run(capsys, "egd", "--k", "9", "--n", "6")
        assert code == 2
        assert err.startswith("error:")

    def test_unwritable_output_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "egd", "--k", "1", "--n", "4", "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(target) in err
        assert not target.exists()

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "schubcalc" in out
