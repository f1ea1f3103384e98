"""CLI contract: output formats, JSON twins, exit codes."""

import json

import pytest

import schubcalc.cli as cli
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

        # Fill the md_pairs memo first, so the stubbed vanishing test cannot poison it.
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
