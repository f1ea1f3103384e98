"""Morphism classification decision procedure."""

import pytest

from schubcalc import (
    MUST_BE_CONSTANT,
    NONCONSTANT_IMPLIES_ISOMORPHISM,
    NOT_COVERED,
    MorphismQuery,
    classify,
    classify_table,
    table_text,
)


class TestClassify:
    def test_type_mismatch_forces_constant(self):
        out = classify(MorphismQuery(1, 2, 6))
        assert out.verdict == MUST_BE_CONSTANT
        assert out.branch == "mdpair-type-obstruction"

    def test_complementary_dimension_is_isomorphism_case(self):
        out = classify(MorphismQuery(3, 2, 6))
        assert out.verdict == NONCONSTANT_IMPLIES_ISOMORPHISM
        assert out.branch == "type-match"
        assert out.identity == "l=n-k-1"

    def test_projective_target_is_dimension_branch(self):
        out = classify(MorphismQuery(2, 0, 6))
        assert out.verdict == MUST_BE_CONSTANT
        assert out.branch == "dimension"
        assert "12" in out.details

    def test_projective_domain_not_covered(self):
        out = classify(MorphismQuery(0, 2, 5))
        assert out.verdict == NOT_COVERED
        out = classify(MorphismQuery(4, 2, 5))
        assert out.verdict == NOT_COVERED

    def test_identity_morphism_cells(self):
        for n in range(3, 9):
            for l in range(1, n - 1):
                out = classify(MorphismQuery(l, l, n))
                assert out.verdict == NONCONSTANT_IMPLIES_ISOMORPHISM
                assert "l=k" in out.identity

    def test_search_contradicting_theory_is_a_runtime_error(self, capsys, monkeypatch):
        import schubcalc.cli as cli
        import schubcalc.morphisms as morphisms

        monkeypatch.setattr(morphisms, "has_mdpair_of_type", lambda ctx, pair_type: True)
        with pytest.raises(RuntimeError) as err:
            classify(MorphismQuery(1, 2, 5))
        message = str(err.value)
        assert message.startswith("md-pair search found type {3,3} in G(1,5)")
        assert cli.main(["classify", "--n", "5", "--l", "1", "--k", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_invalid_query(self):
        with pytest.raises(ValueError):
            MorphismQuery(4, 1, 4)
        with pytest.raises(ValueError):
            MorphismQuery(1, -1, 4)

    def test_json_shape(self):
        data = classify(MorphismQuery(3, 2, 6)).to_json_dict()
        assert data["verdict"] == NONCONSTANT_IMPLIES_ISOMORPHISM
        assert set(data["reason"]) == {"branch", "details", "identity"}
        data = classify(MorphismQuery(1, 2, 6)).to_json_dict()
        assert set(data["reason"]) == {"branch", "details"}


class TestClassifyTable:
    def test_iso_cells_for_n6(self):
        table = classify_table(6)
        iso = {
            (l, k)
            for l in range(6)
            for k in range(6)
            if table[l][k].verdict == NONCONSTANT_IMPLIES_ISOMORPHISM
        }
        assert iso == {
            (l, k) for l in range(1, 5) for k in range(1, 5) if k in (l, 5 - l)
        }

    def test_single_interior_cell_for_n3(self):
        table = classify_table(3)
        assert table[1][1].verdict == NONCONSTANT_IMPLIES_ISOMORPHISM
        assert table[1][1].identity == "l=k and l=n-k-1"
        for l in (0, 2):
            for k in range(3):
                assert table[l][k].verdict == NOT_COVERED

    def test_branch_agrees_with_type_set_identity(self):
        for n in range(3, 9):
            table = classify_table(n)
            for l in range(1, n - 1):
                for k in range(1, n - 1):
                    expected_iso = {l + 1, n - l} == {k + 1, n - k}
                    got_iso = table[l][k].verdict == NONCONSTANT_IMPLIES_ISOMORPHISM
                    assert got_iso == expected_iso, (l, k, n)

    def test_duality_symmetry(self):
        for n in range(3, 9):
            table = classify_table(n)
            for l in range(1, n - 1):
                for k in range(1, n - 1):
                    assert table[l][k].verdict == table[n - 1 - l][n - 1 - k].verdict

    def test_iso_only_on_matching_identities(self):
        for n in range(3, 9):
            table = classify_table(n)
            for l in range(n):
                for k in range(n):
                    if table[l][k].verdict == NONCONSTANT_IMPLIES_ISOMORPHISM:
                        assert l == k or l == n - k - 1

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            classify_table(2)

    def test_text_grid(self):
        text = table_text(classify_table(3))
        lines = text.splitlines()
        assert lines[0].split() == ["l\\k", "0", "1", "2"]
        assert lines[1].split() == ["0", "-", "-", "-"]
        assert lines[2].split() == ["1", "C", "I", "C"]
        assert lines[3].split() == ["2", "-", "-", "-"]
