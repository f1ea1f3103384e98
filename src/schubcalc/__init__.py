"""Exact Schubert calculus on Grassmannians G(k, n).

Integer-exact computations in the Chow ring of the Grassmannian of
projective k-planes in P^n: Littlewood-Richardson products in the
Schubert basis, fast vanishing tests through the Bruhat order, an
independent Schur-polynomial oracle, exhaustive zero-divisor searches
(maximal disjoint pairs, effective good divisibility), and the
resulting classification of morphisms between Grassmannians of the
same ambient dimension.
"""

from schubcalc.chow import (
    CycleClass,
    format_class,
    fundamental_class,
    lr_coefficient,
    lr_fillings,
    multiply,
    pair_vanishes,
    poincare_pair,
    product_vanishes_fast,
    schubert_class,
    zero_class,
)
from schubcalc.core import (
    GrassmannContext,
    all_symbols,
    box_layer,
    box_partitions,
    bruhat_leq,
    check_partition,
    check_symbol,
    dim_partition_to_symbol,
    dual_partition,
    dual_symbol,
    normalize_partition,
    partition_contains,
    render_diagram,
    special_symbols,
    symbol_to_dim_partition,
)
from schubcalc.morphisms import (
    MUST_BE_CONSTANT,
    NONCONSTANT_IMPLIES_ISOMORPHISM,
    NOT_COVERED,
    ClassificationOutcome,
    MorphismQuery,
    classify,
    classify_table,
    table_text,
)
from schubcalc.schur import lr_oracle
from schubcalc.search import (
    MdPair,
    SearchReport,
    VerificationReport,
    compute_egd,
    enumerate_zero_pairs,
    has_mdpair_of_type,
    md_pairs,
    search_report,
    verify_egd,
    verify_prop_comp,
    verify_thm_md,
)

__version__ = "0.1.0"

__all__ = [
    "CycleClass",
    "ClassificationOutcome",
    "GrassmannContext",
    "MUST_BE_CONSTANT",
    "MdPair",
    "MorphismQuery",
    "NONCONSTANT_IMPLIES_ISOMORPHISM",
    "NOT_COVERED",
    "SearchReport",
    "VerificationReport",
    "all_symbols",
    "box_layer",
    "box_partitions",
    "bruhat_leq",
    "check_partition",
    "check_symbol",
    "classify",
    "classify_table",
    "compute_egd",
    "dim_partition_to_symbol",
    "dual_partition",
    "dual_symbol",
    "enumerate_zero_pairs",
    "format_class",
    "fundamental_class",
    "has_mdpair_of_type",
    "lr_coefficient",
    "lr_fillings",
    "lr_oracle",
    "md_pairs",
    "multiply",
    "normalize_partition",
    "pair_vanishes",
    "partition_contains",
    "poincare_pair",
    "product_vanishes_fast",
    "render_diagram",
    "schubert_class",
    "search_report",
    "special_symbols",
    "symbol_to_dim_partition",
    "table_text",
    "verify_egd",
    "verify_prop_comp",
    "verify_thm_md",
    "zero_class",
]
