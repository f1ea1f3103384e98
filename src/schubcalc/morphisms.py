"""Decision procedure for morphisms G(l, n) -> G(k, n).

For 1 <= l <= n-2 the only way a nonconstant morphism can exist is that
the pullbacks of the hyperplane and point Schubert classes of the
target stay nonzero, which would produce a maximal disjoint pair of
type {k+1, n-k} in the domain.  The classifier therefore asks the live
md-pair search of the domain whether such a pair exists, rather than
hardcoding the known answer: if the search ever contradicted the
classification, the test suite would fail loudly.

Verdicts are deliberately modest about what the computation itself
establishes.  ``NONCONSTANT_IMPLIES_ISOMORPHISM`` cells record that a
nonconstant morphism, if one exists, is an isomorphism; that last step
rests on the Hwang-Mok rigidity theorem for rational homogeneous
spaces, which is cited in the reason, never recomputed.  Domains with
l in {0, n-1} are projective spaces, where different (parity-sensitive)
results govern; those cells report ``NOT_COVERED`` instead of guessing.
"""

from __future__ import annotations

from collections import namedtuple

from schubcalc.core import GrassmannContext, _integers
from schubcalc.search import has_mdpair_of_type

MUST_BE_CONSTANT = "MUST_BE_CONSTANT"
NONCONSTANT_IMPLIES_ISOMORPHISM = "NONCONSTANT_IMPLIES_ISOMORPHISM"
NOT_COVERED = "NOT_COVERED"

_GLYPHS = {
    MUST_BE_CONSTANT: "C",
    NONCONSTANT_IMPLIES_ISOMORPHISM: "I",
    NOT_COVERED: "-",
}


class MorphismQuery(namedtuple("MorphismQuery", "l k n")):
    """A morphism question: maps G(l, n) -> G(k, n)."""

    __slots__ = ()

    def __new__(cls, l: int, k: int, n: int) -> MorphismQuery:
        l, k, n = _integers("morphism query (l, k, n) =", (l, k, n))
        if n < 1 or not 0 <= l <= n - 1 or not 0 <= k <= n - 1:
            raise ValueError(
                f"invalid query G({l},{n}) -> G({k},{n}): need n >= 1 and 0 <= l, k <= n-1"
            )
        return super().__new__(cls, l, k, n)

    # ``_replace`` builds through ``_make``: send both through the checks above.
    _make = classmethod(lambda cls, values: cls(*values))


class ClassificationOutcome(namedtuple(
    "ClassificationOutcome", "l k n verdict branch details identity", defaults=(None,)
)):
    __slots__ = ()

    @property
    def glyph(self) -> str:
        return _GLYPHS[self.verdict]

    def to_json_dict(self) -> dict:
        reason = {"branch": self.branch, "details": self.details}
        if self.identity is not None:
            reason["identity"] = self.identity
        return {
            "l": self.l,
            "k": self.k,
            "n": self.n,
            "verdict": self.verdict,
            "reason": reason,
        }


def classify(query: MorphismQuery) -> ClassificationOutcome:
    """Classify morphisms G(l, n) -> G(k, n).

    Decision tree:

    a. l in {0, n-1}: the domain is a projective space, outside this
       classifier's hypotheses; NOT_COVERED.
    b. k in {0, n-1}: the target is a projective space and
       dim G(l, n) > n (checked numerically, not assumed), so every
       morphism is constant.
    c. the domain has no md-pair of type {k+1, n-k} (live search):
       every morphism is constant.
    d. otherwise nonconstant morphisms force l = k or l = n-k-1 and are
       isomorphisms by the cited rigidity theorem.
    """
    l, k, n = query.l, query.k, query.n
    if l in (0, n - 1):
        return ClassificationOutcome(
            l, k, n, NOT_COVERED, "domain-projective-space",
            f"G({l},{n}) is the projective space P^{n}; this classifier requires "
            "1 <= l <= n-2, and the projective-space source case is governed by "
            "separate parity-sensitive results (Tango) that are not encoded here",
        )
    if k in (0, n - 1):
        dim_dom = (l + 1) * (n - l)
        if dim_dom <= n:
            raise RuntimeError(
                f"dimension argument failed for l={l}, n={n}: dim G(l,n)={dim_dom} <= {n}"
            )
        return ClassificationOutcome(
            l, k, n, MUST_BE_CONSTANT, "dimension",
            f"the target G({k},{n}) is the projective space P^{n} and "
            f"dim G({l},{n}) = {dim_dom} > {n}; a nonconstant morphism from a "
            "Picard-number-one variety is finite onto its image, which cannot "
            "land in a lower-dimensional space",
        )
    if not has_mdpair_of_type(GrassmannContext(l, n), (k + 1, n - k)):
        return ClassificationOutcome(
            l, k, n, MUST_BE_CONSTANT, "mdpair-type-obstruction",
            f"G({l},{n}) has no maximal disjoint pair of type {{{k + 1},{n - k}}} "
            "(verified by exhaustive search); the pullbacks of the hyperplane and "
            "point classes of the target would have to form one, so one pullback "
            "vanishes, and constancy follows by the standard reduction to smaller "
            "Grassmannians (a cited ingredient, not recomputed here)",
        )
    identities = []
    if l == k:
        identities.append("l=k")
    if l == n - k - 1:
        identities.append("l=n-k-1")
    if not identities:
        raise RuntimeError(
            f"md-pair search found type {{{k + 1},{n - k}}} in G({l},{n}) but "
            "neither l = k nor l = n-k-1 holds; search and theory disagree"
        )
    return ClassificationOutcome(
        l, k, n, NONCONSTANT_IMPLIES_ISOMORPHISM, "type-match",
        "the md-pair types of domain and target agree, so a nonconstant morphism "
        "is not obstructed; any such morphism is surjective between "
        "equidimensional Grassmannians and is an isomorphism by the Hwang-Mok "
        "rigidity theorem (cited, not recomputed here)",
        identity=" and ".join(identities),
    )


def classify_table(n: int) -> list[list[ClassificationOutcome]]:
    """The full (l, k) grid of classifications for fixed n, l indexing rows."""
    (n,) = _integers("classification table n =", (n,))
    if n < 3:
        raise ValueError(f"classification table needs n >= 3, got {n}")
    return [
        [classify(MorphismQuery(l, k, n)) for k in range(n)] for l in range(n)
    ]


def table_text(table: list[list[ClassificationOutcome]]) -> str:
    """Aligned glyph grid for a classification table, one row per l."""
    n = len(table)
    width = max(2, len(str(n - 1)) + 1)
    header = "l\\k".ljust(width) + "".join(str(k).rjust(width) for k in range(n))
    lines = [header]
    for l in range(n):
        lines.append(
            str(l).ljust(width)
            + "".join(table[l][k].glyph.rjust(width) for k in range(n))
        )
    lines.append("")
    lines.append("C = must be constant, I = nonconstant implies isomorphism, - = not covered")
    return "\n".join(lines) + "\n"
