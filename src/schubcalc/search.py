"""Exhaustive zero-divisor searches over Schubert basis pairs.

The effective cone of each codimension in G(k, n) is generated by the
Schubert classes of that codimension, and products of Schubert classes
have nonnegative coefficients, so a product of nonzero effective cycles
vanishes only if some pair of basis classes multiplies to zero.  The
searches here therefore range over unordered pairs of box partitions
(codimension convention, self-pairs included):

* :func:`enumerate_zero_pairs` lists vanishing pairs up to a codimension
  bound;
* :func:`md_pairs` lists maximal disjoint pairs, the vanishing pairs of
  minimal total codimension;
* :func:`compute_egd` reads the effective good divisibility off them,
  one less than that minimal total codimension, and
  :func:`search_report` reads its zero pairs off them too, since
  nothing below that codimension vanishes;
* :func:`verify_thm_md` and :func:`verify_prop_comp` are mechanical
  checks of the two classification claims this engine is built around,
  over their full hypothesis spaces, reporting counterexamples
  (expected: none).

The md-pairs, egd and both claims all come from one set of pairs, the
*shell zeros*: the vanishing pairs with codimension sum <= n+1.  The
pair {(1, ..., 1), (n-k, 0, ..., 0)} vanishes at n+1 in every G(k, n),
so the md-pairs always lie in that shell; the bound does not assume
egd = n, and a pair vanishing lower would be reported.
``_shell_zeros`` is the one memoized search result, a few pairs per
context, so every reader of the shell shares one scan.  thm-md reads
the shell zeros plus one Littlewood-Richardson cross-check,
``_lr_disagreements``, which asks the LR rule of every pair of the
shell whether its box-truncated product is zero and yields the pairs
where that answer and the vanishing test disagree.  It multiplies
nothing: ``chow._lr_vanishes`` looks for one LR tableau with its shape
inside the box and stops at the first.  It is the only code here that
uses the LR rule, and ``search_report(cross_validate=True)`` runs it
too.

Every pair scan runs through one kernel, ``_scan``, which builds only
the weight layers (:func:`schubcalc.core.box_layer`) up to its
codimension bound, n+1 for the claims, and keeps them only while it
runs.  It counts its pairs first (``_pair_count``, from the layer sizes
``core._layer_sizes``, no layer built) and refuses a scan of more than
``MAX_SCAN_PAIRS`` pairs with a ``ValueError`` (``_check_scan_size``,
which the CLI also runs on every context of a sweep before checking
the first).  It tests each pair with the O(k) vanishing criterion as a
containment check, ``b`` not inside ``dual(a)``, through the single
predicate ``_not_contained`` of :mod:`schubcalc.core`, which
:func:`schubcalc.chow.pair_vanishes` uses as well.
``verify_prop_comp`` is the ordered reading of the shell zeros: lam is
not inside mu exactly when ``sigma_lam * sigma_dual(mu)`` vanishes, so
each unordered pair {a, b} is the two hypotheses (a, dual(b)) and
(b, dual(a)); it scans nothing itself.  Theorem md's pair and that
ordered reading are each written once (``_md_pair``, ``_orderings``),
and so is the pass rule of the claims (``_report``).  Pair enumeration
is deterministic: partitions are ordered by (weight, parts) and
unordered pairs are canonicalized with the smaller partition first.
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import lru_cache

from schubcalc.chow import _lr_vanishes
from schubcalc.core import (
    GrassmannContext, Partition, _integers, _layer_sizes, _not_contained, box_layer,
    dual_partition,
)

ZeroPair = tuple[Partition, Partition, int]

# The most unordered basis pairs one scan may test.  It admits every
# G(k, n) with n <= 36 at the claims' bound n+1, G(14, 30) (1,455,537
# pairs, a few seconds) included; a larger request is a usage error
# before any layer is built, not an out-of-memory crash or a hang.
MAX_SCAN_PAIRS = 10_000_000


class MdPair(namedtuple("MdPair", "ctx a b")):
    """A maximal disjoint pair: basis classes with zero product at codim egd+1."""

    __slots__ = ()

    @property
    def codims(self) -> tuple[int, int]:
        return (sum(self.a), sum(self.b))

    @property
    def pair_type(self) -> tuple[int, int]:
        """Unordered pair of codimensions, sorted ascending."""
        return tuple(sorted(self.codims))

    def to_json_dict(self) -> dict:
        return {
            "a": list(self.a),
            "b": list(self.b),
            "codims": list(self.codims),
            "type": list(self.pair_type),
        }


class SearchReport(namedtuple(
    "SearchReport", "ctx scanned_pair_count zero_pairs computed_egd md_pairs elapsed_ms"
)):
    """Outcome of a full md-pair search on one Grassmannian."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "k": self.ctx.k,
            "n": self.ctx.n,
            "scanned": self.scanned_pair_count,
            "egd": self.computed_egd,
            "zero_pairs": [
                {"a": list(a), "b": list(b), "codim_sum": s}
                for a, b, s in self.zero_pairs
            ],
            "md_pairs": [p.to_json_dict() for p in self.md_pairs],
            "elapsed_ms": self.elapsed_ms,
        }


class VerificationReport(namedtuple(
    "VerificationReport",
    "claim k n status counterexamples hypothesis_count exceptional_pairs",
    defaults=((), 0, None),
)):
    """Result of checking one claim on one Grassmannian; ``status`` is "pass" or "fail"."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        out = {
            "claim": self.claim,
            "k": self.k,
            "n": self.n,
            "status": self.status,
            "counterexamples": [dict(c) for c in self.counterexamples],
            "hypothesis_count": self.hypothesis_count,
        }
        if self.exceptional_pairs is not None:
            out["exceptional_pairs"] = [
                {"lambda": list(a), "mu": list(b)} for a, b in self.exceptional_pairs
            ]
        return out


def _check_scan_size(ctx: GrassmannContext, hi: int) -> None:
    """Raise ``ValueError`` if ``ctx`` has more than ``MAX_SCAN_PAIRS`` pairs up to ``hi``.

    Counted from the layer sizes, without building a layer.  ``_scan``
    calls it before each scan, and the CLI on every context of a sweep
    before checking the first.
    """
    count = _pair_count(ctx, hi)
    if count > MAX_SCAN_PAIRS:
        raise ValueError(
            f"{ctx} has {count} basis pairs with codim sum <= {hi}, "
            f"over the scan limit of {MAX_SCAN_PAIRS}"
        )


def _scan(ctx: GrassmannContext, hi: int):
    """Yield ``(a, b, vanishes)`` for every unordered basis pair with |a|+|b| <= hi.

    The scan kernel of every pair search.  It first refuses an oversized
    scan (``_check_scan_size``); then it builds the layers of weight
    <= hi, which live as long as the scan.  ``a`` runs through them in
    (weight, parts) order and ``b`` from ``a`` onward in the same order
    (self-pairs included).  The product is symmetric, so each pair is
    tested as ``b`` not contained in ``dual(a)``, with ``dual(a)``
    computed once per ``a``.
    """
    _check_scan_size(ctx, hi)
    not_contained = _not_contained
    cols = ctx.cols
    layers = [box_layer(ctx, w) for w in range(hi + 1)]
    for wa in range(hi // 2 + 1):
        for i, a in enumerate(layers[wa]):
            dual_a = tuple([cols - x for x in reversed(a)])
            for wb in range(wa, hi - wa + 1):
                for b in layers[wb][i if wb == wa else 0:]:
                    yield a, b, not_contained(b, dual_a)


def _lr_disagreements(ctx: GrassmannContext, hi: int):
    """Yield ``(a, b, fast)`` for every scanned pair whose LR product disagrees.

    ``fast`` is the Bruhat verdict of ``_scan``; the pair is yielded when
    the Littlewood-Richardson verdict differs from it.  The one LR
    cross-check of this module: for every pair up to ``hi`` it looks
    for one LR tableau inside the box (``chow._lr_vanishes``) rather
    than multiplying, and nothing is yielded when the two routes agree.
    """
    for a, b, fast in _scan(ctx, hi):
        if _lr_vanishes(ctx, a, b) != fast:
            yield a, b, fast


def enumerate_zero_pairs(ctx: GrassmannContext, max_codim_sum: int) -> list[ZeroPair]:
    """All unordered basis pairs {a, b} with |a|+|b| <= bound and zero product.

    Returns triples ``(a, b, codim_sum)`` with a <= b, sorted by
    (codim_sum, a, b).  Decided by the Bruhat vanishing test alone.
    """
    (max_codim_sum,) = _integers("max_codim_sum", (max_codim_sum,))
    if not 0 <= max_codim_sum <= 2 * ctx.dim:
        raise ValueError(f"max_codim_sum {max_codim_sum} out of range for {ctx}")
    found: list[ZeroPair] = []
    for a, b, vanishes in _scan(ctx, max_codim_sum):
        if vanishes:
            s = sum(a) + sum(b)
            found.append((a, b, s) if a <= b else (b, a, s))
    found.sort(key=lambda t: (t[2], t[0], t[1]))
    return found


@lru_cache(maxsize=None)
def _shell_zeros(ctx: GrassmannContext) -> tuple[ZeroPair, ...]:
    """The vanishing basis pairs with codim sum <= n+1: the one memoized search result."""
    return tuple(enumerate_zero_pairs(ctx, ctx.n + 1))


def md_pairs(ctx: GrassmannContext) -> tuple[MdPair, ...]:
    """All maximal disjoint basis pairs of ``ctx``, deterministically ordered.

    The shell zeros of the smallest codimension sum, the smaller
    partition of each pair first.  The shell always holds a zero, since
    {[X_H], [X_p]} vanishes at n+1; if it holds none, the vanishing
    predicate is broken and this raises ``RuntimeError``.
    """
    zeros = _shell_zeros(ctx)
    if not zeros:
        raise RuntimeError(f"no vanishing pair with codim sum <= {ctx.n + 1} in {ctx}")
    return tuple(MdPair(ctx, a, b) for a, b, s in zeros if s == zeros[0][2])


def compute_egd(ctx: GrassmannContext) -> int:
    """Effective good divisibility: minimal vanishing codim-sum minus one.

    Read off the md-pairs, which sit at that minimal codim-sum in the
    shell of codim sum <= n+1.  Equals n for every Grassmannian; that
    equality is what the test suite verifies, it is not assumed here.
    """
    return sum(md_pairs(ctx)[0].codims) - 1


def has_mdpair_of_type(ctx: GrassmannContext, pair_type) -> bool:
    """True when some md-pair of ``ctx`` has the given unordered type {i, j}."""
    t = tuple(sorted(_integers("pair type", pair_type)))
    if len(t) != 2:
        raise ValueError(f"pair type must have two entries, got {pair_type}")
    return any(p.pair_type == t for p in md_pairs(ctx))


def _pair_count(ctx: GrassmannContext, max_codim_sum: int) -> int:
    """Number of unordered basis pairs (self-pairs included) with codim sum <= bound.

    Counted from the layer sizes, without building a layer.
    """
    cnt = _layer_sizes(ctx, max_codim_sum)
    scanned = 0
    for wa in range(max_codim_sum // 2 + 1):
        scanned += cnt[wa] * (cnt[wa] + 1) // 2
        scanned += cnt[wa] * sum(cnt[wa + 1:max_codim_sum - wa + 1])
    return scanned


def search_report(ctx: GrassmannContext, cross_validate: bool = False) -> SearchReport:
    """Full md-pair search: egd, zero pairs at the critical codimension, timing.

    Nothing below egd + 1 vanishes, so the zero pairs are the md-pairs.
    ``cross_validate`` also asks the LR rule whether every pair up to
    egd + 1 vanishes, by looking for one tableau inside the box
    (``_lr_disagreements``), and raises ``RuntimeError`` on the first
    pair where it disagrees with the Bruhat test.
    """
    start = time.perf_counter()
    pairs = md_pairs(ctx)
    egd = compute_egd(ctx)
    limit = egd + 1
    if cross_validate:
        for a, b, fast in _lr_disagreements(ctx, limit):
            raise RuntimeError(
                f"vanishing criterion disagrees with LR product on "
                f"{a} x {b} in {ctx}: fast={fast}, lr={not fast}"
            )
    scanned = _pair_count(ctx, limit)
    elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    return SearchReport(
        ctx=ctx,
        scanned_pair_count=scanned,
        zero_pairs=tuple((p.a, p.b, limit) for p in pairs),
        computed_egd=egd,
        md_pairs=pairs,
        elapsed_ms=elapsed_ms,
    )


def _require_interior(ctx: GrassmannContext) -> None:
    if not 1 <= ctx.k <= ctx.n - 2:
        raise ValueError(f"claim requires 1 <= k <= n-2, got {ctx}")


def _md_pair(ctx: GrassmannContext) -> tuple[Partition, Partition]:
    """Theorem md's pair {[X_H], [X_p]}: ((1, ..., 1), (n-k, 0, ..., 0)).

    Smaller partition first in every interior G(k, n), where n-k >= 2.
    """
    return (1,) * ctx.rows, (ctx.cols,) + (0,) * (ctx.rows - 1)


def _orderings(ctx: GrassmannContext, a: Partition, b: Partition) -> tuple:
    """The ordered prop-comp hypotheses of the unordered pair {a, b}.

    (a, dual(b)), and (b, dual(a)) too unless the pair is a self-pair.
    """
    if a == b:
        return ((a, dual_partition(ctx, b)),)
    return (a, dual_partition(ctx, b)), (b, dual_partition(ctx, a))


def _report(
    claim: str, ctx: GrassmannContext, counterexamples, hypothesis_count: int,
    exceptional_pairs=None,
) -> VerificationReport:
    """The report of one claim on ``ctx``: it passes exactly when no counterexample is found."""
    return VerificationReport(
        claim=claim,
        k=ctx.k,
        n=ctx.n,
        status="fail" if counterexamples else "pass",
        counterexamples=tuple(counterexamples),
        hypothesis_count=hypothesis_count,
        exceptional_pairs=exceptional_pairs,
    )


def verify_thm_md(ctx: GrassmannContext) -> VerificationReport:
    """Check: the only vanishing basis pair with codim-sum <= n+1 is {[X_H], [X_p]}.

    Reads the zero pairs off the shell zeros (the Bruhat test) and
    checks every pair of the shell once more through the LR rule
    (``_lr_disagreements``), which looks for one tableau inside the box
    rather than multiplying.  Each pair where the two routes disagree
    is a ``fast-vs-lr-mismatch``; each shell zero other than Theorem
    md's pair is an ``unexpected-zero-pair``, and that pair's absence a
    ``missing-expected-pair``.  When the routes agree on every pair
    their zero sets are equal, so a pass means both find only that pair.
    """
    _require_interior(ctx)
    limit = ctx.n + 1
    expected = _md_pair(ctx)
    counterexamples = [
        {"kind": "fast-vs-lr-mismatch", "a": list(a), "b": list(b)}
        for a, b, _ in _lr_disagreements(ctx, limit)
    ]
    zeros = [(a, b) for a, b, _ in _shell_zeros(ctx)]
    counterexamples += [
        {"kind": "unexpected-zero-pair", "a": list(a), "b": list(b)}
        for a, b in zeros
        if (a, b) != expected
    ]
    if expected not in zeros:
        counterexamples.append(
            {"kind": "missing-expected-pair", "a": list(expected[0]), "b": list(expected[1])}
        )
    return _report("thm-md", ctx, counterexamples, _pair_count(ctx, limit))


def verify_prop_comp(ctx: GrassmannContext) -> VerificationReport:
    """Check the comparability dichotomy for box partition pairs.

    Over all ordered pairs (lam, mu) of box partitions satisfying
    ``|lam| <= |mu| - k(n-k) + (k+1)``, incomparability ``lam <= mu``
    fails exactly for the two pairs
    ((n-k, 0, ..., 0), (n-k-1, ..., n-k-1)) and
    ((1, ..., 1), (n-k, ..., n-k, 0)).

    The bound is ``|lam| + |dual(mu)| <= n+1`` and lam is not inside mu
    exactly when ``sigma_lam * sigma_dual(mu)`` vanishes, so this is the
    ordered reading of the shell of codim sum <= n+1: each unordered
    pair {a, b} stands for the hypotheses ``_orderings(ctx, a, b)``.
    The hypotheses are counted from the layer sizes, the exceptional
    pairs are the orderings of the shell zeros, and the two expected
    ones are the orderings of Theorem md's pair {[X_H], [X_p]}.  Runs
    no scan of its own.
    """
    _require_interior(ctx)
    limit = ctx.n + 1
    expected = _orderings(ctx, *_md_pair(ctx))
    exceptional = [p for a, b, _ in _shell_zeros(ctx) for p in _orderings(ctx, a, b)]
    hypothesis_count = 2 * _pair_count(ctx, limit) - sum(_layer_sizes(ctx, limit // 2))
    counterexamples = [
        {"kind": "incomparable-but-unexpected", "lambda": list(lam), "mu": list(mu)}
        for lam, mu in exceptional
        if (lam, mu) not in expected
    ]
    counterexamples += [
        {"kind": "expected-pair-not-found", "lambda": list(lam), "mu": list(mu)}
        for lam, mu in sorted(expected)
        if (lam, mu) not in exceptional
    ]
    return _report("prop-comp", ctx, counterexamples, hypothesis_count,
                   exceptional_pairs=tuple(sorted(exceptional)))


def verify_egd(ctx: GrassmannContext) -> VerificationReport:
    """Check compute_egd(ctx) == n, reporting the scanned certificate space."""
    egd = compute_egd(ctx)
    counterexamples = (
        [{"kind": "egd-mismatch", "egd": egd, "expected": ctx.n}] if egd != ctx.n else []
    )
    return _report("egd", ctx, counterexamples, _pair_count(ctx, egd + 1))
