"""Schur-polynomial oracle for Littlewood-Richardson coefficients.

This module re-derives products of Schubert basis classes through
symmetric polynomials, on a code path deliberately disjoint from the
tableau walk in :mod:`schubcalc.chow`: it knows nothing about
skew tableaux, lattice words or boxes.

The expansion of ``s_lam * s_mu`` in ``m`` variables is computed in two
steps, in exact integer arithmetic throughout.

1. Kostka row of the factor with fewer monomials, called ``mu``.  The
   signed sum of step 2 visits every monomial of the factor it
   expands, and takes the other one whole, so the factor expanded is
   the one whose polynomial in ``m`` variables has fewer monomials,
   counted with coefficients by the hook-content formula
   ``s_mu(1, ..., 1) = prod (m + c(u)) / prod h(u)`` over the cells
   ``u`` of ``mu`` (Stanley, *Enumerative Combinatorics 2*,
   Cor. 7.21.4); on a tie the lighter factor by weight is expanded,
   and on equal weight the second one given.  A Schur polynomial is
   the generating function of semistandard tableaux, so the
   coefficient of ``x^alpha`` in ``s_mu`` is the number of tableaux of
   shape ``mu`` and content ``alpha``.  Peeling a tableau into
   horizontal strips, one strip per variable, makes it a chain
   ``0 = t_0 <= ... <= t_m = mu`` with ``alpha_v = |t_v| - |t_v-1|``.
   ``s_mu`` is symmetric, so that coefficient depends only on
   ``sort(alpha)`` and equals the Kostka number ``K_{mu, sort(alpha)}``;
   it suffices to walk the chains whose strip sizes never increase,
   which yields exactly the dominant contents (Fulton, *Young
   Tableaux*, §2).
2. Signed sum over alternants (Brauer-Klimyk).  With ``delta = (m-1,
   ..., 1, 0)`` and ``a_gamma`` the antisymmetrization of ``x^gamma``,
   ``s_lam = a_{lam+delta} / a_delta``.  Multiplying by the symmetric
   ``s_mu = sum_alpha K_{mu,sort(alpha)} x^alpha`` and symmetrizing term
   by term gives

       s_lam * s_mu = sum_alpha K_{mu,sort(alpha)} a_{lam+alpha+delta} / a_delta,

   summed over every exponent vector ``alpha`` of ``s_mu``, that is,
   every distinct rearrangement of every dominant content.  An
   alternant with a repeated exponent is zero; otherwise sorting
   ``v = lam+alpha+delta`` decreasingly costs the sign of the sorting
   permutation and gives ``s_nu`` with ``nu = sort(v) - delta``
   (Fulton-Harris, *Representation Theory*, §25), a partition by
   construction, whose trailing zeros are the only thing to strip.

Both steps are identities of polynomials in ``m`` variables, so the
expansion is exact and complete for every shape with at most ``m``
rows; shapes needing more rows vanish identically in ``m`` variables.
Cancelling terms only ever meet in the final dictionary, so no
intermediate table is truncated or bounded.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import product as _iproduct
from operator import sub

from schubcalc.core import _integers, _reduced


def _monomials(shape: tuple[int, ...], nvars: int) -> int:
    """Number of monomials of ``s_shape`` in ``nvars`` variables, counted with coefficients.

    That is the number of semistandard tableaux of shape ``shape`` with
    entries at most ``nvars``, by the hook-content formula; 0 when the
    shape has more rows than variables.
    """
    if len(shape) > nvars:
        return 0
    heights = [0] * (shape[0] if shape else 0)  # the column lengths
    for part in shape:
        for j in range(part):
            heights[j] += 1
    contents = hooks = 1
    for i, part in enumerate(shape):
        for j in range(part):
            contents *= nvars + j - i
            hooks *= part - j + heights[j] - i - 1
    return contents // hooks


@lru_cache(maxsize=None)
def _kostka_row(shape: tuple[int, ...], nvars: int) -> tuple:
    """Dominant contents of ``s_shape`` in ``nvars`` variables.

    Returns pairs ``(weight, Kostka number)``; each weight is a weakly
    decreasing exponent vector of length ``nvars``.  Values placed in
    the tableau are the variable indices; variable v occupies a
    horizontal strip, so a chain grows one strip per variable, here
    restricted to chains with nonincreasing strip sizes.
    """
    nrows = len(shape)
    if nrows > nvars:
        return ()
    total = sum(shape)
    states: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {
        (0,) * nrows: {(): 1}
    }
    for v in range(1, nvars + 1):
        rem = nvars - v
        new_states: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for eta, wdict in states.items():
            ranges = []
            feasible = True
            for i in range(nrows):
                lo = eta[i]
                if i + rem < nrows and shape[i + rem] > lo:
                    lo = shape[i + rem]  # must stay reachable in rem more strips
                hi = shape[i] if i == 0 else min(shape[i], eta[i - 1])
                if lo > hi:
                    feasible = False
                    break
                ranges.append(range(lo, hi + 1))
            if not feasible:
                continue
            base = sum(eta)
            for tau in _iproduct(*ranges):
                size = sum(tau)
                e = size - base
                if total - size > rem * e:
                    continue  # the remaining strips, none longer than e, cannot fill shape
                tdict = None
                for w, c in wdict.items():
                    if w and e > w[-1]:
                        continue  # strip sizes must not increase
                    if tdict is None:
                        tdict = new_states.setdefault(tau, {})
                    key = w + (e,)
                    tdict[key] = tdict.get(key, 0) + c
        states = new_states
    return tuple(states.get(shape, {}).items())


def lr_oracle(lam, mu, num_vars: int) -> dict[tuple[int, ...], int]:
    """Expand ``s_lam * s_mu`` in the Schur basis via the Brauer-Klimyk sum.

    Returns the full (untruncated) expansion ``{nu: coefficient}`` with
    reduced partition keys, complete for every nu with at most
    ``num_vars`` rows.  ``num_vars`` must be at least the number of
    nonzero parts of each factor, otherwise the factors themselves
    vanish identically and the expansion is meaningless.  The factor
    with fewer monomials in ``num_vars`` variables is the one expanded
    (on a tie the lighter, then the second given); the expansion is the
    same either way.  The signed sum is one loop over an explicit
    stack, one exponent per variable, so its depth is bounded by
    memory, not by the recursion limit; each term is built once, as a
    reduced partition, where the last exponent is placed.
    """
    lam, mu = _reduced(lam), _reduced(mu)
    (m,) = _integers("num_vars", (num_vars,))
    if m < 1 or m < len(lam) or m < len(mu):
        raise ValueError(
            f"num_vars={num_vars} is too small for shapes {lam} and {mu}; "
            "need at least the number of nonzero parts of each factor"
        )
    if (_monomials(lam, m), sum(lam)) < (_monomials(mu, m), sum(mu)):
        lam, mu = mu, lam  # expand the factor with fewer monomials, on a tie the lighter
    delta = tuple(range(m - 1, -1, -1))
    shifted = [p + d for p, d in zip(lam + (0,) * (m - len(lam)), delta)]
    acc: dict[tuple[int, ...], int] = {}
    for weight, kostka in _kostka_row(mu, m):
        # (exponents placed so far, ascending; unused parts, ascending; signed Kostka number)
        stack = [([], weight[::-1], kostka)]
        while stack:
            placed, rest, coeff = stack.pop()
            i = len(placed)
            for j, a in enumerate(rest):
                if j and rest[j - 1] == a:
                    continue  # the same part again gives the same terms
                x = shifted[i] + a
                pos = bisect_left(placed, x)
                if pos < i and placed[pos] == x:
                    continue  # repeated exponent: the alternant is zero
                # pos earlier entries are smaller than x; each one is an inversion
                grown = placed.copy()
                grown.insert(pos, x)
                signed = -coeff if pos & 1 else coeff
                if len(rest) > 1:
                    stack.append((grown, rest[:j] + rest[j + 1:], signed))
                else:  # the last variable: grown is v sorted, so the term is complete
                    nu = tuple(map(sub, reversed(grown), delta))
                    if not nu[-1]:
                        nu = nu[:nu.index(0)]  # a partition: its zeros all trail
                    acc[nu] = acc.get(nu, 0) + signed
    return {nu: c for nu, c in acc.items() if c}
