"""Assembly of graded Betti tables: the closed form for the symmetric
determinantal case and the Bott-checked table over the enlarged base, with
exact consistency functionals. Both come from one enumerator
(:func:`~symsyz.partitions.hook_family`, offset k - 1), walked once per
table: the closed form keeps its even ranks, the enlarged base keeps every
rank, so `resolve` at even k walks the family twice."""

from __future__ import annotations

import itertools
from math import comb
from typing import NamedTuple

from .bott import QDominantWeight, bott
from .partitions import NonIntegralDimension, _rows_from_hooks, hook_family, weyl_dim
from .weyl import InvalidParameters, check_parameters


class RationalSingularityViolation(RuntimeError):
    """A cohomology class landed in negative homological degree, the closed
    form is not the shape of a resolution, or a full run's K-polynomial is
    not divisible by (1-z)^codim; with the rational-singularities guarantee
    this can only mean an upstream bug."""


class EnlargedTableMismatch(RuntimeError):
    """The enlarged-base table disagrees with Bott's theorem on a member of
    the walk, misses an entry of the closed form on a full run, or its
    odd-rank part does not read as a resolution."""


class UnsupportedBundleError(ValueError):
    """The enlarged-base model does not exist for these parameters; the
    message starts with a machine-readable reason code."""


class BettiTable:
    """Multiplicities beta[i, d] of the free summand R(-d) in homological
    position i, with the Schur labels that produced each entry."""

    __slots__ = ("entries", "provenance")
    __hash__ = None  # mutable

    def __init__(self, entries: dict | None = None, provenance: dict | None = None):
        self.entries: dict[tuple[int, int], int] = {} if entries is None else entries
        self.provenance: dict[tuple[int, int], list[tuple[tuple[int, ...], int]]] = (
            {} if provenance is None else provenance
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entries, self.provenance) == (other.entries, other.provenance)

    def __repr__(self) -> str:
        return f"BettiTable(entries={self.entries!r}, provenance={self.provenance!r})"

    def add(self, i: int, degree: int, label: tuple[int, ...], dim: int) -> None:
        key = (i, degree)
        self.entries[key] = self.entries.get(key, 0) + dim
        self.provenance.setdefault(key, []).append((label, dim))

    def length(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    def max_degree(self) -> int:
        return max((d for _, d in self.entries), default=0)

    def contains(self, other: "BettiTable") -> bool:
        """Entrywise domination of the other table."""
        return all(
            self.entries.get(key, 0) >= mult for key, mult in other.entries.items()
        )

    def is_resolution_shape(self) -> bool:
        """Exactly one generator, in bidegree (0, 0), and nothing else in
        homological position zero or below."""
        row0 = [(key, m) for key, m in self.entries.items() if key[0] <= 0]
        return row0 == [((0, 0), 1)]

    def sorted_items(self):
        return sorted(self.entries.items())

    def to_json_dict(self) -> list[dict]:
        out = []
        for (i, d), mult in self.sorted_items():
            # (label, dim) tuples: json writes them as arrays, no copies needed
            labels = sorted(self.provenance.get((i, d), []), reverse=True)
            out.append({"i": i, "degree": d, "mult": mult, "schur": labels})
        return out

    def text_grid(self) -> str:
        """Aligned grid: rows are homological positions, columns degrees."""
        if not self.entries:
            return "(empty table)"
        imax, dmax = self.length(), self.max_degree()
        header = ["i\\d"] + [str(d) for d in range(dmax + 1)]
        rows = [header]
        for i in range(imax + 1):
            row = [str(i)]
            for d in range(dmax + 1):
                mult = self.entries.get((i, d), 0)
                row.append(str(mult) if mult else ".")
            rows.append(row)
        widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
        return "\n".join(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
        )


def assemble(oracle: dict, max_t: int) -> BettiTable:
    """Build the table from a cohomology oracle.

    `oracle` maps each exterior degree t = 0..max_t (absent: no classes) to
    {cohomological degree j: list of Schur labels}; a class in degree j of
    the t-th exterior power contributes its dimension to position
    (t - j, t). Negative positions abort: they contradict the direct image
    being a sheaf on the target.
    """
    table = BettiTable()
    for t in range(max_t + 1):
        for j, labels in sorted(oracle.get(t, {}).items()):
            i = t - j
            if labels and i < 0:
                raise RationalSingularityViolation(
                    f"class at exterior degree {t}, cohomological degree {j}"
                )
            for label in labels:
                table.add(i, t, tuple(label), weyl_dim(tuple(label)))
    return table


def _one_hook_factor(n: int, k: int, b: int) -> int:
    """(n+b)! / (b! (n-k-b)! (b+k-1)!): the closed-form member of (n, k)
    with the single leg b has dimension F(b) / (2b + k)."""
    return (n + b) * comb(n + b - 1, b) * comb(n - 1, b + k - 1)


def _closed_form_walk(n: int, k: int, max_t: int | None):
    """The zero partition, then the members of `hook_family(k - 1, n - k)` in
    degrees t <= max_t, as (legs, rank s, t, GL_n dimension of the
    conjugate, conjugate rows; see jpw_closed_form).

    The walk is in preorder, so a member's parent is the latest member of
    rank s - 1, and both its dimension and its conjugate rows come from the
    parent's, kept in one slot per rank. With p = s - 1 and b the new
    smallest leg, the conjugate gains row s = b + s, and its rows s + 1 to
    b + k + p, which the new column of length b + k + p reaches, grow by one;
    every longer row is the parent's."""
    factors = [_one_hook_factor(n, k, b) for b in range(n - k + 1)]
    # t = size // 2 <= max_t; the zero partition (size 0) is always kept
    max_size = None if max_t is None else max(2 * max_t + 1, 0)
    dims, rows = [1] * (n - k + 2), [()] * (n - k + 2)
    for legs, s, size in hook_family(k - 1, n - k, max_size):
        if s:
            p, b = s - 1, legs[-1]
            num, den = factors[b], 2 * b + k
            for c in legs[:p]:
                num *= (c - b) ** 2
                den *= (b + c + k) ** 2
            dim, rest = divmod(dims[p] * num, den)
            if rest:
                raise NonIntegralDimension(
                    f"closed-form dimension of legs {legs} at {(n, k)} is not an integer:"
                    f" {dims[p]} * {num}/{den}"
                )
            prow, end = rows[p], b + k + p
            dims[s] = dim
            rows[s] = (prow[:p] + (b + s,) + tuple([r + 1 for r in prow[s:end]]) + prow[end:]
                       if p else (b + 1,) + (1,) * (b + k - 1))
        yield legs, s, size // 2, dims[s], rows[s]


def jpw_closed_form(n: int, k: int, max_t: int | None = None) -> BettiTable:
    """Closed-form Betti table of the locus of symmetric n-by-n matrices of
    rank at most k: position i collects, over even-rank hook partitions
    lambda of 2t with arm = leg + (k-1) and i = t - k rank/2, the Schur
    dimensions of the conjugates; internal degree is t. The partitions have
    at most n columns, so their legs are at most n - k. A conjugate has the
    member's hooks swapped, (legs, arms).

    Its rows and its dimension come from the member's parent, the member
    without its smallest leg b (the latest member one rank lower). The
    conjugate's rho-shifted rows in GL_n are {n + b_i} and the rest of
    0..n-1 without the n - k - b_i, and the Weyl product over them is
    prod_i F(b_i) / (2 b_i + k) * prod_{i<j} ((b_i - b_j) / (b_i + b_j + k))^2,
    so each member multiplies its parent's dimension by one such ratio.

    `max_t` filters the table to internal degrees t <= max_t; the generator
    in degree 0 is always kept.

    >>> jpw_closed_form(2, 1).entries
    {(0, 0): 1, (1, 2): 1}
    >>> jpw_closed_form(3, 1, max_t=2).entries
    {(0, 0): 1, (1, 2): 6}
    """
    check_parameters(n, k, n)
    table = BettiTable()
    for _, s, t, dim, rows in _closed_form_walk(n, k, max_t):
        if s % 2 == 0:
            table.add(t - k * s // 2, t, rows, dim)
    return table


def jpw_by_degree_scan(n: int, k: int, max_t: int) -> BettiTable:
    """The closed form filtered to degrees t <= max_t. Kept as a name because
    perfbench/trace_child.py traces every function it lists by name."""
    return jpw_closed_form(n, k, max_t)


def k_polynomial(table: BettiTable) -> list[int]:
    """Alternating-sum polynomial sum (-1)^i beta[i, d] z^d, coefficients
    ascending in d.

    >>> k_polynomial(jpw_closed_form(2, 1))
    [1, 0, -1]
    """
    if not table.entries:
        return [0]
    coeffs = [0] * (table.max_degree() + 1)
    for (i, d), mult in table.entries.items():
        coeffs[d] += mult if i % 2 == 0 else -mult
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class ConsistencyReport(NamedTuple):
    divisible: bool
    degree: int | None


def consistency_check(table: BettiTable, codim: int) -> ConsistencyReport:
    """Divide the alternating-sum polynomial by (1-z)^codim exactly; on
    success the quotient at z = 1 is the degree of the variety."""
    coeffs = k_polynomial(table)
    for _ in range(codim):
        # synthetic division by (1 - z): the remainder is the value at z = 1,
        # the quotient's coefficients are the partial sums
        if sum(coeffs) != 0:
            return ConsistencyReport(divisible=False, degree=None)
        coeffs = list(itertools.accumulate(coeffs[:-1])) or [0]
    return ConsistencyReport(divisible=True, degree=sum(coeffs))


# ---------------------------------------------------------------------------
# Minor generators of the determinantal ideal


def generic_symmetric_entry(i: int, j: int) -> Poly:
    from .polynomials import Poly  # imported here: `resolve` never loads polynomials

    a, b = min(i, j), max(i, j)
    return Poly.var(("x", a, b))


def minor_generators(n: int, k: int) -> list[Poly]:
    """Minimal generators of the ideal of (k+1)-minors of the generic
    symmetric n-by-n matrix: all minors, deduplicated up to sign, then cut
    to a basis of their linear span (symmetric minors satisfy linear
    relations once n > k + 2).

    >>> len(minor_generators(2, 1)), len(minor_generators(3, 1))
    (1, 6)
    """
    from .polynomials import _laplace, span_rank_and_basis  # as in generic_symmetric_entry

    check_parameters(n, k, n)
    matrix = [[generic_symmetric_entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    subsets = list(itertools.combinations(range(n), k + 1))
    memo: dict = {}  # shared by all minors: each sub-minor is expanded once
    seen = set()
    minors = []
    for start, rows in enumerate(subsets):
        for cols in subsets[start:]:  # minor(R, C) = minor(C, R): expand R <= C only
            det = _laplace(matrix, rows, cols, memo, symmetric=True).sign_canonical()
            if det and det not in seen:
                seen.add(det)
                minors.append(det)
    _, basis = span_rank_and_basis(minors)
    return basis


# ---------------------------------------------------------------------------
# The completely reducible bundle over the enlarged base


def enlarged_space_table(n: int, k: int, r: int, max_t: int | None = None) -> BettiTable:
    """Betti table of the direct image over the enlarged space, which
    contains the closed-form table of the determinantal locus.

    The bundle is Sym^2 of the dual tautological quotient, of rank m = n - k/2,
    on the Grassmannian of k/2-planes in n-space; it exists exactly when
    r = n and k is even, and other parameters raise UnsupportedBundleError,
    never a wrong answer. Its exterior powers have the offset-1 hook
    partitions with legs b_i < m as summands; Bott's theorem kills those with
    a leg b_i <= k/2 - 2 and puts the rest in degree s k/2 with the
    closed-form label of the legs b_i - (k/2 - 1). So the table is the
    closed-form walk kept at every rank s, and `bott` checks each member."""
    check_parameters(n, k, r)
    if r < n:
        raise UnsupportedBundleError(
            f"not-completely-reducible: r={r} < n={n}: the unipotent radical acts"
            " nontrivially on the quotient module, so exterior powers have no"
            " irreducible decomposition to feed the cohomology algorithm"
        )
    if k % 2:
        raise UnsupportedBundleError(
            f"odd-rank-bound: k={k} is odd: the enlarged-space model needs k = 2u"
        )
    u, zeros = k // 2, (0,) * n
    table = BettiTable()
    for legs, s, t, dim, rows in _closed_form_walk(n, k, max_t):
        label = rows + zeros[len(rows):]
        # the Bott weight is built from the legs alone, so `bott` also checks the walk's rows
        mu = (_rows_from_hooks([c + u for c in legs], [c + u - 1 for c in legs]) + zeros)[:n]
        if (answer := bott(QDominantWeight._make((n, n - u, mu)))) != (False, s * u, label):
            raise EnlargedTableMismatch(f"bott gives {answer} for the summand {mu} at"
                                        f" {(n, k)}, not degree {s * u} with label {label}")
        table.add(t - s * u, t, label, dim)
    return table


# ---------------------------------------------------------------------------
# Desingularisation bookkeeping


class DesingData(NamedTuple):
    n: int
    k: int
    r: int
    base: str
    base_dim: int
    fibre_dim: int
    dim_z: int
    dim_y: int
    ambient_dim: int
    codim: int
    bundle_rank: int


def desing_data(n: int, k: int, r: int) -> DesingData:
    """Dimension bookkeeping of the desingularisation: total space is a
    vector bundle of rank dim(V_w) over a Grassmannian of dimension k(r-k),
    mapping birationally onto the opposite cell inside the symmetric
    matrices.

    >>> desing_data(2, 1, 2).dim_y, desing_data(2, 1, 2).codim
    (2, 1)
    """
    check_parameters(n, k, r)
    ambient = n * (n + 1) // 2
    q = n - (r - k)
    fibre = q * (q + 1) // 2  # symmetric matrices on the trailing q-by-q square
    base_dim = k * (r - k)
    dim_z = base_dim + fibre
    return DesingData(
        n=n, k=k, r=r,
        base=f"GL_{r}/P''_{{{r - k}}}",
        base_dim=base_dim,
        fibre_dim=fibre,
        dim_z=dim_z,
        dim_y=dim_z,
        ambient_dim=ambient,
        codim=ambient - dim_z,
        bundle_rank=ambient - fibre,
    )


# ---------------------------------------------------------------------------
# Orchestration


class ResolveReport(NamedTuple):
    n: int
    k: int
    r: int
    table: BettiTable | None
    data: DesingData
    consistency: ConsistencyReport | None
    enlarged: BettiTable | None
    enlarged_contains_closed_form: bool | None
    unsupported_reason: str | None = None

    def supported(self) -> bool:
        return self.table is not None


def resolve(n: int, k: int, r: int, max_t: int | None = None) -> ResolveReport:
    """Full pipeline: closed form when r = n, with the enlarged-space
    cross-check when it exists; for r < n only the geometry is computable
    and the report says why. `max_t` (the CLI's --max-t) is a degree
    filter: both tables keep only internal degrees t <= max_t. A full run
    raises if its K-polynomial is not divisible by (1-z)^codim or the
    enlarged table misses the closed form; a truncated one reports both."""
    check_parameters(n, k, r)
    if max_t is not None and max_t < 0:
        raise InvalidParameters(f"max_t must be >= 0, got {max_t}")
    data = desing_data(n, k, r)
    if r < n:
        return ResolveReport(
            n=n, k=k, r=r, table=None, data=data, consistency=None,
            enlarged=None, enlarged_contains_closed_form=None,
            unsupported_reason=(
                "no closed form for r < n; the syzygy bundle over the"
                " Grassmannian base is not completely reducible"
            ),
        )
    table = jpw_closed_form(n, k, max_t)
    if not table.is_resolution_shape():
        raise RationalSingularityViolation("closed-form table has spurious generators")
    consistency = consistency_check(table, data.codim)
    # a degree filter legitimately cuts the table, so only full runs are checked
    if max_t is None and not consistency.divisible:
        raise RationalSingularityViolation(
            f"the K-polynomial at {(n, k)} is not divisible by (1-z)^{data.codim}")
    enlarged = enlarged_space_table(n, k, r, max_t) if k % 2 == 0 else None
    contains = None if enlarged is None else enlarged.contains(table)
    if enlarged is not None and max_t is None:
        if not contains:
            raise EnlargedTableMismatch(f"the enlarged table at {(n, k)} misses the closed form")
        # the odd ranks resolve a rank-one Cohen-Macaulay module on the locus
        # (its class group is Z/2): length codim and the locus's degree
        odd = BettiTable({key: rest for key, mult in enlarged.entries.items()
                          if (rest := mult - table.entries.get(key, 0))})
        if (consistency_check(odd, data.codim) != (True, consistency.degree)
                or odd.length() != data.codim or any(i < 0 for i, _ in odd.entries)):
            raise EnlargedTableMismatch(f"the odd-rank part at {(n, k)} is not a resolution")
    return ResolveReport(
        n=n, k=k, r=r, table=table, data=data, consistency=consistency,
        enlarged=enlarged, enlarged_contains_closed_form=contains,
    )
