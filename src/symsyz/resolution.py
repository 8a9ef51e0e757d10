"""Assembly of graded Betti tables: the cohomology-driven construction over
a Grassmannian base, and the closed form for the symmetric determinantal
case, with exact consistency functionals. Both run over one hook family
(:func:`~symsyz.partitions.hook_family`): offset k - 1 for the closed form,
offset 1 for the exterior powers of Sym^2 over the enlarged base."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .bott import bundle_cohomology
from .partitions import conjugate, hook_family, schur_dim, weyl_dim
from .polynomials import Poly, poly_det, span_rank_and_basis
from .weyl import check_parameters


class RationalSingularityViolation(RuntimeError):
    """A cohomology class landed in negative homological degree; with the
    rational-singularities guarantee this can only mean an upstream bug."""


class UnsupportedBundleError(ValueError):
    """The requested bundle description is not completely reducible; carries
    a machine-readable reason code."""

    def __init__(self, reason: str, detail: str):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}")


@dataclass(frozen=True)
class PolynomialRingSpec:
    """The standard-graded ambient polynomial ring: one degree-one variable
    per entry of a symmetric matrix."""

    variable_count: int

    @staticmethod
    def for_symmetric(n: int) -> "PolynomialRingSpec":
        return PolynomialRingSpec(n * (n + 1) // 2)


@dataclass
class BettiTable:
    """Multiplicities beta[i, d] of the free summand R(-d) in homological
    position i, with the Schur labels that produced each entry."""

    entries: dict[tuple[int, int], int] = field(default_factory=dict)
    provenance: dict[tuple[int, int], list[tuple[tuple[int, ...], int]]] = field(
        default_factory=dict
    )

    def add(self, i: int, degree: int, label: tuple[int, ...], dim: int) -> None:
        if dim <= 0:
            return
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
            labels = [
                [list(label), dim]
                for label, dim in sorted(self.provenance.get((i, d), []), reverse=True)
            ]
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


def assemble(oracle, max_t: int) -> BettiTable:
    """Build the table from a cohomology oracle.

    `oracle` maps each exterior degree t = 0..max_t to
    {cohomological degree j: list of Schur labels}; a class in degree j of
    the t-th exterior power contributes its dimension to position
    (t - j, t). Negative positions abort: they contradict the direct image
    being a sheaf on the target.
    """
    table = BettiTable()
    lookup = oracle if callable(oracle) else lambda t: oracle.get(t, {})
    for t in range(max_t + 1):
        for j, labels in sorted(lookup(t).items()):
            i = t - j
            if labels and i < 0:
                raise RationalSingularityViolation(
                    f"class at exterior degree {t}, cohomological degree {j}"
                )
            for label in labels:
                table.add(i, t, tuple(label), weyl_dim(tuple(label)))
    return table


def jpw_closed_form(n: int, k: int, max_t: int | None = None) -> BettiTable:
    """Closed-form Betti table of the locus of symmetric n-by-n matrices of
    rank at most k: position i >= 1 collects, over even-rank hook partitions
    lambda of 2t with arm = leg + (k-1) and i = t - k rank/2, the Schur
    dimensions of the conjugates; internal degree is t. The partitions have
    at most n columns, so their legs are at most n - k.

    `max_t` filters the table to internal degrees t <= max_t; the generator
    in degree 0 is always kept.

    >>> jpw_closed_form(2, 1).entries
    {(0, 0): 1, (1, 2): 1}
    >>> jpw_closed_form(3, 1, max_t=2).entries
    {(0, 0): 1, (1, 2): 6}
    """
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got {(n, k)}")
    table = BettiTable()
    table.add(0, 0, (), 1)
    for lam, s, size in hook_family(k - 1, n - k):
        t = size // 2
        if s == 0 or s % 2 or (max_t is not None and t > max_t):
            continue
        dual = conjugate(lam)
        table.add(t - k * s // 2, t, dual, schur_dim(dual, n))
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


@dataclass(frozen=True)
class ConsistencyReport:
    divisible: bool
    degree: int | None


def consistency_check(table: BettiTable, codim: int) -> ConsistencyReport:
    """Divide the alternating-sum polynomial by (1-z)^codim exactly; on
    success the quotient at z = 1 is the degree of the variety."""
    coeffs = [Fraction(c) for c in k_polynomial(table)]
    for _ in range(codim):
        coeffs = _divide_by_one_minus_z(coeffs)
        if coeffs is None:
            return ConsistencyReport(divisible=False, degree=None)
    degree = sum(coeffs)
    assert degree.denominator == 1
    return ConsistencyReport(divisible=True, degree=int(degree))


def _divide_by_one_minus_z(coeffs):
    # synthetic division by (1 - z); remainder is the value at z = 1
    if sum(coeffs) != 0:
        return None
    out = []
    acc = Fraction(0)
    for c in coeffs[:-1]:
        acc += c
        out.append(acc)
    return out or [Fraction(0)]


# ---------------------------------------------------------------------------
# Minor generators of the determinantal ideal


def generic_symmetric_entry(i: int, j: int) -> Poly:
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
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got {(n, k)}")
    size = k + 1
    seen = set()
    minors = []
    for rows in itertools.combinations(range(1, n + 1), size):
        for cols in itertools.combinations(range(1, n + 1), size):
            det = poly_det(
                [[generic_symmetric_entry(i, j) for j in cols] for i in rows]
            ).sign_canonical()
            if det and det not in seen:
                seen.add(det)
                minors.append(det)
    _, basis = span_rank_and_basis(minors)
    return basis


# ---------------------------------------------------------------------------
# The completely reducible bundle over the enlarged base


@dataclass(frozen=True)
class XiDescription:
    """Description of the dual quotient bundle over the enlarged base: the
    symmetric square of the dual tautological quotient on the Grassmannian
    of u-planes in n-space (base cut m = n - u)."""

    n: int
    u: int
    rank: int

    @property
    def m(self) -> int:
        return self.n - self.u

    def summands(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(quotient-side, sub-side) labels of the bundle itself."""
        return [((2,), ())]

    def check_rank(self) -> bool:
        return self.rank == sum(
            schur_dim(mu, self.m) * schur_dim(nu, self.u)
            for mu, nu in self.summands()
        )


def build_xi_description(n: int, k: int, r: int) -> XiDescription:
    """Completely reducible model of the syzygy bundle, available exactly
    when r = n and k is even (k = 2u); other parameters raise a structured
    unsupported-case signal, never a wrong answer."""
    check_parameters(n, k, r)
    if r < n:
        raise UnsupportedBundleError(
            "not-completely-reducible",
            f"r={r} < n={n}: the unipotent radical acts nontrivially on the"
            " quotient module, so exterior powers have no irreducible"
            " decomposition to feed the cohomology algorithm",
        )
    if k % 2:
        raise UnsupportedBundleError(
            "odd-rank-bound",
            f"k={k} is odd: the enlarged-space model needs k = 2u",
        )
    u = k // 2
    xi = XiDescription(n=n, u=u, rank=(n - u) * (n - u + 1) // 2)
    assert xi.check_rank()
    return xi


def enlarged_space_table(n: int, k: int, r: int, max_t: int | None = None) -> BettiTable:
    """Betti table of the direct image over the enlarged space: the
    cohomology oracle is Bott's algorithm on the exterior powers of the
    completely reducible bundle. Contains the closed-form table of the
    determinantal locus as a sub-table.

    The t-th exterior power of Sym^2 of the rank-m quotient has the offset-1
    hook partitions of 2t with legs below m as its summands (sub-side label
    empty); one walk of that family groups them all by t."""
    xi = build_xi_description(n, k, r)
    cap = xi.rank if max_t is None else min(max_t, xi.rank)
    summands: dict[int, list] = {}
    for lam, _, size in hook_family(1, xi.m - 1):
        summands.setdefault(size // 2, []).append((lam, ()))

    def oracle(t: int):
        return bundle_cohomology(summands.get(t, ()), xi.n, xi.m)

    return assemble(oracle, cap)


# ---------------------------------------------------------------------------
# Orchestration


@dataclass
class ResolveReport:
    n: int
    k: int
    r: int
    ring: PolynomialRingSpec
    table: BettiTable | None
    codim: int
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
    filter: both tables keep only internal degrees t <= max_t."""
    from .geometry import desing_data  # local import to keep modules acyclic

    check_parameters(n, k, r)
    data = desing_data(n, k, r)
    if r < n:
        return ResolveReport(
            n=n, k=k, r=r, ring=PolynomialRingSpec.for_symmetric(n),
            table=None, codim=data.codim, consistency=None,
            enlarged=None, enlarged_contains_closed_form=None,
            unsupported_reason=(
                "no closed form for r < n; the syzygy bundle over the"
                " Grassmannian base is not completely reducible"
            ),
        )
    table = jpw_closed_form(n, k, max_t)
    if not table.is_resolution_shape():
        raise RationalSingularityViolation("closed-form table has spurious generators")
    report = ResolveReport(
        n=n, k=k, r=r, ring=PolynomialRingSpec.for_symmetric(n),
        table=table, codim=data.codim,
        consistency=consistency_check(table, data.codim),
        enlarged=None, enlarged_contains_closed_form=None,
    )
    if k % 2 == 0:
        enlarged = enlarged_space_table(n, k, r, max_t)
        report.enlarged = enlarged
        report.enlarged_contains_closed_form = enlarged.contains(table)
    return report
