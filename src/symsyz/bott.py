"""Bott's algorithm for the cohomology of an irreducible homogeneous bundle
on a Grassmannian, driven by its block-dominant weight.

The weight (lambda_1..lambda_n) with cut m labels a bundle on GL_n/P
(P the maximal parabolic omitting the m-th simple root). The algorithm
swaps the two blocks and then repeatedly applies the shifted exchange
until the sequence is nonincreasing (one nonvanishing cohomology group)
or an exchange fixes it (no cohomology at all).
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import weyl_dim


class ExchangeBoundExceeded(RuntimeError):
    """The exchange loop ran past n(n-1)/2 steps, the sorting bound."""


def exchange(alpha: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The shifted swap at position i (1-based):
    (.., a_{i-1}, a_{i+1}-1, a_i+1, a_{i+2}, ..).

    >>> exchange((0, 2), 1)
    (1, 1)
    >>> exchange((3, 0, 0), 2)
    (3, -1, 1)
    """
    if not 1 <= i <= len(alpha) - 1:
        raise ValueError(f"exchange position {i} out of range")
    out = list(alpha)
    out[i - 1], out[i] = alpha[i] - 1, alpha[i - 1] + 1
    return tuple(out)


@dataclass(frozen=True)
class QDominantWeight:
    """Integer n-tuple weakly decreasing on positions 1..m and m+1..n."""

    n: int
    m: int
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))
        if not 1 <= self.m <= self.n - 1:
            raise ValueError(f"cut position {self.m} invalid for n={self.n}")
        if len(self.entries) != self.n:
            raise ValueError(f"weight must have {self.n} entries")
        e, m = self.entries, self.m
        if any(e[i] < e[i + 1] for i in range(m - 1)) or any(
            e[i] < e[i + 1] for i in range(m, self.n - 1)
        ):
            raise ValueError(f"weight {e} is not dominant for cut {m}")


@dataclass(frozen=True)
class CohomologyAnswer:
    """Either nothing at all, or one group: (degree, Schur label)."""

    zero: bool
    degree: int | None = None
    label: tuple[int, ...] | None = None

    @property
    def dimension(self) -> int:
        return 0 if self.zero else weyl_dim(self.label)


ZERO = CohomologyAnswer(zero=True)


def _first_ascent(seq: tuple[int, ...]) -> int | None:
    for i in range(len(seq) - 1):
        if seq[i] < seq[i + 1]:
            return i + 1
    return None


def bott(w: QDominantWeight) -> CohomologyAnswer:
    """Run the exchange algorithm on the block-swapped weight.

    Exchanges are applied by a deterministic left-to-right rule (always at
    the first ascent), with the fixed-point test before each exchange; the
    answer is independent of the order.

    >>> bott(QDominantWeight(2, 1, (0, 0)))
    CohomologyAnswer(zero=False, degree=0, label=(0, 0))
    >>> bott(QDominantWeight(2, 1, (1, 0))).zero
    True
    >>> bott(QDominantWeight(2, 1, (2, 0)))
    CohomologyAnswer(zero=False, degree=1, label=(1, 1))
    """
    seq = w.entries[w.m:] + w.entries[: w.m]
    bound = w.n * (w.n - 1) // 2
    steps = 0
    while (i := _first_ascent(seq)) is not None:
        if seq[i] == seq[i - 1] + 1:
            return ZERO
        seq = exchange(seq, i)
        steps += 1
        if steps > bound:
            raise ExchangeBoundExceeded(f"{w}: more than {bound} exchanges")
    return CohomologyAnswer(zero=False, degree=steps, label=seq)


def summand_weight(
    n: int, m: int, mu: tuple[int, ...], nu: tuple[int, ...]
) -> QDominantWeight:
    """Encode the irreducible summand with quotient-side label mu (at most m
    parts) and sub-side label nu (at most n-m parts) as the n-tuple
    (mu, nu) with cut m; the algorithm's block swap then sorts (nu, mu),
    which is the order the right action of the parabolic dictates."""
    if len(mu) > m or len(nu) > n - m:
        raise ValueError(f"labels {(mu, nu)} too long for cut {m} of n={n}")
    entries = tuple(mu) + (0,) * (m - len(mu)) + tuple(nu) + (0,) * (n - m - len(nu))
    return QDominantWeight(n, m, entries)


def bundle_cohomology(
    summands, n: int, m: int
) -> dict[int, list[tuple[int, ...]]]:
    """Aggregate `bott` over a completely reducible bundle.

    `summands` is an iterable of (mu, nu) label pairs, repeated according to
    multiplicity. Returns {cohomological degree: sorted list of labels}.
    """
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for mu, nu in summands:
        answer = bott(summand_weight(n, m, tuple(mu), tuple(nu)))
        if answer.zero:
            continue
        by_degree.setdefault(answer.degree, []).append(answer.label)
    return {j: sorted(labels, reverse=True) for j, labels in sorted(by_degree.items())}
