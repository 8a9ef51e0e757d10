"""Bott's theorem for the cohomology of an irreducible homogeneous bundle
on a Grassmannian, driven by its block-dominant weight.

The weight (lambda_1..lambda_n) with cut m labels a bundle on GL_n/P
(P the maximal parabolic omitting the m-th simple root). Swapping the two
blocks and adding rho = (n-1, .., 0) turns each block into a strictly
decreasing run, and one merge of the two runs gives the answer: a tie means
no cohomology at all, otherwise the one nonvanishing group sits in the
degree counted by the crossed pairs, with the merged run minus rho as its
Schur label. The merge costs O(n) per weight.
"""

from __future__ import annotations

from typing import NamedTuple

from .partitions import weyl_dim


class _Weight(NamedTuple):
    n: int
    m: int
    entries: tuple[int, ...]


class QDominantWeight(_Weight):
    """Integer n-tuple weakly decreasing on positions 1..m and m+1..n.

    The constructor checks the cut and the two blocks. `_make` builds the
    record without those checks, for weights that are valid by construction
    (`bundle_cohomology` and the enlarged-base check in `resolution`).
    """

    __slots__ = ()

    def __new__(cls, n: int, m: int, entries):
        e = tuple(int(x) for x in entries)
        if not 1 <= m <= n - 1:
            raise ValueError(f"cut position {m} invalid for n={n}")
        if len(e) != n:
            raise ValueError(f"weight must have {n} entries")
        if any(e[i] < e[i + 1] for i in range(m - 1)) or any(
            e[i] < e[i + 1] for i in range(m, n - 1)
        ):
            raise ValueError(f"weight {e} is not dominant for cut {m}")
        return super().__new__(cls, n, m, e)


class CohomologyAnswer(NamedTuple):
    """Either nothing at all, or one group: (degree, Schur label)."""

    zero: bool
    degree: int | None = None
    label: tuple[int, ...] | None = None

    @property
    def dimension(self) -> int:
        return 0 if self.zero else weyl_dim(self.label)


ZERO = CohomologyAnswer(zero=True)


def bott(w: QDominantWeight) -> CohomologyAnswer:
    """Merge the rho-shifted blocks of the block-swapped weight.

    >>> bott(QDominantWeight(2, 1, (0, 0)))
    CohomologyAnswer(zero=False, degree=0, label=(0, 0))
    >>> bott(QDominantWeight(2, 1, (1, 0))).zero
    True
    >>> bott(QDominantWeight(2, 1, (2, 0)))
    CohomologyAnswer(zero=False, degree=1, label=(1, 1))
    """
    n, m, e = w.n, w.m, w.entries
    first = [x + n - 1 - i for i, x in enumerate(e[m:])]
    second = [x + m - 1 - j for j, x in enumerate(e[:m])]
    merged: list[int] = []
    degree = i = j = 0
    while i < len(first) and j < len(second):
        if first[i] > second[j]:
            merged.append(first[i])
            i += 1
        elif first[i] < second[j]:
            # second[j] crosses every first-run value still unmerged
            merged.append(second[j])
            degree += len(first) - i
            j += 1
        else:
            return ZERO
    merged += first[i:] + second[j:]
    return CohomologyAnswer(zero=False, degree=degree,
                            label=tuple(v - (n - 1 - p) for p, v in enumerate(merged)))


def bundle_cohomology(labels, n: int, m: int) -> dict[int, list[tuple[int, ...]]]:
    """Aggregate `bott` over a completely reducible bundle built from the
    rank-m quotient.

    `labels` is an iterable of quotient-side Schur labels mu (partitions
    of at most m parts), repeated according to multiplicity. Each is the
    weight (mu, 0^(n - len mu)) with cut m; the block swap then sorts
    (0^(n-m), mu), which is the order the right action of the parabolic
    dictates. A zero-padded partition is dominant for the cut, so the
    weights skip the constructor's check; the cut and each label's length
    are checked here. Returns {cohomological degree: sorted list of labels}.
    """
    if not 1 <= m <= n - 1:
        raise ValueError(f"cut position {m} invalid for n={n}")
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for mu in labels:
        if len(mu) > m:
            raise ValueError(f"label {tuple(mu)} too long for cut {m} of n={n}")
        answer = bott(QDominantWeight._make((n, m, tuple(mu) + (0,) * (n - len(mu)))))
        if answer.zero:
            continue
        by_degree.setdefault(answer.degree, []).append(answer.label)
    return {j: sorted(found, reverse=True) for j, found in sorted(by_degree.items())}
