import itertools
import json
import time
from math import comb

import pytest

from symsyz import resolution
from symsyz.partitions import _rows_from_hooks, from_hooks, weyl_dim
from symsyz.resolution import (
    BettiTable,
    EnlargedTableMismatch,
    RationalSingularityViolation,
    UnsupportedBundleError,
    assemble,
    consistency_check,
    desing_data,
    enlarged_space_table,
    jpw_by_degree_scan,
    jpw_closed_form,
    k_polynomial,
    minor_generators,
    resolve,
)

from oracles import (
    conjugate,
    enlarged_by_bott,
    hook_content_dim,
    ideal_quotient_dims,
    koszul_betti,
    resolution_character_mismatches,
    socle_free_through,
    sym2_quotient_hilbert,
    symmetric_minor_polys,
)

VERONESE = {(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3}


def test_assemble_trivial():
    table = assemble({0: {0: [()]}}, 0)
    assert table.entries == {(0, 0): 1}


def test_assemble_hypersurface_oracle():
    # the rank-one case in size two: one cohomology class for the top
    # exterior power, in degree one, of dimension one
    oracle = {0: {0: [(0, 0)]}, 1: {}, 2: {1: [(-2, -2)]}}
    table = assemble(oracle, 2)
    assert table.entries == {(0, 0): 1, (1, 2): 1}
    assert k_polynomial(table) == k_polynomial(jpw_closed_form(2, 1))


def test_assemble_rejects_negative_positions():
    with pytest.raises(RationalSingularityViolation):
        assemble({1: {2: [(0, 0, 0)]}}, 1)


def test_jpw_hypersurfaces():
    assert jpw_closed_form(2, 1).entries == {(0, 0): 1, (1, 2): 1}
    assert jpw_closed_form(4, 3).entries == {(0, 0): 1, (1, 4): 1}
    assert jpw_closed_form(3, 2).entries == {(0, 0): 1, (1, 3): 1}
    assert jpw_closed_form(5, 4).entries == {(0, 0): 1, (1, 5): 1}


def test_jpw_veronese_against_brute_force():
    """Independent confirmation: graded Betti numbers of the ideal of
    two-by-two minors of the generic symmetric 3x3 matrix, computed from
    scratch by Koszul homology mod p on the window i <= 6, j <= 7 (the
    resolution has length at most 6 over the 6-variable ring, and the top
    strand is excluded by the socle check)."""
    gens = symmetric_minor_polys(3, 2)
    assert len(gens) == 6
    betti = koszul_betti(gens, 6, max_i=6, max_j=7)
    assert betti == VERONESE
    assert socle_free_through(gens, 6, 5)
    assert jpw_closed_form(3, 1).entries == VERONESE


def test_jpw_determinants_against_brute_force():
    # size-two determinant: one quadric in three variables
    gens = symmetric_minor_polys(2, 2)
    betti = koszul_betti(gens, 3, max_i=3, max_j=6)
    assert betti == {(0, 0): 1, (1, 2): 1}
    # size-three determinant: one cubic in six variables
    gens = symmetric_minor_polys(3, 3)
    betti = koszul_betti(gens, 6, max_i=4, max_j=6)
    assert betti == {(0, 0): 1, (1, 3): 1}


def test_jpw_provenance_labels():
    table = jpw_closed_form(3, 1)
    assert table.provenance[(1, 2)] == [((2, 2), 6)]
    assert table.provenance[(3, 4)] == [((3, 3, 2), 3)]


def test_closed_form_against_oracle():
    # rebuild each table from its definition: every even-rank partition with
    # arm = leg + k - 1 and legs <= n - k, its conjugate counted cell by cell
    # and that conjugate's dimension by the hook-content formula
    for n in range(2, 11):
        for k in range(1, n):
            entries = {(0, 0): 1}
            provenance = {(0, 0): [((), 1)]}
            for s in range(2, n - k + 2, 2):
                for legs in itertools.combinations(range(n - k + 1), s):
                    legs = legs[::-1]
                    arms = tuple(b + k - 1 for b in legs)
                    lam = from_hooks((arms, legs))
                    t = sum(lam) // 2
                    dual = conjugate(lam)
                    dim = hook_content_dim(dual, n)
                    key = (t - k * s // 2, t)
                    entries[key] = entries.get(key, 0) + dim
                    provenance.setdefault(key, []).append((dual, dim))
            table = jpw_closed_form(n, k)
            assert table.entries == entries, (n, k)
            assert {key: sorted(v) for key, v in table.provenance.items()} == {
                key: sorted(v) for key, v in provenance.items()
            }, (n, k)


def test_closed_form_dimensions_match_weyl_dim():
    # each closed-form dimension is its parent's times one ratio; the Weyl
    # product of the zero-padded label checks every one, filtered or not
    expected: dict = {}
    for n in range(2, 15):
        for k in range(1, n):
            for max_t in (None, n, 2 * n):
                table = jpw_closed_form(n, k, max_t)
                for entries in table.provenance.values():
                    for label, dim in entries:
                        key = (n, label)
                        if key not in expected:
                            expected[key] = weyl_dim(label + (0,) * (n - len(label)))
                        assert dim == expected[key], (n, k, max_t, label)
    assert len(expected) > 2**14


def test_walk_rows_match_rows_from_hooks():
    # each member's conjugate rows are its parent's with one hook added
    for n in range(2, 13):
        for k in range(1, n):
            for legs, _, _, _, rows in resolution._closed_form_walk(n, k, None):
                assert rows == _rows_from_hooks(legs, [b + k - 1 for b in legs]), (n, k, legs)


def _tables_by_rank(n, k, max_t):
    """Both r = n tables walked rank by rank with itertools.combinations, each
    label built from its hooks and its dimension a Weyl product."""
    closed, enlarged = BettiTable(), BettiTable()
    for s in range(n - k + 2):
        for legs in itertools.combinations(range(n - k, -1, -1), s):
            t = (2 * sum(legs) + s * k) // 2
            if s and max_t is not None and t > max_t:
                continue
            rows = _rows_from_hooks(legs, [b + k - 1 for b in legs])
            label = rows + (0,) * (n - len(rows))
            dim = weyl_dim(label)
            if s % 2 == 0:
                closed.add(t - k * s // 2, t, rows, dim)
            enlarged.add(t - k * s // 2, t, label, dim)
    return closed, enlarged


def test_tables_match_a_rank_by_rank_walk():
    # the depth-first walk adds every entry, and every provenance label in
    # the same order, as a walk of one rank after another
    for n in range(2, 11):
        for k in range(1, n):
            for max_t in (None, 0, 1, 3, 7, 12, 20):
                closed, enlarged = _tables_by_rank(n, k, max_t)
                assert jpw_closed_form(n, k, max_t) == closed, (n, k, max_t)
                if k % 2 == 0:
                    assert enlarged_space_table(n, k, n, max_t) == enlarged, (n, k, max_t)


def test_jpw_scan_agrees_with_direct():
    # --max-t is a degree filter: the capped table is the full one cut to
    # degrees <= max_t, entry by entry and label by label
    for n in range(2, 9):
        for k in range(1, n):
            full = jpw_closed_form(n, k)
            for max_t in range(full.max_degree() + 2):
                capped = jpw_by_degree_scan(n, k, max_t)
                assert capped.entries == {
                    key: m for key, m in full.entries.items() if key[1] <= max_t
                }, (n, k, max_t)
                assert capped.provenance == {
                    key: labels for key, labels in full.provenance.items()
                    if key[1] <= max_t
                }, (n, k, max_t)
    assert jpw_closed_form(3, 1, max_t=-1).entries == {(0, 0): 1}


def test_jpw_resolution_shape_and_length():
    for n in range(2, 7):
        for k in range(1, n):
            table = jpw_closed_form(n, k)
            assert table.is_resolution_shape()
            c = n - k + 1
            assert table.length() == c * (c - 1) // 2


def test_k_polynomial_examples():
    assert k_polynomial(BettiTable({(0, 0): 1})) == [1]
    assert k_polynomial(jpw_closed_form(2, 1)) == [1, 0, -1]
    assert k_polynomial(jpw_closed_form(3, 1)) == [1, 0, -6, 8, -3]


def test_consistency_examples():
    table = jpw_closed_form(2, 1)
    report = consistency_check(table, 1)
    assert report.divisible and report.degree == 2
    report = consistency_check(jpw_closed_form(3, 1), 3)
    assert report.divisible and report.degree == 4
    assert consistency_check(BettiTable({(0, 0): 1}), 0).degree == 1
    # over-dividing is reported, not raised
    assert not consistency_check(jpw_closed_form(2, 1), 2).divisible


def test_minor_generator_counts_and_degrees():
    assert len(minor_generators(2, 1)) == 1
    assert len(minor_generators(3, 1)) == 6
    assert len(minor_generators(4, 2)) == 10
    # with more rows the raw minors become dependent: 21 distinct minors of
    # the symmetric 4x4 span a 20-dimensional space
    gens41 = minor_generators(4, 1)
    assert len(gens41) == 20
    for n in range(2, 8):
        for k in range(1, n):
            gens = minor_generators(n, k)
            assert all(g.degree() == k + 1 for g in gens)
            assert len(gens) == jpw_closed_form(n, k).entries[(1, k + 1)]


def test_enlarged_space_table_rejects_unsupported_parameters():
    for (n, k, r), reason in (((4, 2, 3), "not-completely-reducible"),
                              ((3, 1, 3), "odd-rank-bound")):
        with pytest.raises(UnsupportedBundleError) as err:
            enlarged_space_table(n, k, r)
        assert str(err.value).startswith(f"{reason}: "), (n, k, r)


def test_enlarged_top_degree_is_the_bundle_rank():
    # Sym^2 of the rank-m quotient has rank m(m+1)/2, so no class sits above
    # that exterior degree; for k = 2 the top one survives (at (5, 4) it
    # vanishes). max_t filters entries and provenance to degrees t <= max_t.
    for n in range(3, 11):
        for k in range(2, n, 2):
            m = n - k // 2
            top = m * (m + 1) // 2
            full = enlarged_space_table(n, k, n)
            assert full.max_degree() <= top and (k > 2 or full.max_degree() == top), (n, k)
            assert enlarged_space_table(n, k, n, max_t=10**9) == full
            capped = enlarged_space_table(n, k, n, max_t=top // 2)
            assert capped == BettiTable(
                {key: mult for key, mult in full.entries.items() if key[1] <= top // 2},
                {key: labels for key, labels in full.provenance.items() if key[1] <= top // 2},
            ), (n, k)


def test_enlarged_table_matches_the_summand_by_summand_oracle():
    # the whole offset-1 family through an independent Bott, every even k
    # with n <= 12, untruncated and filtered at half the bundle rank
    for n in range(3, 13):
        for k in range(2, n, 2):
            m = n - k // 2
            for max_t in (None, m * (m + 1) // 4):
                table = enlarged_space_table(n, k, n, max_t)
                entries, provenance = enlarged_by_bott(n, k, max_t)
                assert table.entries == entries, (n, k, max_t)
                assert {key: sorted(found) for key, found in table.provenance.items()} == {
                    key: sorted(found) for key, found in provenance.items()}, (n, k, max_t)


def test_resolve_checks_the_odd_rank_part(monkeypatch):
    # the enlarged table minus the closed form resolves a rank-one module on
    # the locus; moving one of its entries by a degree keeps the containment
    # but breaks that, and only an untruncated run checks it
    real = resolution.enlarged_space_table

    def moved(n, k, r, max_t=None):
        table = real(n, k, r, max_t)
        table.entries[(3, 7)] = table.entries.pop((3, 6))
        return table

    monkeypatch.setattr(resolution, "enlarged_space_table", moved)
    assert moved(5, 2, 5).contains(jpw_closed_form(5, 2))
    with pytest.raises(EnlargedTableMismatch, match="odd-rank part"):
        resolve(5, 2, 5)
    assert resolve(5, 2, 5, max_t=40).enlarged.entries[(3, 7)] == 35


def test_odd_rank_part_is_generated_in_degree_half_k():
    for n in range(3, 13):
        for k in range(2, n, 2):
            report = resolve(n, k, n)  # raises unless the odd-rank part is a resolution
            odd = {key for key in report.enlarged.entries if key not in report.table.entries}
            assert {d for i, d in odd if i == 0} == {k // 2}, (n, k)


ENLARGED_3 = {(0, 0): 1, (0, 1): 3, (1, 2): 3, (1, 3): 1}
ENLARGED_4 = {
    (0, 0): 1, (0, 1): 6, (1, 2): 15, (1, 3): 10,
    (2, 3): 10, (2, 4): 15, (3, 5): 6, (3, 6): 1,
}


def test_enlarged_space_tables():
    assert enlarged_space_table(3, 2, 3).entries == ENLARGED_3
    assert enlarged_space_table(4, 2, 4).entries == ENLARGED_4


def test_enlarged_contains_closed_form():
    for n, k, r in [(n, k, n) for n in range(3, 11) for k in range(2, n, 2)]:
        big = enlarged_space_table(n, k, r)
        small = jpw_closed_form(n, k)
        assert big.contains(small), (n, k, r)


def test_enlarged_k_polynomial_degree_doubles():
    # the enlarged direct image is generically two-to-one onto the locus
    for n, k, r in ((3, 2, 3), (4, 2, 4)):
        data = desing_data(n, k, r)
        big = consistency_check(enlarged_space_table(n, k, r), data.codim)
        small = consistency_check(jpw_closed_form(n, k), data.codim)
        assert big.divisible and small.divisible
        assert big.degree == 2 * small.degree


def test_resolve_reports():
    report = resolve(3, 1, 3)
    assert report.table.entries == VERONESE
    assert report.data == desing_data(3, 1, 3) and report.data.codim == 3
    assert report.consistency.degree == 4
    assert report.enlarged is None  # odd k has no enlarged model
    report = resolve(4, 2, 4)
    assert report.enlarged_contains_closed_form is True
    report = resolve(4, 2, 3)
    assert not report.supported()
    assert "not completely reducible" in report.unsupported_reason
    assert report.data == desing_data(4, 2, 3)


def test_resolve_refuses_negative_max_t():
    # refused before any table is built, for r = n and r < n alike; a
    # negative filter would otherwise read as a failed containment
    for r in (4, 3):
        with pytest.raises(ValueError, match="max_t"):
            resolve(4, 2, r, max_t=-1)
    report = resolve(4, 2, 4, max_t=0)
    assert report.table.entries == {(0, 0): 1}
    assert report.enlarged_contains_closed_form is True


def test_betti_table_helpers():
    table = jpw_closed_form(3, 1)
    grid = table.text_grid()
    assert "8" in grid and grid.count("\n") == 4
    rows = table.to_json_dict()
    assert rows[0] == {"i": 0, "degree": 0, "mult": 1, "schur": [((), 1)]}
    assert rows[1]["schur"] == [((2, 2), 6)]
    # json prints the (label, dim) tuples as nested arrays
    assert json.dumps(rows) == (
        '[{"i": 0, "degree": 0, "mult": 1, "schur": [[[], 1]]},'
        ' {"i": 1, "degree": 2, "mult": 6, "schur": [[[2, 2], 6]]},'
        ' {"i": 2, "degree": 3, "mult": 8, "schur": [[[3, 2, 1], 8]]},'
        ' {"i": 3, "degree": 4, "mult": 3, "schur": [[[3, 3, 2], 3]]}]'
    )


JPW_5_2 = {
    (0, 0): 1, (1, 3): 50, (2, 4): 175, (3, 5): 252,
    (4, 6): 175, (5, 7): 50, (6, 10): 1,
}
JPW_5_3 = {(0, 0): 1, (1, 4): 15, (2, 5): 24, (3, 6): 10}
# classical Betti numbers of the quadratic Veronese embedding of 4-space
VERONESE_5_TOTALS = [1, 50, 280, 765, 1248, 1260, 790, 335, 126, 40, 5]


def test_jpw_frozen_tables_n5():
    assert jpw_closed_form(5, 2).entries == JPW_5_2
    assert jpw_closed_form(5, 3).entries == JPW_5_3
    table = jpw_closed_form(5, 1)
    totals = [0] * (table.length() + 1)
    for (i, d), mult in table.entries.items():
        totals[i] += mult
    assert totals == VERONESE_5_TOTALS


def test_variety_degrees():
    # rank-one loci are quadratic Veronese cones of degree 2^(n-1);
    # corank-one loci are determinant hypersurfaces of degree n
    for n in range(2, 7):
        table = jpw_closed_form(n, 1)
        codim = n * (n - 1) // 2
        assert consistency_check(table, codim).degree == 2 ** (n - 1)
        table = jpw_closed_form(n, n - 1)
        assert consistency_check(table, 1).degree == n


def test_enlarged_scales_to_n6():
    for k in (2, 4):
        big = enlarged_space_table(6, k, 6)
        small = jpw_closed_form(6, k)
        assert big.contains(small)
        codim = desing_data(6, k, 6).codim
        assert consistency_check(big, codim).degree == \
            2 * consistency_check(small, codim).degree


def test_jpw_rejects_bad_parameters():
    with pytest.raises(ValueError):
        jpw_closed_form(3, 3)
    with pytest.raises(ValueError):
        jpw_closed_form(3, 0)


def _hilbert_from_table(table, nvars, max_degree):
    # K(z) / (1-z)^nvars, coefficientwise
    coeffs = k_polynomial(table)
    out = []
    for d in range(max_degree + 1):
        total = 0
        for j, c in enumerate(coeffs):
            if j <= d:
                total += c * comb(d - j + nvars - 1, nvars - 1)
        out.append(total)
    return out


@pytest.mark.parametrize("n,k,max_degree", [(3, 1, 6), (4, 1, 4), (4, 2, 5), (5, 2, 4), (5, 3, 5)])
def test_table_hilbert_function_matches_ideal_ranks(n, k, max_degree):
    """The Hilbert function implied by the closed-form table must agree with
    honest ranks of the minors ideal, computed mod p from scratch."""
    nvars = n * (n + 1) // 2
    gens = symmetric_minor_polys(n, k + 1)
    dims = ideal_quotient_dims(gens, nvars, max_degree)
    assert _hilbert_from_table(jpw_closed_form(n, k), nvars, max_degree) == dims


def test_table_hilbert_function_matches_abeasis_sum():
    """The Hilbert function implied by the closed-form table agrees, through
    the table's top degree (which fixes its K-polynomial), with the sum of
    dim S_{2mu} over the mu of d with at most k parts, for every n <= 8; and
    one multiplicity raised by one at (5, 2) breaks the agreement."""
    cases = 0
    for n in range(2, 9):
        nvars = n * (n + 1) // 2
        for k in range(1, n):
            table = jpw_closed_form(n, k)
            top = table.max_degree()
            expected = [sym2_quotient_hilbert(n, k, d) for d in range(top + 1)]
            assert _hilbert_from_table(table, nvars, top) == expected, (n, k)
            cases += 1
    assert cases == 28
    table = jpw_closed_form(5, 2)
    top = table.max_degree()
    expected = [sym2_quotient_hilbert(5, 2, d) for d in range(top + 1)]
    for cell in table.entries:
        bumped = BettiTable({**table.entries, cell: table.entries[cell] + 1})
        assert _hilbert_from_table(bumped, 15, top) != expected, cell


def _labels(table):
    return [(i, t, shape) for (i, t), members in table.provenance.items() for shape, _ in members]


def test_closed_form_labels_match_the_gl_n_character():
    """Each printed Schur label, not only its dimension: at a seeded random
    torus point, mod 2^61 - 1, the table's labels satisfy the GL_n character
    identity of the resolution through its top degree (see
    `oracles.resolution_character_mismatches`), for all 28 (n, k) with
    n <= 8. Budget: 10 s (about 1.5 s on a 2-core box). At (5, 2) a label
    swapped for another partition with the same dimension and the same
    (i, t) breaks the identity, which the Hilbert-function check cannot see."""
    started = time.perf_counter()
    cases = 0
    for n in range(2, 9):
        for k in range(1, n):
            table = jpw_closed_form(n, k)
            top = table.max_degree()
            assert resolution_character_mismatches(n, k, _labels(table), top, 100 * n + k) == [], \
                (n, k)
            cases += 1
    assert cases == 28
    assert time.perf_counter() - started < 10.0
    table = jpw_closed_form(5, 2)
    labels = _labels(table)
    swapped = [(i, t, (6, 1, 1, 1, 1) if shape == (4, 2, 2, 1, 1) else shape)
               for i, t, shape in labels]
    assert swapped != labels
    assert hook_content_dim((6, 1, 1, 1, 1), 5) == hook_content_dim((4, 2, 2, 1, 1), 5)
    assert resolution_character_mismatches(5, 2, swapped, table.max_degree(), 502) != []
