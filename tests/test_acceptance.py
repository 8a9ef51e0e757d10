"""Acceptance gate: one test per criterion, each printing a pass line and
enforcing its stated time budget."""

import json
import time
from math import comb

from symsyz.bott import QDominantWeight, bott
from symsyz.cli import main
from symsyz.geometry import desing_data
from symsyz.partitions import exterior_of_sym2, schur_dim
from symsyz.resolution import (
    consistency_check,
    enlarged_space_table,
    jpw_closed_form,
    minor_generators,
)
from symsyz.verify import (
    factorization_suite,
    plucker_suite,
    weyl_suite,
)

from oracles import (
    count_ssyt,
    koszul_betti,
    line_bundle_cohomology,
    partitions_of,
    symmetric_minor_polys,
)

VERONESE = {(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3}


def _report(name, started, budget):
    elapsed = time.time() - started
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"
    print(f"PASS {name} ({elapsed:.2f}s < {budget}s)")


def _cli_betti(capsys, n, k, r):
    code = main(["resolve", "--n", str(n), "--k", str(k), "--r", str(r),
                 "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    return {(row["i"], row["degree"]): row["mult"] for row in payload["betti"]}


def test_criterion_1_veronese_benchmark(capsys):
    # independent brute-force confirmation, then the command itself
    gens = symmetric_minor_polys(3, 2)
    assert koszul_betti(gens, 6, max_i=6, max_j=7) == VERONESE
    started = time.time()
    assert _cli_betti(capsys, 3, 1, 3) == VERONESE
    with capsys.disabled():
        _report("criterion-1 veronese", started, 1.0)


def test_criterion_2_hypersurfaces(capsys):
    started = time.time()
    assert _cli_betti(capsys, 2, 1, 2) == {(0, 0): 1, (1, 2): 1}
    assert _cli_betti(capsys, 4, 3, 4) == {(0, 0): 1, (1, 4): 1}
    with capsys.disabled():
        _report("criterion-2 hypersurfaces", started, 1.0)


def test_criterion_3_closed_form_vs_geometry():
    started = time.time()
    for n in range(2, 6):
        for k in range(1, n):
            table = jpw_closed_form(n, k)
            codim = desing_data(n, k, n).codim
            assert codim == comb(n - k + 1, 2)
            assert table.length() == codim
            gens = minor_generators(n, k)
            assert len(gens) == table.entries[(1, k + 1)]
            assert all(g.degree() == k + 1 for g in gens)
            assert [d for (i, d) in table.entries if i == 1] == [k + 1]
            report = consistency_check(table, codim)
            assert report.divisible and report.degree > 0
    _report("criterion-3 closed form vs geometry", started, 10.0)


def test_criterion_4_subresolution_containment():
    started = time.time()
    for n, k, r in ((3, 2, 3), (4, 2, 4)):
        assert enlarged_space_table(n, k, r).contains(jpw_closed_form(n, k))
    _report("criterion-4 subresolution", started, 30.0)


def test_criterion_5_bott_projective_line():
    started = time.time()
    for d in range(-6, 7):
        expected = line_bundle_cohomology(d)
        answer = bott(QDominantWeight(2, 1, (0, d)))
        if not expected:
            assert answer.zero
        else:
            (degree, dim), = expected.items()
            assert not answer.zero
            assert (answer.degree, answer.dimension) == (degree, dim)
    _report("criterion-5 bott line bundles", started, 1.0)


def test_criterion_6_plucker_identities():
    started = time.time()
    result = plucker_suite(seed=20240, n_max=5, points_per_case=200)
    assert result.passed, result.detail
    _report("criterion-6 plucker identities", started, 10.0)


def test_criterion_7_symplectic_factorization():
    started = time.time()
    result = factorization_suite(seed=20247, count=200)
    assert result.passed, result.detail
    _report("criterion-7 factorization", started, 5.0)


def test_criterion_8_weyl_suite():
    started = time.time()
    result = weyl_suite(n_max=6)
    assert result.passed, result.detail
    _report("criterion-8 weyl", started, 5.0)


def test_criterion_9_plethysm_dimension_counts():
    started = time.time()
    for e in range(1, 6):
        for t in range(7):
            total = sum(schur_dim(lam, e) * m for lam, m in exterior_of_sym2(t, e))
            assert total == comb(e * (e + 1) // 2, t)
    for size in range(11):
        for lam in partitions_of(size):
            for e in range(1, 7):
                assert schur_dim(lam, e) == count_ssyt(lam, e)
    _report("criterion-9 plethysm dimensions", started, 10.0)
