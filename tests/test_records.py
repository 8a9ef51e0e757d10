"""The records of the package are NamedTuples (BettiTable, with its two
mutable dicts, a small slotted class): importing the CLI does not load
`dataclasses`, the validating constructors refuse what they always did, and
the reprs that doctests and error lines print keep their text."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from symsyz.bott import CohomologyAnswer, QDominantWeight, bott
from symsyz.resolution import BettiTable, ConsistencyReport, resolve
from symsyz.weyl import ParabolicMarker, WeylElementC

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_skips_dataclasses_and_its_imports():
    # compare before and after, so that an interpreter that preloads any of
    # them does not fail the test
    script = ("import sys; before = set(sys.modules); import symsyz.cli;"
              " print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "symsyz.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_validating_constructors_normalise_and_refuse():
    assert QDominantWeight(3, 1, [5.0, 2, 0]).entries == (5, 2, 0)
    assert ParabolicMarker([3, 1, 3]).omitted == (1, 3)
    with pytest.raises(ValueError, match="simple-root indices start at 1"):
        ParabolicMarker((0, 2))
    assert WeylElementC(2, [4, 2]).half_word == (4, 2)
    with pytest.raises(ValueError, match="half word must have length 2"):
        WeylElementC(2, (1,))


def test_record_reprs_and_equality():
    assert repr(QDominantWeight(2, 1, (0, 0))) == "QDominantWeight(n=2, m=1, entries=(0, 0))"
    assert repr(bott(QDominantWeight(2, 1, (1, 0)))) == (
        "CohomologyAnswer(zero=True, degree=None, label=None)")
    assert repr(ParabolicMarker((2, 1))) == "ParabolicMarker(omitted=(1, 2))"
    assert repr(WeylElementC(2, (4, 2))) == "WeylElementC(n=2, half_word=(4, 2))"
    assert repr(ConsistencyReport(True, 4)) == "ConsistencyReport(divisible=True, degree=4)"
    assert CohomologyAnswer(zero=True) == CohomologyAnswer(True, None, None)
    table = BettiTable()
    table.add(0, 0, (), 1)
    assert repr(table) == "BettiTable(entries={(0, 0): 1}, provenance={(0, 0): [((), 1)]})"
    assert table == BettiTable({(0, 0): 1}, {(0, 0): [((), 1)]})
    assert table != BettiTable({(0, 0): 1})
    assert BettiTable() == BettiTable() and BettiTable().entries is not BettiTable().entries
    with pytest.raises(TypeError):
        hash(table)


def test_resolve_report_is_built_whole():
    report = resolve(4, 2, 4)
    assert report.enlarged is not None and report.enlarged_contains_closed_form is True
    assert report.supported() and report.unsupported_reason is None
    odd = resolve(4, 1, 4)
    assert odd.enlarged is None and odd.enlarged_contains_closed_form is None
    assert not resolve(4, 2, 3).supported()
