"""The report rows are settled as one table: each row's verdict is the one
its own per-row reduction gave (``conftest.reference_check``), whether
the row is settled alone, on first use, or with other rows."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadmm import certificates, hpe, problems
from gadmm.solver import LinearizedH

from conftest import reference_check, run_full

SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e-8, -1e-8, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]
VALUE = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3), st.floats())


@st.composite
def entries(draw, K):
    """K entries of lhs, rhs or tol: drawn values; values tied inside
    WORST_K_BAND; a line that drifts by less than the band per k; or a
    scalar."""
    kind = draw(st.sampled_from(["values", "ties", "drift", "scalar"]))
    if kind == "scalar":
        return draw(VALUE)
    if kind == "values":
        return np.array(draw(st.lists(VALUE, min_size=K, max_size=K)))
    base = draw(st.floats(-2.0, 2.0))
    scale = hpe.WORST_K_BAND * (1.0 + abs(base))
    if kind == "ties":
        steps = draw(st.lists(st.sampled_from([0.0, 0.3, 0.9, 1.1, 3.0]), min_size=K, max_size=K))
        return base + scale * np.array(steps)
    step = draw(st.floats(-0.6, 0.6)) * scale
    return base + step * np.arange(K)


@st.composite
def tables(draw):
    """(ks, rows): 1-6 rows of (name, lhs, rhs, tol) over one ks of K
    ascending iterations, K = 0..12."""
    K = draw(st.integers(0, 12))
    first = draw(st.integers(0, 5))
    ks = first + np.cumsum(draw(st.lists(st.integers(1, 3), min_size=K, max_size=K)), dtype=int)
    rows = []
    for i in range(draw(st.integers(1, 6))):
        lhs = draw(entries(K))
        lhs = lhs if np.ndim(lhs) else np.full(K, lhs)  # lhs is an array
        rows.append((f"row{i}", lhs, draw(entries(K)), draw(entries(K))))
    return ks, rows


def bits(value):
    """The bits of a float; every NaN reads as one, since numpy's loops
    may keep either operand's NaN payload in a sum of two NaNs."""
    return "nan" if math.isnan(value) else int(np.array(value, dtype=float).view(np.int64))


def verdict(row):
    return (row.passed, bits(row.worst_slack), row.worst_k, row.first_k,
            json.dumps(row.to_dict()))


@settings(max_examples=150, deadline=None)
@given(tables())
def test_settled_rows_match_the_per_row_reduction(table):
    ks, rows = table
    with np.errstate(all="ignore"):  # inf - inf in a slack, as in the reference
        want = [verdict(reference_check(name, ks, *arrays, "-")) for name, *arrays in rows]
        alone = [verdict(hpe.check(name, ks, *arrays, "-")) for name, *arrays in rows]
        together = [hpe.check(name, ks, *arrays, "-") for name, *arrays in rows]
        hpe.settle(together)
        together = [verdict(row) for row in together]
    assert alone == want
    assert together == want


def test_not_applicable_matches_the_per_row_reduction():
    row = hpe.not_applicable("pointwise_bound")
    ref = reference_check("pointwise_bound", [], [], [], [], "-", "not-applicable at alpha=2")
    assert verdict(row) == verdict(ref)
    assert row.to_dict()["note"] == "not-applicable at alpha=2"


@pytest.mark.parametrize("kind,alpha", [("qp", 1.5), ("qp", 2.0), ("lasso", 1.0)])
def test_report_rows_match_the_per_row_reduction(kind, alpha):
    if kind == "qp":
        inst = problems.generate_qp(3, 6, 5, 4)
    else:
        inst = problems.generate_lasso(7, 10, 20, 0.1)
    h = None if kind == "qp" else LinearizedH()
    report = certificates.full_verification(run_full(inst, alpha, iters=60, h1=h, h2=h),
                                            inst.solution)
    assert len(report.rows) == 18
    for row in report.rows:
        ref = reference_check(row.name, row.ks, row.lhs, row.rhs, row.tol, row.tolerance,
                              row.note)
        assert verdict(row) == verdict(ref), row.name


@pytest.mark.parametrize("sizes", [(2, 1), (0, 1), (1, 0)])
def test_rows_of_different_lengths_are_refused(sizes):
    rows = [hpe.check(name, np.arange(1, K + 1), np.zeros(K), 1.0, 0.0, "-")
            for name, K in zip("ab", sizes)]
    with pytest.raises(ValueError):
        hpe.settle(rows)
