"""Tests for format invariant checking and output verification."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.fault import ValidationReport, validate_format, verify_output
from repro.formats.bccoo import BCCOOMatrix
from repro.formats.bccoo_plus import BCCOOPlusMatrix


class TestValidationReport:
    def test_empty_report_is_ok(self):
        assert ValidationReport(subject="x").ok

    def test_failures_and_summary(self):
        rep = ValidationReport(subject="s")
        rep.add("a", True)
        rep.add("b", False, "broken")
        assert not rep.ok
        assert [c.name for c in rep.failures] == ["b"]
        assert "FAIL" in rep.summary() and "broken" in rep.summary()

    def test_raise_if_failed_carries_context(self):
        rep = ValidationReport(subject="s")
        rep.add("some_check", False, "why")
        with pytest.raises(ValidationError) as exc_info:
            rep.raise_if_failed()
        assert exc_info.value.check == "some_check"
        assert exc_info.value.detail == "why"

    def test_merge(self):
        a = ValidationReport(subject="a")
        a.add("x", True)
        b = ValidationReport(subject="b")
        b.add("y", False)
        a.merge(b)
        assert len(a.checks) == 2 and not a.ok


class TestValidateFormat:
    def test_clean_bccoo_passes(self, random_matrix):
        fmt = BCCOOMatrix.from_scipy(random_matrix())
        report = fmt.validate()
        assert report.ok, report.summary()
        names = {c.name for c in report.checks}
        assert "row_stop_count" in names and "values_finite" in names

    def test_clean_bccoo_plus_passes(self, random_matrix):
        fmt = BCCOOPlusMatrix.from_scipy(
            random_matrix(ncols=128), slice_count=2
        )
        report = fmt.validate()
        assert report.ok, report.summary()
        names = {c.name for c in report.checks}
        assert "slice_cover" in names and "stacked_rows_consistent" in names

    def test_empty_rows_and_paper_matrix(self, paper_matrix_a, empty_row_matrix):
        for m in (paper_matrix_a, empty_row_matrix):
            assert validate_format(BCCOOMatrix.from_scipy(m)).ok

    def test_corrupt_values_detected(self, random_matrix):
        fmt = BCCOOMatrix.from_scipy(random_matrix())
        fmt.values[0, 0, 0] = np.nan
        report = fmt.validate()
        assert not report.ok
        assert report.failures[0].name == "values_finite"

    def test_unknown_format_gets_shape_check_only(self, paper_matrix_a):
        from repro.formats.csr import CSRMatrix

        report = validate_format(CSRMatrix.from_scipy(paper_matrix_a))
        assert report.ok and report.checks[0].name == "has_shape"


class TestVerifyOutput:
    def test_correct_output_passes(self, random_matrix, rng):
        A = random_matrix()
        x = rng.standard_normal(A.shape[1])
        assert verify_output(A, x, A @ x, n_samples=None).ok

    def test_length_mismatch(self, random_matrix, rng):
        A = random_matrix()
        x = rng.standard_normal(A.shape[1])
        report = verify_output(A, x, np.zeros(A.shape[0] + 1))
        assert not report.ok
        assert report.failures[0].name == "output_length"

    def test_nan_detected(self, random_matrix, rng):
        A = random_matrix()
        x = rng.standard_normal(A.shape[1])
        y = A @ x
        y[3] = np.nan
        report = verify_output(A, x, y, n_samples=None)
        assert "output_finite" in {c.name for c in report.failures}

    def test_checksum_catches_unsampled_corruption(self, rng):
        # Corrupt one row of a big matrix but sample few others: the
        # row-sampling check can miss it; the global checksum cannot.
        from scipy import sparse

        A = sparse.random(3000, 3000, density=0.01, random_state=1, format="csr")
        x = rng.standard_normal(3000)
        y = A @ x
        y[1234] += 5.0
        report = verify_output(A, x, y, n_samples=4)
        assert "checksum" in {c.name for c in report.failures}

    def test_sampling_is_deterministic(self, random_matrix, rng):
        A = random_matrix(nrows=200)
        x = rng.standard_normal(A.shape[1])
        y = np.asarray(A @ x)
        y += rng.standard_normal(y.shape) * 1e-3  # everything slightly off
        r1 = verify_output(A, x, y, n_samples=16)
        r2 = verify_output(A, x, y, n_samples=16)
        assert [c.detail for c in r1.checks] == [c.detail for c in r2.checks]

    def test_tolerance_respected(self, random_matrix, rng):
        A = random_matrix()
        x = rng.standard_normal(A.shape[1])
        y = np.asarray(A @ x) * (1.0 + 1e-12)
        assert verify_output(A, x, y, n_samples=None).ok  # within 1e-9
        assert not verify_output(
            A, x, np.asarray(A @ x) * 1.01, n_samples=None
        ).ok
