"""Tests for the benchmark harness and report rendering."""

import numpy as np
import pytest

from repro.bench import (
    SYSTEMS,
    compare_systems,
    harmonic_mean,
    render_comparison,
    render_speedups,
    render_table,
    run_suite_comparison,
)


class TestHarmonicMean:
    def test_known_value(self):
        assert harmonic_mean([1.0, 2.0]) == pytest.approx(4.0 / 3.0)

    def test_dominated_by_small_values(self):
        assert harmonic_mean([1.0, 100.0]) < 2.0

    def test_ignores_nonpositive(self):
        assert harmonic_mean([2.0, 0.0]) == pytest.approx(2.0)

    def test_empty(self):
        assert harmonic_mean([]) == 0.0


class TestCompareSystems:
    def test_all_systems_present(self, random_matrix, rng):
        A = random_matrix(nrows=100, ncols=100, density=0.06)
        scores = compare_systems(A, "gtx680", x=rng.standard_normal(100))
        assert set(scores) == set(SYSTEMS)
        for s in scores.values():
            assert s.gflops > 0
            assert s.time_s > 0

    def test_yaspmv_variant_describes_config(self, random_matrix):
        A = random_matrix()
        scores = compare_systems(A, "gtx680")
        variant = scores["yaspmv"].variant
        fmt = variant.split("-")[0]
        # Any cocktail member can win the widened search; the variant
        # leads with the winning format and carries its own knobs.
        assert fmt in {"bccoo", "bccoo+", "merge_csr", "rgcsr"}
        if fmt.startswith("bccoo"):
            assert "-s" in variant  # blocking + strategy axes
        else:
            assert "-wg" in variant  # launch geometry only


class TestSuiteComparison:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_suite_comparison(
            "gtx680", cap_nnz=20_000, names=["QCD", "Circuit"]
        )

    def test_rows_and_metadata(self, rows):
        assert [r.name for r in rows] == ["QCD", "Circuit"]
        for r in rows:
            assert 0 < r.scale <= 1
            assert r.nnz > 0

    def test_speedup_accessor(self, rows):
        r = rows[0]
        expected = r.scores["yaspmv"].gflops / r.scores["cusp"].gflops
        assert r.speedup(over="cusp") == pytest.approx(expected)

    def test_render_comparison(self, rows):
        text = render_comparison(rows, "gtx680", "Figure 13")
        assert "Figure 13" in text
        assert "H-mean" in text
        for name in ("QCD", "Circuit", "yaSpMV", "CUSPARSE"):
            assert name in text

    def test_render_speedups(self, rows):
        text = render_speedups(rows)
        assert "vs CUSPARSE" in text
        assert "%" in text


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["a", "bbb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        widths = {len(l) for l in lines[1:]}
        assert len(widths) == 1  # all rows padded to equal width


class TestRenderBars:
    def test_bars_scale_to_max(self):
        from repro.bench import render_bars

        text = render_bars({"a": 10.0, "b": 5.0}, width=20)
        lines = text.splitlines()
        assert lines[0].count("#") == 20
        assert lines[1].count("#") == 10
        assert "10.00 GFLOPS" in lines[0]

    def test_minimum_one_mark(self):
        from repro.bench import render_bars

        text = render_bars({"big": 1000.0, "tiny": 0.1})
        assert text.splitlines()[1].count("#") == 1

    def test_empty(self):
        from repro.bench import render_bars

        assert render_bars({}) == ""
