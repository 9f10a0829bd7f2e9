"""Tests for the iterative-solver layer."""

import hashlib

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

from repro import SpMVEngine
from repro.errors import ReproError, ValidationError
from repro.fault import Deadline, FaultPlan
from repro.solvers import SolveResult, SolverSession, power_method, solve
from repro.solvers.iterative import _run_bicgstab, _run_gmres
from repro.tuning import TuningPoint


def spd_system(n=150):
    A = sparse.diags(
        [np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)], [-1, 0, 1]
    ).tocsr()
    return A, np.ones(n)


def nonsymmetric_system(n=120, seed=7):
    rng = np.random.default_rng(seed)
    A = sparse.random(n, n, density=0.05, random_state=seed, format="csr")
    A = A + sparse.diags(np.full(n, 10.0))  # well-conditioned
    return A.tocsr(), rng.standard_normal(n)


@pytest.fixture(scope="module")
def engine():
    return SpMVEngine("gtx680")


class TestConjugateGradient:
    def test_solves_spd(self):
        A, b = spd_system()
        res = solve(A, b, method="cg", tol=1e-11)
        assert res.converged
        np.testing.assert_allclose(A @ res.x, b, atol=1e-8)

    def test_history_monotonic_tail(self):
        A, b = spd_system()
        res = solve(A, b, method="cg")
        assert res.history[0] > res.history[-1]
        assert res.residual_norm == res.history[-1]

    def test_counts_spmv_time(self):
        A, b = spd_system()
        res = solve(A, b, method="cg")
        assert res.spmv_count == res.iterations + 1  # +1 initial residual
        assert res.spmv_time_s > 0

    def test_prepared_matrix_reuse(self, engine):
        A, b = spd_system()
        prep = engine.prepare(A, point=TuningPoint())
        res = solve(prep, b, method="cg", engine=engine)
        assert res.converged

    def test_prepared_without_engine_rejected(self, engine):
        A, b = spd_system()
        prep = engine.prepare(A, point=TuningPoint())
        with pytest.raises(ReproError, match="engine"):
            solve(prep, b, method="cg")

    def test_rectangular_rejected(self):
        A = sparse.random(10, 20, density=0.3, random_state=0, format="csr")
        with pytest.raises(ReproError, match="square"):
            solve(A, np.ones(10), method="cg")

    def test_max_iter_reported(self):
        A, b = spd_system()
        res = solve(A, b, method="cg", tol=1e-30, max_iter=3)
        assert not res.converged
        assert res.iterations == 3


class TestCGOperands:
    """CG never writes an array it handed to a multiply, since a
    multiplier may still hold its operand."""

    @pytest.mark.parametrize("start", [None, "given"])
    @pytest.mark.parametrize("backend", ["faithful", "fast"])
    def test_operands_unchanged(self, monkeypatch, backend, start):
        A, b = spd_system()
        x0 = None if start is None else np.linspace(0.0, 1.0, b.shape[0])
        engine = SpMVEngine("gtx680", backend=backend)
        prep = engine.prepare(A, point=TuningPoint())
        plain = solve(prep, b, method="cg", engine=engine, x0=x0)
        handed = []
        multiply = SolverSession.__call__

        def recording(self, v):
            handed.append((v, v.copy()))
            return multiply(self, v)

        monkeypatch.setattr(SolverSession, "__call__", recording)
        res = solve(prep, b, method="cg", engine=engine, x0=x0)
        assert res.converged and len(handed) == res.spmv_count
        for v, copy in handed:
            assert np.array_equal(v, copy)
        assert np.array_equal(res.x, plain.x)
        assert res.history == plain.history


class TestBiCGSTAB:
    def test_solves_nonsymmetric(self):
        A, b = nonsymmetric_system()
        res = solve(A, b, method="bicgstab", tol=1e-11)
        assert res.converged
        np.testing.assert_allclose(A @ res.x, b, atol=1e-7)

    def test_agrees_with_cg_on_spd(self):
        A, b = spd_system()
        x_cg = solve(A, b, method="cg", tol=1e-12).x
        x_bi = solve(A, b, method="bicgstab", tol=1e-12).x
        np.testing.assert_allclose(x_bi, x_cg, atol=1e-8)


def convection_system(n=400):
    """A non-symmetric tridiagonal (1-D convection-diffusion)."""
    A = sparse.diags(
        [np.full(n - 1, -1.3), np.full(n, 2.5), np.full(n - 1, -0.7)], [-1, 0, 1]
    ).tocsr()
    return A, np.linspace(-1.0, 1.0, n)


#: sha256 of each runner's residual history and final ``x`` bytes,
#: recorded when the runners took inner products with ``a @ b``
#: (x86-64, NumPy 2.4 with its bundled OpenBLAS): ``a.dot(b)`` runs the
#: same BLAS dot, so every iterate keeps its bits.  GMRES restarts every
#: 20 iterations, so the convection system exercises restarts.
RUNNER_PINS = {
    ("random", "bicgstab"): (
        "1bd2e0bf2b949e9ee121f8fafd91ca7d6c2a5b38513d396855770c61099d0a4f",
        "7e6dbfd5946d6a745169f535a4ed9a311f5b5b5d7c8695d66a5cf1e3b1e05f1e",
    ),
    ("random", "gmres"): (
        "7719b1d07529766140270d2a91017ca63d07a6ccdf11d1b0bc7b9aa1583e0a6f",
        "fc8738f4e97523ab4f809c34f17f4df253781cb3d84c08105ea71a3ad4733de1",
    ),
    ("convection", "bicgstab"): (
        "32effded94c025ca6422344986d982fa2b88ee4bce9a0b290b9f9ce69113acb8",
        "20caf0ce68a2d299838267b604eed32cdb1ca04dea4c0f992053b95925daa5df",
    ),
    ("convection", "gmres"): (
        "d369850520e079435f952f739fc0521cf46b0d912604dc99f16124dd77dc0e80",
        "085608235df198809e29e5754020eb6e4524a749019d14f8772b2b9292bdb3a0",
    ),
}


@pytest.mark.parametrize("system", ["random", "convection"])
@pytest.mark.parametrize(
    "runner", [_run_bicgstab, _run_gmres], ids=["bicgstab", "gmres"]
)
def test_runner_bits_are_pinned(system, runner):
    A, b = nonsymmetric_system() if system == "random" else convection_system()
    x, converged, *_, history, _, _ = runner(
        lambda v: A @ v, b, None, 1e-10, 300, 20, lambda: False, False
    )
    assert converged
    digests = (
        hashlib.sha256(np.asarray(history, dtype=np.float64).tobytes()).hexdigest(),
        hashlib.sha256(x.tobytes()).hexdigest(),
    )
    name = runner.__name__.removeprefix("_run_")
    assert digests == RUNNER_PINS[system, name]


class TestJacobi:
    def test_solves_diagonally_dominant(self):
        A, b = nonsymmetric_system()
        res = solve(A, b, method="jacobi", tol=1e-11)
        assert res.converged
        np.testing.assert_allclose(A @ res.x, b, atol=1e-7)

    def test_zero_diagonal_rejected(self):
        A = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ReproError, match="diagonal"):
            solve(A, np.ones(2), method="jacobi")


class TestGMRES:
    def test_solves_nonsymmetric(self):
        A, b = nonsymmetric_system()
        res = solve(A, b, method="gmres", tol=1e-11)
        assert res.converged
        np.testing.assert_allclose(A @ res.x, b, atol=1e-7)

    def test_agrees_with_bicgstab(self):
        A, b = nonsymmetric_system()
        x_gm = solve(A, b, method="gmres", tol=1e-12).x
        x_bi = solve(A, b, method="bicgstab", tol=1e-12).x
        np.testing.assert_allclose(x_gm, x_bi, atol=1e-7)

    def test_restart_cycles(self):
        # A restart shorter than the iteration count forces several
        # cycles; each costs one extra SpMV for the true residual.
        A, b = nonsymmetric_system()
        res = solve(A, b, method="gmres", restart=5, tol=1e-11, max_iter=500)
        assert res.converged
        assert res.spmv_count > res.iterations + 1
        np.testing.assert_allclose(A @ res.x, b, atol=1e-7)

    def test_residual_history_per_inner_iteration(self):
        A, b = nonsymmetric_system()
        res = solve(A, b, method="gmres", tol=1e-11)
        assert len(res.history) == res.iterations + 1
        assert res.history[0] > res.history[-1]

    def test_solves_spd_too(self):
        A, b = spd_system()
        x_gm = solve(A, b, method="gmres", tol=1e-12).x
        x_cg = solve(A, b, method="cg", tol=1e-12).x
        np.testing.assert_allclose(x_gm, x_cg, atol=1e-8)


class TestSolveAPI:
    """The redesigned single surface: solve(A, b, method=...)."""

    @pytest.mark.parametrize("method", ["cg", "bicgstab", "gmres", "jacobi"])
    def test_every_method_solves(self, method):
        A, b = nonsymmetric_system() if method != "cg" else spd_system()
        res = solve(A, b, method=method, tol=1e-11)
        assert res.converged
        assert res.method == method
        np.testing.assert_allclose(A @ res.x, b, atol=1e-7)

    def test_unknown_method_rejected(self):
        A, b = spd_system()
        with pytest.raises(ValidationError, match="method"):
            solve(A, b, method="sor")

    def test_wrong_rhs_length_rejected(self):
        A, _ = spd_system()
        with pytest.raises(ValidationError, match="length"):
            solve(A, np.ones(7))

    def test_backend_option_mirrors_engine(self):
        # The backend is an engine option: pass an engine to choose it.
        A, b = spd_system()
        res_fast = solve(A, b, engine=SpMVEngine(backend="fast"))
        res_faithful = solve(A, b)
        assert np.array_equal(res_fast.x, res_faithful.x)

    def test_keep_iterates(self):
        A, b = spd_system()
        res = solve(A, b, method="cg", keep_iterates=True)
        assert len(res.iterates) == res.iterations
        assert np.array_equal(res.iterates[-1], res.x)

    def test_result_protocol(self):
        A, b = spd_system()
        res = solve(A, b, method="cg")
        d = res.to_dict()
        assert d["kind"] == "solve_result"
        assert d["method"] == "cg"
        assert d["converged"] is True
        assert d["iterations"] == res.iterations
        assert d["spmv_retries"] == 0
        assert len(d["history"]) == len(res.history)
        text = res.summary()
        assert "cg" in text and "converged" in text

    def test_deadline_returns_best_so_far(self):
        A, b = spd_system()
        res = solve(A, b, method="cg", deadline=Deadline(0.0))
        assert res.deadline_expired
        assert not res.converged
        assert res.x.shape == b.shape

    def test_deadline_accepts_seconds(self):
        A, b = spd_system()
        res = solve(A, b, method="cg", deadline=30.0)
        assert res.converged
        assert not res.deadline_expired


def faulty_engine() -> SpMVEngine:
    """The permissive engine ``solve`` builds by default, plus one
    transient NaN fault: the first multiply fails once, then recovers."""
    return SpMVEngine(
        policy="permissive",
        fault_plan=FaultPlan.single("kernel.nan_partial", seed=1, count=1),
    )


class TestRetryAccounting:
    """spmv_time_s bills only the successful attempt of each multiply."""

    def test_transient_fault_not_double_billed(self):
        A, b = spd_system()
        clean = solve(A, b, method="cg")
        faulted = solve(A, b, method="cg", engine=faulty_engine())
        assert faulted.spmv_retries == 1
        assert clean.spmv_retries == 0
        # The retried multiply recovered on the tuned path, so the
        # simulated device time must match the clean solve exactly --
        # the failed attempt is reported, never billed.
        assert faulted.spmv_time_s == clean.spmv_time_s
        assert np.array_equal(faulted.x, clean.x)

    def test_retries_surface_in_summary(self):
        A, b = spd_system()
        faulted = solve(A, b, method="cg", engine=faulty_engine())
        assert "1 retries" in faulted.summary()


class TestPowerMethod:
    def test_finds_dominant_eigenvalue(self):
        A, _ = spd_system(100)
        res = power_method(A, tol=1e-10, max_iter=20_000)
        lam_ref = eigsh(A, k=1, which="LA", return_eigenvectors=False)[0]
        assert res.eigenvalue == pytest.approx(lam_ref, rel=1e-4)

    def test_eigenvector_quality(self):
        A, _ = spd_system(100)
        res = power_method(A, tol=1e-10, max_iter=20_000)
        ratio = np.linalg.norm(A @ res.x) / np.linalg.norm(res.x)
        assert ratio == pytest.approx(abs(res.eigenvalue), rel=1e-4)

    def test_one_spmv_per_iteration(self):
        A, _ = spd_system(60)
        res = power_method(A, max_iter=50, tol=0.0)
        assert res.spmv_count == res.iterations + 1
