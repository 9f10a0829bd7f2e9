"""Suite-wide safety net: every Table 2 matrix through the full stack.

Small-scale versions of all 20 matrices run through: BCCOO conversion,
the fast kernel, the faithful Figures 9-12 executor, and scipy -- all
four must agree exactly.  This is the test that catches a regression in
any structural class (dense, FEM, stencil, power-law, wide) at once.
"""

import numpy as np
import pytest

from repro.formats import BCCOOMatrix
from repro.gpu import GTX680
from repro.kernels import YaSpMVConfig, YaSpMVKernel, yaspmv_faithful
from repro.matrices import SUITE, get_spec

KERNEL = YaSpMVKernel()
CFG = YaSpMVConfig(workgroup_size=32, tile_size=4)

NAMES = [s.name for s in SUITE]


@pytest.mark.parametrize("name", NAMES)
def test_full_stack_agreement(name):
    spec = get_spec(name)
    A = spec.load(scale=spec.scale_for_nnz(6_000), seed=99)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(A.shape[1])
    y_ref = A @ x

    fmt = BCCOOMatrix.from_scipy(A, block_height=2, block_width=2)
    assert (fmt.to_scipy() != A).nnz == 0, f"{name}: lossy conversion"

    fast = KERNEL.run(fmt, x, GTX680, config=CFG).y
    np.testing.assert_allclose(fast, y_ref, atol=1e-8, err_msg=name)

    slow = yaspmv_faithful(fmt, x, CFG)
    np.testing.assert_allclose(slow, fast, atol=1e-10, err_msg=name)


@pytest.mark.parametrize("name", ["QCD", "Circuit", "LP", "Webbase"])
def test_tuned_execution_per_class(name):
    """One representative per structural class through the tuned path."""
    from repro import SpMVEngine

    spec = get_spec(name)
    A = spec.load(scale=spec.scale_for_nnz(20_000), seed=5)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(A.shape[1])
    eng = SpMVEngine("gtx680")
    res = eng.multiply(eng.prepare(A), x)
    np.testing.assert_allclose(res.y, A @ x, atol=1e-8, err_msg=name)
