"""Pytest plugin: the ``fast`` backend's cores take NumPy products.

Load it with ``-p tests.backends.numpy_products``.  It marks SciPy's
fused product as inexact before any test runs, so every core built in
the session multiplies in NumPy and runs its SciPy passes with unit
data: the path ``fast`` takes on a SciPy build whose CSR product
contracts the multiply-add into an FMA.  The file is not collected as
tests.
"""

from repro.backends import fast


def pytest_configure(config):
    fast._FUSED_EXACT = False
