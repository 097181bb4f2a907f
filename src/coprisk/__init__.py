"""Copula-based dependence estimation for competing-risks durations.

Simulates dependent competing-risks data with Weibull margins, estimates
the conditional joint survival surface and its covariate derivatives with
product kernels, and recovers the Archimedean copula parameter from the
surface's curvature ratio using a covariate exclusion restriction.

Each public name is listed once, in the ``__all__`` of the module that
defines it; the package re-exports those five lists and adds
``__version__``.
"""

from . import copula, data, dgp, estimator, kernel
from .copula import *
from .data import *
from .dgp import *
from .estimator import *
from .kernel import *

__version__ = "0.4.0"

__all__ = ["__version__"]
__all__ += copula.__all__
__all__ += data.__all__
__all__ += dgp.__all__
__all__ += estimator.__all__
__all__ += kernel.__all__
