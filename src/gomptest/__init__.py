"""Goodness-of-fit testing for the composite Gompertz hypothesis.

The package fits GO(eta, b) by maximum likelihood, forms a
characterisation-based statistic on the rescaled data plus the classical
EDF statistics, calibrates them by parametric bootstrap, and wraps the
whole thing in a Monte-Carlo power-study harness and a command line tool.

Each module's __all__ is its public API; the package re-exports them all.
"""

from . import (
    bootstrap,
    distributions,
    edf_tests,
    estimation,
    lifetable,
    simulation,
    stein_statistic,
)
from .distributions import *
from .estimation import *
from .stein_statistic import *
from .edf_tests import *
from .bootstrap import *
from .lifetable import *
from .simulation import *

__all__ = [
    *distributions.__all__,
    *estimation.__all__,
    *stein_statistic.__all__,
    *edf_tests.__all__,
    *bootstrap.__all__,
    *lifetable.__all__,
    *simulation.__all__,
]

__version__ = "0.1.0"
