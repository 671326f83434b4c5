"""Numerical verification of the cos(2y) log-power integral identities.

Each identity is evaluated by up to four independent routes (definite
integral, Hurwitz-zeta closed form, alternating series, Hankel-contour
integral) and the pairwise residuals are reported.  The package re-exports
the __all__ of each library module.
"""

from .complexfn import *
from .hurwitz import *
from .quad import *
from .identities import *

__version__ = "0.1.0"
