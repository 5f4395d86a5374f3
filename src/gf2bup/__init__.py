"""Divisor-sum arithmetic over GF(2)[x] and the exhaustive search for
indecomposable bi-unitary perfect polynomials with Mersenne odd part."""

# Each module's __all__ is the one list of its public names.
from .gf2poly import *
from .factor import *
from .divisor_sums import *
from .mersenne import *
from .bup_search import *

__version__ = "0.1.0"
