"""Exact solver and verifier for the Diophantine equation p^x + p^y = z^(2n).

The package exports exactly the union of its modules' __all__ lists.
"""

from . import arithmetic, catalan, classifier, oracle
from .arithmetic import *
from .catalan import *
from .classifier import *
from .oracle import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (arithmetic, catalan, classifier, oracle)
    for name in module.__all__
]
