"""Exact solver and verifier for the Diophantine equation p^x + p^y = z^(2n)."""

from .arithmetic import (
    DETERMINISTIC_PRIMALITY_BOUND,
    RootResult,
    eval_lhs,
    integer_root,
    is_prime,
    p_adic_valuation,
)
from .catalan import (
    CatalanInstance,
    lemma2_no_solutions,
    search_catalan,
)
from .classifier import (
    CaseTrace,
    EquationInstance,
    SolutionFamily,
    SolutionTriple,
    classify,
    enumerate_solutions,
    instantiate,
    trace_candidate,
    verify,
)
from .errors import DigitCapExceededError, InternalInconsistencyError
from .oracle import (
    CrossCheckResult,
    SearchBox,
    SearchReport,
    brute_force,
    cross_check,
)

__version__ = "0.1.0"

__all__ = [
    "DETERMINISTIC_PRIMALITY_BOUND",
    "CaseTrace",
    "CatalanInstance",
    "CrossCheckResult",
    "DigitCapExceededError",
    "EquationInstance",
    "InternalInconsistencyError",
    "RootResult",
    "SearchBox",
    "SearchReport",
    "SolutionFamily",
    "SolutionTriple",
    "brute_force",
    "classify",
    "cross_check",
    "enumerate_solutions",
    "eval_lhs",
    "instantiate",
    "integer_root",
    "is_prime",
    "lemma2_no_solutions",
    "p_adic_valuation",
    "search_catalan",
    "trace_candidate",
    "verify",
]
