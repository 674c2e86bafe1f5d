"""Complete solution classification for p^x + p^y = z^(2n).

For p prime and n >= 1 the full solution set in non-negative integers is a
short list of one-parameter families in s:

    n = 1, p = 2:   (2s+3, 2s, 3*2^s), (2s, 2s+3, 3*2^s), (2s+1, 2s+1, 2^(s+1))
    n = 1, p = 3:   (2s+1, 2s, 2*3^s), (2s, 2s+1, 2*3^s)
    n = 1, p > 3:   no solutions
    n > 1, p = 2:   (2s+1, 2s+1, 2^((s+1)/n))  with s = n-1 (mod n)
    n > 1, p >= 3:  no solutions

Every family has one shape, x = 2s + a, y = 2s + b, z = c*p^((s+d)/n), valid
for each s >= 0 with n | s + d; the n > 1 family above is (a, b, c, d) =
(1, 1, 1, 1). `classify` returns the families as `SolutionFamily` records,
plain data holding the instance and (a, b, c, d). `instantiate` (the only
evaluator of a family) and `enumerate_solutions` turn them into concrete
triples, `verify` checks a candidate directly against the equation (the
only place it is evaluated), and `trace_candidate` replays the case
analysis behind the classification to explain any verdict. Its `CaseTrace`
is a tuple holding the case, the split z = p^e * k, and a reason code with
its arguments; the prose of a rejection is rendered from `_REASONS` only
when `rejection_reason` is read. The trace never forms w = z^n, and verify
settles a wide candidate with one integer root of p^d + 1 and one product.
InternalInconsistencyError, defined here, reports a result verify refutes.

Every record here is an immutable, hashable tuple of its fields, so it
equals a plain tuple of those values, and a record of another type holding
them: EquationInstance(2, 1) == SearchBox(2, 1). No pxpy container mixes
record types. Everything is pure; values are safe to share across threads.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

from .arithmetic import eval_lhs, integer_root, is_prime, p_adic_valuation

__all__ = [
    "CaseTrace",
    "EquationInstance",
    "InternalInconsistencyError",
    "SolutionFamily",
    "SolutionTriple",
    "classify",
    "enumerate_solutions",
    "instantiate",
    "trace_candidate",
    "verify",
]

# Width in bits up to which an operand counts as short. It bounds verify's
# direct comparison (at 2048 bits within 1.5x of its residue test), the
# width of the p^d + 1 it roots (past it, the odd part of n would need a
# wide Newton step, and forming both sides is cheaper), and the trace's
# n > 1 width test and guided split of z past it.
_NARROW_BITS = 2048
# The prime (2^37 - 1)/223, modulo which 2 has order 37: verify compares
# wider candidates modulo it first. Below 2^30 it is one CPython digit, so a
# wide z is reduced in one linear pass, not by multi-digit long division.
_RESIDUE_MODULUS = 616_318_177


class InternalInconsistencyError(RuntimeError):
    """A computation contradicted a fact the code is built on.

    Raised when an internal cross-check fails, e.g. a bounded search "finds"
    a solution to an equation known to have none. Always indicates an
    implementation bug, never bad user input; the CLI maps it to exit code 3.
    """


class EquationInstance(NamedTuple("EquationInstance", [("p", int), ("n", int)])):
    """One equation p^x + p^y = z^(2n): a prime base p and an exponent n >= 1.

    Stores ints, refusing others (TypeError); equal to any equal tuple, as in
    EquationInstance(2, 1) == SearchBox(2, 1); no pxpy container mixes them.
    """

    __slots__ = ()

    def __new__(cls, p: int, n: int) -> EquationInstance:
        p, n = index(p), index(n)
        if n < 1:
            raise ValueError("n must be >= 1")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        return tuple.__new__(cls, (p, n))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @property
    def power(self) -> int:
        """The exponent z is raised to."""
        return 2 * self.n


class SolutionTriple(NamedTuple("SolutionTriple", [("x", int), ("y", int), ("z", int)])):
    """A candidate (x, y, z); certified for (p, n) iff p^x + p^y = z^(2n).

    Stores ints, refusing others (TypeError); triples order by (x, y, z).
    Equal to any equal tuple, even another record's; no pxpy container mixes them.
    """

    __slots__ = ()

    def __new__(cls, x: int, y: int, z: int) -> SolutionTriple:
        x, y, z = index(x), index(y), index(z)
        if x < 0 or y < 0 or z < 0:
            raise ValueError("x, y, z must be non-negative")
        return tuple.__new__(cls, (x, y, z))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)


class SolutionFamily(NamedTuple):
    """x = 2s + x_offset, y = 2s + y_offset, z = scale * p^((s + shift) / n).

    p and n come from the instance. Every s >= 0 with n | s + shift yields a
    solution; that divisibility is the family's only condition. Equal to
    any equal tuple, even another record's; no pxpy container mixes them.
    """

    instance: EquationInstance
    x_offset: int
    y_offset: int
    scale: int
    shift: int

    def _condition(self) -> str:
        n = self.instance.n
        return f"s = {-self.shift % n} (mod {n})"

    def __str__(self) -> str:
        p, n = self.instance
        exponent = f"(s+{self.shift})" if self.shift else "s"
        if n != 1:
            exponent = f"({exponent}/{n})"
        head = "" if self.scale == 1 else f"{self.scale}*"
        parts = [
            f"x={_double_s(self.x_offset)}",
            f"y={_double_s(self.y_offset)}",
            f"z={head}{p}^{exponent}",
            "s>=0",
        ]
        if n != 1:
            parts.append(self._condition())
        return ", ".join(parts)


def _double_s(offset: int) -> str:
    return f"2s+{offset}" if offset else "2s"


# Every rejection's prose, by reason code. A trace keeps the code and the
# arguments; rejection_reason formats them only when read. Templates name
# only p, n and exponents, never z, w or k, so a rendered reason is as long
# as the exponents it names.
_REASONS = {
    "z_zero": "{0}^x + {0}^y >= 2 while 0^{1} = 0",
    "ngt1_widths": (
        "{0}^x + {0}^y and z^{1} cannot have the same bit length, "
        "so (x, y, w) with w = z^{2} cannot solve the square equation"
    ),
    "ngt1_square": (
        "(x, y, w) with w = z^{0} must solve the square equation, "
        "which rejects it at {1.case_label}: {1.rejection_reason}"
    ),
    "equal_odd_p": "x = y gives 2*{0}^{1} = {2}^2, whose 2-adic valuation is odd for odd p",
    "equal_even_x": (
        "x = y = {0} gives {1}^2 = 2^{2} with an odd exponent, which is not a perfect square"
    ),
    "equal_wrong_root": "x = y = {0} forces {1} = 2^{2}; got another {1}",
    "k2_is_3": "k^2 = 1 + 2 = 3 has no integer solution",
    "valuation_gate": "{0} must equal 2e = {1} where e = v_{2}({3}) = {4}; got {0} = {5}",
    "mihailescu_2": (
        "k^2 - 2^d = 1 with d > 1 forces (k, d) = (3, 3) by "
        "Mihailescu's theorem; got d = {0}, k {1} 3"
    ),
    "k2_is_4": "k^2 = 1 + 3 = 4 forces k = 2; got k != 2",
    "mihailescu_3": "k^2 - 3^d = 1 with d = {0} > 1 has no solution by Mihailescu's theorem",
    "large_p": "1 + {0}^d is never a perfect square for prime {0} > 3",
}


class CaseTrace(NamedTuple):
    """Which case of the analysis accepted or rejected a candidate.

    A trace is a rejection iff it carries a reason_code, a key of _REASONS;
    accepted and verdict derive from that one field, and rejection_reason
    renders the code's template with reason_args each time it is read; past
    the int-to-str digit limit, ints over 2048 bits render in exact hex. e and
    k are set on the x != y paths of the n = 1 analysis, where z = p^e * k
    with p not dividing k. The square equation's trace inside an n > 1
    rejection's reason_args sets e = v_p(w) for w = z^n and leaves k None,
    as k_w = k_z^n is never 2 or 3.

    A trace is an immutable, hashable tuple of its five fields, so it also
    equals a plain tuple of those fields.
    """

    case_label: str
    e: int | None = None
    k: int | None = None
    reason_code: str | None = None
    reason_args: tuple = ()

    @property
    def rejection_reason(self) -> str | None:
        if self.reason_code is None:
            return None
        try:
            return _REASONS[self.reason_code].format(*self.reason_args)
        except ValueError:  # past the int-to-str limit, which is >= 640 digits
            args = [hex(a) if isinstance(a, int) and a.bit_length() > _NARROW_BITS else a
                    for a in self.reason_args]
            return _REASONS[self.reason_code].format(*args)

    @property
    def accepted(self) -> bool:
        return self.reason_code is None

    @property
    def verdict(self) -> str:
        return "accepted" if self.reason_code is None else "rejected"


_PRECASE_Z_ZERO = "Pre-case (z = 0)"


def classify(instance: EquationInstance) -> tuple[SolutionFamily, ...]:
    """The complete solution set of p^x + p^y = z^(2n), as families.

    An empty tuple means the instance has no solutions.
    """
    p, n = instance
    if n == 1 and p == 2:
        rows = ((3, 0, 3, 0), (0, 3, 3, 0), (1, 1, 1, 1))
    elif n == 1 and p == 3:
        rows = ((1, 0, 2, 0), (0, 1, 2, 0))
    elif p == 2:
        rows = ((1, 1, 1, 1),)
    else:
        rows = ()
    return tuple(SolutionFamily(instance, *row) for row in rows)


def instantiate(family: SolutionFamily, s: int) -> SolutionTriple:
    """Evaluate a family at parameter s, certifying the result.

    Raises ValueError when s is negative or n does not divide s + shift.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    instance, x_offset, y_offset, scale, shift = family
    p, n = instance
    exponent, remainder = divmod(s + shift, n)
    if remainder:
        raise ValueError(f"s={s} violates the family condition {family._condition()}")
    triple = SolutionTriple(2 * s + x_offset, 2 * s + y_offset, scale * p**exponent)
    if not verify(instance, triple):
        raise InternalInconsistencyError(
            f"family {family} at s={s} produced {triple.as_tuple()}, which does "
            f"not satisfy {p}^x + {p}^y = z^{2 * n}"
        )
    return triple


def _widths_disagree(p: int, high: int, z: int, power: int) -> bool:
    """True when p^x + p^y and z^power cannot have the same bit length.

    high = max(x, y). The left side lies in [p^high, 2*p^high], so it has
    between high*(bits(p) - 1) + 1 and high*bits(p) + 1 bits; z^power has
    between (bits(z) - 1)*power + 1 and bits(z)*power bits. No power is
    formed.
    """
    p_bits, z_bits = p.bit_length(), z.bit_length()
    return high * (p_bits - 1) >= z_bits * power or (z_bits - 1) * power > high * p_bits + 1


def verify(instance: EquationInstance, triple: SolutionTriple) -> bool:
    """True iff p^x + p^y = z^(2n) holds exactly.

    While p^max(x, y) and z^(2n) both fit in about 2048 bits, both sides
    are formed and compared. A wider candidate must first pass two
    necessary conditions that cost no big power:

    - the bit lengths of the sides can agree: p^h <= p^x + p^y <= 2*p^h for
      h = max(x, y), and 2^((b-1)*2n) <= z^(2n) < 2^(b*2n) for a b-bit z;
    - the sides agree modulo the one-digit prime _RESIDUE_MODULUS (three pows).

    So a non-member, near misses included, almost never forms a big
    integer, and huge exponents with a small z are refused at once. A
    candidate that passes both is settled by its p-adic split. With
    lo = min(x, y) and d = |x - y|, the left side is p^L * c with p not
    dividing c: (L, c) = (lo + 1, 1) for p = 2 and d = 0, else
    (lo, p^d + 1). So the equation holds iff 2n divides L, c = k^(2n) and
    z = p^(L/2n) * k: one root of c, at most 2048 bits, and one product (a
    shift for p = 2), no wider than z as the window has passed. When p^d
    is wider than 2048 bits, both sides are formed instead: eval_lhs shifts
    for p = 2 and factors p^lo * (p^d + 1) otherwise. The answer is exact
    at every size.
    """
    p, n = instance
    x, y, z = triple
    power = 2 * n
    high = x if x > y else y
    p_bits = p.bit_length()
    if high * p_bits > _NARROW_BITS or z.bit_length() * power > _NARROW_BITS:
        if _widths_disagree(p, high, z, power):
            return False
        m = _RESIDUE_MODULUS
        if (pow(p, x, m) + pow(p, y, m) - pow(z, power, m)) % m:
            return False
        lo = x + y - high
        d = high - lo
        if d * p_bits <= _NARROW_BITS:
            v, c = (lo + 1, 1) if p == 2 and d == 0 else (lo, p**d + 1)
            e, remainder = divmod(v, power)
            if remainder:
                return False
            k, exact = integer_root(c, power)
            return exact and z == (k << e if p == 2 else k * p**e)
    return eval_lhs(p, x, y) == z**power


def enumerate_solutions(
    instance: EquationInstance, max_exponent: int, y_max: int | None = None
) -> list[SolutionTriple]:
    """Every solution with x <= max_exponent and y <= y_max.

    y_max defaults to max_exponent. Instantiates the classification's
    families; the result is sorted lexicographically by (x, y, z) and
    duplicate-free. z is not bounded: it is determined by x and y.
    """
    if y_max is None:
        y_max = max_exponent
    if max_exponent < 0 or y_max < 0:
        raise ValueError("max_exponent and y_max must be >= 0")
    found: set[SolutionTriple] = set()
    n = instance.n
    for family in classify(instance):
        s_max = min((max_exponent - family.x_offset) // 2, (y_max - family.y_offset) // 2)
        for s in range(-family.shift % n, s_max + 1, n):
            found.add(instantiate(family, s))
    return sorted(found)


def trace_candidate(instance: EquationInstance, triple: SolutionTriple) -> CaseTrace:
    """Replay the case analysis on a candidate; the verdict matches verify().

    Rejections are verdicts carrying a reason code, never errors. The
    reasons name only p, n and exponents, never z, w or k, so a reason's
    length follows the exponents it names. For n > 1 the trace decides
    from z alone and never forms w = z^n, on an acceptance either.
    """
    p, n = instance
    x, y, z = triple
    if z == 0:
        return CaseTrace(_PRECASE_Z_ZERO, None, None, "z_zero", (p, 2 * n))
    if n == 1:
        return _trace_square(p, x, y, z, 1)

    if z.bit_length() * 2 * n > _NARROW_BITS and _widths_disagree(p, max(x, y), z, 2 * n):
        return CaseTrace(_ngt1_label(p), None, None, "ngt1_widths", (p, 2 * n, n))
    # (x, y, z) solves p^x + p^y = z^(2n) iff (x, y, w) with w = z^n solves
    # the square equation, so reduce to it. Only its Case 1 can accept: Case
    # 1.1 (w = 3*2^s) and its p = 3 analogue (w = 2*3^s) are no n-th powers.
    inner = _trace_square(p, x, y, z, n)
    if inner.accepted:
        return CaseTrace("n>1 Case 1.2")
    return CaseTrace(_ngt1_label(p), None, None, "ngt1_square", (n, inner))


def _ngt1_label(p: int) -> str:
    """The case that rejects an n > 1 candidate: n>1 Case 1, 2.1 or 2.2 by p."""
    if p == 2:
        return "n>1 Case 1"
    return "n>1 Case 2.1" if p == 3 else "n>1 Case 2.2"


# Sub-case -> (its label with x < y, its label with x > y, which is Case 3).
_SUBCASE_LABELS = {
    sub: (f"Case {sub}", f"Case 3({sub})") for sub in ("2.1", "2.2", "2.3", "2.4", "2.5")
}


def _split(z: int, p: int, guess: int) -> tuple[int, int]:
    """(e, k) with z = p^e * k, p not dividing k and z >= 1, by one valuation.

    For odd p and a z wider than 2048 bits that p divides, z is first divided
    by p^guess, the power the caller predicts, if not certainly wider than z:
    an exact quotient q gives e = guess + v_p(q) and q's cofactor with no
    valuation of z, which is near-quadratic for odd p under CPython's division.
    """
    z_bits = z.bit_length()
    if p != 2 and z_bits > _NARROW_BITS and not z % p:
        # p^guess > z, and dividing by it is wasted, once guess*(b - 1) >=
        # bits(z)*t for the b-bit power p^t < 2^30, as log2(p) >= (b - 1)/t.
        t = max(1, 30 // p.bit_length())
        if guess * ((p**t).bit_length() - 1) < z_bits * t:
            quotient, remainder = divmod(z, p**guess)
            if not remainder:
                e, k = p_adic_valuation(quotient, p)
                return e + guess, k
    return p_adic_valuation(z, p)


def _trace_square(p: int, x: int, y: int, z: int, n: int) -> CaseTrace:
    """Case analysis for p^x + p^y = w^2 with w = z^n, z >= 1, never forming w.

    Case 1 holds iff z is a power of 2 with n*(bits(z) - 1) = (x + 1)/2. For
    x != y the exact step is w = p^e * k with p not dividing k: _split takes
    z's split from the power p^(min(x, y) // 2n) the Case 2 gate predicts,
    and e = n*v_p(z). For n > 1, k = k_z^n is never 2 or 3, so every
    sub-case rejects whatever k is, and k is left None. The rejection
    reasons name the root z for n = 1 and w otherwise.
    """
    root_name = "z" if n == 1 else "w"
    if x == y:
        # Case 1: the equation reads 2*p^x = w^2.
        if p != 2:
            return CaseTrace("Case 1", None, None, "equal_odd_p", (p, x, root_name))
        if x % 2 == 0:
            return CaseTrace("Case 1", None, None, "equal_even_x", (x, root_name, x + 1))
        # w == 2^((x+1)/2), tested without forming that power for a huge x
        if z & (z - 1) or n * (z.bit_length() - 1) != (x + 1) // 2:
            return CaseTrace("Case 1", None, None, "equal_wrong_root", (x, root_name, (x + 1) // 2))
        return CaseTrace("Case 1")

    # Cases 2 and 3 mirror each other under the x <-> y swap; analyse with
    # lo < hi and label the swapped orientation as Case 3.
    swapped = x > y
    lo, hi = (y, x) if swapped else (x, y)
    d = hi - lo  # equals hi - 2e whenever the valuation gate below holds
    if p == 2:
        sub = "2.1" if d == 1 else "2.2"
    elif p == 3:
        sub = "2.3" if d == 1 else "2.4"
    else:
        sub = "2.5"
    label = _SUBCASE_LABELS[sub][swapped]

    e, k = _split(z, p, lo // (2 * n))
    if n > 1:
        e, k = n * e, None

    if sub == "2.1":
        return CaseTrace(label, e, k, "k2_is_3")
    if sub == "2.4":
        return CaseTrace(label, e, k, "mihailescu_3", (d,))
    if sub == "2.5":
        return CaseTrace(label, e, k, "large_p", (p,))
    # Cases 2.2 and 2.3 hold only if the smaller exponent is 2e.
    if lo != 2 * e:
        small_name = "y" if swapped else "x"
        return CaseTrace(label, e, k, "valuation_gate", (small_name, 2 * e, p, root_name, e, lo))
    if sub == "2.2":
        if k != 3 or d != 3:
            return CaseTrace(label, e, k, "mihailescu_2", (d, "=" if k == 3 else "!="))
    elif k != 2:
        return CaseTrace(label, e, k, "k2_is_4")
    return CaseTrace(label, e, k)
