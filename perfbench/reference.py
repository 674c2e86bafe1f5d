"""Closed-form copy of the solution table of p^x + p^y = z^(2n).

This is the benchmark's reference for every operation it checks. It never
imports pxpy, so a defect in pxpy.classifier cannot hide behind it:

    n = 1, p = 2:   (2s+3, 2s, 3*2^s), (2s, 2s+3, 3*2^s), (2s+1, 2s+1, 2^(s+1))
    n = 1, p = 3:   (2s+1, 2s, 2*3^s), (2s, 2s+1, 2*3^s)
    n = 1, p > 3:   no solutions
    n > 1, p = 2:   (2s+1, 2s+1, 2^((s+1)/n))  with s = n-1 (mod n)
    n > 1, p >= 3:  no solutions

plus Mihailescu's theorem: 3^2 - 2^3 = 1 is the only a^x - b^y = 1 with
a, b, x, y > 1.
"""

from __future__ import annotations


def is_member(p: int, n: int, x: int, y: int, z: int) -> bool:
    """True iff (x, y, z) lies in one of the table's families for (p, n)."""
    lo, hi = min(x, y), max(x, y)
    if n == 1:
        if p == 2:
            if x == y:
                return x % 2 == 1 and z == 1 << ((x + 1) // 2)
            return hi - lo == 3 and lo % 2 == 0 and z == 3 << (lo // 2)
        if p == 3:
            return hi - lo == 1 and lo % 2 == 0 and z == 2 * 3 ** (lo // 2)
        return False
    if p == 2 and x == y and x % 2 == 1:
        s = (x - 1) // 2
        return s % n == n - 1 and z == 1 << ((s + 1) // n)
    return False


def solutions(p: int, n: int, x_max: int, y_max: int) -> list[tuple[int, int, int]]:
    """Every table triple with x <= x_max and y <= y_max, sorted."""
    found = []
    for s in range(max(x_max, y_max) // 2 + 1):
        if n == 1 and p == 2:
            found += [(2 * s + 3, 2 * s, 3 << s), (2 * s, 2 * s + 3, 3 << s)]
            found.append((2 * s + 1, 2 * s + 1, 1 << (s + 1)))
        elif n == 1 and p == 3:
            found += [(2 * s + 1, 2 * s, 2 * 3**s), (2 * s, 2 * s + 1, 2 * 3**s)]
        elif n > 1 and p == 2 and s % n == n - 1:
            found.append((2 * s + 1, 2 * s + 1, 1 << ((s + 1) // n)))
    return sorted(t for t in found if t[0] <= x_max and t[1] <= y_max)


def family_texts(p: int, n: int) -> list[str]:
    """The families as the CLI spells them, in the table's order."""
    if n == 1 and p == 2:
        return [
            "x=2s+3, y=2s, z=3*2^s, s>=0",
            "x=2s, y=2s+3, z=3*2^s, s>=0",
            "x=2s+1, y=2s+1, z=2^(s+1), s>=0",
        ]
    if n == 1 and p == 3:
        return ["x=2s+1, y=2s, z=2*3^s, s>=0", "x=2s, y=2s+1, z=2*3^s, s>=0"]
    if n > 1 and p == 2:
        return [f"x=2s+1, y=2s+1, z=2^((s+1)/{n}), s>=0, s = {n - 1} (mod {n})"]
    return []


SUMMARY_REGIMES = [
    {"n": "1", "p": "2", "solvable": True, "families": family_texts(2, 1)},
    {"n": "1", "p": "3", "solvable": True, "families": family_texts(3, 1)},
    {"n": "1", "p": "p>3", "solvable": False, "families": []},
    {
        "n": "n>1",
        "p": "2",
        "solvable": True,
        "families": ["x=2s+1, y=2s+1, z=2^((s+1)/n), s>=0, s = n-1 (mod n)"],
    },
    {"n": "n>1", "p": "p>=3", "solvable": False, "families": []},
]


def catalan_solutions(a_max: int, b_max: int, x_max: int, y_max: int) -> list[tuple]:
    """Every (a, b, x, y) in the bounds with a^x - b^y = 1 and all four > 1."""
    if a_max >= 3 and b_max >= 2 and x_max >= 2 and y_max >= 3:
        return [(3, 2, 2, 3)]
    return []
