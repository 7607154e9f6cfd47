"""What a workload is made of: operations, their checks, and conversions
from the library's public value types to the benchmark's own ones."""

from __future__ import annotations

from exact import GQ


class CheckError(AssertionError):
    """An output disagrees with the benchmark's independent computation."""


def expect(cond, message: str):
    if not cond:
        raise CheckError(message)


class Op:
    """One timed call into the library.

    `fn()` makes the call, building its inputs from plain data so that no
    library object is reused between repeats. `check(out)` raises
    CheckError when the output is wrong. A `known_fault` operation hits a
    fault of the program that the benchmark keeps on purpose: its failed
    check counts it as failed, not as a wrong output.
    """

    __slots__ = ("kind", "fn", "check", "known_fault")

    def __init__(self, kind: str, fn, check, known_fault: bool = False):
        self.kind = kind
        self.fn = fn
        self.check = check
        self.known_fault = known_fault


# ---------------------------------------------------------------------------
# library values -> the benchmark's own representation (public attributes only)


def scal(x) -> GQ:
    return GQ(x.re, x.im)


def upoly(p):
    return [scal(c) for c in p.coeffs]


def mpoly(f):
    return {tuple(e): scal(c) for e, c in f.terms.items()}


def point_key(pt):
    """Sort key (re, im per coordinate) of a point given as library scalars."""
    return tuple(scal(x).key() for x in pt)
