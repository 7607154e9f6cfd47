"""A-type branes on a flat torus C/(Z + Z*tau), combinatorially.

A morphism from an Azumaya circle is stored as class bookkeeping: a list
of components, each a circle covering the base with some degree, wrapping
a primitive geodesic class some number of times, carrying a Chan-Paton
fiber rank, at an exact offset.  Calibration directions are primitive
lattice vectors p + q*tau, never floating-point angles, so the special
Lagrangian condition and all cycle arithmetic are exact.
"""

from __future__ import annotations

from math import gcd

from .errors import ProfileError
from .orbits import JordanData, orbit_closure_contains
from .scalars import GaussianRational, ZERO


class HomologyClass:
    """A first-homology class (p, q) on the torus."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        self.p = int(p)
        self.q = int(q)

    def __add__(self, other: "HomologyClass") -> "HomologyClass":
        return HomologyClass(self.p + other.p, self.q + other.q)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def primitive(self):
        """(primitive class, positive multiplier); undefined for (0, 0)."""
        if self.is_zero():
            raise ValueError("the zero class has no primitive direction")
        g = gcd(abs(self.p), abs(self.q))
        return HomologyClass(self.p // g, self.q // g), g

    def __eq__(self, other):
        if not isinstance(other, HomologyClass):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return f"({self.p},{self.q})"


def intersection(c1: HomologyClass, c2: HomologyClass) -> int:
    """Algebraic intersection number p1*q2 - p2*q1."""
    return c1.p * c2.q - c2.p * c1.q


class SurrogateClass:
    """A class (r; p, q) of the surrogate curve in the product of the base
    circle with the torus: r is the covering degree over the base."""

    __slots__ = ("r", "p", "q")

    def __init__(self, r: int, p: int, q: int):
        self.r = int(r)
        self.p = int(p)
        self.q = int(q)
        if self.r < 0:
            raise ValueError("covering degree must be nonnegative")

    def projected(self) -> HomologyClass:
        return HomologyClass(self.p, self.q)

    def __add__(self, other: "SurrogateClass") -> "SurrogateClass":
        return SurrogateClass(self.r + other.r, self.p + other.p, self.q + other.q)

    def __eq__(self, other):
        if not isinstance(other, SurrogateClass):
            return NotImplemented
        return (self.r, self.p, self.q) == (other.r, other.p, other.q)

    def __hash__(self):
        return hash((self.r, self.p, self.q))

    def __repr__(self):
        return f"({self.r};{self.p},{self.q})"


class TorusGeometry:
    """The flat torus of modulus tau, im(tau) > 0, with exact offsets."""

    __slots__ = ("tau",)

    def __init__(self, tau):
        tau = GaussianRational.coerce(tau)
        if tau.im <= 0:
            raise ValueError("the modulus must have positive imaginary part")
        self.tau = tau

    def reduce(self, z) -> GaussianRational:
        """Canonical representative of z modulo the lattice Z + Z*tau."""
        z = GaussianRational.coerce(z)
        t = z.im / self.tau.im
        s = z.re - t * self.tau.re
        s, t = s % 1, t % 1
        return GaussianRational(s) + self.tau * GaussianRational(t)

    def __eq__(self, other):
        if not isinstance(other, TorusGeometry):
            return NotImplemented
        return self.tau == other.tau

    def __hash__(self):
        return hash(self.tau)


def direction(c: HomologyClass, g: TorusGeometry) -> GaussianRational:
    """Exact calibration direction of a nonzero class: the primitive
    lattice vector p0 + q0*tau."""
    prim, _ = c.primitive()
    return GaussianRational(prim.p) + g.tau * GaussianRational(prim.q)


class Component:
    """One circle component of an Azumaya-circle morphism."""

    __slots__ = ("d", "wrap", "offset", "fiber_rank")

    def __init__(self, d: int, wrap: HomologyClass, offset=0, fiber_rank: int = 1):
        self.d = int(d)
        if self.d < 1:
            raise ValueError("cover degree must be positive")
        self.wrap = wrap
        self.offset = GaussianRational.coerce(offset)
        self.fiber_rank = int(fiber_rank)
        if self.fiber_rank < 1:
            raise ValueError("fiber rank must be positive")

    def rank(self) -> int:
        return self.d * self.fiber_rank

    def surrogate(self) -> SurrogateClass:
        """Component contribution to the total class; summing these over
        the components gives the morphism's surrogate class."""
        return SurrogateClass(
            self.rank(),
            self.wrap.p * self.fiber_rank,
            self.wrap.q * self.fiber_rank,
        )


class AzCircleMorphism:
    """A morphism from an Azumaya circle to the torus, as component data.

    The total fundamental-module rank over the base circle is the sum of
    d * fiber_rank over the components.  The optional profile is a cyclic
    alternating list of orbit labels (interval, junction, interval, ...),
    validated by `validate_profile`.
    """

    __slots__ = ("geometry", "components", "profile")

    def __init__(self, geometry: TorusGeometry, components, profile=None):
        self.geometry = geometry
        self.components = tuple(components)
        self.profile = None if profile is None else tuple(profile)

    @property
    def rank(self) -> int:
        return sum(c.rank() for c in self.components)

    def with_profile(self, profile) -> "AzCircleMorphism":
        return AzCircleMorphism(self.geometry, self.components, profile)


def total_class(phi: AzCircleMorphism):
    """(surrogate class, projected homology class) of the morphism."""
    sc = sum((c.surrogate() for c in phi.components), SurrogateClass(0, 0, 0))
    return sc, sc.projected()


def is_special_lagrangian(phi: AzCircleMorphism) -> bool:
    """All wrapped components share one primitive direction with consistent
    orientation; point components (zero wrap class) are always allowed."""
    prim = None
    for c in phi.components:
        if c.wrap.is_zero():
            continue
        p0, _ = c.wrap.primitive()
        if prim is None:
            prim = p0
        elif p0 != prim:
            return False
    return True


class WeightedCycle:
    """Image 1-cycle with sheaf-length multiplicities, plus a 0-cycle part.

    Line terms are stored per (primitive class, offset, wraps) with the
    carried total rank; equality is the normalized comparison by
    (primitive class, offset) -> total rank together with the point part,
    so splitting a component into finer pieces with the same totals does
    not change the cycle.
    """

    __slots__ = ("lines", "points")

    def __init__(self, lines, points):
        merged = {}
        for prim, offset, wraps, length in lines:
            key = (prim.p, prim.q, offset.sort_key(), int(wraps))
            prev = merged.get(key)
            merged[key] = (prim, offset, int(wraps), (prev[3] if prev else 0) + int(length))
        self.lines = tuple(
            merged[k] for k in sorted(merged)
        )
        pts = {}
        for pt, length in points:
            key = pt.sort_key()
            pts[key] = (pt, pts.get(key, (pt, 0))[1] + int(length))
        self.points = tuple(pts[k] for k in sorted(pts))

    def _normalized(self):
        lines = {}
        for prim, offset, wraps, length in self.lines:
            key = (prim.p, prim.q, offset.sort_key())
            lines[key] = lines.get(key, 0) + length
        points = {pt.sort_key(): length for pt, length in self.points}
        return lines, points

    def line_part_empty(self) -> bool:
        return not self.lines

    def total_rank(self) -> int:
        return sum(t[3] for t in self.lines) + sum(l for _, l in self.points)

    def __add__(self, other: "WeightedCycle") -> "WeightedCycle":
        return WeightedCycle(self.lines + other.lines, self.points + other.points)

    def __eq__(self, other):
        if not isinstance(other, WeightedCycle):
            return NotImplemented
        return self._normalized() == other._normalized()

    def __hash__(self):
        lines, points = self._normalized()
        return hash((tuple(sorted(lines.items())), tuple(sorted(points.items()))))


def pushforward_cycle(phi: AzCircleMorphism) -> WeightedCycle:
    """Weighted image cycle: each wrapped component contributes its
    primitive geodesic with wrap multiplicity and carried rank d*fiber_rank;
    zero-class components contribute their offset point with their rank."""
    lines = []
    points = []
    for c in phi.components:
        offset = phi.geometry.reduce(c.offset)
        if c.wrap.is_zero():
            points.append((offset, c.rank()))
        else:
            prim, m = c.wrap.primitive()
            lines.append((prim, offset, m, c.rank()))
    return WeightedCycle(lines, points)


def amalgamate(phi1: AzCircleMorphism, phi2: AzCircleMorphism) -> AzCircleMorphism:
    """Direct sum of morphisms: component lists concatenate, ranks add,
    weighted cycles add termwise."""
    if phi1.geometry != phi2.geometry:
        raise ValueError("geometry mismatch: amalgamation needs one torus")
    return AzCircleMorphism(phi1.geometry, phi1.components + phi2.components)


def slag_representative(target: SurrogateClass, g: TorusGeometry) -> AzCircleMorphism:
    """Canonical special Lagrangian morphism in a surrogate class.

    For a nonzero projected class (p, q) with g0 = gcd(r, p, q): g0 equal
    components, each covering the base with degree r/g0 and wrapping the
    class (p/g0, q/g0), fiber rank 1, offset 0.  For projected class
    (0, 0): a single constant-type (point) component of fiber rank r.
    """
    r, p, q = target.r, target.p, target.q
    if r == 0:
        if p or q:
            raise ValueError("a nonzero class needs positive rank")
        return AzCircleMorphism(g, ())
    if p == 0 and q == 0:
        comp = Component(1, HomologyClass(0, 0), ZERO, r)
        return AzCircleMorphism(g, (comp,))
    g0 = gcd(r, abs(p), abs(q))
    comps = tuple(
        Component(r // g0, HomologyClass(p // g0, q // g0), ZERO, 1)
        for _ in range(g0)
    )
    return AzCircleMorphism(g, comps)


def validate_profile(phi: AzCircleMorphism) -> bool:
    """Check the cyclic interval/junction condition on the profile.

    The profile alternates interval and junction labels by position
    (even index interval, odd index junction, cyclically closed), so its
    length is even, or 1 for a constant profile that is its own junction.
    Every junction must lie in the closure of both neighbors, i.e. precede
    them in the orbit order.
    """
    prof = phi.profile
    if prof is None:
        raise ProfileError("no profile attached to the morphism")
    if not all(isinstance(x, JordanData) for x in prof):
        raise ProfileError("profile entries must be orbit labels")
    n = len(prof)
    if n == 0:
        raise ProfileError("empty profile")
    if n == 1:
        return True
    if n % 2 != 0:
        raise ProfileError("profile does not alternate intervals and junctions")
    k = n // 2
    for idx in range(k):
        junction = prof[2 * idx + 1]
        left = prof[2 * idx]
        right = prof[(2 * idx + 2) % n]
        if not orbit_closure_contains(left, junction):
            return False
        if not orbit_closure_contains(right, junction):
            return False
    return True
