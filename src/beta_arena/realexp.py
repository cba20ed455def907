"""Greedy expansions in a real base b > 1 and their cylinder structure.

A point x in [0,1) has greedy digits d_j = floor(b T^(j-1) x) under the map
T x = b x - floor(b x).  A digit block is admissible when every suffix is
lexicographically at most the quasi-greedy expansion c of 1; Parry's
automaton decides this with one integer of state, the length of the tight
prefix of c, so a depth-first walk lists the admissible blocks of length n
with one table lookup per node, carrying cylinder endpoints along.  The set of
points whose first k digits form a given block is an interval whose exact
endpoints this module computes.  Orbits of algebraic bases routinely hit cell
boundaries head on, so every internal expansion snaps floors inside the
tolerance band instead of trusting the last bits of a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .numeric import DEFAULT_TOL, DigitKernel, Tolerance, nudge_mode, tol_floor

Block = tuple[int, ...]


@dataclass(frozen=True)
class CylinderInterval:
    """Half-open interval [lo, hi) of points sharing a fixed digit prefix.

    block has length k and ends with the targeted digit; full_length records
    whether hi - lo equals b**-k up to tolerance.
    """

    block: Block
    lo: float
    hi: float
    full_length: bool


class RealBase:
    """A real base b > 1 together with its derived expansion data.

    Exposes the digit alphabet bound, the quasi-greedy expansion of 1, the
    terminating-index / zero-run pair of the expansion of b - floor(b), and
    the admissibility and cylinder machinery built on them.
    """

    def __init__(self, b: float, depth: int = 256, tol: Tolerance = DEFAULT_TOL):
        if not 1.0 < b < math.inf:
            raise ValueError("base must be finite and exceed 1")
        if depth < 8:
            raise ValueError("depth too small to be useful")
        self.b = float(b)
        self.depth = int(depth)
        self.tol = tol
        self.is_integer = abs(self.b - round(self.b)) <= tol.eps_cmp
        self.kernel = DigitKernel(((self.b,),), (0.0,), (1.0,), tol)
        # digit alphabet is {0, ..., s_b}, the digits the kernel can produce
        self.s_b = self.kernel.hi[0]
        self._one = self._greedy_orbit(1.0, depth, allow_first_overflow=True)
        self.c_digits = self._quasi_greedy_from_one()
        self.d_prime = min(self.c_digits)
        self.i_b, self.K_b, self.iK_determined = self._compute_iK()

    # -- construction helpers -------------------------------------------------

    def _greedy_orbit(self, x0: float, n: int, allow_first_overflow: bool = False):
        """Greedy digits of x0, snapping at boundaries; returns (digits, terminated).

        This loop does not go through DigitKernel.step.  The orbit of 1 takes
        a first digit past the alphabet, which the kernel's range check
        refuses, and stepping through the kernel made a build about twice as
        slow: 0.9-1.6 ms against 0.4-0.6 ms per RealBase for b = 1.7234,
        2.4567, 2.5 (two-vCPU Xeon, Python 3.11).  perfbench's `tables`
        workload builds a RealBase for every block and cylinder table.
        """
        digits: list[int] = []
        y = float(x0)
        for step in range(n):
            if y == 0.0:
                return digits, True
            t = self.b * y
            d = tol_floor(t, self.tol, nudge=True)
            hi = self.s_b if not (step == 0 and allow_first_overflow) else int(self.b) + 1
            if not 0 <= d <= hi:  # a snap may not leave the digit range
                d = math.floor(t)
            if not 0 <= d <= hi:
                raise ValueError(f"digit {d} out of range; orbit left [0,1)")
            y = t - d
            if abs(y) <= self.tol.eps_floor:
                y = 0.0
            digits.append(d)
        return digits, False

    def _quasi_greedy_from_one(self) -> list[int]:
        digits, terminated = self._one
        if not terminated:
            return list(digits)
        # finite expansion d_1..d_m of 1: decrement the last digit and cycle
        period = list(digits)
        period[-1] -= 1
        out: list[int] = []
        while len(out) < self.depth:
            out.extend(period)
        return out[: self.depth]

    def _compute_iK(self) -> tuple[int | None, int, bool]:
        frac = self.b - int(self.b) if not self.is_integer else 0.0
        if frac == 0.0:
            return 0, 0, True
        digits, terminated = self._greedy_orbit(frac, self.depth)
        if terminated:
            nz = [idx for idx, d in enumerate(digits, start=1) if d != 0]
            i_b = nz[-1] if nz else 0
            head = digits[:i_b]
        else:
            i_b = None
            head = digits
        K = run = 0
        for d in head:
            run = run + 1 if d == 0 else 0
            K = max(K, run)
        return i_b, K, terminated

    # -- digit maps -----------------------------------------------------------

    def digits(self, x: float, n: int, on_ambiguous: str = "error") -> list[int]:
        """First n greedy digits of x in [0,1).

        on_ambiguous is "error" (raise when b T^j x sits within eps_floor of
        an integer) or "nudge" (snap to that integer and continue).
        """
        if not 0.0 <= x < 1.0:
            raise ValueError("x must lie in [0,1)")
        return [d for (d,) in self.kernel.expand([float(x)], n, nudge_mode(on_ambiguous))]

    def value(self, block: Sequence[int]) -> float:
        """Value of a digit block: sum of block[i] * b**-(i+1), by Horner."""
        acc = 0.0
        for d in reversed(block):
            acc = (acc + d) / self.b
        return acc

    def quasi_greedy(self, depth: int | None = None) -> list[int]:
        depth = self.depth if depth is None else depth
        if depth > self.depth:
            raise ValueError("requested depth exceeds the precomputed expansion")
        return self.c_digits[:depth]

    # -- admissibility --------------------------------------------------------

    def _automaton(self, n: int) -> list[list[int]]:
        """Parry's automaton for blocks of length at most n, built in O(n s_b).

        State s is the length of the longest suffix read so far that is a
        prefix of c = c_digits; digit d may follow iff d < len(nxt[s]), and
        leads to state nxt[s][d].  Each link t of the KMP failure chain
        s, f(s), ..., 0 bounds d by c[t]: for a shift-maximal c only t = s
        binds (Parry's rule), and the chain keeps the test exact for any c.
        """
        if n > self.depth:
            raise ValueError("block longer than the precomputed expansion depth")
        c = self.c_digits
        try:  # row 0 lists the whole alphabet; from b of about 1e18 on no list is that long
            first = [0] * (self.s_b + 1) if n else []
        except (OverflowError, MemoryError):
            raise ValueError(f"base {self.b!r}: an alphabet of {self.s_b + 1:.3g} "
                             "digits is too large to tabulate") from None
        fail = [0] * (n + 1)  # fail[s]: longest proper border of c[:s]
        for s in range(1, n):
            t = fail[s]
            while t and c[t] != c[s]:
                t = fail[t]
            fail[s + 1] = t + (c[t] == c[s])
        nxt: list[list[int]] = []
        for s in range(n):
            row = (nxt[fail[s]] if s else first)[: c[s] + 1]
            if c[s] < len(row):
                row[c[s]] = s + 1
            nxt.append(row)
        return nxt

    def _walk(self, n: int) -> list[tuple[Block, float, float, float]]:
        """Admissible blocks of length n in increasing lexicographic order,
        found depth first, each with the state (prefix, scale, hi) that
        cylinder_interval reaches after it by the same float operations."""
        nxt = self._automaton(n)
        out: list[tuple[Block, float, float, float]] = []

        def extend(w: Block, s: int, prefix: float, scale: float, hi: float) -> None:
            if len(w) == n:
                out.append((w, prefix, scale, hi))
                return
            scale /= self.b
            for d, t in enumerate(nxt[s]):
                p = prefix + d * scale
                extend(w + (d,), t, p, scale, min(hi, p + scale))

        extend((), 0, 0.0, 1.0, 1.0)
        return out

    def is_admissible(self, block: Sequence[int]) -> bool:
        """True when every suffix of the block is lexicographically at most
        the quasi-greedy expansion of 1 truncated to the suffix length; one
        O(n) pass of the automaton."""
        nxt = self._automaton(len(block))
        s = 0
        for d in block:
            if not 0 <= d < len(nxt[s]):
                return False
            s = nxt[s][d]
        return True

    def enumerate_admissible(self, n: int) -> list[Block]:
        """All admissible blocks of length n, in increasing lexicographic order."""
        if n < 0:
            raise ValueError("length must be nonnegative")
        return [w for w, *_ in self._walk(n)]

    def in_E(self, block: Sequence[int], d: int) -> bool:
        """Whether appending d to the block yields a shortened cylinder.

        The block lies in the exceptional set when some suffix, extended by
        d + 1, has value exceeding 1.
        """
        if d < 0 or d > self.d_prime:
            raise ValueError(f"digit {d} exceeds the minimal quasi-greedy digit {self.d_prime}")
        w = tuple(block)
        if not self.is_admissible(w):
            raise ValueError("block is not admissible")
        top = self.value(w) + self.b ** (-(len(w) + 1))
        prefix = 0.0
        scale = 1.0
        for j in range(len(w)):
            # suffix value > 1 iff the full value exceeds prefix_j + b**-j
            if top > prefix + scale + self.tol.eps_cmp:
                return True
            scale /= self.b
            prefix += w[j] * scale
        return False

    # -- cylinder intervals ---------------------------------------------------

    def cylinder_interval(self, block: Sequence[int]) -> tuple[float, float]:
        """Exact endpoints of the set of x whose first digits form the block.

        The set is the intersection over prefixes p_j of [v_j, v_j + b**-j)
        where v_j is the prefix value, so the upper endpoint is the smallest
        v_j + b**-j, capped at 1.
        """
        w = tuple(block)
        lo = self.value(w)
        hi = 1.0
        prefix = 0.0
        scale = 1.0
        for d in w:
            scale /= self.b
            prefix += d * scale
            hi = min(hi, prefix + scale)
        return lo, hi

    def cylinder_intervals(self, d: int, k: int) -> list[CylinderInterval]:
        """Cylinder decomposition of the set whose k-th digit equals d.

        One interval per admissible (k-1)-block, ordered by left endpoint.
        """
        if k < 2:
            raise ValueError("k must be at least 2")
        if d < 0 or d > self.d_prime:
            raise ValueError(f"digit {d} exceeds the minimal quasi-greedy digit {self.d_prime}")
        bk = self.b ** (-k)
        out: list[CylinderInterval] = []
        for blk, prefix, scale, hi in self._walk(k - 1):
            # the last step of cylinder_interval, for the appended digit d
            w, scale = blk + (d,), scale / self.b
            lo, hi = self.value(w), min(hi, prefix + d * scale + scale)
            out.append(CylinderInterval(w, lo, hi, hi - lo >= bk - self.tol.eps_cmp))
        return out

