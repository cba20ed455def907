"""Greedy expansions in a real base b > 1 and their cylinder structure.

A point x in [0,1) has greedy digits d_j = floor(b T^(j-1) x) under the map
T x = b x - floor(b x).  A digit block is admissible when every suffix is
lexicographically at most the quasi-greedy expansion c of 1; Parry's
automaton decides this with one integer of state, the length of the tight
prefix of c, so extending blocks one digit at a time lists the admissible
blocks of length n with one table lookup per node.  The set of points whose
first k digits form a given block is an interval whose exact endpoints this
module computes.  Orbits of algebraic bases routinely hit cell boundaries
head on, so every internal expansion snaps floors inside the ambiguity band
instead of trusting the last bits of a double.
"""

from __future__ import annotations

import math
from typing import Sequence

from .numeric import _BAND, EPS_CMP, EPS_FLOOR, DigitKernel, FrozenRecord, nudge_mode, tol_floor

Block = tuple[int, ...]

# digits of the expansions of 1 and of b - floor(b) kept, and so the longest
# block the automaton takes
DEPTH = 256

# most digits an alphabet may have for Parry's automaton to be built; the
# CLI's grids take as many points
MAX_ALPHABET = 10 ** 6


class CylinderInterval(FrozenRecord):
    """Half-open interval [lo, hi) of points sharing a fixed digit prefix.

    block has length k and ends with the targeted digit; full_length records
    whether hi - lo equals b**-k up to EPS_CMP.
    """

    __slots__ = ("block", "lo", "hi", "full_length")

    def __init__(self, block: Block, lo: float, hi: float, full_length: bool):
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "full_length", full_length)


class RealBase:
    """A real base b > 1 together with its derived expansion data.

    Exposes the digit alphabet bound, the quasi-greedy expansion of 1, the
    terminating-index / zero-run pair of the expansion of b - floor(b), and
    the admissibility and cylinder machinery built on them.
    """

    def __init__(self, b: float):
        if not 1.0 < b < math.inf:
            raise ValueError("base must be finite and exceed 1")
        self.b = float(b)
        self.depth = DEPTH
        self.is_integer = abs(self.b - round(self.b)) <= EPS_CMP
        self.kernel = DigitKernel(((self.b,),), (0.0,), (1.0,))
        # digit alphabet is {0, ..., s_b}, the digits the kernel can produce
        self.s_b = self.kernel.hi[0]
        self._one = self._greedy_orbit(1.0, DEPTH, allow_first_overflow=True)
        self.c_digits = self._quasi_greedy_from_one()
        self.d_prime = min(self.c_digits)
        self.i_b, self.K_b, self.iK_determined = self._compute_iK()

    # -- construction helpers -------------------------------------------------

    def _greedy_orbit(self, x0: float, n: int, allow_first_overflow: bool = False):
        """Greedy digits of x0, snapping at boundaries; returns (digits, terminated).

        t = b y is floored directly unless it lies within _BAND of an
        integer, where tol_floor snaps it; outside the band tol_floor's digit
        is floor(t), as in DigitKernel.step.  The loop does not go through
        the kernel: the orbit of 1 takes a first digit past the alphabet,
        which the kernel's range check refuses.  A build takes 0.19-0.30 ms
        for b = 1.7234, 2.4567, 2.5, against 0.34-0.69 ms when every digit
        went through tol_floor (two-vCPU Xeon, Python 3.11); perfbench's
        `tables` workload builds a RealBase for every block and cylinder table.
        """
        digits: list[int] = []
        y = float(x0)
        for step in range(n):
            if y == 0.0:
                return digits, True
            t = self.b * y
            d = math.floor(t)
            if not _BAND < t - d < 1.0 - _BAND:
                d = tol_floor(t, nudge=True)
            hi = self.s_b if not (step == 0 and allow_first_overflow) else int(self.b) + 1
            if not 0 <= d <= hi:  # a snap may not leave the digit range
                d = math.floor(t)
            if not 0 <= d <= hi:
                raise ValueError(f"digit {d} out of range; orbit left [0,1)")
            y = t - d
            if abs(y) <= EPS_FLOOR:
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
        while len(out) < DEPTH:
            out.extend(period)
        return out[:DEPTH]

    def _compute_iK(self) -> tuple[int | None, int, bool]:
        frac = self.b - int(self.b) if not self.is_integer else 0.0
        if frac == 0.0:
            return 0, 0, True
        digits, terminated = self._greedy_orbit(frac, DEPTH)
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

        on_ambiguous is "error" (raise when b T^j x sits within EPS_FLOOR of
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

    # -- admissibility --------------------------------------------------------

    def _automaton(self, n: int) -> list[list[int]]:
        """Parry's automaton for blocks of length at most n, built in O(n s_b).

        State s is the length of the longest suffix read so far that is a
        prefix of c = c_digits; digit d may follow iff d < len(nxt[s]), and
        leads to state nxt[s][d].  Each link t of the KMP failure chain
        s, f(s), ..., 0 bounds d by c[t]: for a shift-maximal c only t = s
        binds (Parry's rule), and the chain keeps the test exact for any c.
        Refused for an alphabet of more than MAX_ALPHABET digits, whose row 0
        alone would take gigabytes from b of about 1e7 on.
        """
        if n and self.s_b >= MAX_ALPHABET:
            raise ValueError(f"base {self.b!r}: an alphabet of {self.s_b + 1:.3g} "
                             "digits is too large to tabulate")
        if n > DEPTH:
            raise ValueError("block longer than the precomputed expansion depth")
        c = self.c_digits
        first = [0] * (self.s_b + 1) if n else []  # row 0 lists the whole alphabet
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

    def _walk(self, n: int) -> list[Block]:
        """Admissible blocks of length n in increasing lexicographic order,
        extended one digit at a time: each level lists its blocks in that
        order, each block's children in order of their last digit."""
        nxt = self._automaton(n)
        level: list[tuple[Block, int]] = [((), 0)]  # (block, automaton state)
        for _ in range(n):
            level = [(w + (d,), t) for w, s in level for d, t in enumerate(nxt[s])]
        return [w for w, _ in level]

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
        return self._walk(n)

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
            if top > prefix + scale + EPS_CMP:
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

    def check_target(self, d: int, k: int) -> None:
        """Refuse a k-th digit d that the cylinder decompositions do not take."""
        if k < 2:
            raise ValueError("k must be at least 2")
        if d < 0 or d > self.d_prime:
            raise ValueError(f"digit {d} exceeds the minimal quasi-greedy digit {self.d_prime}")

    def cylinder_intervals(self, d: int, k: int) -> list[CylinderInterval]:
        """Cylinder decomposition of the set whose k-th digit equals d.

        One interval per admissible (k-1)-block, ordered by left endpoint.
        """
        self.check_target(d, k)
        bk = self.b ** (-k)
        out: list[CylinderInterval] = []
        for blk in self._walk(k - 1):
            w = blk + (d,)
            lo, hi = self.cylinder_interval(w)
            out.append(CylinderInterval(w, lo, hi, hi - lo >= bk - EPS_CMP))
        return out

    def nearest_full_cylinder(self, x: float, d: int, k: int) -> float | None:
        """Center of the full-length level-k cylinder with k-th digit d nearest
        to x, the first in lexicographic order on a tie: the center np.argmin
        picks over cylinder_intervals(d, k).  None when there is none.

        Descends the automaton to the (k-1)-block whose cylinder holds x, then
        steps through its lexicographic neighbours to the first full cylinder
        on each side of x (centers rise with the block): O(k s_b) work, not
        s_b^(k-1).  Distances are |c - x|, the Euclidean norm of a 1-vector
        unless (c - x)^2 underflows."""
        self.check_target(d, k)
        nxt, bk = self._automaton(k - 1), self.b ** (-k)
        w, states, prefix, scale = [], [0], 0.0, 1.0
        for _ in range(k - 1):  # need not be exact: the scans keep what they pass
            scale /= self.b
            e = min(len(nxt[states[-1]]) - 1, max(0, math.floor((x - prefix) / scale)))
            prefix += e * scale
            w.append(e)
            states.append(nxt[states[-1]][e])

        def scan(blk: list[int], sts: list[int], up: bool) -> list[float]:
            """Full centers from blk on through its successors (up) or predecessors
            (tails refilled least or greatest) to the first beyond x that way."""
            found, step = [], 1 if up else -1
            while True:
                lo, hi = self.cylinder_interval(blk + [d])
                if hi - lo >= bk - EPS_CMP:
                    found.append(0.5 * (lo + hi))
                    if (found[-1] > x) == up:
                        return found
                i = len(blk) - 1
                while i >= 0 and not 0 <= blk[i] + step < len(nxt[sts[i]]):
                    i -= 1
                if i < 0:
                    return found
                blk[i] += step
                for j in range(i, len(blk)):
                    if j > i:
                        blk[j] = 0 if up else len(nxt[sts[j]]) - 1
                    sts[j + 1] = nxt[sts[j]][blk[j]]

        cands = scan(w[:], states[:], False)[::-1] + scan(w, states, True)
        return min(cands, key=lambda c: abs(c - x), default=None)
