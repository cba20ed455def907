"""Greedy expansions in a real base b > 1 and their cylinder structure.

A point x in [0,1) has greedy digits d_j = floor(b T^(j-1) x) under the map
T x = b x - floor(b x).  A digit block is admissible when every suffix is
lexicographically at most the quasi-greedy expansion c of 1; Parry's
automaton decides this with one integer of state, the length of the tight
prefix of c, so extending blocks one digit at a time lists the admissible
blocks of length n with one table lookup per node; each walk first turns
the automaton's rows into (one-digit block, next state) pairs, so a node
extends its block by one tuple concatenation.  The set of points whose
first k digits form a given block is an interval whose exact endpoints this
module computes; a level-k cylinder decomposition carries each block's
forward endpoint sums down that same walk, one step per node; in_E (Parry's
exceptional set E) is its full-length test negated.  Orbits of algebraic
bases routinely hit cell boundaries head on, so every internal expansion,
the orbits of 1 and of b - floor(b) too, snaps floors inside the ambiguity
band by the kernel's rule (numeric._snap) instead of trusting the last bits
of a double.  A base builds the orbit of 1 at once and the orbit of
b - floor(b) on the first read of the tail data it gives, which only the
winning window needs.  The real winning threshold and (n, k) window close
the module.
"""

from __future__ import annotations

import math
from typing import Sequence

from .numeric import _BAND, EPS_CMP, DigitKernel, FrozenRecord, _snap, nudge_mode

Block = tuple[int, ...]

# digits of the expansions of 1 and of b - floor(b) kept, and so the longest
# block the automaton takes
DEPTH = 256

# most digits an alphabet may have for Parry's automaton to be built, most
# blocks a listing may hold, most digits `expand` writes and most grid points
MAX_ALPHABET = MAX_BLOCKS = 10 ** 6


class CylinderInterval(FrozenRecord):
    """Half-open interval [lo, hi) of points sharing a fixed digit prefix.

    block has length k and ends with the targeted digit; full_length records
    whether hi - lo equals b**-k up to EPS_CMP.
    """

    __slots__ = ("block", "lo", "hi", "full_length")

    def __init__(self, block: Block, lo: float, hi: float, full_length: bool):
        set_block, set_lo, set_hi, set_full_length = self._setters
        set_block(self, block)
        set_lo(self, lo)
        set_hi(self, hi)
        set_full_length(self, full_length)


class RealBase:
    """A real base b > 1 together with its derived expansion data.

    Exposes the digit alphabet bound, the quasi-greedy expansion of 1, the
    terminating-index / zero-run pair of the expansion of b - floor(b), and
    the admissibility and cylinder machinery built on them.  That tail data
    (i_b, K_b, iK_determined) is computed on the first read of any of the
    three, so a base built for block listings and cylinder tables never runs
    the orbit of b - floor(b); the walks extend blocks from rows built once
    per walk.
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

    def __getattr__(self, name: str):
        """Compute the tail data i_b, K_b and iK_determined together on the
        first read of any of them, and store all three on the instance; only
        the winning window reads them, so a build for a table skips the orbit
        of b - floor(b)."""
        if name in ("i_b", "K_b", "iK_determined"):
            self.i_b, self.K_b, self.iK_determined = self._compute_iK()
            return vars(self)[name]
        raise AttributeError(f"'{type(self).__name__}' object has no attribute '{name}'",
                             name=name, obj=self)

    # -- construction helpers -------------------------------------------------

    def _greedy_orbit(self, x0: float, n: int, allow_first_overflow: bool = False):
        """Greedy digits of x0, snapping at boundaries; returns (digits, terminated).

        t = b y is floored directly unless it lies within _BAND of an
        integer, where numeric._snap, the digit kernel's own rule, decides
        the digit and puts a remainder within EPS_FLOOR of 0 exactly on 0.
        Outside the band floor(b y) is at most s_b, as b y < b <= s_b + 1 +
        EPS_CMP.  The loop does not go through the kernel: the orbit of 1
        takes a first digit past the alphabet, which the kernel's range
        check refuses, and it stops at y == 0.  The orbits of 1 and of
        b - floor(b) take 0.19-0.30 ms together for b = 1.7234, 2.4567, 2.5,
        against 0.34-0.69 ms when every digit went through tol_floor
        (two-vCPU Xeon, Python 3.11); perfbench's `tables` workload builds a
        RealBase for every block and cylinder table, which runs the orbit of
        1 only.
        """
        digits: list[int] = []
        y = float(x0)
        for step in range(n):
            if y == 0.0:
                return digits, True
            t = self.b * y
            d = math.floor(t)
            if _BAND < t - d < 1.0 - _BAND:
                y = t - d
            else:
                hi = self.s_b if not (step == 0 and allow_first_overflow) else int(self.b) + 1
                d, y = _snap(t, t, d, 0.0, 0, hi, True)
            digits.append(d)
        return digits, False

    def _quasi_greedy_from_one(self) -> list[int]:
        digits, terminated = self._one
        if not terminated:
            return list(digits)
        # finite expansion d_1..d_m of 1: decrement the last digit and cycle
        period = list(digits)
        period[-1] -= 1
        return (period * (DEPTH // len(period) + 1))[:DEPTH]

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
        """First n greedy digits of x in [0,1), ints straight from the kernel.

        on_ambiguous is "error" (raise when b T^j x sits within EPS_FLOOR of
        an integer) or "nudge" (snap to that integer and continue).
        """
        if not 0.0 <= x < 1.0:
            raise ValueError("x must lie in [0,1)")
        return self.kernel.expand([float(x)], n, nudge_mode(on_ambiguous))

    def value(self, block: Sequence[int]) -> float:
        """Value of a digit block: sum of block[i] * b**-(i+1), by Horner."""
        acc, b = 0.0, self.b
        for d in reversed(block):
            acc = (acc + d) / b
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

    def _refuse_many(self, nxt: list[list[int]], n: int) -> None:
        """Refuse to list more than MAX_BLOCKS admissible n-blocks: count the
        blocks ending in each automaton state, one length at a time."""
        if (self.s_b + 1) ** n <= MAX_BLOCKS:
            return
        counts = [1]  # counts[s]: blocks of the current length ending in state s
        for j in range(1, n + 1):
            ext = [0] * (j + 1)
            for row, m in zip(nxt, counts):
                for t in row:
                    ext[t] += m
            counts = ext
            if sum(counts) > MAX_BLOCKS:
                raise ValueError(f"base {self.b!r}: length {n} has more than {MAX_BLOCKS} "
                                 f"admissible blocks ({sum(counts)} at length {j})")

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
        """All admissible blocks of length n in increasing lexicographic order,
        extended one digit at a time: each level lists its blocks in that
        order, each block's children in order of their last digit."""
        if n < 0:
            raise ValueError("length must be nonnegative")
        nxt = self._automaton(n)
        self._refuse_many(nxt, n)
        rows = _rows(nxt)
        level: list[tuple[Block, int]] = [((), 0)]  # (block, automaton state)
        for _ in range(n):
            level = [(w + e, t) for w, s in level for e, t in rows[s]]
        return [w for w, _ in level]

    def in_E(self, block: Sequence[int], d: int) -> bool:
        """Whether appending d to the block yields a shortened cylinder: the
        cylinder of block + (d,) is shorter than b**-(n+1) by more than
        EPS_CMP, the full-length test of cylinder_intervals negated."""
        if d < 0 or d > self.d_prime:
            raise ValueError(f"digit {d} exceeds the minimal quasi-greedy digit {self.d_prime}")
        w = tuple(block)
        if not self.is_admissible(w):
            raise ValueError("block is not admissible")
        lo, hi = self.cylinder_interval(w + (d,))
        return hi - lo < self.b ** -(len(w) + 1) - EPS_CMP

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
        It costs the walk of enumerate_admissible plus one O(k) Horner pass
        per block.  Each partial block carries cylinder_interval's
        forward sums, its prefix value and the least prefix + b**-j so far
        (b**-j is shared by a level), so hi is one step from its parent's,
        with cylinder_interval's float operations in its order and so its
        bits.  lo is value()'s Horner sum, written out in the loop, not the
        carried prefix, which rounds differently: lo keeps the bits of
        value(block).
        """
        self.check_target(d, k)
        nxt, b, bk = self._automaton(k - 1), self.b, self.b ** (-k)
        self._refuse_many(nxt, k - 1)
        rows = _rows(nxt)
        # (block, automaton state, prefix value, least prefix + b**-j so far)
        level: list[tuple[Block, int, float, float]] = [((), 0, 0.0, 1.0)]
        scale = 1.0
        for _ in range(k - 1):
            scale /= b
            level = [(w + e, t, q, min(hi, q + scale)) for w, s, p, hi in level
                     for e, t in rows[s] for q in (p + e[0] * scale,)]
        scale /= b
        last, step, full = (d,), d * scale, bk - EPS_CMP
        out: list[CylinderInterval] = []
        for w, _, p, hi in level:
            w += last
            hi = min(hi, p + step + scale)
            lo = 0.0
            for e in reversed(w):  # value(w), inline
                lo = (lo + e) / b
            out.append(CylinderInterval(w, lo, hi, hi - lo >= full))
        return out

    def nearest_full_cylinder(self, x: float, d: int, k: int) -> float | None:
        """Center of the full-length level-k cylinder with k-th digit d nearest
        to x, the first in lexicographic order on a tie: the center min()
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


def _rows(nxt: list[list[int]]) -> list[list[tuple[Block, int]]]:
    """Each automaton row as (one-digit block, next state) pairs, built once
    per walk so that a node extends its block by one tuple concatenation."""
    return [[((d,), t) for d, t in enumerate(row)] for row in nxt]


def _zero_run_bound(base: RealBase) -> int:
    """The zero-run bound K that backs A_threshold, refused when the tail
    expansion is not resolved: an observed lower bound would silently
    overstate the strategy's reach."""
    if not base.iK_determined:
        raise ValueError(f"base {base.b!r}: tail expansion not resolved at depth {base.depth}")
    return base.K_b


def A_threshold(b: float, K: int, alpha: float) -> float:
    """Beta threshold for the 1D winning strategy at radix b with zero-run bound K."""
    if not b > 1.0 or K < 0 or not 0.0 < alpha < 1.0:
        raise ValueError("need b > 1, K >= 0, alpha in (0, 1)")
    kb = (K + 2.0) * b
    if math.isinf(4.0 * kb):  # divided through by kb, nothing overflows
        u = 1.0 / kb
        return ((2.0 + u) * alpha - u) / (alpha * ((4.0 - u) - alpha * (2.0 - u)))
    den = alpha * ((4.0 * kb - 1.0) - alpha * (2.0 * kb - 1.0))
    if abs(den) <= EPS_CMP:
        raise ValueError("threshold denominator vanishes")
    return ((2.0 * kb + 1.0) * alpha - 1.0) / den


def winning_gap(alpha: float, beta: float) -> float:
    """The quantity 2a - 4ab(1-a)/(1-ab) controlling both winning thresholds."""
    return 2.0 * alpha - 4.0 * alpha * beta * (1.0 - alpha) / (1.0 - alpha * beta)


def find_nk_real(b: float, K: int, alpha: float, beta: float, rho: float,
                 upper_factor: float = 1.0) -> tuple[int, int] | None:
    """Smallest (n, k) placing (K+2)/(rho (ab)^n b^(k-1)) inside the strategy
    window (lower, (1-alpha) * upper_factor).

    The search fixes n, takes the least k >= 2 clearing the upper bound, and
    advances n when that k undershoots the lower bound; it tries n up to
    10 000 and skips any k above 10 000.  None when exhausted;
    existence is only guaranteed for irrational log_b(alpha beta) or when the
    lower bound is nonpositive.
    """
    margin = 10.0 * EPS_CMP
    lower = b * (K + 2.0) * winning_gap(alpha, beta)
    upper = (1.0 - alpha) * upper_factor
    if lower >= upper - margin:
        return None
    ab = alpha * beta
    for n in range(1, 10_000 + 1):
        reach = rho * ab ** n
        base_mid = (K + 2.0) / reach if reach else math.inf
        if math.isinf(base_mid / upper):
            return None  # rho (ab)^n underflowed; later n only shrink it
        km1 = max(1, math.ceil(math.log(base_mid / upper, b) + 1e-12))
        if km1 + 1 > 10_000:
            continue
        try:
            mid = base_mid / b ** km1
        except OverflowError:  # b^(k-1) beyond double range
            return None
        if lower + margin < mid < upper - margin:
            return n, km1 + 1
    return None
