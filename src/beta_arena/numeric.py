"""Value records, quaternion arithmetic, guarded rounding, the digit kernel
and the fixed-order sums that give the same bits on every Python version.

The digit maps in one, two and four dimensions are one affine map in
lattice coordinates, DigitKernel, so they share a single arithmetic rule.
Every floor taken near an integer is flagged; the kernel's walk aborts or
snaps to the boundary.  The kernel and the lattices share ordered_sum and
_image, which has one product per matrix shape.  The kernel picks its body
by shape at construction, one straight-line walk that inlines that product:
_scalar_body (1x1, a real base), _plane_body (2x2, a complex base) and
_space_body (4x4, a quaternion on a lattice).  Each does the float
operations of the generic loop over rows in its order, which the package
no longer holds: tests/kernel_reference.py keeps it as the reference every
body is held to.  A walk carries the remainder from digit to digit in local
floats and, while a ball about its start certifies its digits, the ball's
growth and each digit's margin.
The 1x1 walk skips the steps after a fixed point reached by a snap, which
would only repeat it.
"""

from __future__ import annotations

import math
import operator
import sys


class Record:
    """A record whose fields are its __slots__: records of one class are equal
    when their fields are, and the repr shows the fields not named _private.
    Unhashable; each record writes its own __init__, so none runs generated code."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f[0] != "_") + ")"


class FrozenRecord(Record):
    """A record that hashes by value and refuses assignment; it copies and
    pickles through its constructor.

    Its __init__ stores each field through the __set__ of the slot's member
    descriptor, which _setters holds in slot order: that costs about what a
    plain slot store does, where object.__setattr__ looks the name up on
    every call and takes twice as long."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls.__slots__)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class AmbiguousValueError(ValueError):
    """A quantity landed inside the ambiguity band around a decision boundary."""


# slack allowed in ordinary comparisons
EPS_CMP = 1e-12

# half-width of the ambiguity band around integers used by floor operations;
# it lies above the comparison slack and below 1/4
EPS_FLOOR = 1e-9


def safe_floor(x: float) -> tuple[int, bool]:
    """Floor with an ambiguity flag.

    Returns (n, ambiguous).  When x is farther than EPS_FLOOR from every
    integer, n = floor(x) and ambiguous is False.  Inside the band, n is the
    nearest integer (the snap target) and ambiguous is True.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot floor non-finite value {x!r}")
    nearest = round(x)
    if abs(x - nearest) <= EPS_FLOOR:
        return int(nearest), True
    return math.floor(x), False


def tol_floor(x: float, nudge: bool = False) -> int:
    """Floor that either raises on ambiguity or snaps to the nearest integer."""
    n, ambiguous = safe_floor(x)
    if ambiguous and not nudge:
        raise AmbiguousValueError(f"{x!r} is within {EPS_FLOOR} of an integer")
    return n


def nudge_mode(on_ambiguous: str) -> bool:
    """True for "nudge" (snap at a boundary), False for "error" (raise);
    every expansion entry point checks its on_ambiguous argument here."""
    if on_ambiguous not in ("error", "nudge"):
        raise ValueError("on_ambiguous must be 'error' or 'nudge'")
    return on_ambiguous == "nudge"


def ordered_sum(values) -> float:
    """The sum of floats added left to right from +0.0.  This is what sum()
    computed before Python 3.12 made it compensated, so it gives the same
    bits on every Python version."""
    total = 0.0
    for x in values:
        total += x
    return total


def _image(A):
    """The map u -> A u, each row summed left to right from +0.0
    (0.0 + a0*u0 + a1*u1 + ...), which also turns a -0.0 product into +0.0:
    each lattice's basis changes and the kernel's inverse.  Each kernel body
    inlines its shape's product, and tests/kernel_reference.py calls it."""
    if len(A) == 1:
        (a,), = A
        return lambda u: (0.0 + a * u[0],)
    if len(A) == 2:
        (a, b), (c, d) = A

        def image2(u):
            x, y = u
            return 0.0 + a * x + b * y, 0.0 + c * x + d * y
        return image2
    if len(A) == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = A

        def image4(u):
            x0, x1, x2, x3 = u
            return (0.0 + a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3,
                    0.0 + b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3,
                    0.0 + c0 * x0 + c1 * x1 + c2 * x2 + c3 * x3,
                    0.0 + d0 * x0 + d1 * x1 + d2 * x2 + d3 * x3)
        return image4
    raise ValueError(f"no image for a {len(A)}-row matrix: kernels are 1x1, 2x2 or 4x4")


def _power(M, j: int, exact: bool = False):
    """M^j for a square float matrix M and any integer j, each entry of the
    exact power rounded once, or None for j < 0 when |det M| < 1e-12
    (compared exactly): each lattice's Binv, the kernel's inverse and the
    avoidance play's powers of A.

    M = N / D for an integer matrix N, D the largest denominator of its
    dyadic entries.  For j < 0, fraction-free Gauss-Jordan elimination
    (Bareiss) on [N | I] divides exactly at every step and ends at [d I | X]
    with d = +-det N and X = d N^-1, so M^-1 = D X / d.  One int / int per
    entry of the numerator's power over the denominator's then rounds it, as
    Fraction's float() does; with exact, (P, den) is returned unrounded.
    """
    n = len(M)
    ratios = [[x.as_integer_ratio() for x in row] for row in M]
    D = max(q for row in ratios for _, q in row)
    N = [[p * (D // q) for p, q in row] for row in ratios]
    if j < 0:
        rows, prev = [row + [int(i == k) for k in range(n)] for i, row in enumerate(N)], 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if rows[r][col]), None)
            if pivot is None:
                return None
            rows[col], rows[pivot] = rows[pivot], rows[col]
            top, p = rows[col], rows[col][col]
            rows = [r if r is top else [(p * x - r[col] * y) // prev for x, y in zip(r, top)]
                    for r in rows]
            prev = p
        # |det M| = |d| / D^n against 1e-12 = a / b
        a, b = (1e-12).as_integer_ratio()
        if abs(prev) * b < a * D ** n:
            return None
        # a positive denominator, so that a zero entry is +0.0 as Fraction's is
        scale = D if prev > 0 else -D
        N, D, j = [[scale * x for x in row[n:]] for row in rows], abs(prev), -j
    P, den = [[int(i == k) for k in range(n)] for i in range(n)], D ** j
    for bit in bin(j)[2:]:  # square and multiply, from the leading bit
        P = [[sum(map(operator.mul, row, col)) for col in zip(*P)] for row in P]
        if bit == "1":
            P = [[sum(map(operator.mul, row, col)) for col in zip(*N)] for row in P]
    return (P, den) if exact else tuple(tuple(x / den for x in row) for row in P)


def _powers(M):
    """j -> (M^j, M^-j), j >= 0, for an invertible M, bit for bit _power's:
    the exact numerators of the highest pair made so far grow by one integer
    product per step; it keeps only exact (k, N^k, N'^k), so threads agree."""
    (N, D), (Ninv, Dinv), (eye, _) = (_power(M, j, exact=True) for j in (1, -1, 0))
    last = [(0, eye, eye)]

    def power(j: int):
        k, P, Q = last[0]  # read once: another thread may replace it
        if k > j:
            k, P, Q = 0, eye, eye
        for _ in range(k, j):
            P = [[sum(map(operator.mul, row, col)) for col in zip(*N)] for row in P]
            Q = [[sum(map(operator.mul, row, col)) for col in zip(*Ninv)] for row in Q]
        last[0] = max(last[0], (j, P, Q), key=operator.itemgetter(0))
        return tuple(tuple(tuple(x / den for x in row) for row in X)
                     for X, den in ((P, D ** j), (Q, Dinv ** j)))
    return power


def _snap(w: float, t: float, f: int, off: float, lo: int, hi: int, nudge: bool):
    """Digit and remainder of one coordinate whose t = w - off lies within
    twice EPS_FLOOR of an integer: tol_floor's digit (or its error), unless
    that leaves the digit range [lo, hi], and a remainder placed exactly on
    the lower face off when t lies within EPS_FLOOR of the digit."""
    d = tol_floor(t, nudge)
    if not lo <= d <= hi:  # a snap may not leave the digit range
        d = f
    return d, (off if abs(t - d) <= EPS_FLOOR else w - d)


# frac = t - floor(t) is exact for |t| >= 1 and within 2^-53 below, and so is
# 1 - frac: more than this from both ends, t lies outside the ambiguity band,
# where tol_floor returns floor(t) and nothing snaps
_BAND = 2.0 * EPS_FLOOR


# the verifier's safety factor: digit j is certified when the ball's radius
# grown by |radix|^j stays below this share of the digit's margin; a policy
# that no bound on the orbit's rounding derives yet
_CERTIFIED = 1.0 - 1e-9


def _scalar_body(row, off: float, norm: float, lo: int, hi: int):
    """DigitKernel's walk for a 1x1 matrix (a,): the tests' reference body
    (tests/kernel_reference.py) on one float, its digit a bare int, with
    the remainder, and while the ball certifies its growth, kept in local
    floats; its image is 0.0 + a * u[0], read from u only when a digit is
    asked for, and _snap and tol_floor are module globals, as there, so every
    guarded floor the walk takes calls numeric.safe_floor by name, where the
    benchmark's tracer counts it.

    A snap whose remainder equals the step's input (==, so +-0.0 agree: the
    image is summed from +0.0, and nan never does) is a fixed point, such as
    the zero tail of a terminating expansion: each later step would repeat
    this one's image, floor, digit, remainder and margin, so the walk
    appends the digit for the steps left and, while it certifies, runs only
    their growth test.  Only the snap path compares, so the fast path gains
    no operation; a fixed point off the snap path steps on."""
    (a,) = row
    floor = math.floor

    def walk(u, n: int, nudge: bool = False, radius=None, radix=None
             ) -> tuple[list[int], int]:
        if n < 0:
            raise ValueError("length must be nonnegative")
        out = []
        if not n:
            return out, 0
        append, x = out.append, u[0]
        certified, certifying, growth = 0, radius is not None, 1.0
        for i in range(n):
            w = 0.0 + a * x
            t = w - off
            try:
                f = floor(t)
            except (OverflowError, ValueError):
                tol_floor(t)  # raises tol_floor's error for a non-finite t
            frac = t - f
            rest = 1.0 - frac
            if frac > _BAND and rest > _BAND:
                append(f)
                x = w - f
            else:
                d, r = _snap(w, t, f, off, lo, hi, nudge)
                if r == x:
                    # a fixed point, as a terminating expansion's zero tail
                    # is: every step left repeats this one's digit and
                    # margin, so only the growth test runs on
                    out += [d] * (n - i)
                    while certifying and i < n:
                        i += 1
                        growth *= radix
                        if radius * growth < (rest if rest < frac else frac) / norm * _CERTIFIED:
                            certified += 1
                        else:
                            certifying = False
                    return out, certified
                append(d)
                x = r
            if certifying:
                # the reference's margin: frac lies in [0, 1] and norm > 0,
                # so it is never nan, and a margin of inf stays inf there too
                growth *= radix
                if radius * growth < (rest if rest < frac else frac) / norm * _CERTIFIED:
                    certified += 1
                else:
                    certifying = False
        return out, certified
    return walk


def _plane_body(row0, row1):
    """DigitKernel's walk for a 2x2 matrix ((a, b), (c, d)): the tests'
    reference body (tests/kernel_reference.py) with its row loop unrolled
    and _image's image2 inlined, the remainder kept in the local floats x
    and y, which both rows' images read before either row floors; as in
    _scalar_body, _snap and tol_floor are module globals, so each guarded
    floor calls numeric.safe_floor by name."""
    ((a, b), off0, norm0, lo0, hi0), ((c, d), off1, norm1, lo1, hi1) = row0, row1
    floor = math.floor

    def walk(u, n: int, nudge: bool = False, radius=None, radix=None
             ) -> tuple[list[tuple[int, int]], int]:
        if n < 0:
            raise ValueError("length must be nonnegative")
        out = []
        if not n:
            return out, 0
        append, (x, y) = out.append, u
        certified, certifying, growth = 0, radius is not None, 1.0
        for _ in range(n):
            w0 = 0.0 + a * x + b * y
            w1 = 0.0 + c * x + d * y
            t = w0 - off0
            try:
                f = floor(t)
            except (OverflowError, ValueError):
                tol_floor(t)  # raises tol_floor's error for a non-finite t
            frac0 = t - f
            rest0 = 1.0 - frac0
            if frac0 > _BAND and rest0 > _BAND:
                d0, x = f, w0 - f
            else:
                d0, x = _snap(w0, t, f, off0, lo0, hi0, nudge)
            t = w1 - off1
            try:
                f = floor(t)
            except (OverflowError, ValueError):
                tol_floor(t)
            frac1 = t - f
            rest1 = 1.0 - frac1
            if frac1 > _BAND and rest1 > _BAND:
                d1, y = f, w1 - f
            else:
                d1, y = _snap(w1, t, f, off1, lo1, hi1, nudge)
            append((d0, d1))
            if certifying:
                # the reference's running min from inf: no row's margin is nan
                growth *= radix
                margin = (rest0 if rest0 < frac0 else frac0) / norm0
                m = (rest1 if rest1 < frac1 else frac1) / norm1
                if m < margin:
                    margin = m
                if radius * growth < margin * _CERTIFIED:
                    certified += 1
                else:
                    certifying = False
        return out, certified
    return walk


def _space_body(row0, row1, row2, row3):
    """DigitKernel's walk for a 4x4 matrix: _plane_body's walk on four rows,
    the remainder kept in the local floats x0 to x3 and _image's image4
    inlined, every row's image read before any row floors."""
    (((a0, a1, a2, a3), off0, norm0, lo0, hi0), ((b0, b1, b2, b3), off1, norm1, lo1, hi1),
     ((c0, c1, c2, c3), off2, norm2, lo2, hi2), ((d0, d1, d2, d3), off3, norm3, lo3, hi3)
     ) = row0, row1, row2, row3
    floor = math.floor

    def walk(u, n: int, nudge: bool = False, radius=None, radix=None
             ) -> tuple[list[tuple[int, int, int, int]], int]:
        if n < 0:
            raise ValueError("length must be nonnegative")
        out = []
        if not n:
            return out, 0
        append, (x0, x1, x2, x3) = out.append, u
        certified, certifying, growth = 0, radius is not None, 1.0
        for _ in range(n):
            w0 = 0.0 + a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3
            w1 = 0.0 + b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3
            w2 = 0.0 + c0 * x0 + c1 * x1 + c2 * x2 + c3 * x3
            w3 = 0.0 + d0 * x0 + d1 * x1 + d2 * x2 + d3 * x3
            t = w0 - off0
            try:
                f = floor(t)
            except (OverflowError, ValueError):
                tol_floor(t)  # raises tol_floor's error for a non-finite t
            frac0 = t - f
            rest0 = 1.0 - frac0
            if frac0 > _BAND and rest0 > _BAND:
                k0, x0 = f, w0 - f
            else:
                k0, x0 = _snap(w0, t, f, off0, lo0, hi0, nudge)
            t = w1 - off1
            try:
                f = floor(t)
            except (OverflowError, ValueError):
                tol_floor(t)
            frac1 = t - f
            rest1 = 1.0 - frac1
            if frac1 > _BAND and rest1 > _BAND:
                k1, x1 = f, w1 - f
            else:
                k1, x1 = _snap(w1, t, f, off1, lo1, hi1, nudge)
            t = w2 - off2
            try:
                f = floor(t)
            except (OverflowError, ValueError):
                tol_floor(t)
            frac2 = t - f
            rest2 = 1.0 - frac2
            if frac2 > _BAND and rest2 > _BAND:
                k2, x2 = f, w2 - f
            else:
                k2, x2 = _snap(w2, t, f, off2, lo2, hi2, nudge)
            t = w3 - off3
            try:
                f = floor(t)
            except (OverflowError, ValueError):
                tol_floor(t)
            frac3 = t - f
            rest3 = 1.0 - frac3
            if frac3 > _BAND and rest3 > _BAND:
                k3, x3 = f, w3 - f
            else:
                k3, x3 = _snap(w3, t, f, off3, lo3, hi3, nudge)
            append((k0, k1, k2, k3))
            if certifying:  # as in _plane_body
                growth *= radix
                margin = (rest0 if rest0 < frac0 else frac0) / norm0
                m = (rest1 if rest1 < frac1 else frac1) / norm1
                if m < margin:
                    margin = m
                m = (rest2 if rest2 < frac2 else frac2) / norm2
                if m < margin:
                    margin = m
                m = (rest3 if rest3 < frac3 else frac3) / norm3
                if m < margin:
                    margin = m
                if radius * growth < margin * _CERTIFIED:
                    certified += 1
                else:
                    certifying = False
        return out, certified
    return walk


class DigitKernel:
    """The digit map u -> A u - d, d = floor(A u - offsets), in lattice coordinates.

    A point u lies in the half-open box [offsets, offsets + 1) and its
    remainder A u - d lands back in it.  The real, complex and quaternion
    expansions are all this map: A is the radix b, the rotation-dilation
    matrix of xi, or left multiplication by q written in the lattice basis.
    Dividing by row_norms[i] turns a distance to a face {u_i = c} into a
    Euclidean distance in the ambient space.

    Each row of A u, and each sum that sets the digit range, is added left
    to right from +0.0: 0.0 + a0*u0 + a1*u1 + ...  That is the order of
    sum() up to Python 3.11; Python 3.12 made sum() of floats compensated,
    so the kernel does not call it, and its digits, remainders and margins
    are the same bits on Python 3.10 to 3.13 (tests/test_kernel_digests.py).

    Snap policy: a coordinate of A u - offsets within EPS_FLOOR of an
    integer takes that integer as its digit, unless no point of the box has
    that digit, and its remainder is put exactly on the lower face.

    The body is chosen by shape at construction, as _image chooses its
    product, and bound on the instance as walk(u, n, nudge, radius, radix):
    the digits of n steps from u, snapping only with nudge (a 1x1 kernel's
    digit is an int), and how many of them a ball of that radius about u
    certifies.  Digit j is certified when radius * radix^j is below
    _CERTIFIED times its margin, the Euclidean distance from A u to its digit
    cell's boundary; the certified digits are a prefix, so once one fails
    the walk only floors, and without a radius it never tracks a margin
    (radix is read only with a radius).  expand is the walk's digits with
    no ball.  The 1x1 walk stops stepping at a fixed point reached by a
    snap (_scalar_body), so a terminating real expansion costs its prefix;
    the 2x2 and 4x4 walks step every digit, since their zero orbits take
    the fast path (the centered square sends 0 to t = 0.5), where a test
    would need every row's last remainder at every step.  Each shape has
    one straight-line body, its product inline and no loop over rows, which
    tests/test_scalar_kernel.py holds to tests/kernel_reference.py's row
    loop.
    """

    def __init__(self, A, offsets, row_norms):
        self.A = tuple(map(tuple, A))
        # digits per coordinate: the cells [d, d + 1) that the image of the box
        # meets, up to EPS_CMP; the box is open above, so the image reaches
        # its top only when no entry of the row is positive; a range that
        # overflows (or is nan) has no digits to name
        self.lo, self.hi = [], []
        for row, off in zip(self.A, offsets):
            corner = ordered_sum(map(operator.mul, row, offsets)) - off
            top = corner + ordered_sum(a for a in row if a > 0.0)
            bottom = corner + ordered_sum(a for a in row if a < 0.0)
            if not -math.inf < bottom <= top < math.inf:
                raise ValueError(f"radix too large: a digit range runs from {bottom!r} to {top!r}")
            self.lo.append(math.floor(bottom))
            self.hi.append(math.ceil(top - EPS_CMP) - 1 if top > corner + EPS_CMP
                           else math.floor(top + EPS_CMP))
        self._rows = tuple(zip(self.A, offsets, row_norms, self.lo, self.hi))
        self._image = _image(self.A)  # which refuses any other shape
        if len(self.A) == 1:
            self.walk = _scalar_body(*self._rows[0])
        elif len(self.A) == 2:
            self.walk = _plane_body(*self._rows)
        else:
            self.walk = _space_body(*self._rows)

    def expand(self, u, n: int, nudge: bool = False) -> list:
        """The first n digits of u: walk(u, n, nudge)'s, with no ball."""
        return self.walk(u, n, nudge)[0]

    def reconstruct(self, digits) -> list[float]:
        """Lattice coordinates of sum_j A^-j d_j, the point these digits
        describe up to A^-n times the box, by Horner's rule through the
        image of A^-1 rounded once per entry (_power).  Digits are tuples,
        or ints for a 1x1 kernel."""
        inverse = _image(_power(self.A, -1))
        acc = (0.0,) * len(self.A)
        for d in reversed(digits):
            acc = inverse([a + x for a, x in zip(acc, (d,) if isinstance(d, int) else d)])
        return list(acc)


# the least positive normal float: a sum of squares below it has lost bits
_NORMAL = sys.float_info.min


class Quaternion(FrozenRecord):
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float = 0.0, b: float = 0.0, c: float = 0.0, d: float = 0.0):
        set_a, set_b, set_c, set_d = self._setters
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
        set_d(self, d)

    @staticmethod
    def real(x: float) -> "Quaternion":
        return Quaternion(float(x), 0.0, 0.0, 0.0)

    @staticmethod
    def complex2(re: float, im: float) -> "Quaternion":
        return Quaternion(float(re), float(im), 0.0, 0.0)

    @property
    def components(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a + other.a, self.b + other.b,
                          self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.a - other.a, self.b - other.b,
                          self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return quat_mul(self, other)
        return self.scale(float(other))

    def scale(self, s: float) -> "Quaternion":
        return Quaternion(s * self.a, s * self.b, s * self.c, s * self.d)

    def conj(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm2(self) -> float:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def __abs__(self) -> float:
        """The norm: the root of norm2() where that sum of squares is a
        normal float, else math.hypot, which neither overflows nor
        underflows (1e200 and 1e-200 are their own norms)."""
        n2 = self.norm2()
        if _NORMAL <= n2 < math.inf:
            return math.sqrt(n2)
        return math.hypot(*self.components)

    def inverse(self) -> "Quaternion":
        """conj() / norm2(), scaled by 1 / norm2() where that sum is a
        normal float, else divided by abs() twice, so the inverse of a
        finite nonzero quaternion is neither zero nor refused."""
        n2 = self.norm2()
        if _NORMAL <= n2 < math.inf:
            return self.conj().scale(1.0 / n2)
        n = abs(self)
        if n == 0.0:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return Quaternion(*(x / n / n for x in self.conj().components))

    def powi(self, n: int) -> "Quaternion":
        """Integer power, negative exponents via the inverse."""
        if n < 0:
            return self.inverse().powi(-n)
        out = Quaternion.real(1.0)
        base = self
        while n:
            if n & 1:
                out = quat_mul(out, base)
            base = quat_mul(base, base)
            n >>= 1
        return out


def quat_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product p q (i^2 = j^2 = k^2 = ijk = -1)."""
    return Quaternion(
        p.a * q.a - p.b * q.b - p.c * q.c - p.d * q.d,
        p.a * q.b + p.b * q.a + p.c * q.d - p.d * q.c,
        p.a * q.c - p.b * q.d + p.c * q.a + p.d * q.b,
        p.a * q.d + p.b * q.c - p.c * q.b + p.d * q.a,
    )


def metallic_mean(j: int) -> float:
    """Positive root of x^2 = j x + 1."""
    if j <= 0:
        raise ValueError("index must be a positive integer")
    return (j + math.sqrt(j * j + 4.0)) / 2.0
