"""Reference arithmetic used by the output checks.

Everything here is written from the definitions in the package docstrings and
never calls beta_arena, so a check built on it does not trust the code it
checks.  Points of every system are plain tuples: (x,) for a real base,
(re, im) for a complex base and (a, b, c, d) for a quaternion base.
"""

from __future__ import annotations

import math

SNAP = 1e-9  # the package's default floor tolerance


# -- quaternion and linear algebra ---------------------------------------------


def qmul(p, q):
    """Hamilton product of two quaternions given as 4-tuples."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def qinv(q):
    n2 = sum(t * t for t in q)
    return (q[0] / n2, -q[1] / n2, -q[2] / n2, -q[3] / n2)


def matvec(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m)))


def invert(m):
    """Inverse of a small square matrix by Gauss-Jordan elimination."""
    n = len(m)
    a = [list(map(float, row)) + [1.0 if i == j else 0.0 for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0.0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def norm(v):
    return math.sqrt(sum(t * t for t in v))


# -- one description for every digit system --------------------------------------


class RefSystem:
    """z -> radix * z - d with d read off a half-open box in lattice coordinates.

    kind is "real", "complex" or "quat"; radix is a float, a complex number or
    a 4-tuple; basis holds the lattice basis vectors (columns) and offsets
    the lower corner of the box in lattice coordinates.
    """

    def __init__(self, kind, radix, basis, offsets):
        self.kind = kind
        self.radix = radix
        self.dim = len(offsets)
        self.offsets = tuple(float(o) for o in offsets)
        self.B = [[basis[j][i] for j in range(self.dim)] for i in range(self.dim)]
        self.Binv = invert(self.B)
        self.radix_norm = abs(radix) if kind != "quat" else norm(radix)
        corners = []
        for bits in range(1 << self.dim):
            c = [o + ((bits >> i) & 1) for i, o in enumerate(self.offsets)]
            corners.append(norm(matvec(self.B, c)))
        self.sup_norm = max(corners)  # largest |z| over the closed box

    def mul(self, z):
        if self.kind == "real":
            return (self.radix * z[0],)
        if self.kind == "complex":
            w = self.radix * complex(z[0], z[1])
            return (w.real, w.imag)
        return qmul(self.radix, z)

    def mul_inv(self, w):
        if self.kind == "real":
            return (w[0] / self.radix,)
        if self.kind == "complex":
            z = complex(w[0], w[1]) / self.radix
            return (z.real, z.imag)
        return qmul(qinv(self.radix), w)

    def coords(self, z):
        return matvec(self.Binv, z)

    def point(self, coords):
        return matvec(self.B, [float(c) for c in coords])

    def contains(self, z):
        return all(lo <= t < lo + 1.0 for t, lo in zip(self.coords(z), self.offsets))

    def digits(self, z, n):
        """First n digits (lattice coordinates) by plain flooring, no snapping."""
        out = []
        for _ in range(n):
            w = self.mul(z)
            d = tuple(math.floor(t - lo) for t, lo in zip(self.coords(w), self.offsets))
            out.append(d)
            z = tuple(a - b for a, b in zip(w, self.point(d)))
        return out

    def reconstruct(self, digits):
        """sum_j radix^-j d_j, accumulated by Horner from the last digit."""
        acc = (0.0,) * self.dim
        for d in reversed(digits):
            acc = self.mul_inv(tuple(a + b for a, b in zip(acc, self.point(d))))
        return acc

    def ball_points(self, rng, center, radius, count):
        """Up to count points of the domain within radius of center."""
        out = []
        for _ in range(8 * count):
            v = [rng.gauss(0.0, 1.0) for _ in range(self.dim)]
            s = norm(v)
            if s == 0.0:
                continue
            scale = radius * rng.random() ** (1.0 / self.dim) / s
            z = tuple(c + scale * t for c, t in zip(center, v))
            if self.contains(z):
                out.append(z)
                if len(out) == count:
                    break
        return out


def as_coords(d):
    """A digit as returned by the package (int or tuple) as a coordinate tuple."""
    return (d,) if isinstance(d, int) else tuple(d)


# -- real bases ------------------------------------------------------------------


def quasi_greedy(b, n):
    """First n digits of the quasi-greedy expansion of 1 in base b.

    Greedy digits of 1 with the first digit allowed to reach floor(b); when
    the expansion terminates, its last digit is lowered by one and the block
    repeats.  Floors within SNAP of an integer snap to it.
    """
    digits = []
    y = 1.0
    for _ in range(n + 64):
        if y == 0.0:
            period = digits[:-1] + [digits[-1] - 1]
            return (period * (n // len(period) + 1))[:n]
        t = b * y
        d = round(t) if abs(t - round(t)) <= SNAP else math.floor(t)
        y = t - d
        if abs(y) <= SNAP:
            y = 0.0
        digits.append(int(d))
    return digits[:n]


def alphabet_top(b):
    return int(round(b)) - 1 if abs(b - round(b)) <= 1e-12 else int(b)


def parry_admissible(block, c):
    """Brute-force Parry test: every suffix is at most c, lexicographically."""
    return all(list(block[j:]) <= c[:len(block) - j] for j in range(len(block)))


def count_admissible(b, n):
    """Number of admissible blocks of length n, by the beta-shift automaton.

    The state is the length of the longest suffix that is still a prefix of
    c; a digit below c[s] resets it, equal to c[s] extends it, and above
    c[s] is forbidden (Parry 1960).
    """
    c = quasi_greedy(b, n + 1)
    top = alphabet_top(b)
    ways = {0: 1}
    for _ in range(n):
        nxt = {}
        for s, w in ways.items():
            for d in range(top + 1):
                if d < c[s]:
                    nxt[0] = nxt.get(0, 0) + w
                elif d == c[s]:
                    nxt[s + 1] = nxt.get(s + 1, 0) + w
        ways = nxt
    return sum(ways.values())


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def pell_like(n):
    """1, 3, 7, 17, 41, ...: admissible block counts of the silver mean."""
    a, b = 1, 3
    for _ in range(n):
        a, b = b, 2 * b + a
    return a


def block_value(block, b):
    acc = 0.0
    for d in reversed(block):
        acc = (acc + d) / b
    return acc


# -- complex bases ---------------------------------------------------------------


def fold(theta):
    t = math.fmod(theta, math.pi / 2)
    if t < 0:
        t += math.pi / 2
    return t if t <= math.pi / 4 else math.pi / 2 - t


def digit_box_radius(r, theta):
    """Sup-norm radius of the digits xi z - d needs on the centered square.

    The image of the square is a square whose extreme real part is
    r (cos t + sin t) / 2; digits are floor(w + 1/2).
    """
    t = fold(theta)
    return math.floor(r * (math.cos(t) + math.sin(t)) / 2 + 0.5)


def refinement_poly(N, k, theta, r):
    t = fold(theta)
    acc = r ** k
    for j in range(1, k):
        acc -= 2.0 * N * r ** (k - j) * (abs(math.cos(j * t)) + abs(math.sin(j * t)))
    return acc - (abs(math.cos(k * t)) + abs(math.sin(k * t)))


def v2_closed_form(N, theta):
    t = fold(theta)
    cps = math.cos(t) + math.sin(t)
    return N * cps + math.sqrt(N * N * cps * cps + math.cos(2 * t) + math.sin(2 * t))


def gamma2():
    """2 arctan(d), d the smallest positive root of x^8 + 16x^7 + 30x^4 - 16x + 1."""
    def p(x):
        return x ** 8 + 16 * x ** 7 + 30 * x ** 4 - 16 * x + 1
    lo, hi = 0.0, 0.1  # p(0) > 0 > p(0.1)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if p(mid) > 0 else (lo, mid)
    return 2.0 * math.atan(lo)
