import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from beta_arena.numeric import EPS_CMP, AmbiguousValueError, metallic_mean
from beta_arena.realexp import DEPTH, MAX_ALPHABET, MAX_BLOCKS, RealBase
from beta_arena.systems import RealSystem, expand_digits

PHI1 = metallic_mean(1)
PHI2 = metallic_mean(2)
BASES = [PHI1, PHI2, 2.5, 3.0]


# -- independent oracles ------------------------------------------------------
# These re-derive the expected behaviour from the definitions alone and are
# deliberately written without reference to the implementation under test.

def oracle_digits(b: float, x: float, n: int) -> list[int]:
    """Greedy digits via the bare orbit x -> b x - floor(b x)."""
    cap = b - 1 if float(b).is_integer() else math.floor(b)
    out = []
    for _ in range(n):
        d = min(int(math.floor(b * x)), int(cap))
        out.append(d)
        x = b * x - d
    return out


def oracle_quasi_greedy(b: float, n: int) -> list[int]:
    """Digit string of 1 - eps for vanishing eps; the limit stabilises well
    before eps reaches the float granularity."""
    return oracle_digits(b, 1.0 - 1e-13, n)


def oracle_admissible(block, c_digits) -> bool:
    """Every suffix must be lexicographically <= the expansion of 1."""
    for s in range(len(block)):
        suf = block[s:]
        ref = tuple(c_digits[:len(suf)])
        if tuple(suf) > ref:
            return False
    return True


def zero_runs(digs) -> int:
    best = run = 0
    for d in digs:
        run = run + 1 if d == 0 else 0
        best = max(best, run)
    return best


# -- digits vs oracle ---------------------------------------------------------

def test_digits_match_oracle_on_grid():
    for b in BASES:
        base = RealBase(b)
        for i in range(1, 200):
            x = i / 200.0 + 1e-4  # keep off boundary values
            try:
                got = base.digits(x, 8)
            except AmbiguousValueError:
                continue
            assert list(got) == oracle_digits(b, x, 8), (b, x)


def test_digits_reconstruction_error_bound():
    for b in BASES:
        base = RealBase(b)
        for i in range(1, 40):
            x = i / 40.0 + 3e-5
            digs = base.digits(x, 12, on_ambiguous="nudge")
            assert abs(x - base.value(digs)) <= b ** -12 + 1e-12


def test_digits_near_one_stay_in_the_alphabet():
    # 3 x is within the snap band of 3, a digit base 3 does not have
    base = RealBase(3.0)
    x = 1.0 - 1e-10
    assert base.digits(x, 3, on_ambiguous="nudge") == [2, 2, 2]
    assert expand_digits(RealSystem(base), np.array([x]), 3) == [2, 2, 2]


def test_value_is_plain_power_sum():
    base = RealBase(PHI2)
    block = (2, 0, 1, 1, 0, 2, 0)
    want = sum(d * PHI2 ** -(j + 1) for j, d in enumerate(block))
    assert base.value(block) == pytest.approx(want, abs=1e-14)


# -- quasi-greedy expansion of 1 ----------------------------------------------

def test_quasi_greedy_frozen_prefixes():
    # golden and silver means have the two-periodic forms (1 0)^inf, (2 0)^inf
    assert RealBase(PHI1).c_digits[:8] == [1, 0, 1, 0, 1, 0, 1, 0]
    assert RealBase(PHI2).c_digits[:8] == [2, 0, 2, 0, 2, 0, 2, 0]
    # frozen from the limit definition d(1 - eps)
    assert RealBase(2.5).c_digits[:10] == [2, 1, 0, 1, 1, 1, 0, 0, 0, 0]
    assert RealBase(3.0).c_digits[:6] == [2, 2, 2, 2, 2, 2]


def test_quasi_greedy_matches_limit_oracle():
    for b in BASES:
        got = RealBase(b).c_digits[:24]
        assert got == oracle_quasi_greedy(b, 24), b


def test_quasi_greedy_value_is_one():
    for b in BASES:
        base = RealBase(b)
        v = base.value(tuple(base.c_digits[:40]))
        assert v <= 1.0 + 1e-12
        assert v >= 1.0 - b ** -40 - 1e-12


# -- tail data i_b, K_b -------------------------------------------------------

def test_tail_data():
    # fractional parts of the metallic means expand as 1 0 0 0 ...
    for b in (PHI1, PHI2):
        base = RealBase(b)
        assert (base.i_b, base.K_b, base.iK_determined) == (1, 0, True)
    # integer base: fractional part 0, by convention i = K = 0
    base = RealBase(3.0)
    assert (base.i_b, base.K_b, base.iK_determined) == (0, 0, True)
    # b = 2.5 never terminates within depth; K is the observed zero-run
    base = RealBase(2.5)
    assert base.i_b is None and not base.iK_determined
    assert base.K_b == zero_runs(oracle_digits(2.5, 0.5, base.depth))
    assert base.K_b == 6


C_2_5 = ("2101110000110121000111112100010020001001201001111100011001200012"
         "0012011110002010020010101101100020100010201002012100000021001120"
         "1100001210101010201111110111100120010100012100010001202010002012"
         "0020201110102021011002100100000210002000202011101001012000111010")


def test_expansion_data_pinned_at_full_depth():
    want = {PHI1: ("10" * 128, (1, 0, True)), PHI2: ("20" * 128, (1, 0, True)),
            2.5: (C_2_5, (None, 6, False)), 3.0: ("2" * 256, (0, 0, True))}
    for b, (c, tail) in want.items():
        base = RealBase(b)
        assert "".join(map(str, base.c_digits)) == c, b
        assert (base.i_b, base.K_b, base.iK_determined) == tail, b


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_base_just_below_an_integer_constructs(n):
    # b * frac(b) lands in the snap band of n, a digit the base does not have
    for gap in (1e-10, 1e-11):
        base = RealBase(n - gap)
        assert base.s_b == n - 1
        assert base.c_digits[:4] == [n - 1] * 4
        assert all(0 <= d <= base.s_b for d in base.c_digits)


@pytest.mark.parametrize("b", [1.0, 0.5, math.inf, math.nan])
def test_base_must_be_finite_and_exceed_one(b):
    with pytest.raises(ValueError, match="base must be finite and exceed 1"):
        RealBase(b)


def test_d_prime_is_min_of_c():
    for b in BASES:
        base = RealBase(b)
        assert base.d_prime == min(base.c_digits)


# -- admissibility ------------------------------------------------------------

def test_admissible_matches_suffix_oracle():
    for b in BASES:
        base = RealBase(b)
        digits = range(base.s_b + 1)
        for block in itertools.product(digits, repeat=4):
            want = oracle_admissible(block, base.c_digits)
            assert base.is_admissible(block) == want, (b, block)


def test_enumerate_admissible_counts():
    # golden: Fibonacci 2, 3, 5, 8, 13; silver: 3, 7, 17, 41, 99 (Pell-like)
    golden = RealBase(PHI1)
    assert [len(golden.enumerate_admissible(n)) for n in range(1, 6)] == [2, 3, 5, 8, 13]
    silver = RealBase(PHI2)
    assert [len(silver.enumerate_admissible(n)) for n in range(1, 6)] == [3, 7, 17, 41, 99]


def test_enumerate_admissible_is_sorted_and_complete():
    for b in BASES:
        base = RealBase(b)
        blocks = base.enumerate_admissible(4)
        assert blocks == sorted(blocks)
        digits = range(base.s_b + 1)
        brute = [w for w in itertools.product(digits, repeat=4)
                 if oracle_admissible(w, base.c_digits)]
        assert blocks == brute


def test_enumerate_admissible_error_contract():
    base = RealBase(PHI1)
    assert base.enumerate_admissible(0) == [()]
    with pytest.raises(ValueError, match="length must be nonnegative"):
        base.enumerate_admissible(-1)
    with pytest.raises(ValueError, match="block longer than the precomputed expansion depth"):
        base.enumerate_admissible(base.depth + 1)
    with pytest.raises(ValueError, match="block longer than the precomputed expansion depth"):
        base.is_admissible((0,) * (base.depth + 1))


def test_enumerate_admissible_refuses_an_alphabet_past_the_cap():
    # 10^6 digits is the largest alphabet tabulated; one digit more is refused
    # before the automaton allocates its first row, by every method that walks
    # it, and length 0 needs no row
    assert len(RealBase(1e6).enumerate_admissible(1)) == MAX_ALPHABET
    for b in (1e6 + 0.5, 1e7, 1e12, 1e18):
        base = RealBase(b)
        for walk in (lambda: base.enumerate_admissible(1),
                     lambda: base.is_admissible((1, 2)),
                     lambda: base.in_E((1,), 0),
                     lambda: base.nearest_full_cylinder(0.5, 0, 2)):
            with pytest.raises(ValueError, match="too large to tabulate"):
                walk()
        assert base.enumerate_admissible(0) == [()]


def test_golden_count_is_fibonacci_at_length_18():
    assert len(RealBase(PHI1).enumerate_admissible(18)) == 6765


def test_observed_blocks_are_admissible():
    # every digit window of an actual expansion must pass the test
    for b in BASES:
        base = RealBase(b)
        for i in range(1, 30):
            x = i / 30.0 + 1e-4
            digs = base.digits(x, 10, on_ambiguous="nudge")
            for s in range(6):
                assert base.is_admissible(tuple(digs[s:s + 4])), (b, x, s)


# -- cylinders ----------------------------------------------------------------

def test_cylinder_membership_monte_carlo():
    # x lands in [lo, hi) exactly when its digits start with the block
    base = RealBase(PHI2)
    for ci in base.cylinder_intervals(0, 4):
        k = len(ci.block)
        for t in (0.0, 0.37, 0.93):
            inside = ci.lo + t * (ci.hi - ci.lo) * 0.999
            digs = base.digits(inside, k, on_ambiguous="nudge")
            assert tuple(digs) == ci.block, (ci.block, inside)
    # points in and out of every interval; digit 1 is available for base 3
    base3 = RealBase(3.0)
    xs = [0.05, 0.2, 0.44, 0.61, 0.86, 0.99]
    intervals = base3.cylinder_intervals(1, 3)
    for x in xs:
        digs = tuple(base3.digits(x, 3, on_ambiguous="nudge"))
        for ci in intervals:
            assert (ci.lo <= x < ci.hi) == (digs == ci.block), (x, ci.block)


def test_cylinder_interval_exact_form():
    # lo is the block value; hi is the tightest prefix+power bound
    base = RealBase(2.5)
    for ci in base.cylinder_intervals(0, 3):
        w = ci.block
        assert ci.lo == pytest.approx(base.value(w), abs=1e-14)
        cand = [base.value(w[:j]) + 2.5 ** -j for j in range(1, len(w) + 1)]
        assert ci.hi == pytest.approx(min(1.0, min(cand)), abs=1e-14)


def test_golden_v4_frozen_endpoints():
    b = PHI1
    want = [
        (0.0, b ** -4),
        (b ** -3, b ** -2),
        (b ** -2, b ** -2 + b ** -4),
        (b ** -1, b ** -1 + b ** -4),
        (b ** -1 + b ** -3, 1.0),
    ]
    got = RealBase(b).cylinder_intervals(0, 4)
    assert len(got) == 5
    for ci, (lo, hi) in zip(got, want):
        assert ci.lo == pytest.approx(lo, abs=1e-10)
        assert ci.hi == pytest.approx(hi, abs=1e-10)
        assert ci.full_length  # golden: every zero-digit cylinder is full


# (b, d, k) -> sha256 of one line "block lo.hex() hi.hex() full_length" per
# interval of cylinder_intervals(d, k); the hypothesis test stops at k = 10
CYLINDER_PINS = {
    (PHI1, 0, 13):
        "8cd84f59073758d5e2221199dcc5be633df3c3e2f31648a8ae25587f9b66dfc1",
    (PHI1, 0, 18):
        "5c768ab1566172989954affb81a5c2a620cbf49f5c27a0f3ac181d750e6ec31b",
    (PHI2, 0, 7):
        "8e2b6b71f164804ba5a52b81d1b2c92a3412d4b5b6ef486b844c6d827426081d",
    (2.5, 0, 7):
        "508b31e060b11e3900c304a0df1b9727860377bc305b14606851d07e28fffad5",
    (3.0, 2, 6):
        "5519cdec736727598c4a9ad532e71c3bdabe0ab163cd229ed5c3032ffd7e0d6e",
}


def cylinder_digest(b, d, k):
    h = hashlib.sha256()
    for ci in RealBase(b).cylinder_intervals(d, k):
        h.update(f"{ci.block} {ci.lo.hex()} {ci.hi.hex()} {ci.full_length}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("b, d, k", list(CYLINDER_PINS))
def test_cylinder_intervals_bits_are_pinned(b, d, k):
    assert cylinder_digest(b, d, k) == CYLINDER_PINS[b, d, k]


def test_cylinder_intervals_error_contract():
    # the target is checked before the automaton: k, then d, then the
    # alphabet, then the depth; k = DEPTH + 1 is valid and is not tried
    golden, wide = RealBase(PHI1), RealBase(1e6 + 0.5)
    for base in (golden, wide):
        for k in (1, 0, -3):
            with pytest.raises(ValueError, match="^k must be at least 2$"):
                base.cylinder_intervals(base.d_prime + 1, k)
        with pytest.raises(ValueError, match=f"^digit {base.d_prime + 1} exceeds the minimal "
                                             f"quasi-greedy digit {base.d_prime}$"):
            base.cylinder_intervals(base.d_prime + 1, DEPTH + 2)
        with pytest.raises(ValueError, match="^digit -1 exceeds"):
            base.cylinder_intervals(-1, 2)
    with pytest.raises(ValueError, match="^block longer than the precomputed expansion depth$"):
        golden.cylinder_intervals(0, DEPTH + 2)
    for k in (2, DEPTH + 2):
        with pytest.raises(ValueError, match=r"^base 1000000\.5: an alphabet of 1e\+06 digits "
                                             "is too large to tabulate$"):
            wide.cylinder_intervals(0, k)
    # then the block count: 2.5 has 1 195 000 admissible 15-blocks, so every
    # decomposition from k = 16 on is refused before it lists a block
    two_half = RealBase(2.5)
    with pytest.raises(ValueError, match="^digit 3 exceeds"):
        two_half.cylinder_intervals(3, 16)
    with pytest.raises(ValueError, match="^block longer than the precomputed expansion depth$"):
        two_half.cylinder_intervals(0, DEPTH + 2)
    for k in (16, DEPTH + 1):
        with pytest.raises(ValueError) as exc:
            two_half.cylinder_intervals(0, k)
        assert str(exc.value) == (f"base 2.5: length {k - 1} has more than {MAX_BLOCKS} "
                                  "admissible blocks (1195000 at length 15)")


@pytest.mark.parametrize("b, n, count, at", [
    (2.5, 15, 1195000, 15), (2.5, 200, 1195000, 15),
    (PHI1, DEPTH, 1346269, 29),  # the Fibonacci number F(31)
    (1e6, 2, 10 ** 12, 2),  # one digit short of MAX_ALPHABET
])
def test_listings_past_max_blocks_are_refused(b, n, count, at):
    with pytest.raises(ValueError) as exc:
        RealBase(b).enumerate_admissible(n)
    assert str(exc.value) == (f"base {b!r}: length {n} has more than {MAX_BLOCKS} "
                              f"admissible blocks ({count} at length {at})")


def test_full_length_iff_not_E():
    for b in BASES:
        base = RealBase(b)
        flags = {ci.block: ci.full_length for ci in base.cylinder_intervals(0, 4)}
        for w in base.enumerate_admissible(3):
            assert base.in_E(w, 0) == (not flags[w + (0,)]), (b, w)


def test_in_E_rejects_large_digits():
    base = RealBase(PHI1)  # d' = 0
    with pytest.raises(ValueError):
        base.in_E((0, 1), 1)


def test_E_members_end_with_prefix_of_c():
    # structural characterisation: some nonempty suffix is a prefix of c
    for b in (PHI1, PHI2, 2.5):
        base = RealBase(b)
        c = base.c_digits
        for w in base.enumerate_admissible(4):
            if base.in_E(w, 0):
                assert any(list(w[s:]) == c[:len(w) - s]
                           for s in range(len(w))), (b, w)


# -- value gaps and non-full runs ----------------------------------------------

@pytest.mark.parametrize("b", BASES)
def test_consecutive_value_gaps(b):
    base = RealBase(b)
    for n in range(1, 7):
        vals = [base.value(w) for w in base.enumerate_admissible(n)]
        for v1, v2 in zip(vals, vals[1:]):
            assert v2 - v1 <= b ** -n + 1e-9, (b, n)


@pytest.mark.parametrize("b", BASES)
def test_E_run_bound(b):
    base = RealBase(b)
    for n in range(1, 7):
        flags = [base.in_E(w, 0) for w in base.enumerate_admissible(n)]
        run = best = 0
        for f in flags:
            run = run + 1 if f else 0
            best = max(best, run)
        assert best <= base.K_b + 2, (b, n, best)


# -- property tests -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BASES), st.floats(min_value=0.001, max_value=0.999))
def test_expansion_prefix_is_admissible(b, x):
    base = RealBase(b)
    try:
        digs = base.digits(x, 8)
    except AmbiguousValueError:
        return
    assert base.is_admissible(tuple(digs))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BASES), st.floats(min_value=0.001, max_value=0.999),
       st.integers(min_value=1, max_value=10))
def test_value_of_digits_never_exceeds_x(b, x, n):
    base = RealBase(b)
    digs = base.digits(x, n, on_ambiguous="nudge")
    v = base.value(digs)
    assert v <= x + 1e-9
    assert x - v <= b ** -n + 1e-9


# -- automaton against the suffix oracle ----------------------------------------

SPECIAL_BASES = [PHI1, PHI2, 2.0, 3.0, 4.0, 5.0]
any_base = st.one_of(st.sampled_from(SPECIAL_BASES), st.floats(min_value=1.01, max_value=6.0))


def oracle_blocks(base, n, top=4000):
    """Oracle-admissible words of length n over the alphabet, or None when
    the product alphabet is too large to list."""
    if (base.s_b + 1) ** n > top:
        return None
    return [w for w in itertools.product(range(base.s_b + 1), repeat=n)
            if oracle_admissible(w, base.c_digits)]


def c_pieces(base):
    """Words glued from pieces of c, which keep the automaton in tight
    states far more often than uniform digits do."""
    piece = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, base.s_b))
    return st.lists(piece, max_size=4).map(lambda ps: [
        d for i, m, e in ps for d in base.c_digits[i:i + m] + [e]][:10])


@settings(max_examples=150, deadline=None)
@given(any_base, st.data())
def test_is_admissible_matches_oracle(b, data):
    base = RealBase(b)
    word = data.draw(st.one_of(
        st.lists(st.integers(0, base.s_b), max_size=10), c_pieces(base)))
    for j in range(len(word) + 1):
        assert base.is_admissible(word[:j]) == oracle_admissible(word[:j], base.c_digits), (b, word[:j])


@settings(max_examples=60, deadline=None)
@given(any_base, st.integers(min_value=0, max_value=10))
def test_enumerate_admissible_matches_oracle(b, n):
    base = RealBase(b)
    want = oracle_blocks(base, n)
    if want is not None:
        assert base.enumerate_admissible(n) == want, (b, n)


@settings(max_examples=60, deadline=None)
@given(any_base, st.integers(min_value=2, max_value=10), st.data())
def test_cylinder_intervals_match_direct_computation(b, k, data):
    base = RealBase(b)
    d = data.draw(st.integers(0, base.d_prime))
    want = oracle_blocks(base, k - 1)
    if want is None:
        return
    got = base.cylinder_intervals(d, k)
    assert [ci.block for ci in got] == [w + (d,) for w in want]
    for ci in got:
        lo, hi = base.cylinder_interval(ci.block)
        full = hi - lo >= b ** -k - EPS_CMP
        assert (ci.lo, ci.hi, ci.full_length) == (base.value(ci.block), hi, full), ci.block


def oracle_nearest(base, x, d, k):
    """The full-enumeration argmin: the target the game strategies picked
    from cylinder_intervals before the lazy query."""
    centers = np.array([0.5 * (ci.lo + ci.hi) for ci in base.cylinder_intervals(d, k)
                        if ci.full_length])
    return float(centers[int(np.argmin(np.abs(centers - x)))]) if len(centers) else None


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from([PHI1, PHI2, 2.5, 3.0]), st.floats(1.01, 6.0)), st.data())
def test_nearest_full_cylinder_matches_the_enumeration_argmin(b, data):
    base = RealBase(b)
    # at most about 2000 blocks for the oracle to list
    k = data.draw(st.integers(2, max(2, min(14, 1 + int(math.log(2000, b))))))
    d = data.draw(st.integers(0, base.d_prime))
    ivs = base.cylinder_intervals(d, k)
    centers = [0.5 * (ci.lo + ci.hi) for ci in ivs if ci.full_length]
    x = data.draw(st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from(centers),
        st.sampled_from([e for ci in ivs for e in (ci.lo, ci.hi) if e < 1.0]),
        st.integers(0, len(centers) - 2).map(lambda i: 0.5 * (centers[i] + centers[i + 1]))
        if len(centers) > 1 else st.nothing()))
    assert base.nearest_full_cylinder(x, d, k) == oracle_nearest(base, x, d, k), (b, k, d, x)


def test_nearest_full_cylinder_breaks_ties_to_the_left():
    # base 2, k = 2: the cylinders of 00 and 10 have centers 0.125 and 0.625,
    # those of 01 and 11 centers 0.375 and 0.875; each x below is an exact tie
    base = RealBase(2.0)
    assert base.nearest_full_cylinder(0.375, 0, 2) == 0.125
    assert base.nearest_full_cylinder(0.625, 1, 2) == 0.375
    with pytest.raises(ValueError, match="k must be at least 2"):
        base.nearest_full_cylinder(0.5, 0, 1)


def test_automaton_is_exact_for_any_c():
    # an expansion of 1 computed in floats need not be shift-maximal; the
    # failure links keep the automaton equal to the suffix test regardless
    base = RealBase(2.5)
    for c in itertools.product(range(3), repeat=5):
        base.c_digits = list(c) + [0, 0, 0]
        want = oracle_blocks(base, 5)
        assert base.enumerate_admissible(5) == want, c
        admissible = set(want)
        for w in itertools.product(range(3), repeat=5):
            assert base.is_admissible(w) == (w in admissible), (c, w)
