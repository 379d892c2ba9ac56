import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stemc.fixedpoint import (
    MAX_SHIFT,
    NORM_HIGH,
    NORM_LOW,
    FixedMult,
    FixedPointError,
    apply,
    from_real,
    saturate_array,
)


def brute_apply(m: FixedMult, x: int) -> int:
    # independent oracle: round-half-away via floor division on doubled terms
    p = x * m.mantissa
    d = 1 << m.shift
    if p >= 0:
        return (2 * p + d) // (2 * d)
    return -((2 * -p + d) // (2 * d))


class TestFromReal:
    def test_half(self):
        assert from_real(0.5) == FixedMult(1 << 30, 31)

    def test_one(self):
        assert from_real(1.0) == FixedMult(1 << 30, 30)

    def test_two(self):
        assert from_real(2.0) == FixedMult(1 << 30, 29)

    def test_negative_three_quarters(self):
        m = from_real(-0.75)
        assert m.value() == Fraction(-3, 4)
        assert NORM_LOW <= abs(m.mantissa) < NORM_HIGH

    def test_zero(self):
        assert from_real(0.0) == FixedMult(0, 0)
        assert apply(from_real(0.0), 12345) == 0

    def test_third_relative_error(self):
        m = from_real(1.0 / 3.0)
        err = abs(m.value() - Fraction(1, 3))
        assert err / Fraction(1, 3) < Fraction(1, 1 << 30)

    def test_rounding_renormalizes(self):
        # just below 1.0: mantissa rounds up to 2^31 and must renormalize
        m = from_real(math.nextafter(1.0, 0.0))
        assert NORM_LOW <= abs(m.mantissa) < NORM_HIGH
        assert m == FixedMult(1 << 30, 30)

    def test_rejects_non_finite(self):
        with pytest.raises(FixedPointError):
            from_real(float("nan"))
        with pytest.raises(FixedPointError):
            from_real(float("inf"))

    def test_rejects_huge(self):
        with pytest.raises(FixedPointError):
            from_real(2.0 ** 31)

    def test_denormal_tail(self):
        m = from_real(2.0 ** -80)
        assert m.shift == MAX_SHIFT
        assert abs(m.mantissa) < NORM_LOW

    @given(st.floats(min_value=2.0 ** -31, max_value=2.0 ** 30,
                     allow_nan=False, allow_infinity=False))
    def test_relative_error_bound(self, r):
        m = from_real(r)
        err = abs(m.value() - Fraction(r))
        assert err <= Fraction(r) / (1 << 30)

    @given(st.floats(min_value=2.0 ** -31, max_value=2.0 ** 30,
                     allow_nan=False, allow_infinity=False))
    def test_normalized(self, r):
        assert NORM_LOW <= abs(from_real(r).mantissa) < NORM_HIGH

    @given(st.floats(min_value=-100.0, max_value=100.0,
                     allow_nan=False, allow_infinity=False))
    def test_sign_symmetry(self, r):
        a, b = from_real(r), from_real(-r)
        assert a.mantissa == -b.mantissa and a.shift == b.shift


class TestConstructor:
    def test_rejects_wide_mantissa(self):
        with pytest.raises(FixedPointError):
            FixedMult(NORM_HIGH, 31)

    def test_rejects_bad_shift(self):
        with pytest.raises(FixedPointError):
            FixedMult(NORM_LOW, 63)
        with pytest.raises(FixedPointError):
            FixedMult(NORM_LOW, -1)

    def test_rejects_non_int(self):
        with pytest.raises(FixedPointError):
            FixedMult(1.5, 3)


class TestApply:
    def test_round_half_away_positive(self):
        assert apply(from_real(0.5), 7) == 4

    def test_round_half_away_negative(self):
        assert apply(from_real(0.5), -7) == -4

    def test_exact_when_even(self):
        assert apply(from_real(0.5), 8) == 4
        assert apply(from_real(0.5), -8) == -4

    def test_identity(self):
        one = from_real(1.0)
        for x in range(-300, 300, 7):
            assert apply(one, x) == x

    def test_quarter_tie(self):
        assert apply(from_real(0.25), 2) == 1  # 0.5 rounds away from zero
        assert apply(from_real(0.25), -2) == -1

    def test_huge_scalar_exact(self):
        m = from_real(1.0 / 3.0)
        x = 1 << 45
        assert apply(m, x) == brute_apply(m, x)

    def test_array_matches_scalar(self, rng):
        m = from_real(0.37)
        xs = rng.integers(-10_000, 10_000, size=257)
        out = apply(m, xs)
        assert out.tolist() == [apply(m, int(v)) for v in xs]

    def test_array_bigint_fallback(self):
        m = from_real(0.75)
        xs = np.array([1 << 40, -(1 << 40), 3, -3], dtype=np.int64)
        out = apply(m, xs)
        assert [int(v) for v in out] == [apply(m, int(v)) for v in xs]

    @pytest.mark.parametrize("shift", [0, 62])
    def test_wide_operands_negative_mantissa(self, shift, rng):
        # |x| in [2^31, 2^62) takes the exact int64 split path; shift 0 also
        # gives results beyond int64, the only case for an object array
        mags = (rng.integers(1 << 31, 1 << 62, size=500)
                >> rng.integers(0, 31, size=500)) | (1 << 31)
        edges = [1 << 31, -(1 << 31), (1 << 62) - 1, -(1 << 62) + 1,
                 1 << 62, -(1 << 63)]                 # last two: Python-int path
        xs = np.concatenate([mags * rng.choice([-1, 1], size=500), edges])
        for mantissa in (-NORM_LOW, -(NORM_HIGH - 1), -int(rng.integers(NORM_LOW, NORM_HIGH))):
            m = FixedMult(mantissa, shift)
            out = apply(m, xs)
            want = [brute_apply(m, int(x)) for x in xs]
            assert [int(v) for v in out] == want
            beyond = any(abs(v) >= 1 << 63 for v in want)
            assert out.dtype == (object if beyond else np.int64)

    @pytest.mark.parametrize("shift", [0, 1, 30, 62])
    @given(mantissa=st.integers(min_value=-(NORM_HIGH - 1), max_value=NORM_HIGH - 1),
           xs=st.lists(st.integers(min_value=-(1 << 31) + 1, max_value=(1 << 31) - 1),
                       max_size=30))
    def test_int64_path_matches_brute_force(self, shift, mantissa, xs):
        # every |x| < 2^31: the fused int64 rounding, both operand edges included
        m = FixedMult(mantissa, shift)
        x = np.array(xs + [(1 << 31) - 1, -(1 << 31) + 1, 0, 1, -1], dtype=np.int64)
        out = apply(m, x)
        assert out.dtype == np.int64
        assert out.tolist() == [brute_apply(m, int(v)) for v in x]

    @pytest.mark.parametrize("shift", [1, 31, 62])
    @pytest.mark.parametrize("mantissa", [1, -1])
    def test_array_rounds_halves_as_scalar(self, shift, mantissa):
        """Products p = ±half and ±half ± 1, half = 2^(shift-1), where the
        array path's sign correction and rounding offset meet. At shifts 1
        and 31 they take the one-multiply int64 path; at shift 62 no product
        of two factors below 2^31 comes within 1 of half, so they take the
        split multiply."""
        m = FixedMult(mantissa, shift)
        half = 1 << (shift - 1)
        x = np.array([mantissa * (sign * half + d) for sign in (1, -1) for d in (-1, 0, 1)],
                     dtype=np.int64)
        want = [apply(m, int(v)) for v in x]
        assert apply(m, x).tolist() == want == [brute_apply(m, int(v)) for v in x]

    @given(st.integers(min_value=-(1 << 40), max_value=1 << 40),
           st.floats(min_value=2.0 ** -20, max_value=2.0 ** 10,
                     allow_nan=False, allow_infinity=False))
    def test_matches_brute_force(self, x, r):
        m = from_real(r)
        assert apply(m, x) == brute_apply(m, x)

    @given(st.integers(min_value=-(1 << 20), max_value=1 << 20),
           st.integers(min_value=-(1 << 20), max_value=1 << 20))
    def test_monotone_for_positive_multiplier(self, a, b):
        m = from_real(0.123)
        lo, hi = sorted((a, b))
        assert apply(m, lo) <= apply(m, hi)

    @given(st.integers(min_value=-(1 << 40), max_value=1 << 40))
    def test_error_below_one_ulp(self, x):
        # |apply(m, x) - x*value(m)| <= 1/2 by the rounding definition
        m = from_real(0.9171)
        exact = Fraction(x) * m.value()
        assert abs(Fraction(apply(m, x)) - exact) <= Fraction(1, 2)


class TestSaturate:
    def test_clamps_high(self):
        out, events = saturate_array(np.array([40000]), 16)
        assert out.tolist() == [32767] and events == 1

    def test_clamps_low(self):
        out, events = saturate_array(np.array([-40000]), 16)
        assert out.tolist() == [-32768] and events == 1

    def test_passthrough(self):
        x = np.array([5, -32768])
        out, events = saturate_array(x, 16)
        assert out is x and events == 0

    def test_array_event_count(self):
        arr = np.array([40000, -40000, 7, 32767, -32768])
        out, events = saturate_array(arr, 16)
        assert out.tolist() == [32767, -32768, 7, 32767, -32768]
        assert events == 2

    @given(st.integers(min_value=2, max_value=64), st.data())
    def test_in_range_array_unchanged(self, width, data):
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        xs = data.draw(st.lists(st.integers(min_value=lo, max_value=hi), max_size=20))
        x = np.array(xs + [lo, hi], dtype=np.int64)
        out, events = saturate_array(x, width)
        assert events == 0
        assert out.tolist() == x.tolist()

    def test_empty_array(self):
        out, events = saturate_array(np.zeros((0, 3), dtype=np.int64), 16)
        assert out.shape == (0, 3)
        assert events == 0

    def test_object_array_event_count(self):
        # results beyond int64 come back from the wide path as an object array
        x = apply(FixedMult(NORM_HIGH - 1, 0),
                  np.array([1 << 40, -(1 << 40), 0, 1], dtype=np.int64))
        assert x.dtype == object
        out, events = saturate_array(x, 32)
        assert [int(v) for v in out] == [(1 << 31) - 1, -(1 << 31), 0, (1 << 31) - 1]
        assert events == 2

    @given(st.integers(min_value=-(1 << 40), max_value=1 << 40),
           st.integers(min_value=2, max_value=32))
    def test_always_in_range(self, x, width):
        (v,), _ = saturate_array(np.array([x], dtype=np.int64), width)
        assert -(1 << (width - 1)) <= v <= (1 << (width - 1)) - 1
