import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import encode_integer, encode_planes
from stemc.sparsity import drlo
from stemc.stem import step_weights


# Single-step reference oracle: the simulator emits a whole train from the
# value it carries, this walks one threshold step at a time. A train decodes
# as the dot product of its bits with the wire's step weights.


def generate_step(v: int, k: int, step: int) -> tuple[int, int]:
    """One emission step: returns (spike, v_after). Requires v >= 0."""
    if v < 0:
        raise ValueError("threshold emission is defined for non-negative values")
    theta = 1 << (k - 1 - step)
    if v >= theta:
        return 1, v - theta
    return 0, v


def phi(t: int, k: int, signed: bool) -> int:
    """The paper's step weight: -2^(K-1) at a signed wire's first step,
    else 2^(K-1-t)."""
    return -(1 << (k - 1)) if signed and t == 0 else 1 << (k - 1 - t)


class TestStepWeights:
    def test_signed_weights(self):
        assert step_weights(8, signed=True).tolist() == [-128, 64, 32, 16, 8, 4, 2, 1]

    def test_unsigned_weights(self):
        assert step_weights(8, signed=False).tolist() == [128, 64, 32, 16, 8, 4, 2, 1]

    @pytest.mark.parametrize("k", range(2, 17))
    @pytest.mark.parametrize("signed", [True, False])
    def test_every_k_matches_formula(self, k, signed):
        got = step_weights(k, signed)
        assert got.dtype == np.int64
        assert got.tolist() == [phi(t, k, signed) for t in range(k)]


class TestEncodeDecode:
    def test_83_bit_pattern(self):
        assert encode_integer(83, 8, signed=False).tolist() == [0, 1, 0, 1, 0, 0, 1, 1]

    def test_negative_twos_complement(self):
        # -1 is all ones over the wire
        assert encode_integer(-1, 8, signed=True).tolist() == [1] * 8

    def test_signed_roundtrip_exhaustive(self):
        weights = step_weights(8, signed=True)
        for q in range(-128, 128):
            assert encode_integer(q, 8, signed=True) @ weights == q

    def test_unsigned_roundtrip_exhaustive(self):
        weights = step_weights(8, signed=False)
        for q in range(0, 128):
            bits = encode_integer(q, 8, signed=False)
            assert bits[0] == 0          # sign-position step stays silent
            assert bits @ weights == q

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            encode_integer(128, 8, signed=True)
        with pytest.raises(ValueError):
            encode_integer(-1, 8, signed=False)

    def test_planes_match_scalar_encode(self, rng):
        vals = rng.integers(-128, 128, size=(5, 11))
        planes = encode_planes(vals, 8, signed=True)
        assert planes.shape == (5, 11, 8)
        for i in range(5):
            for j in range(11):
                assert planes[i, j].tolist() == encode_integer(
                    int(vals[i, j]), 8, signed=True).tolist()

    @pytest.mark.parametrize("k", [2, 8, 16])
    @pytest.mark.parametrize("signed", [True, False])
    def test_planes_match_scalar_encode_at_range_edges(self, k, signed, rng):
        lo = -(1 << (k - 1)) if signed else 0
        hi = (1 << (k - 1)) - 1
        edges = [lo, lo + 1, hi - 1, hi, 0, 1] + ([-1] if signed else [])
        vals = np.concatenate([edges, rng.integers(lo, hi + 1, size=48 - len(edges))])
        planes = encode_planes(vals.reshape(4, 12), k, signed=signed)
        assert planes.dtype == np.uint8
        assert planes.shape == (4, 12, k)
        want = [encode_integer(int(q), k, signed=signed).tolist() for q in vals]
        assert planes.reshape(-1, k).tolist() == want

    def test_planes_range_check(self):
        with pytest.raises(ValueError):
            encode_planes(np.array([300]), 8, signed=False)

    @given(st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=4000))
    def test_roundtrip_any_k(self, k, q):
        q = q % (1 << (k - 1))
        assert encode_integer(q, k, signed=False) @ step_weights(k, signed=False) == q

    def test_decode_linearity(self, rng):
        # decode(a) + decode(b) == decode over the union of spikes (disjoint)
        bits = rng.integers(0, 2, size=(40, 8)).astype(np.uint8)
        brute = np.array(
            [sum(phi(t, 8, True) * int(b[t]) for t in range(8)) for b in bits])
        assert np.array_equal(bits @ step_weights(8, signed=True), brute)


class TestGeneration:
    """A hidden population emits V in [0, 2^(K-1)-1], cut by drlo, and its
    train is that value's code: ``encode_planes(drlo(v, c), k, signed=False)``."""

    def test_83_emission(self):
        assert encode_planes(np.array(83), 8, signed=False).tolist() == [0, 1, 0, 1, 0, 0, 1, 1]

    def test_threshold_walk(self):
        v = 83
        spikes = []
        for t in range(8):
            s, v = generate_step(v, 8, t)
            spikes.append(s)
        assert spikes == [0, 1, 0, 1, 0, 0, 1, 1]
        assert v == 0

    def test_exhaustive_binary_expansion(self):
        weights = step_weights(8, signed=False)
        for v in range(0, 128):
            bits = encode_planes(np.array(v), 8, signed=False)
            assert bits @ weights == v

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_planes(np.array([-1]), 8, signed=False)
        with pytest.raises(ValueError):
            generate_step(-1, 8, 0)

    @given(st.integers(min_value=2, max_value=16), st.data())
    def test_matches_greedy_walk(self, k, data):
        # every emittable v, every suppression
        hi = (1 << (k - 1)) - 1
        vs = data.draw(st.lists(st.integers(min_value=0, max_value=hi), max_size=12))
        vs += [0, 1, hi - 1, hi]
        for suppress in range(k + 1):
            want = []
            for v in vs:
                bits = []
                for t in range(k):
                    spike, v = generate_step(v, k, t)
                    bits.append(spike if k - 1 - t >= suppress else 0)
                want.append(bits)
            got = encode_planes(drlo(np.array(vs), suppress), k, signed=False)
            assert got.dtype == np.uint8
            assert got.tolist() == want

    def test_suppression_zeroes_low_bits(self):
        weights = step_weights(8, signed=False)
        for v in (84, 83, 127, 7, 0):
            bits = encode_planes(drlo(np.array(v), 3), 8, signed=False)
            assert bits @ weights == v & ~0b111

    def test_suppression_only_masks_emission(self):
        full = encode_planes(np.array(100), 8, signed=False)
        cut = encode_planes(drlo(np.array(100), 2), 8, signed=False)
        assert np.array_equal(full[..., :6], cut[..., :6])
        assert cut[..., 6:].sum() == 0
