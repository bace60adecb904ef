import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from uppertail.hypergraph import Hypergraph, sample_vm, sample_vp
from uppertail.rng import CHUNK, DRAW_BLOCK, chunk_layout, m_subset_members, p_subset_members
from uppertail.rng import stream_generator

SEEDS = st.integers(0, (1 << 64) - 1)


class TestStreamGenerator:
    def test_largest_key_accepted(self):
        top = (1 << 64) - 1
        assert stream_generator(top, top).random() == stream_generator(top, top).random()

    @pytest.mark.parametrize("seed, stream", [(1 << 64, 0), (0, 1 << 64), (-1, 0), (0, -1)])
    def test_out_of_range_key_rejected(self, seed, stream):
        # Masking to 64 bits would make seed 2^64 replay seed 0's draws.
        with pytest.raises(ValueError):
            stream_generator(seed, stream)

    @pytest.mark.parametrize("seed, stream", [(2.5, 0), (0, 1.0), (np.float64(2.0), 0), (2, -0.0)])
    def test_non_integer_key_rejected(self, seed, stream):
        # Truncating would make seed 2.5 replay seed 2's draws.
        with pytest.raises(TypeError):
            stream_generator(seed, stream)

    @pytest.mark.parametrize("seed, stream", [(2, 0), (np.uint64(2), np.int8(0)), (np.int64(2), False)])
    def test_integer_keys_of_any_type_draw_the_same_words(self, seed, stream):
        # Seed 2, stream 0 draws this first word whatever integer type carries the keys.
        assert stream_generator(seed, stream).bit_generator.random_raw() == 9018899181413962518


class TestChunkLayout:
    def test_streams_cover_the_total_in_order(self):
        # Refusals (a negative or float total) are cells of test_bounds.py's boundary table.
        assert list(chunk_layout(0)) == []
        assert list(chunk_layout(CHUNK)) == [(0, CHUNK)]
        assert list(chunk_layout(2 * CHUNK + 1)) == [(0, CHUNK), (1, CHUNK), (2, 1)]


def _generators(seed: int, philox: bool) -> tuple[np.random.Generator, np.random.Generator]:
    """Two generators in equal states: a Philox stream or a default PCG64."""
    if philox:
        return stream_generator(seed, 3), stream_generator(seed, 3)
    return np.random.default_rng(seed), np.random.default_rng(seed)


class _Replay:
    """Stands in for a generator, answering integers(i, n) from a fixed list."""

    def __init__(self, values):
        self.values = iter(values)

    def integers(self, low, high):
        value = int(next(self.values))
        assert low <= value < high
        return value


class TestOneSampleDraws:
    @given(st.data(), SEEDS, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_sample_vm_is_scalar_fisher_yates(self, data, seed, philox):
        n = data.draw(st.integers(0, 60))
        m = data.draw(st.integers(0, n))
        gen, ref = _generators(seed, philox)
        got = sample_vm(Hypergraph(3, n, []), m, gen)
        assert got.indices() == oracles.scalar_sample_vm(n, m, ref)
        # Both read the same bits, so the generators stay in step.
        assert gen.random() == ref.random()


class TestBatchedDraws:
    @given(
        st.integers(1, 12),
        st.data(),
        st.floats(0.0, 1.0),
        st.sampled_from([1, 2, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 2 * DRAW_BLOCK + 5]),
        SEEDS,
    )
    @settings(max_examples=30, deadline=None)
    def test_p_columns_are_successive_one_sample_draws(self, n, data, p, count, seed):
        free = sorted(data.draw(st.sets(st.integers(0, n - 1))))
        batch = p_subset_members(stream_generator(seed, 0), n, free, p, count)
        gen = stream_generator(seed, 0)
        for i in range(count):
            assert np.array_equal(batch[:, i], p_subset_members(gen, n, free, p, 1)[:, 0]), i
        fixed = [v for v in range(n) if v not in free]
        assert batch[fixed].all()

    @given(st.data(), st.integers(1, 40), SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_m_columns_are_scalar_draws_on_their_swap_positions(self, data, count, seed):
        # Step i draws every sample's swap position at once, so column c reads
        # entry c of each step's draw.  That is not the c-th of count
        # successive one-sample draws, which would read m positions in a row.
        n = data.draw(st.integers(0, 30))
        m = data.draw(st.integers(0, n))
        batch = m_subset_members(stream_generator(seed, 0), n, m, count)
        gen = stream_generator(seed, 0)
        swaps = [gen.integers(i, n, size=count) for i in range(m)]
        for c in range(count):
            want = oracles.scalar_sample_vm(n, m, _Replay(step[c] for step in swaps))
            assert tuple(np.flatnonzero(batch[:, c]).tolist()) == want, c
        assert (batch.sum(axis=0) == m).all()


# Probabilities at and next to the ends of [0, 1], and three between.
P_GRID = [0.0, 2.0**-53, 0.05, 1 / 3, 0.5, 1 - 2.0**-53, 1.0]
P_IDS = ["0", "2^-53", "0.05", "1/3", "0.5", "1-2^-53", "1"]


class TestSampleVpReference:
    """sample_vp, the one-column raw-word draw, keeps the vertices the float
    compare random(n) < p keeps, draw for draw, and leaves the generator in
    the same state."""

    @pytest.mark.parametrize("p", P_GRID, ids=P_IDS)
    @pytest.mark.parametrize("n", [0, 1, 8, 60, 300])
    @pytest.mark.parametrize("philox", [True, False], ids=["philox", "pcg64"])
    def test_draws_equal_the_float_compare(self, philox, n, p):
        gen, ref = _generators(11, philox)
        h = Hypergraph(3, n, [])
        for draw in range(50):
            assert sample_vp(h, p, gen).indices() == oracles.float_sample_vp(n, p, ref), draw
        np.testing.assert_equal(gen.bit_generator.state, ref.bit_generator.state)


class _RawWords:
    """Stands in for a generator whose bit generator answers random_raw(size)
    from a fixed word list, in order."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = list(words)

    def random_raw(self, size):
        rows, cols = size
        taken, self.words = self.words[: rows * cols], self.words[rows * cols :]
        return np.array(taken, dtype=np.uint64).reshape(rows, cols)


class TestPDrawLaw:
    """p_subset_members keeps a vertex exactly when Generator.random() would
    read its raw word as a double below p."""

    @pytest.mark.parametrize("p", P_GRID, ids=P_IDS)
    def test_every_tie_with_the_cut(self, p):
        # K = raw >> 11 is the 53-bit integer behind the double K / 2^53; the
        # cut is C = ceil(p 2^53).  Words with K at, next to and far from C,
        # each with its lowest, next and highest 11 low bits.
        c = math.ceil(p * 2**53)
        ks = sorted({k for k in (0, 1, c - 2, c - 1, c, c + 1, 2**52, 2**53 - 1) if 0 <= k < 2**53})
        words = [(k << 11) | low for k in ks for low in (0, 1, 2047)]
        member = p_subset_members(_RawWords(words), len(words), range(len(words)), p, 1)
        want = [(w >> 11) * 2.0**-53 < p for w in words]
        assert member[:, 0].tolist() == want

    @pytest.mark.parametrize("p", P_GRID, ids=P_IDS)
    @pytest.mark.parametrize("free", [range(300), range(0, 300, 2), [4, 150, 299]], ids=["300", "150", "3"])
    def test_masks_equal_the_float_compare(self, p, free):
        free = list(free)
        got = p_subset_members(stream_generator(6, 1), 300, free, p, DRAW_BLOCK + 7)
        want = np.ones((300, DRAW_BLOCK + 7), dtype=bool)
        want[free] = (stream_generator(6, 1).random((DRAW_BLOCK + 7, len(free))) < p).T
        assert np.array_equal(got, want)
