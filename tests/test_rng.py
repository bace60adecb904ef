import pytest

from uppertail.rng import stream_generator


class TestStreamGenerator:
    def test_largest_key_accepted(self):
        top = (1 << 64) - 1
        assert stream_generator(top, top).random() == stream_generator(top, top).random()

    @pytest.mark.parametrize("seed, stream", [(1 << 64, 0), (0, 1 << 64), (-1, 0), (0, -1)])
    def test_out_of_range_key_rejected(self, seed, stream):
        # Masking to 64 bits would make seed 2^64 replay seed 0's draws.
        with pytest.raises(ValueError):
            stream_generator(seed, stream)
