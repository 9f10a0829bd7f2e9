"""Tests for the memory-stream model."""

from repro.gpu import stream_bytes


class TestStreamBytes:
    def test_rounds_to_transactions(self):
        assert stream_bytes(1, 4) == 128
        assert stream_bytes(32, 4) == 128
        assert stream_bytes(33, 4) == 256

    def test_zero(self):
        assert stream_bytes(0, 4) == 0
