"""Unit-conversion helpers."""

import pytest

from repro import units
from repro.errors import ConfigurationError


class TestBandwidthConversions:
    def test_10_gbps_is_1_25_gigabytes(self):
        assert units.gbps_to_bytes_per_s(10) == pytest.approx(1.25e9)

    def test_round_trip(self):
        assert units.bytes_per_s_to_gbps(
            units.gbps_to_bytes_per_s(25)) == pytest.approx(25)

    def test_zero_allowed(self):
        assert units.gbps_to_bytes_per_s(0) == 0.0

    def test_negative_bandwidth_rejected(self):
        for bad in (-1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError):
                units.gbps_to_bytes_per_s(bad)
            with pytest.raises(ConfigurationError):
                units.bytes_per_s_to_gbps(bad)


class TestTimeConversions:
    def test_ms_round_trip(self):
        assert units.seconds_from_ms(units.ms(0.25)) == pytest.approx(0.25)

    def test_us_round_trip(self):
        assert units.seconds_from_us(units.us(3e-5)) == pytest.approx(3e-5)

    def test_ms_scale(self):
        assert units.ms(1.5) == pytest.approx(1500.0)


class TestSizeConversions:
    def test_mib_round_trip(self):
        assert units.bytes_from_mib(units.mib(123456789)) == pytest.approx(
            123456789)

    def test_mb_is_decimal(self):
        # The paper quotes ResNet-50 as 97 MB: decimal megabytes.
        assert units.mb(97_000_000) == pytest.approx(97.0)

    def test_mib_is_binary(self):
        assert units.bytes_from_mib(25) == 25 * 1024 * 1024


class TestFlopsConversions:
    def test_tflops(self):
        assert units.tflops_to_flops(15.7) == pytest.approx(15.7e12)

    def test_gflops(self):
        assert units.gflops_to_flops(2.5) == pytest.approx(2.5e9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            units.tflops_to_flops(-1)
        with pytest.raises(ValueError):
            units.gflops_to_flops(-0.5)
