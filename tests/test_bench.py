import json

from fbcomp import sinks
from fbcomp.bench import BenchConfig, BenchmarkReport


class TestReport:
    def test_names_the_crc32_backend(self):
        report = BenchmarkReport(machine="host", config=BenchConfig())
        assert json.loads(report.to_json())["crc32"] == sinks.CRC32_BACKEND
        assert report.to_text().splitlines()[0] == \
            f"machine: host, crc32 {sinks.CRC32_BACKEND}"
