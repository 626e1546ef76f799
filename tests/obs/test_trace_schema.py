"""Trace writer, deterministic sampler, and reading a trace back."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import TraceSampler, TraceWriter, read_request_trace

HEADER_LINE = (
    '{"architecture":"EDGE","first_measured":20,"kind":"header",'
    '"requests":100,"routing":"symmetric","sample_rate":1.0,'
    '"sample_seed":3,"v":1}\n'
)
REQUEST_LINE = (
    '{"coop":false,"cost":3.0,"fallback":true,"i":21,"kind":"request",'
    '"leaf":8,"object":7,"origin":2,"pop":0,"serving":0,"size":2.5,"v":1}\n'
)

class TestSampler:
    def test_decision_is_pure_function_of_seed_and_index(self):
        a = TraceSampler(rate=0.5, seed=9)
        b = TraceSampler(rate=0.5, seed=9)
        assert [a.wants(i) for i in range(500)] == [
            b.wants(i) for i in range(500)
        ]

    def test_different_seeds_select_different_subsets(self):
        a = TraceSampler(rate=0.5, seed=1)
        b = TraceSampler(rate=0.5, seed=2)
        assert [a.wants(i) for i in range(500)] != [
            b.wants(i) for i in range(500)
        ]

    def test_rate_extremes_are_exact(self):
        assert all(TraceSampler(rate=1.0).wants(i) for i in range(100))
        assert not any(TraceSampler(rate=0.0).wants(i) for i in range(100))

    def test_rate_roughly_honored(self):
        sampler = TraceSampler(rate=0.25, seed=0)
        picked = sum(sampler.wants(i) for i in range(4000))
        assert 800 < picked < 1200

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            TraceSampler(rate=1.5)


class TestWriterRoundtrip:
    def _write(self, buffer):
        writer = TraceWriter(buffer, TraceSampler(rate=1.0, seed=3))
        writer.write_header("EDGE", "symmetric", 100, 20)
        writer.emit_request(
            index=20, pop=1, leaf=9, obj=4, serving=9,
            origin_pop=None, cost=0.0, size=1.0, coop=False, fallback=False,
        )
        writer.emit_request(
            index=21, pop=0, leaf=8, obj=7, serving=0,
            origin_pop=2, cost=3.0, size=2.5, coop=False, fallback=True,
        )
        writer.flush()
        return writer

    def test_every_line_validates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            writer = self._write(fh)
        assert writer.headers == 1 and writer.emitted == 2
        assert read_request_trace(path) == (1, 2)

    def test_records_are_canonical_json(self):
        buffer = io.StringIO()
        self._write(buffer)
        for line in buffer.getvalue().splitlines():
            record = json.loads(line)
            canonical = json.dumps(
                record, sort_keys=True, separators=(",", ":")
            )
            assert line == canonical

    def test_header_and_request_bytes_are_pinned(self):
        buffer = io.StringIO()
        writer = TraceWriter(buffer, TraceSampler(rate=1.0, seed=3))
        writer.write_header("EDGE", "symmetric", 100, 20)
        writer.emit_request(
            index=21, pop=0, leaf=8, obj=7, serving=0,
            origin_pop=2, cost=3, size=2.5, coop=0, fallback=1,
        )
        assert buffer.getvalue() == HEADER_LINE + REQUEST_LINE

    def test_path_destination_opens_lazily(self, tmp_path):
        path = tmp_path / "lazy.jsonl"
        writer = TraceWriter(path)
        assert not path.exists()
        writer.write_header("EDGE", "symmetric", 10, 0)
        writer.close()
        assert read_request_trace(path) == (1, 0)


def _request(drop: str = "", **changes) -> str:
    """The pinned request line, canonical, with a field dropped or changed."""
    record = json.loads(REQUEST_LINE)
    record.pop(drop, None)
    record.update(changes)
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _read(tmp_path, *lines: str):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    return read_request_trace(path)


class TestValidatorRejections:
    def test_pinned_lines_read_back(self, tmp_path):
        assert _read(tmp_path, HEADER_LINE, REQUEST_LINE) == (1, 1)

    def test_wrong_version_rejected(self, tmp_path):
        for version in (99, True, 1.0):
            with pytest.raises(ValueError, match="line 2: version"):
                _read(tmp_path, HEADER_LINE, _request(v=version))

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="line 2: unknown record kind"):
            _read(tmp_path, HEADER_LINE, _request(kind="mystery"))

    def test_missing_field_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="line 2: .*'fallback'"):
            _read(tmp_path, HEADER_LINE, _request(drop="fallback"))

    def test_extra_field_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="line 2: .*'extra'"):
            _read(tmp_path, HEADER_LINE, _request(extra=1))

    def test_non_canonical_line_rejected(self, tmp_path):
        spaced = json.dumps(json.loads(REQUEST_LINE), sort_keys=True) + "\n"
        unsorted = json.dumps(json.loads(REQUEST_LINE)) + "\n"
        for line in (spaced, unsorted, REQUEST_LINE.rstrip("\n")):
            with pytest.raises(ValueError, match="line 2: not in canonical"):
                _read(tmp_path, HEADER_LINE, line)

    def test_non_finite_cost_rejected(self, tmp_path):
        for value in ("Infinity", "-Infinity", "NaN"):
            line = REQUEST_LINE.replace('"cost":3.0', f'"cost":{value}')
            with pytest.raises(ValueError, match="line 2: non-finite"):
                _read(tmp_path, HEADER_LINE, line)

    def test_file_must_open_with_header(self, tmp_path):
        with pytest.raises(ValueError, match="line 1: request record before"):
            _read(tmp_path, REQUEST_LINE, HEADER_LINE)
        with pytest.raises(ValueError, match="no header"):
            _read(tmp_path)
