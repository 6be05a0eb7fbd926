"""Structured events: one parseable JSON line, never control flow."""

import io
import json

from repro.obs.events import emit


class TestEmit:
    def test_one_json_line_with_sorted_keys(self):
        out = io.StringIO()
        record = emit("serve.ready", stream=out, port=8321, repo="./r")
        text = out.getvalue()
        assert text.endswith("\n") and text.count("\n") == 1
        parsed = json.loads(text)
        assert parsed["event"] == "serve.ready"
        assert parsed["port"] == 8321
        assert parsed["ts"] > 0
        assert record["event"] == "serve.ready"
        keys = list(parsed)
        assert keys == sorted(keys)

    def test_default_stream_is_stderr(self, capsys):
        emit("transport.reconnect", host="h")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["event"] == "transport.reconnect"

    def test_unserializable_fields_stringify_instead_of_raising(self):
        out = io.StringIO()
        emit("odd", stream=out, payload={1, 2})  # sets are not JSON
        parsed = json.loads(out.getvalue())
        assert parsed["event"] == "odd"
        assert "payload" in parsed  # stringified, line still landed

    def test_record_is_the_event_its_time_and_the_callers_fields(self):
        out = io.StringIO()
        emit("push.done", stream=out, commits=2)
        assert set(json.loads(out.getvalue())) == {"event", "ts", "commits"}
