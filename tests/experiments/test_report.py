"""Report-rendering tests."""

from repro.experiments.report import format_series, format_table


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["name", "value"], [["a", 1], ["longer", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "-" in lines[1]
        assert len(lines) == 4

    def test_title_prepended(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_handles_numeric_cells(self):
        text = format_table(["a", "b"], [[1.5, None]])
        assert "1.5" in text and "None" in text


class TestFormatSeries:
    def test_default_x_axis(self):
        text = format_series({"s": [1.0, 2.0, 3.0]})
        assert "iteration" in text
        assert "1" in text and "3" in text

    def test_custom_x_values(self):
        text = format_series({"s": [1.0]}, x_values=[0.5], x_label="time")
        assert "time" in text and "0.5" in text

    def test_ragged_series_padded(self):
        text = format_series({"long": [1, 2, 3], "short": [9]})
        assert text  # renders without raising; missing cells blank
        assert "9" in text

    def test_precision(self):
        text = format_series({"s": [1.23456]}, precision=2)
        assert "1.23" in text
        assert "1.2346" not in text
