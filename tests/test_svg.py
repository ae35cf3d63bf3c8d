import json
import math

import numpy as np

from em2gm.svg import write_json, write_line_chart, write_table


def test_basic_chart_structure(tmp_path):
    path = tmp_path / "chart.svg"
    write_line_chart(path, [1, 2, 3], {"loss": [0.5, 0.25, 0.125]},
                     title="demo", xlabel="t", ylabel="loss")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")
    assert "<polyline" in text
    assert "demo" in text and ">loss</text>" in text


def test_output_is_deterministic(tmp_path):
    series = {"a": [1.0, 2.0, 4.0], "b": [3.0, 3.0, 3.0]}
    write_line_chart(tmp_path / "one.svg", [0, 1, 2], series)
    write_line_chart(tmp_path / "two.svg", [0, 1, 2], series)
    assert (tmp_path / "one.svg").read_bytes() == (tmp_path / "two.svg").read_bytes()


def test_log_axes_drop_nonpositive_points(tmp_path):
    path = tmp_path / "log.svg"
    write_line_chart(path, [10, 100, 1000], {"y": [0.0, 1e-2, 1e-4]},
                     logx=True, logy=True)
    text = path.read_text()
    # the zero got dropped, leaving a two-point polyline
    poly = next(line for line in text.splitlines() if line.startswith("<polyline"))
    assert poly.count(",") == 2


def test_non_finite_points_are_dropped(tmp_path):
    path = tmp_path / "nan.svg"
    write_line_chart(path, [0, 1, 2, 3], {"y": [1.0, math.nan, math.inf, 2.0]})
    poly = next(line for line in path.read_text().splitlines()
                if line.startswith("<polyline"))
    assert poly.count(",") == 2


def test_all_points_dropped_still_writes_a_frame(tmp_path):
    path = tmp_path / "empty.svg"
    write_line_chart(path, [1, 2], {"y": [-1.0, -2.0]}, logy=True)
    text = path.read_text()
    assert text.startswith("<svg")
    assert "<polyline" not in text  # legend survives, the line does not
    assert ">y</text>" in text


def test_per_series_legend_and_colors(tmp_path):
    path = tmp_path / "multi.svg"
    write_line_chart(path, [0, 1], {"alpha": [0, 1], "beta": [1, 0]})
    text = path.read_text()
    assert ">alpha</text>" in text and ">beta</text>" in text
    assert text.count("<polyline") == 2


def test_write_table_prints_integer_columns_bare(tmp_path):
    path = tmp_path / "ints.csv"
    big = 10 ** 17 + 1  # beyond 17 significant digits: only a bare integer is exact
    write_table(path, ("i", "j", "x"), np.arange(3, dtype=np.int32),
                np.array([7, 8, big]), [1.0, 2.0, 0.5])
    assert path.read_text() == f"i,j,x\n0,7,1\n1,8,2\n2,{big},0.5\n"


def test_write_table_floats_round_trip_exactly(tmp_path):
    values = np.array([-0.0, math.nan, 1e-300, 0.1, 1.0 / 3.0, -math.inf, 5e-324,
                       1.7976931348623157e308])
    path = tmp_path / "floats.csv"
    write_table(path, ("x",), values)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["x", "-0", "nan"] and lines[4] == "0.10000000000000001"
    back = np.array([float(v) for v in lines[1:]])
    assert back.tobytes() == values.tobytes()  # the sign of -0.0 included


def test_write_json_is_indented_with_a_trailing_newline(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"a": [1, 0.5], "b": None})
    text = path.read_text()
    assert text == json.dumps({"a": [1, 0.5], "b": None}, indent=2) + "\n"
