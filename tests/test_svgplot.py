import xml.etree.ElementTree as ET

import pytest

from rtpc.svgplot import render_line_chart


def test_text_with_markup_characters_is_escaped(tmp_path):
    path = tmp_path / "chart.svg"
    title, x_label, y_label = "a<b & c: mean_flow", "delay <s>", "Diff & more (%)"
    render_line_chart([0, 1], [1, 2], path, title=title, x_label=x_label, y_label=y_label,
                      marker=(1, 2))
    texts = [el.text for el in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert title in texts and x_label in texts and y_label in texts


@pytest.mark.parametrize("value", [0.0, 2.0**53, -(2.0**60)])
def test_one_value_spans_widen(tmp_path, value):
    # From 2**53 on, value + 1.0 == value: the span must widen by more than 1.
    path = tmp_path / "chart.svg"
    render_line_chart([value, value], [value, value], path, title="t", x_label="x", y_label="y",
                      marker=(value, value))
    ET.parse(path)
