import xml.etree.ElementTree as ET

from rtpc.svgplot import render_line_chart


def test_text_with_markup_characters_is_escaped(tmp_path):
    path = tmp_path / "chart.svg"
    title, x_label, y_label = "a<b & c: mean_flow", "delay <s>", "Diff & more (%)"
    render_line_chart([0, 1], [1, 2], path, title=title, x_label=x_label, y_label=y_label)
    texts = [el.text for el in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert title in texts and x_label in texts and y_label in texts
