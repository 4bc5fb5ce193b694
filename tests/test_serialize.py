import json
import math

import pytest

from planesing.locus import CurveSample, SpecialPoint
from planesing.serialize import (
    canonical_json,
    dump_json,
    format_float,
    write_curves_csv,
    write_svg,
)


def test_format_float_fixed_rules():
    assert format_float(1.0) == "1.0"
    assert format_float(-3.0) == "-3.0"
    assert format_float(0.0) == "0.0"
    assert format_float(-0.0) == "0.0"
    assert format_float(0.5) == "0.5"
    assert format_float(1.0 / 3.0) == "0.33333333333333331"
    assert float(format_float(math.pi)) == math.pi


def test_format_float_writes_every_float_as_a_json_float():
    # every double in [1e16, 1e17) is an integer, and .17g writes all its digits
    for x in (2.0**53, 1e16, 2e16, -2e16, 99999999999999984.0, 1e17, 1.5e300, 1e-300):
        text = format_float(x)
        assert type(json.loads(text)) is float and float(text) == x, text
    assert format_float(2e16) == "20000000000000000.0"
    assert format_float(1e17) == "1e+17"


def test_format_float_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            format_float(bad)


def test_canonical_json_is_parseable_and_ordered():
    obj = {"b": 1.5, "a": [1.0, 2.0, 3.0], "c": {"x": None, "y": True}}
    text = canonical_json(obj)
    assert json.loads(text) == obj
    # insertion order is preserved, not sorted
    assert text.index('"b"') < text.index('"a"') < text.index('"c"')


def test_dump_json_is_byte_stable(tmp_path):
    obj = {"xi": [0.0, -0.0, 12.0], "t": 1.0 / 3.0, "name": "first"}
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    dump_json(obj, p1)
    dump_json(obj, p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.endswith(b"\n")
    assert json.loads(b1)["t"] == pytest.approx(1.0 / 3.0, abs=0)


def test_write_curves_csv(tmp_path):
    curves = [
        CurveSample(vertices=[(0.0, 1.0), (0.5, 1.5)], residuals=[0.0, 0.0], closed=False),
        CurveSample(vertices=[(2.0, 2.0)], residuals=[0.0], closed=True),
    ]
    path = tmp_path / "curves.csv"
    write_curves_csv(path, curves)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "curve,u1,u2"
    assert lines[1].startswith("0,")
    assert lines[3].startswith("1,")
    assert len(lines) == 4


def test_write_curves_csv_with_images(tmp_path):
    curves = [CurveSample(vertices=[(0.0, 1.0)], residuals=[0.0], closed=False)]
    images = [CurveSample(vertices=[(3.0, -1.0)], residuals=[0.0], closed=False)]
    path = tmp_path / "curves.csv"
    write_curves_csv(path, curves, images)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "curve,u1,u2,x1,x2"
    row = lines[1].split(",")
    assert float(row[3]) == 3.0 and float(row[4]) == -1.0


def test_write_curves_csv_mismatch_rejected(tmp_path):
    curves = [CurveSample(vertices=[(0.0, 1.0), (1.0, 1.0)], residuals=[0, 0], closed=False)]
    images = [CurveSample(vertices=[(3.0, -1.0)], residuals=[0], closed=False)]
    with pytest.raises(ValueError):
        write_curves_csv(tmp_path / "x.csv", curves, images)


def test_write_svg(tmp_path):
    from planesing.germs import builtin_germ, classify
    from planesing.locus import BoxDomain, find_special_points, sample_singular_set

    g = builtin_germ("beaks")
    box = BoxDomain((-1, -1), (1, 1), (32, 32))
    curves = sample_singular_set(g, box)
    points = find_special_points(g, box)
    path = tmp_path / "plot.svg"
    write_svg(path, curves, points, box, label="beaks")
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == len(curves)
    assert "<circle" in text
    assert "beaks" in text
    # same inputs give identical bytes
    path2 = tmp_path / "plot2.svg"
    write_svg(path2, curves, points, box, label="beaks")
    assert path.read_bytes() == path2.read_bytes()
