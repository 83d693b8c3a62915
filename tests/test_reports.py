import json
import math
import os
import stat

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ineqlab.reports import build_report, write_csv, write_json

SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.integers(-2**62, 2**62),
    st.integers(-2**62, 2**62).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6),
                                                                 inner, max_size=4),
    max_leaves=20,
)


def _assert_decodes_to(loaded, original):
    if isinstance(original, dict):
        assert isinstance(loaded, dict) and loaded.keys() == original.keys()
        for key, val in original.items():
            _assert_decodes_to(loaded[key], val)
    elif isinstance(original, list):
        assert isinstance(loaded, list) and len(loaded) == len(original)
        for got, val in zip(loaded, original):
            _assert_decodes_to(got, val)
    elif isinstance(original, (bool, np.bool_)):
        assert loaded is bool(original)
    elif isinstance(original, (int, np.integer)):
        assert type(loaded) is int and loaded == int(original)
    else:
        value = float(original)
        if math.isfinite(value):
            assert type(loaded) is float and loaded == value
        else:
            # non-finite floats travel as the strings "inf", "-inf", "nan"
            assert loaded in ("inf", "-inf", "nan")
            back = float(loaded)
            assert back == value or (math.isnan(back) and math.isnan(value))


@settings(max_examples=200)
@given(payload=st.dictionaries(st.text(max_size=6), PAYLOADS, max_size=5))
def test_report_json_round_trip(payload):
    report = build_report("estimate", {"alpha": "power:2,2"}, payload, seed=0)
    loaded = json.loads(json.dumps(report))
    _assert_decodes_to(loaded["result"], payload)
    assert loaded["seed"] == 0 and loaded["schema"] == report["schema"]


def test_reports_get_the_umask_mode(tmp_path):
    # the same mode a plain open() gives: 0644 under umask 022
    old = os.umask(0o022)
    try:
        write_json(build_report("estimate", {}, {"value": 1.0}, seed=0),
                   str(tmp_path / "r.json"))
        write_csv([{"a": 1.0}], str(tmp_path / "r.csv"))
    finally:
        os.umask(old)
    for name in ("r.json", "r.csv"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644
