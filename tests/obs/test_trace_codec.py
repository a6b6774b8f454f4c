"""The trace codec against ``json``: same bytes out, same lines accepted.

The writer encodes records with a type dispatch instead of one
``json.dumps`` call per record, and the reader decodes with one
``raw_decode`` instead of ``json.loads``.  Both are checked here
against the encoder and decoder they replaced, kept below as oracles.
"""

from __future__ import annotations

import io
import json
import math
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.trace_io import TraceWriter, _decode_line, _encode_record, read_trace
from repro.sim.trace import TraceRecord


# ----------------------------------------------------------------------
# Oracles: the encoder and decoder the codec replaced
# ----------------------------------------------------------------------
def _oracle_jsonable(value: Any) -> Any:
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (int, float, str, bool)):
        return item()
    raise TypeError(f"trace payload value {value!r} is not JSON-serializable")


def oracle_line(record: TraceRecord) -> str:
    """A record's line as ``TraceWriter.write`` produced it before."""
    line = json.dumps(
        {"t": record.time, "kind": record.kind, "data": record.data},
        separators=(",", ":"),
        default=_oracle_jsonable,
    )
    return line + "\n"


def _outcome(func, *args):
    """``("ok", value)`` or ``("raise", exception type)``."""
    try:
        return ("ok", func(*args))
    except Exception as exc:  # noqa: BLE001 - the type is the answer
        return ("raise", type(exc))


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
EDGE_FLOATS = [0.0, -0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308, 0.1,
               math.inf, -math.inf, math.nan]

scalars = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**2000), max_value=2**2000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EDGE_FLOATS),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x3F)),
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
values = st.one_of(scalars, st.lists(scalars, max_size=3))
keys = st.one_of(st.sampled_from(["job", "num", "reason", "t", "é", "\x00"]), st.text())
payloads = st.dictionaries(keys, values, max_size=6)
times = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(),
                  st.sampled_from(EDGE_FLOATS))
kinds = st.one_of(st.sampled_from(["arrive", "start", "decision"]), st.text())

#: One cache across examples, as one writer keeps it across records.
_SHARED_HEADS: dict = {}
_SHARED_KEYS: dict = {}


@settings(max_examples=400, deadline=None)
@given(times, kinds, payloads)
def test_encoder_matches_json_dumps(time, kind, data):
    record = TraceRecord(time, kind, data)
    want = _outcome(oracle_line, record)
    assert _outcome(_encode_record, record, _SHARED_HEADS, _SHARED_KEYS) == want
    assert _outcome(_encode_record, record, {}, {}) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(times, kinds, payloads), max_size=8))
def test_writer_bytes_match_json_dumps(rows):
    records = [TraceRecord(*row) for row in rows]
    buffer = io.StringIO()
    with TraceWriter(buffer) as writer:
        for record in records:
            writer.write(record)
    body = buffer.getvalue().split("\n", 1)[1]
    assert body == "".join(oracle_line(record) for record in records)


@pytest.mark.parametrize(
    "data",
    [
        {1: "int key"},
        {"job": 1, 2.5: "float key"},
        {None: 1, True: 2},
        {"nested": {"a": [1, 2.5, None, "x"]}},
        {"tuple": (1, 2)},
        {"big": 10**40, "neg": -(10**40)},
        {"np": np.int64(7), "npf": np.float64(0.25), "npb": np.bool_(True)},
        {"ctrl": "\x00\x1f\x7f\u2028\ud800", "uni": "Hybrid-LOS-É ✓ 🚀"},
    ],
)
def test_payload_corner_cases_match(data):
    record = TraceRecord(1.5, "k", data)
    assert _encode_record(record, {}, {}) == oracle_line(record)


@pytest.mark.parametrize(
    "data", [None, [1, 2], "text", {"obj": object()}, {("start",): 1}, {"job": 1, (1,): 2}]
)
def test_non_dict_and_unserializable_payloads(data):
    record = TraceRecord(0.0, "k", data)
    assert _outcome(_encode_record, record, {}, {}) == _outcome(oracle_line, record)


def test_caches_never_confuse_kinds_and_keys():
    heads: dict = {}
    keys: dict = {}
    records = [
        TraceRecord(1.0, "job", {"job": "job"}),
        TraceRecord(2.0, "num", {"job": 1, "num": 2}),
        TraceRecord(3.0, ["list", "kind"], {"num": 3}),
        TraceRecord(4.0, "job", {("job",): 1}),
    ]
    for record in records * 2:
        assert _outcome(_encode_record, record, heads, keys) == _outcome(oracle_line, record)


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
RECORD = '{"t":1.5,"kind":"start","data":{"job":1,"num":8}}'
READER_CASES = [
    RECORD + "\n",
    RECORD,
    " " + RECORD + "\n",
    "\t\r\n " + RECORD,
    RECORD + "   \n",
    RECORD + " \t\r\n",
    RECORD + "\n\n",
    RECORD + RECORD + "\n",
    RECORD + " {}\n",
    RECORD + " x\n",
    RECORD + "\x0c\n",
    RECORD + "\u00a0\n",
    RECORD[:-7] + "\n",
    RECORD[:-7],
    RECORD[:1],
    "\ufeff" + RECORD + "\n",
    "",
    "\n",
    "   ",
    "[]\n",
    "1\n",
    "NaN\n",
    '{"t":Infinity,"kind":"k","data":{}}\n',
    '{"a":1,"a":2}\n',
    '"\\ud800"\n',
    '{"t":1,}\n',
]


@pytest.mark.parametrize("line", READER_CASES)
def test_reader_accepts_what_json_loads_accepts(line):
    want = _outcome(json.loads, line)
    got = _outcome(_decode_line, line)
    assert got[0] == want[0]
    if want[0] == "ok":
        assert json.dumps(got[1]) == json.dumps(want[1])
    else:
        assert got[1] is want[1] is json.JSONDecodeError


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["", " ", "\t", "\n", "\r\n", "x", "{}", "\ufeff", "\x0c"]),
    st.one_of(st.just(RECORD), st.text(max_size=40)),
    st.sampled_from(["", "\n", " \n", "}\n", ",\n", "x", "\t\r\n"]),
)
def test_reader_parity_on_padded_lines(prefix, body, suffix):
    line = prefix + body + suffix
    want = _outcome(json.loads, line)
    got = _outcome(_decode_line, line)
    assert got[0] == want[0]
    if want[0] == "ok":
        assert json.dumps(got[1]) == json.dumps(want[1])


def test_read_trace_error_messages_unchanged():
    text = '{"schema":"repro.trace/1","meta":{}}\n' + RECORD + " x\n" + RECORD + "\n"
    with pytest.raises(Exception) as raised:
        read_trace(io.StringIO(text))
    try:
        json.loads(RECORD + " x\n")
    except json.JSONDecodeError as exc:
        expected = f"<stream>:2: malformed record: {exc}"
    assert str(raised.value) == expected


def test_torn_final_line_still_recovers():
    text = '{"schema":"repro.trace/1","meta":{}}\n' + RECORD + "\n" + RECORD[:-5]
    with pytest.warns(RuntimeWarning, match="truncated final line"):
        trace = read_trace(io.StringIO(text))
    assert trace.truncated
    assert trace.records == [TraceRecord(1.5, "start", {"job": 1, "num": 8})]
