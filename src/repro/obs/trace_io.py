"""Versioned JSONL export of simulation traces.

A trace file is newline-delimited JSON: one **header** line naming the
schema plus free-form run metadata, then one line per
:class:`~repro.sim.trace.TraceRecord`::

    {"schema": "repro.trace/1", "meta": {"algorithm": "EASY", ...}}
    {"t": 0.0, "kind": "arrive", "data": {"job": 1, "num": 8}}
    {"t": 120.0, "kind": "start", "data": {"job": 1, "num": 8}}

Design rules:

- **Streaming both ways.** :class:`TraceWriter` appends records as the
  simulation produces them (the runner's sink), so memory stays flat
  regardless of run length; :func:`iter_trace` yields records without
  materializing the file.
- **Lossless round-trips.** Times are JSON numbers (``repr``-exact for
  Python floats), payload values are scalars/strings; NumPy scalars
  are converted via ``.item()`` on write.  ``write → read`` returns
  records that compare equal to the originals — enforced by
  ``tests/obs/test_trace_io.py``.
- **Versioned.** The header's ``schema`` field gates readers; an
  unknown version is a :class:`TraceReadError`, never a silent
  misparse.  Malformed lines carry file/line context, mirroring the
  workload parsers (docs/resilience.md); ``strict=False`` skips them.

>>> import io
>>> from repro.sim.trace import TraceRecord
>>> buf = io.StringIO()
>>> with TraceWriter(buf, meta={"algorithm": "EASY"}) as writer:
...     writer.write(TraceRecord(0.0, "arrive", {"job": 1, "num": 8}))
...     writer.write(TraceRecord(120.0, "start", {"job": 1, "num": 8}))
>>> writer.count
2
>>> _ = buf.seek(0)
>>> trace = read_trace(buf)
>>> trace.meta["algorithm"]
'EASY'
>>> trace.records[1] == TraceRecord(120.0, "start", {"job": 1, "num": 8})
True
"""

from __future__ import annotations

import io
import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, TextIO, Union

from repro.obs.spans import begin as _span_begin, end as _span_end
from repro.sim.trace import TraceRecord

#: Schema tag written to (and required of) every trace file header.
TRACE_SCHEMA = "repro.trace/1"

#: Buffered-writer drain threshold: records accumulate in memory and
#: land on the stream in ~this many bytes per OS write, cutting the
#: per-record I/O overhead of long traced runs (the bytes produced are
#: identical — buffering only batches them).
FLUSH_BYTES = 64 * 1024

PathOrFile = Union[str, Path, TextIO]


class TraceReadError(ValueError):
    """A trace file failed to parse.

    Attributes:
        source: Name of the offending file (``"<stream>"`` for
            file-like inputs).
        line: 1-based line number, or None when the whole file is at
            fault (e.g. empty input).
    """

    def __init__(self, message: str, *, source: str = "<stream>", line: Optional[int] = None) -> None:
        self.source = source
        self.line = line
        location = source if line is None else f"{source}:{line}"
        super().__init__(f"{location}: {message}")


def _jsonable(value: Any) -> Any:
    """Coerce payload values to JSON-safe types (NumPy scalars → Python)."""
    item = getattr(value, "item", None)
    if item is not None and not isinstance(value, (int, float, str, bool)):
        return item()
    raise TypeError(f"trace payload value {value!r} is not JSON-serializable")


def _dumps(value: Any) -> str:
    """Compact JSON of one value: the trace's reference encoding."""
    return json.dumps(value, separators=(",", ":"), default=_jsonable)


_encode_str = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__
_float_repr = float.__repr__
_INF = float("inf")


def _encode_value(value: Any) -> str:
    """One payload value, byte-identical to :func:`_dumps`.

    The common scalar types are dispatched on their exact type (so
    ``bool`` and numpy scalars, which subclass ``int``/``float``, never
    take a shortcut); ``inf``/``nan`` and every other value go through
    :func:`_dumps` itself.
    """
    cls = type(value)
    if cls is int:
        return _int_repr(value)
    if cls is float:
        if -_INF < value < _INF:
            return _float_repr(value)
    elif cls is str:
        return _encode_str(value)
    elif value is None:
        return "null"
    return _dumps(value)


def _encode_record(
    record: TraceRecord, heads: Dict[str, str], keys: Dict[str, str]
) -> str:
    """One trace line, ``_dumps({"t":…, "kind":…, "data":…}) + "\\n"``.

    ``heads`` caches the encoded middle of the line per kind and
    ``keys`` the encoded payload keys (with their ``:``): a handful of
    strings repeated on every record.  The scalar dispatch is
    :func:`_encode_value`, inlined.  A payload that is not a plain dict
    with ``str`` keys takes :func:`_dumps` for the whole record.
    """
    data = record.data
    if type(data) is not dict:
        return _dumps({"t": record.time, "kind": record.kind, "data": data}) + "\n"
    parts = []
    for key, value in data.items():
        encoded = keys.get(key)
        if encoded is None:
            if type(key) is not str:
                return _dumps({"t": record.time, "kind": record.kind, "data": data}) + "\n"
            encoded = keys[key] = _encode_str(key) + ":"
        cls = type(value)
        if cls is int:
            parts.append(encoded + _int_repr(value))
        elif cls is str:
            parts.append(encoded + _encode_str(value))
        elif cls is float and -_INF < value < _INF:
            parts.append(encoded + _float_repr(value))
        elif value is None:
            parts.append(encoded + "null")
        else:
            parts.append(encoded + _dumps(value))
    kind = record.kind
    head = heads.get(kind) if type(kind) is str else None
    if head is None:
        head = ',"kind":' + _encode_value(kind) + ',"data":{'
        if type(kind) is str:
            heads[kind] = head
    return '{"t":' + _encode_value(record.time) + head + ",".join(parts) + "}}\n"


class TraceWriter:
    """Streaming JSONL writer for trace records.

    Opens the target (path or text stream), writes the header line
    immediately, then one line per :meth:`write`.  Usable as a context
    manager; paths are closed on exit, caller-owned streams are not.

    Args:
        target: Output path or writable text stream.
        meta: Free-form run metadata for the header (algorithm,
            machine size, package version...).  Must be JSON-safe.
    """

    def __init__(self, target: PathOrFile, meta: Optional[Dict[str, Any]] = None) -> None:
        if isinstance(target, (str, Path)):
            Path(target).parent.mkdir(parents=True, exist_ok=True)
            self._fh: TextIO = open(target, "w", encoding="utf-8")
            self._owns_fh = True
        else:
            self._fh = target
            self._owns_fh = False
        self.count = 0
        self._buf: List[str] = []
        self._buf_bytes = 0
        self._heads: Dict[str, str] = {}
        self._keys: Dict[str, str] = {}
        header = {"schema": TRACE_SCHEMA, "meta": dict(meta or {})}
        self._fh.write(_dumps(header) + "\n")

    @classmethod
    def resume(cls, target: Union[str, Path], *, offset: int, count: int) -> "TraceWriter":
        """Reopen an interrupted trace file for journaled append-resume.

        ``offset``/``count`` come from a checkpoint's trace journal
        (:mod:`repro.durable.checkpoint`): the file is truncated back
        to ``offset`` — discarding any records written after the
        checkpoint, including a torn final line from a killed writer —
        and appending continues from there.  No header is rewritten;
        the bytes up to ``offset`` are the authoritative prefix, so a
        resumed run's finished file is byte-identical to an
        uninterrupted one.

        Raises:
            FileNotFoundError: when the trace file is gone.
            ValueError: when the file is shorter than ``offset`` (it
                cannot be the file the journal describes).
        """
        path = Path(target)
        size = path.stat().st_size
        if size < offset:
            raise ValueError(
                f"{path}: {size} bytes on disk but the checkpoint journal "
                f"recorded {offset}; refusing to resume a different file"
            )
        raw = open(path, "r+b")
        try:
            raw.truncate(offset)
            raw.seek(0, os.SEEK_END)
        except BaseException:
            raw.close()
            raise
        writer = cls.__new__(cls)
        writer._fh = io.TextIOWrapper(raw, encoding="utf-8", newline="")
        writer._owns_fh = True
        writer.count = count
        writer._buf = []
        writer._buf_bytes = 0
        writer._heads = {}
        writer._keys = {}
        return writer

    def write(self, record: TraceRecord) -> None:
        """Append one record as a JSONL line.

        Lines accumulate in an in-process buffer and hit the stream in
        ~:data:`FLUSH_BYTES` batches; :meth:`sync` and :meth:`close`
        drain it, so durability points and finished files see every
        record.  The bytes written are identical to unbuffered output.
        """
        line = _encode_record(record, self._heads, self._keys)
        self._buf.append(line)
        self._buf_bytes += len(line)
        if self._buf_bytes >= FLUSH_BYTES:
            self._drain()
        self.count += 1

    def _drain(self) -> None:
        """Move buffered lines to the underlying stream (one write)."""
        if self._buf:
            self._fh.write("".join(self._buf))
            self._buf.clear()
            self._buf_bytes = 0

    def sync(self) -> int:
        """Flush to stable storage; returns the durable byte length.

        The returned offset is the append position a checkpoint can
        journal: the writer only ever appends, so file size and write
        position coincide.  Only meaningful for path-backed writers.
        """
        token = _span_begin("trace_flush")
        try:
            self._drain()
            self._fh.flush()
            if not self._owns_fh:
                raise ValueError("sync() requires a path-backed TraceWriter")
            fd = self._fh.fileno()
            os.fsync(fd)
            return os.fstat(fd).st_size
        finally:
            _span_end(token)

    def close(self) -> None:
        """Flush and (for path targets) close the underlying file."""
        self._drain()
        if self._owns_fh:
            self._fh.close()
        else:
            self._fh.flush()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_trace(
    records: Iterable[TraceRecord],
    target: PathOrFile,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write a full trace in one call; returns the record count."""
    with TraceWriter(target, meta=meta) as writer:
        for record in records:
            writer.write(record)
        return writer.count


@dataclass(frozen=True)
class TraceFile:
    """A fully parsed trace: header metadata plus all records.

    ``truncated`` is True when the file ended in a torn final line (a
    crashed writer); every complete record before it was recovered.
    """

    meta: Dict[str, Any]
    records: List[TraceRecord] = field(default_factory=list)
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.records)


_raw_decode = json.JSONDecoder().raw_decode


def _decode_line(line: str) -> Any:
    """``json.loads(line)``, accepting and rejecting exactly its inputs.

    The writer's own lines (a JSON value then the newline) decode in
    one ``raw_decode`` call; leading whitespace, a BOM and every
    malformed line go through :func:`json.loads` itself, so they raise
    (or parse) exactly as before.
    """
    try:
        value, end = _raw_decode(line)
    except json.JSONDecodeError:
        return json.loads(line)
    rest = line[end:]
    # json.loads allows only JSON whitespace after the value.
    if rest != "\n" and rest.strip(" \t\n\r"):
        return json.loads(line)
    return value


def _parse_header(line: str, source: str) -> Dict[str, Any]:
    try:
        header = _decode_line(line)
    except json.JSONDecodeError as exc:
        raise TraceReadError(f"malformed header: {exc}", source=source, line=1) from None
    if not isinstance(header, dict) or "schema" not in header:
        raise TraceReadError(
            "first line is not a trace header (missing 'schema')", source=source, line=1
        )
    if header["schema"] != TRACE_SCHEMA:
        raise TraceReadError(
            f"unsupported trace schema {header['schema']!r} "
            f"(this reader understands {TRACE_SCHEMA!r})",
            source=source,
            line=1,
        )
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise TraceReadError("header 'meta' must be an object", source=source, line=1)
    return meta


def _parse_record(line: str, source: str, lineno: int) -> TraceRecord:
    try:
        payload = _decode_line(line)
    except json.JSONDecodeError as exc:
        raise TraceReadError(f"malformed record: {exc}", source=source, line=lineno) from None
    if not isinstance(payload, dict):
        raise TraceReadError("record line is not an object", source=source, line=lineno)
    try:
        time = payload["t"]
        kind = payload["kind"]
    except KeyError as exc:
        raise TraceReadError(f"record missing field {exc}", source=source, line=lineno) from None
    data = payload.get("data", {})
    if (
        not isinstance(time, (int, float))
        or isinstance(time, bool)
        or not isinstance(kind, str)
        or not isinstance(data, dict)
    ):
        raise TraceReadError(
            "record fields have wrong types (want t: number, kind: string, data: object)",
            source=source,
            line=lineno,
        )
    return TraceRecord(float(time), kind, data)


def _warn_truncated(source: str, lineno: int) -> None:
    warnings.warn(
        f"{source}:{lineno}: truncated final line (crashed writer?); "
        "recovered every complete record before it",
        RuntimeWarning,
        stacklevel=3,
    )


def iter_trace(source: PathOrFile, *, strict: bool = True) -> Iterator[TraceRecord]:
    """Stream records from a trace file after validating its header.

    A torn **final** line — one that fails to parse *and* lacks its
    terminating newline, the signature a killed writer leaves — is
    never an error: every complete record before it is yielded and a
    ``RuntimeWarning`` reports the truncation (docs/resilience.md).

    Args:
        source: Input path or readable text stream.
        strict: When True (default), a malformed *interior* record
            raises :class:`TraceReadError` with file/line context;
            when False, malformed record lines are skipped (a bad
            header always raises — without it nothing is trustworthy).
    """
    if isinstance(source, (str, Path)):
        name = str(source)
        fh: TextIO = open(source, "r", encoding="utf-8")
        owns = True
    else:
        name = "<stream>"
        fh = source
        owns = False
    try:
        first = fh.readline()
        if not first:
            raise TraceReadError("empty file (no header)", source=name)
        _parse_header(first, name)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                yield _parse_record(line, name, lineno)
            except TraceReadError:
                if not line.endswith("\n"):
                    # Only the file's very last line can lack its
                    # newline: a torn write, not corruption.
                    _warn_truncated(name, lineno)
                    return
                if strict:
                    raise
    finally:
        if owns:
            fh.close()


def read_meta(source: PathOrFile) -> Dict[str, Any]:
    """Parse and return only the header metadata of a trace file."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            first = fh.readline()
        name = str(source)
    else:
        first = source.readline()
        name = "<stream>"
    if not first:
        raise TraceReadError("empty file (no header)", source=name)
    return _parse_header(first, name)


def read_trace(source: PathOrFile, *, strict: bool = True) -> TraceFile:
    """Parse a whole trace file into a :class:`TraceFile`."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_trace(fh, strict=strict)
    name = getattr(source, "name", "<stream>")
    first = source.readline()
    if not first:
        raise TraceReadError("empty file (no header)", source=str(name))
    meta = _parse_header(first, str(name))
    records: List[TraceRecord] = []
    truncated = False
    for lineno, line in enumerate(source, start=2):
        if not line.strip():
            continue
        try:
            records.append(_parse_record(line, str(name), lineno))
        except TraceReadError:
            if not line.endswith("\n"):
                _warn_truncated(str(name), lineno)
                truncated = True
                break
            if strict:
                raise
    return TraceFile(meta=meta, records=records, truncated=truncated)


__all__ = [
    "TRACE_SCHEMA",
    "TraceFile",
    "TraceReadError",
    "TraceWriter",
    "iter_trace",
    "read_meta",
    "read_trace",
    "write_trace",
]
