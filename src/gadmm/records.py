"""The record files (instance, summary and report JSON, trajectory CSV):
the atomic writer, the one JSON layout, and the forked workers that format
or parse a large file's ranges (see :func:`_fork_ranges`)."""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import threading
from json.encoder import encode_basestring_ascii

import numpy as np


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """Open ``path`` for writing UTF-8 text through a temporary sibling that
    replaces it when the ``with`` body ends, so a write that fails or is
    interrupted leaves the old file, or no file, at ``path``."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# A text of c cells is split into min(usable CPUs, c // CELLS_PER_WORKER)
# ranges.  A fork plus its waitpid costs about 3 ms in a 64 MB process.
# Formatting a trajectory cell costs about 0.45 us (0.40-0.44 us on the
# benchmark's lasso and 450-column QP records, best of 9), so a writer's
# range formats in at least 9 ms, three times what starting its worker
# costs.  Parsing a cell costs about 0.2 us (0.19-0.24 us), and a reader's
# worker gets at least 1/parts of the cells, so its range parses in at least
# 4 ms, a little more than the fork's cost.
CELLS_PER_WORKER = 20_000


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(cells: int) -> int:
    """Workers for a text of ``cells`` cells: none without ``os.fork``, or
    while another Python thread runs, since a forked child holds a copy of
    only the thread that forked it."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    return max(0, min(_usable_cpus(), cells // CELLS_PER_WORKER) - 1)


class _Worker:
    """A forked process that writes ``produce(start, stop)``, the bytes of
    units start..stop-1 of a text, to a pipe once all are made, so it never
    waits on this process while this process does its own range.  It closes
    the read ends of ``siblings``, so that a read end this process closes
    has no other holder.  Fork and pipe failures raise :class:`OSError` with
    nothing left open."""

    def __init__(self, produce, start, stop, siblings):
        self.pid = None
        self.fd, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(w)
            self.close()
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self.fd)
                for sibling in siblings:
                    os.close(sibling.fd)
                data = produce(start, stop)
                with os.fdopen(w, "wb") as out:
                    out.write(data)
                code = 0
            finally:
                os._exit(code)
        os.close(w)

    def take(self) -> bytes | None:
        """Read the worker's bytes to EOF and reap it: the bytes, or None if
        it exited non-zero."""
        fd, self.fd = self.fd, None
        with os.fdopen(fd, "rb") as pipe:
            data = pipe.read()
        return data if self.close() == 0 else None

    def close(self):
        """Close the read end, then reap the worker and return its wait
        status (None if already reaped).  The close comes first, so a worker
        blocked on a full pipe fails its write instead of waiting."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid:
            status = os.waitpid(self.pid, 0)[1]
            self.pid = None
            return status
        return None


def _fork_ranges(bounds, produce, workers) -> list:
    """(start, stop, worker or None) for each range between consecutive
    ``bounds``: a :class:`_Worker` running ``produce`` for every range after
    the first, until a fork fails, and None for the rest, which this process
    does.  Each worker is appended to ``workers``, which the caller closes.
    The caller takes a worker's bytes whole and checks them; a range whose
    worker exits non-zero or sends the wrong bytes is done here too, so the
    result is the same as in one process."""
    ranges, forking = [], True
    for i, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        worker = None
        if i and forking:
            try:
                worker = _Worker(produce, start, stop, workers)
                workers.append(worker)
            except OSError:
                forking = False  # this process does the ranges left
        ranges.append((start, stop, worker))
    return ranges


def write_in_parts(path, units, cells, write, lines, head="", tail="", newline=None) -> None:
    """Write ``head``, the text of ``units`` units of ``cells`` cells, then
    ``tail`` to ``path`` through :func:`atomic_open`.

    ``write(emit, start, stop)`` passes the text of units start..stop-1 to
    ``emit`` in pieces, and ``lines(start, stop)`` is the number of
    newlines in it, which a worker's bytes must hold.  Every worker is
    reaped before this returns or raises.
    """
    parts = 1 + _worker_count(cells)
    bounds = [units * i // parts for i in range(parts + 1)]

    def produce(start, stop):
        pieces = []
        write(pieces.append, start, stop)
        return "".join(pieces).encode()

    workers = []
    try:
        # fork before the file is opened, so that no worker holds it
        ranges = _fork_ranges(bounds, produce, workers)
        with atomic_open(path, newline=newline) as fh:
            fh.write(head)
            for start, stop, worker in ranges:
                data = worker and worker.take()
                if data is not None and data.count(b"\n") == lines(start, stop):
                    fh.flush()
                    fh.buffer.write(data)
                else:
                    write(fh.write, start, stop)
            fh.write(tail)
    finally:
        for worker in workers:
            worker.close()


# ---------------------------------------------------------------------------
# JSON documents


def _numbers(values, sep="") -> str:
    """The floats ``values`` joined by ``sep``, each written as json writes
    it; a non-finite one raises json's :class:`ValueError`."""
    text = sep.join(map(float.__repr__, values))
    if "n" in text:  # inf or nan; a finite repr has no "n"
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    return text


# Stands in for the numbers of each list of floats that write_json defers;
# a string's JSON text escapes every control character, so no other "\0"
# is in the text.
_LIST_MARK = "\0"


def _text(node, indent, lists) -> str:
    """The JSON text of ``node`` as json lays it out with ``indent=1``,
    ``node`` starting at the indent ``indent`` (spaces).  If ``lists`` is
    not None, each list that starts with a float is appended to it and its
    numbers are written as :data:`_LIST_MARK`."""
    if isinstance(node, str):
        return encode_basestring_ascii(node)
    if node is None:
        return "null"
    if node is True:
        return "true"
    if node is False:
        return "false"
    if isinstance(node, int):
        return int.__repr__(node)
    if isinstance(node, float):
        text = float.__repr__(node)
        return text if "n" not in text else _numbers((node,))  # which raises
    inner = indent + " "
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        if lists is not None and type(node[0]) is float:
            lists.append(node)
            body = _LIST_MARK
        else:
            body = f",\n{inner}".join([_text(value, inner, lists) for value in node])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(node, dict):
        if not node:
            return "{}"
        items = []
        for key, value in node.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{encode_basestring_ascii(key)}: {_text(value, inner, lists)}")
        return "{\n" + inner + f",\n{inner}".join(items) + f"\n{indent}}}"
    raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


def json_text(doc) -> str:
    """``doc`` as every JSON record is laid out: the text of
    ``json.dumps(doc, indent=1, allow_nan=False)`` and a newline, written in
    one pass.  As there, a non-finite number raises json's
    :class:`ValueError` and a value json cannot write :class:`TypeError`;
    a record's keys are strings, and any other key raises :class:`TypeError`."""
    return _text(doc, "", None) + "\n"


def write_json(path, doc) -> None:
    """Write ``doc``, whose lists that start with a float hold only floats,
    as the bytes of :func:`json_text`, refusing a non-finite number with
    :class:`ValueError` as it does.

    The one pass of :func:`json_text` writes the keys, scalars and nesting
    and collects the lists of floats.  Their numbers, in document order,
    are the units of :func:`write_in_parts`, written with
    ``float.__repr__`` as json writes them.
    """
    lists = []
    # leads[j] precedes list j's numbers and ends in "[\n" and the list's
    # indent, which also follows the "," between two of its numbers
    *leads, tail = _text(doc, "", lists).split(_LIST_MARK)
    seps = [",\n" + lead.rpartition("\n")[2] for lead in leads]
    firsts = list(itertools.accumulate(map(len, lists), initial=0))

    def write(emit, start, stop):
        for first, cells, lead, sep in zip(firsts, lists, leads, seps):
            lo, hi = max(start, first), min(stop, first + len(cells))
            if lo < hi:
                text = _numbers(cells[lo - first : hi - first], sep)
                emit(lead if lo == first else sep)
                emit(text)

    def lines(start, stop):
        # a separator holds one newline, a lead its own count
        extra = (lead.count("\n") - 1 for first, lead in zip(firsts, leads) if start <= first < stop)
        return stop - start + sum(extra)

    write_in_parts(path, firsts[-1], firsts[-1], write, lines, tail=tail + "\n")


# ---------------------------------------------------------------------------
# CSV tables


def _write_rows(write, table, start, stop) -> None:
    """Pass the CSV line of each of rows start..stop-1 of ``table``, k
    first, to ``write``, each made by one ``%`` call.

    A cell equal to itself rounded to 12 decimals (a zero, an integer, an
    l1 block's clamped multiplier mu) is written ``%r``, its shortest
    ``repr``; every other cell ``%.17g``, a cheaper conversion whose 17
    significant digits round-trip every double.  So each cell reads back
    bit for bit.  A row's format is built once for each distinct pattern of
    the two in the range.  No cell needs CSV quoting, so a line is the bytes
    csv.writer would give these texts; one row of strings is held at a time.
    """
    rows = table[start:stop]
    with np.errstate(over="ignore"):  # rounding a cell near the float limit
        short = rows == np.round(rows, 12)
    formats = {}
    for k, row, mask in zip(range(start, stop), rows, short):
        key = mask.tobytes()
        fmt = formats.get(key)
        if fmt is None:
            fmt = formats[key] = "%d," + ",".join(np.where(mask, "%r", "%.17g")) + "\r\n"
        write(fmt % (k, *row.tolist()))


def write_csv(path, header, table) -> None:
    """Write ``header``, then row k of the float array ``table`` as k and
    its cells, each as its shortest ``repr`` or with 17 significant digits
    (:func:`_write_rows`), so every cell reads back bit for bit: the units
    of :func:`write_in_parts` are the rows."""

    def write(emit, start, stop):
        _write_rows(emit, table, start, stop)

    head, rows = ",".join(header) + "\r\n", len(table)
    cells = rows * (table.shape[1] + 1)
    write_in_parts(path, rows, cells, write, lambda start, stop: stop - start, head, newline="")


def _split_lines(text: str) -> list[str]:
    """The lines of ``text``, broken only at ``\\r\\n`` and ``\\n``
    (:meth:`str.splitlines` also breaks at ``\\r``, form feeds and other
    separators, which are left to the cell parser here)."""
    *lines, last = text.split("\n")
    lines = [line[:-1] if line[-1:] == "\r" else line for line in lines]
    if last:
        lines.append(last)
    return lines


def _cells(line: str) -> list[str]:
    return line.split(",") if line else []  # a blank line has no cells


def _parse_rows(lines, dtype) -> np.ndarray:
    """Comma-separated lines through numpy's C text reader, which refuses
    quoted, empty and non-numeric cells, and a non-integer in an integer
    field."""
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _row_dtype(ncols):
    """A row of ``ncols`` cells: k, then the other cells as one float vector."""
    return np.dtype([("k", np.int64), ("v", np.float64, (ncols - 1,))])


def _read_bounds(rows, parts, other_bytes) -> list[int]:
    """Bounds of the row ranges of :meth:`TrajectoryText.parse_tail`.

    This process takes row 0 and the rows that end within
    max(0, (J + C)/parts - J) characters, J = ``other_bytes`` and C those of
    ``rows``, so that they and its other work of J bytes, which parses at
    about the same speed, come to about 1/parts of the whole.  The workers
    share the other rows evenly by characters; no range is empty.
    """
    ends = np.cumsum([len(row) + 1 for row in rows])
    total = int(ends[-1])
    head = max(0.0, (other_bytes + total) / parts - other_bytes)
    cuts = head + (total - head) * np.arange(parts - 1) / (parts - 1)
    inner = np.clip(np.searchsorted(ends, cuts, side="right"), 1, len(rows))
    return sorted({0, len(rows), *inner.tolist()})


class TrajectoryText(contextlib.AbstractContextManager):
    """The lines of a trajectory CSV, read once by this process, for
    :func:`read_csv`, and the workers that :meth:`parse_tail` forks; a
    context manager whose exit calls :meth:`close`.  An error reading the
    file (:class:`OSError`, or :class:`ValueError` for text that is not
    UTF-8) is raised by :meth:`lines`, so that a caller that checks other
    inputs first reports their errors first.
    """

    def __init__(self, path):
        self._workers, self._ranges, self._error = [], None, None
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                self._lines = _split_lines(fh.read())
        except (OSError, ValueError) as exc:
            self._lines, self._error = None, exc

    def lines(self) -> list[str]:
        if self._error is not None:
            raise self._error
        return self._lines

    def parse_tail(self, instance_path) -> None:
        """Fork the workers of a large table, before this process reads the
        instance file at ``instance_path``, whose size weighs this process's
        share (see :func:`_read_bounds`); nothing is forked if it has none.

        The table has as many parts as the writer would split it into,
        typed by the header's cell count, which :func:`read_csv` checks
        before it takes their rows.  Each worker parses the rows it
        inherited with :func:`_parse_rows` and sends the array's bytes.
        """
        if self._error is not None or len(self._lines) < 2:
            return
        rows = self._lines[1:]
        ncols = len(_cells(self._lines[0]))
        parts = 1 + _worker_count(len(rows) * ncols)
        if parts == 1:
            return
        try:
            other_bytes = os.path.getsize(instance_path)
        except OSError:  # the instance's reader reports it
            return

        def parsed(start, stop):
            return _parse_rows(rows[start:stop], _row_dtype(ncols)).tobytes()

        self._ranges = _fork_ranges(_read_bounds(rows, parts, other_bytes), parsed, self._workers)

    def close(self) -> None:
        """Reap every worker left and let go of the lines."""
        self._lines = None
        for worker in self._workers:
            worker.close()

    def __exit__(self, *exc):
        self.close()


def _raise_first_bad_row(rows, dtype, ncols) -> None:
    """Raise the error of the first bad row of ``rows``, the lines of rows
    0..K (file rows 2..), checking each row as :func:`read_csv` documents."""
    for k, line in enumerate(rows):
        row, cells = k + 2, _cells(line)
        if len(cells) != ncols:
            raise ValueError(f"trajectory file: row {row} has {len(cells)} cells")
        try:
            (parsed,) = _parse_rows([line], dtype)
        except ValueError:
            try:
                _parse_rows([line], np.float64)
            except ValueError:
                raise ValueError(f"trajectory file: row {row} has a non-numeric cell") from None
            raise ValueError(
                f"trajectory file: row {row}: iteration index {cells[0]!r} is not an integer"
            ) from None
        if parsed["k"] != k:
            raise ValueError(f"trajectory file: iteration indices not contiguous at row {row}")
    # not reached: a row that fails the bulk read fails here on its own
    raise ValueError("trajectory file: rows 0..K do not parse")


def read_csv(source, header) -> np.ndarray:
    """The cells after k of rows 0..K of a CSV written by :func:`write_csv`,
    as one float array.

    ``source`` is the file's path, or a :class:`TrajectoryText` whose
    workers' rows are taken whole, and kept if they have the bytes of their
    rows, only after the file's header matches ``header``.  Lines end at
    ``\\r\\n`` or ``\\n`` and nowhere else; a bare ``\\r`` or another line
    separator is part of its cell.  These raise :class:`ValueError`, naming
    the first bad file row in file order (the header is row 1): a header
    that is ``header`` and more columns, naming those; another header; no
    row 0; a row (a blank line included) with the wrong number of cells; a
    k that is not an integer or not the row's index; a cell that is not a
    number.
    """
    text = source if isinstance(source, TrajectoryText) else TrajectoryText(source)
    lines = text.lines()
    got = _cells(lines[0]) if lines else None
    if got != header:
        if got and got[: len(header)] == header:
            raise ValueError(f"trajectory file: unexpected columns {', '.join(got[len(header) :])}")
        raise ValueError(f"trajectory file: unexpected header {got}")
    rows = lines[1:]
    if not rows:
        raise ValueError("trajectory file: no rows")
    dtype = _row_dtype(len(header))
    table = np.empty(len(rows), dtype)
    for start, stop, worker in text._ranges or [(0, len(rows), None)]:
        part, data = table[start:stop], worker and worker.take()
        if data is not None and len(data) == part.nbytes:
            part[...] = np.frombuffer(data, dtype)
            continue
        try:
            part[...] = _parse_rows(rows[start:stop], dtype)
        except ValueError:
            _raise_first_bad_row(rows, dtype, len(header))
    # loadtxt skips blank lines: a range holding one fails to fill its part
    # above, or fills it with one row repeated
    if not np.array_equal(table["k"], np.arange(len(rows))):
        _raise_first_bad_row(rows, dtype, len(header))
    return table["v"]
