"""The trace loader as it read every row, through ``csv.reader``.

``semcache.workload.load_trace`` splits a plain row on ``,`` and hands only
the rows ``csv`` treats specially to ``csv.reader``.  This transcription of
the loader without that fast path is the oracle it is compared with: the
same entries for every file, or the same refusal, line number and message.
"""

import csv

from semcache.workload import CSV_HEADER, ParseError, TraceEntry


def reference_load_trace(lines) -> list[TraceEntry]:
    entries = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            row = next(csv.reader([stripped]))
        except csv.Error as exc:
            raise ParseError(line_no, f"unreadable row: {exc}") from None
        if [c.strip() for c in row] == CSV_HEADER:
            continue
        if len(row) != 4:
            raise ParseError(line_no, f"expected 4 columns, got {len(row)}")
        try:
            entries.append(TraceEntry(float(row[0]), int(row[1]), int(row[2]), row[3].strip()))
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
    entries.sort(key=lambda e: e.time_ms)
    return entries


def outcome(load, lines):
    """``load(lines)``, or the line number and message of its refusal."""
    try:
        return load(lines)
    except ParseError as exc:
        return exc.line_no, str(exc)
