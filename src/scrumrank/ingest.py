"""CSV ingestion and data cleaning for self-reported match results.

Results entered by hand carry recurring defects: try counts that exceed
what the score allows, placeholder venues, declared winners on 0-0
scorelines for unplayed fixtures, blank try cells, and scores typed the
wrong way round. Five repair rules run in a fixed order on every row:

  R1  a side's score is too small for its tries: swap the try counts if
      that fixes both sides, otherwise cut the offending side's tries to
      the most the score allows (one try is worth at least five points);
  R2  venue "tbc" becomes Neutral;
  R3  a declared home Won/Loss with every score and try cell at zero is
      an awarded match: mark an outcome override giving the declared
      winner a narrow win with no try bonuses;
  R4  a blank try cell is filled with the most tries the score allows;
  R5  a declared result that contradicts the score, matches the try
      counts, and becomes consistent when the score is reversed means the
      score was entered backwards: reverse it.

A file is parsed once into a ``MatchTable`` of columns, and each rule is
one array pass over them: a boolean mask of the rows it changes, applied
before the next rule reads the columns. Every change is recorded as one
audit action per (row, rule) with before/after values per field, so the
audit log can be replayed on the raw rows to reproduce the cleaned
output. Rows still inconsistent after the rules are rejected with a
reason, never silently dropped and never fatal to the rest of the file.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections import abc
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .domain import (
    RESULT_INDEX,
    MatchColumns,
    ResultOutcome,
    TRY_SCORE_VALUE,
)

EXPECTED_HEADER = (
    "date", "home_team", "away_team", "home_score", "away_score",
    "home_tries", "away_tries", "venue", "declared_result",
)
OVERRIDE_COLUMN = "outcome_override"
AUDIT_HEADER = ("row", "rule", "field", "before", "after", "description")

_DECLARED_TOKENS = ("Won", "Draw", "Loss")
_INT_FIELDS = ("home_score", "away_score", "home_tries", "away_tries")
_FIELDS = EXPECTED_HEADER + (OVERRIDE_COLUMN,)  # RawMatchRow's, in order
_INT_MAX = np.iinfo(np.int64).max
_BLOCK_ROWS = 512


class CsvParseError(ValueError):
    """Malformed input CSV; carries the offending row and column."""

    def __init__(self, message: str, row: int | None = None,
                 column: str | None = None):
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.row = row
        self.column = column


@dataclass
class RawMatchRow:
    """One data row, numerics parsed, blanks kept as absent values."""

    date: str = ""
    home_team: str = ""
    away_team: str = ""
    home_score: int | None = None
    away_score: int | None = None
    home_tries: int | None = None
    away_tries: int | None = None
    venue: str = "Home"
    declared_result: str = ""
    outcome_override: str = ""


@dataclass(frozen=True)
class FieldChange:
    field: str
    before: str
    after: str


@dataclass(frozen=True)
class CleaningAction:
    row: int  # 1-based data row index
    rule: str
    description: str
    changes: tuple[FieldChange, ...]


@dataclass(frozen=True)
class RejectedRow:
    row: int
    reason: str


@dataclass(frozen=True, eq=False)
class MatchTable(abc.Sequence):
    """Results rows held as columns; each item reads as a RawMatchRow.

    ``columns`` maps every RawMatchRow field to an array. Text fields hold
    the stripped cells; integer fields hold int64 values that read 0 where
    the cell was blank, and ``blank`` maps each integer field to its mask
    of blank cells.
    """

    columns: Mapping[str, np.ndarray]
    blank: Mapping[str, np.ndarray]

    @classmethod
    def of(cls, rows: Iterable[RawMatchRow]) -> "MatchTable":
        """``rows`` as columns; a table passes through unchanged."""
        if isinstance(rows, MatchTable):
            return rows
        columns: dict[str, np.ndarray] = {}
        blank: dict[str, np.ndarray] = {}
        rows = list(rows)
        for name in _FIELDS:
            cells = [getattr(row, name) for row in rows]
            if name in _INT_FIELDS:
                blank[name] = np.array([v is None for v in cells], dtype=bool)
                cells = [0 if v is None else v for v in cells]
                columns[name] = np.array(cells, dtype=np.int64)
            else:
                columns[name] = np.array(cells, dtype=object)
        return cls(columns, blank)

    def __len__(self) -> int:
        return len(self.columns["date"])

    def __getitem__(self, k: int) -> RawMatchRow:
        return RawMatchRow(*(
            self.columns[name][k] if name not in self.blank
            else None if self.blank[name][k] else int(self.columns[name][k])
            for name in _FIELDS))

    def __iter__(self) -> Iterator[RawMatchRow]:
        columns = [[None if b else v for v, b in zip(
                       self.columns[name].tolist(), self.blank[name].tolist())]
                   if name in self.blank else self.columns[name].tolist()
                   for name in _FIELDS]
        return (RawMatchRow(*cells) for cells in zip(*columns))

    def take(self, index: np.ndarray) -> "MatchTable":
        """The rows at ``index``, in its order."""
        return MatchTable(
            {name: column[index] for name, column in self.columns.items()},
            {name: mask[index] for name, mask in self.blank.items()})


@dataclass(frozen=True)
class CleanResult:
    records: MatchColumns  # the kept rows as fixtures
    actions: tuple[CleaningAction, ...]
    rejected: tuple[RejectedRow, ...]
    rows: MatchTable  # cleaned rows behind `records`


def _int_column(cells: list[str], column: str) -> np.ndarray:
    """One integer column's values, 0 where blank. A cell that ``int``
    rejects, or a negative or out-of-range value, raises a CsvParseError
    naming the first such cell."""
    try:
        values = np.array([int(text) if text else 0 for text in cells],
                          dtype=np.int64)
        if not (values < 0).any():
            return values
    except (ValueError, OverflowError):
        pass
    # some cell is bad: find the first
    for row, text in enumerate(cells, start=1):
        if not text:
            continue
        try:
            value = int(text)
        except ValueError:
            raise CsvParseError(f"expected an integer, got {text!r}",
                                row=row, column=column) from None
        if not 0 <= value <= _INT_MAX:
            raise CsvParseError(
                f"negative value {value}" if value < 0
                else f"value {value} is out of range", row=row, column=column)
    raise AssertionError(f"no bad cell in column {column!r}")


def parse_csv(text: str) -> MatchTable:
    """Parse results CSV text into a table of raw rows.

    The header must match the expected schema exactly; a trailing
    outcome_override column (present in cleaned output) is accepted. A
    malformed file raises a CsvParseError for the first bad row; within
    it, a wrong cell count comes first, then the integer columns in
    header order, then the override.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise CsvParseError("empty input: no header row") from None
    header = tuple(cell.strip() for cell in header)
    if header not in (EXPECTED_HEADER, _FIELDS):
        unknown = [name for name in header if name not in _FIELDS]
        if unknown:
            raise CsvParseError(f"unknown columns {unknown}; expected "
                                f"{','.join(EXPECTED_HEADER)}")
        raise CsvParseError(
            f"bad header {','.join(header)!r}; expected "
            f"{','.join(EXPECTED_HEADER)} with optional trailing "
            f"{OVERRIDE_COLUMN}")
    errors = []
    cells: dict[str, list[str]] = {name: [] for name in header}
    rows = 0
    # a block of rows at a time, so that the reader's row lists die young
    while block := list(itertools.islice(reader, _BLOCK_ROWS)):
        widths = list(map(len, block))
        if widths.count(len(header)) < len(block):
            short = next(k for k, width in enumerate(widths)
                         if width != len(header))
            errors.append(CsvParseError(
                f"expected {len(header)} cells, found {widths[short]}",
                row=rows + short + 1))
            block = block[:short]
        for column, block_cells in zip(cells.values(), zip(*block)):
            column.extend(map(str.strip, block_cells))
        rows += len(block)
        if errors:
            break
    cells.setdefault(OVERRIDE_COLUMN, [""] * rows)
    columns, blank = {}, {}
    for name in _FIELDS:
        column = cells[name]
        if name in _INT_FIELDS:
            try:
                columns[name] = _int_column(column, name)
            except CsvParseError as error:
                errors.append(error)
            blank[name] = np.array(column, dtype=object) == ""
        else:
            columns[name] = np.array(column, dtype=object)
    bad = next((k for k, token in enumerate(cells[OVERRIDE_COLUMN])
                if token and token not in _OVERRIDE_CELLS), None)
    if bad is not None:
        errors.append(CsvParseError(
            f"unrecognized override {cells[OVERRIDE_COLUMN][bad]!r}",
            row=bad + 1, column=OVERRIDE_COLUMN))
    if errors:
        # min keeps the first of equal rows, so the check order breaks ties
        raise min(errors, key=lambda error: error.row)
    return MatchTable(columns, blank)


def _too_few_points(score: np.ndarray, tries: np.ndarray) -> np.ndarray:
    """Where a side's score is smaller than its tries allow; the floor
    division keeps the test free of overflow."""
    return score // TRY_SCORE_VALUE < tries


def _declared_code(declared: np.ndarray) -> np.ndarray:
    """A declared result as the sign of the home margin it claims; blank
    and unrecognized tokens read 2, which no margin has."""
    code = np.full(len(declared), 2)
    for token, sign in zip(_DECLARED_TOKENS, (1, 0, -1)):
        code[declared == token] = sign
    return code


def _sides(home: bool, away: bool) -> str:
    return " and ".join(side for side, on in (("home", home), ("away", away))
                        if on)


# Each rule reads the columns as the rules before it left them, replaces
# (never writes into) the arrays it changes, and returns the rows it acted
# on with one description each.
_Rule = Callable[[dict, dict], tuple[np.ndarray, list[str]]]


def _rule_r1(c: dict, blank: dict) -> tuple[np.ndarray, list[str]]:
    hs, as_, ht, at = (c[name] for name in _INT_FIELDS)
    present = [~blank[name] for name in _INT_FIELDS]
    home_bad = present[0] & present[2] & _too_few_points(hs, ht)
    away_bad = present[1] & present[3] & _too_few_points(as_, at)
    swap = ((home_bad | away_bad) & np.logical_and.reduce(present)
            & ~_too_few_points(hs, at) & ~_too_few_points(as_, ht))
    c["home_tries"] = np.where(swap, at, np.where(
        home_bad, hs // TRY_SCORE_VALUE, ht))
    c["away_tries"] = np.where(swap, ht, np.where(
        away_bad, as_ // TRY_SCORE_VALUE, at))
    acted = np.flatnonzero(home_bad | away_bad)
    return acted, [
        "try counts exceed what the scores allow; swapping them fixes both "
        "sides" if swapped else f"{_sides(home, away)} try count exceeds "
        "what the score allows; reduced to the maximum the score supports"
        for swapped, home, away in zip(swap[acted].tolist(),
                                       home_bad[acted].tolist(),
                                       away_bad[acted].tolist())]


def _rule_r2(c: dict, blank: dict) -> tuple[np.ndarray, list[str]]:
    acted = np.flatnonzero(c["venue"] == "tbc")
    c["venue"] = c["venue"].copy()
    c["venue"][acted] = "Neutral"
    return acted, ["venue to be confirmed; treated as neutral"] * len(acted)


def _rule_r3(c: dict, blank: dict) -> tuple[np.ndarray, list[str]]:
    declared = c["declared_result"]
    zero = np.logical_and.reduce([~blank[name] & (c[name] == 0)
                                  for name in _INT_FIELDS])
    acted = np.flatnonzero((c[OVERRIDE_COLUMN] == "") & zero
                           & ((declared == "Won") | (declared == "Loss")))
    tokens = declared[acted].tolist()
    winners = ["home" if token == "Won" else "away" for token in tokens]
    c[OVERRIDE_COLUMN] = c[OVERRIDE_COLUMN].copy()
    c[OVERRIDE_COLUMN][acted] = winners
    return acted, [f"declared {token!r} with an all-zero scoreline: awarded "
                   f"as a narrow {winner} win, no try bonuses"
                   for token, winner in zip(tokens, winners)]


def _rule_r4(c: dict, blank: dict) -> tuple[np.ndarray, list[str]]:
    filled = {}
    for side in ("home", "away"):
        score, tries = f"{side}_score", f"{side}_tries"
        filled[side] = blank[tries] & ~blank[score]
        c[tries] = np.where(filled[side], c[score] // TRY_SCORE_VALUE,
                            c[tries])
        blank[tries] = blank[tries] & ~filled[side]
    acted = np.flatnonzero(filled["home"] | filled["away"])
    return acted, [f"blank {_sides(home, away)} try count filled with the "
                   "maximum the score supports"
                   for home, away in zip(filled["home"][acted].tolist(),
                                         filled["away"][acted].tolist())]


def _rule_r5(c: dict, blank: dict) -> tuple[np.ndarray, list[str]]:
    hs, as_, ht, at = (c[name] for name in _INT_FIELDS)
    code = _declared_code(c["declared_result"])
    reverse = ((c[OVERRIDE_COLUMN] == "")
               & ~np.logical_or.reduce([blank[name] for name in _INT_FIELDS])
               & (code != np.sign(hs - as_)) & (code == np.sign(ht - at))
               & (code == np.sign(as_ - hs))
               & ~_too_few_points(as_, ht) & ~_too_few_points(hs, at))
    c["home_score"] = np.where(reverse, as_, hs)
    c["away_score"] = np.where(reverse, hs, as_)
    acted = np.flatnonzero(reverse)
    return acted, ["declared result contradicts the score but matches the "
                   "try counts; score was entered backwards and has been "
                   "reversed"] * len(acted)


_RULES: tuple[tuple[str, tuple[str, ...], _Rule], ...] = (
    ("R1", ("home_tries", "away_tries"), _rule_r1),
    ("R2", ("venue",), _rule_r2),
    ("R3", (OVERRIDE_COLUMN,), _rule_r3),
    ("R4", ("home_tries", "away_tries"), _rule_r4),
    ("R5", ("home_score", "away_score"), _rule_r5),
)

_OVERRIDE_CELLS = {"home": RESULT_INDEX[ResultOutcome.HOME_NARROW],
                   "away": RESULT_INDEX[ResultOutcome.AWAY_NARROW]}


def _rejections(c: dict, blank: dict) -> list[tuple[np.ndarray, Callable]]:
    """Why cleaned rows are still unusable: (mask, reason for row k) per
    check, in the order a row's first failing check names it."""
    hs, as_, ht, at = (c[name] for name in _INT_FIELDS)
    home, away = c["home_team"], c["away_team"]
    venue, declared = c["venue"], c["declared_result"]
    code = _declared_code(declared)
    scored = c[OVERRIDE_COLUMN] == ""
    return [
        ((home == "") | (away == ""), lambda k: "blank team name"),
        (home == away, lambda k: "a team cannot play itself"),
        ((venue != "Home") & (venue != "Neutral"),
         lambda k: f"unrecognized venue {venue[k]!r}"),
        ((code == 2) & (declared != ""),
         lambda k: f"unrecognized declared result {declared[k]!r}; expected "
                   f"one of {', '.join(_DECLARED_TOKENS)} or blank"),
        *((blank[name], lambda k, name=name: f"missing {name}")
          for name in _INT_FIELDS),
        (scored & (_too_few_points(hs, ht) | _too_few_points(as_, at)),
         lambda k: "score too small for the try count"),
        (scored & (declared != "") & (code != np.sign(hs - as_)),
         lambda k: f"declared result {declared[k]!r} contradicts the "
                   f"{hs[k]}-{as_[k]} score"),
    ]


def _texts(c: dict, blank: dict, name: str, index: np.ndarray) -> list[str]:
    """One field's cells at ``index`` as the audit log writes them."""
    cells = c[name][index].tolist()
    if name in blank:
        cells = ["" if b else str(v)
                 for v, b in zip(cells, blank[name][index].tolist())]
    return cells


def clean(rows: Iterable[RawMatchRow]) -> CleanResult:
    """Apply the repair rules in order to every row.

    Row indices in actions and rejections are 1-based indices into the
    input sequence. Exact duplicates of an earlier row are rejected.
    """
    table = MatchTable.of(rows)
    # one key pass: a row's key is every field, with its blank flags
    keys = zip(*(column.tolist() for column in table.columns.values()),
               *(mask.tolist() for mask in table.blank.values()))
    seen: dict[tuple, int] = {}
    first = np.array([seen.setdefault(key, k) for k, key in enumerate(keys)],
                     dtype=np.intp)
    duplicate = first != np.arange(len(table))
    fresh = np.flatnonzero(~duplicate)
    work = table.take(fresh)
    c, blank = dict(work.columns), dict(work.blank)
    events = []
    for order, (rule, names, apply) in enumerate(_RULES):
        before_c, before_blank = dict(c), dict(blank)
        acted, descriptions = apply(c, blank)
        fields = [(name, _texts(before_c, before_blank, name, acted),
                   _texts(c, blank, name, acted)) for name in names]
        for j, (row, description) in enumerate(zip(
                (fresh[acted] + 1).tolist(), descriptions)):
            events.append((row, order, CleaningAction(
                row, rule, description,
                tuple(FieldChange(name, old[j], new[j])
                      for name, old, new in fields if old[j] != new[j]))))
    events.sort(key=lambda event: event[:2])
    rejected = [(k, f"exact duplicate of row {first[k] + 1}")
                for k in np.flatnonzero(duplicate).tolist()]
    failed = np.zeros(len(work), dtype=bool)
    for mask, reason in _rejections(c, blank):
        for k in np.flatnonzero(mask & ~failed).tolist():
            rejected.append((int(fresh[k]), reason(k)))
        failed |= mask
    rejected.sort()
    kept = np.flatnonzero(~failed)
    cleaned = MatchTable(c, blank).take(kept)
    override = np.full(len(cleaned), -1, dtype=np.intp)
    for token, cell in _OVERRIDE_CELLS.items():
        override[cleaned.columns[OVERRIDE_COLUMN] == token] = cell
    return CleanResult(
        records=MatchColumns(
            *(cleaned.columns[name] for name in ("home_team", "away_team")
              + _INT_FIELDS),
            cleaned.columns["venue"] == "Home", override),
        actions=tuple(action for _, _, action in events),
        rejected=tuple(RejectedRow(k + 1, reason) for k, reason in rejected),
        rows=cleaned)


def write_cleaned_csv(rows: Iterable[RawMatchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_FIELDS)
    table = MatchTable.of(rows)
    # a block of rows at a time, so that few cells are alive at once
    for start in range(0, len(table), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        columns = []
        for name in _FIELDS:
            cells = table.columns[name][block].tolist()
            if name in table.blank:
                # integers as text, so the writer has no conversions left
                cells = list(map(str, cells))
                for k in np.flatnonzero(table.blank[name][block]).tolist():
                    cells[k] = ""
            columns.append(cells)
        writer.writerows(zip(*columns))
    return buf.getvalue()


def write_audit_csv(actions: Iterable[CleaningAction]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(AUDIT_HEADER)
    for action in actions:
        for change in action.changes:
            writer.writerow([action.row, action.rule, change.field,
                             change.before, change.after, action.description])
    return buf.getvalue()


def load_matches(path) -> CleanResult:
    """Parse and clean a results CSV file, with or without a BOM."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        rows = parse_csv(handle.read())
    return clean(rows)


def small_csv_rows(text: str, header: tuple[str, ...],
                   label: str) -> Iterator[tuple[int, list[str]]]:
    """The rows after a small CSV input's header, as (row number from 1,
    stripped cells).

    An empty file, a header other than ``header`` or a row of another
    width is a ValueError naming the input by ``label``, raised when the
    iteration reaches it.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        found = tuple(cell.strip() for cell in next(reader))
    except StopIteration:
        raise ValueError(f"empty {label} file: no header row") from None
    if found != header:
        raise ValueError(f"bad {label} header {','.join(found)!r}; "
                         f"expected {','.join(header)}")
    for index, cells in enumerate(reader, start=1):
        if len(cells) != len(header):
            raise ValueError(f"{label} row {index}: expected {len(header)} "
                             f"cells, found {len(cells)}")
        yield index, [cell.strip() for cell in cells]
