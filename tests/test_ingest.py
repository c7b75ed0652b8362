import dataclasses
import pathlib
import random

import numpy as np
import pytest

from scrumrank.domain import (
    TRY_SCORE_VALUE,
    MatchRecord,
    PointsSystem,
    ResultOutcome,
    Venue,
    outcome_counts,
)
from scrumrank.ingest import (
    AUDIT_HEADER,
    EXPECTED_HEADER,
    CleaningAction,
    CsvParseError,
    FieldChange,
    RawMatchRow,
    RejectedRow,
    clean,
    load_matches,
    parse_csv,
    replay_actions,
    write_audit_csv,
    write_cleaned_csv,
)

DATA = pathlib.Path(__file__).parent / "data"
HEADER = ",".join(EXPECTED_HEADER)


def _text(*rows: str) -> str:
    return "\n".join((HEADER,) + rows) + "\n"


def _single(row: str):
    result = clean(parse_csv(_text(row)))
    return result


def test_parse_rejects_bad_header():
    with pytest.raises(CsvParseError):
        parse_csv("date,home,away\n")
    with pytest.raises(CsvParseError):
        parse_csv("")


def test_parse_accepts_override_column():
    text = HEADER + ",outcome_override\n" \
        + "2025-01-04,A,B,22,10,3,2,Home,Won,\n" \
        + "2025-01-05,C,D,0,0,0,0,Home,Won,home\n"
    rows = parse_csv(text)
    assert rows[0].outcome_override == ""
    assert rows[1].outcome_override == "home"


def test_parse_rejects_bad_override_token():
    text = HEADER + ",outcome_override\n" \
        + "2025-01-04,A,B,22,10,3,2,Home,Won,sideways\n"
    with pytest.raises(CsvParseError) as err:
        parse_csv(text)
    assert "sideways" in str(err.value)


def test_parse_rejects_wrong_cell_count():
    with pytest.raises(CsvParseError) as err:
        parse_csv(_text("2025-01-04,A,B,22,10,3,2,Home"))
    assert "row 1" in str(err.value)


def test_parse_rejects_non_integer_and_negative_scores():
    with pytest.raises(CsvParseError):
        parse_csv(_text("2025-01-04,A,B,lots,10,3,2,Home,"))
    with pytest.raises(CsvParseError):
        parse_csv(_text("2025-01-04,A,B,-3,10,0,2,Home,"))


def test_parse_keeps_blank_numerics_as_missing():
    rows = parse_csv(_text("2025-01-04,A,B,22,10,,,Home,"))
    assert rows[0].home_tries is None and rows[0].away_tries is None


def test_clean_row_passes_through_untouched():
    result = _single("2025-01-04,A,B,22,10,3,2,Home,Won")
    assert not result.actions and not result.rejected
    record = result.records[0]
    assert record.venue is Venue.HOME_GROUND
    assert record.result_override is None


def test_rule_swap_try_counts():
    # swapped try entries: home score supports 4 tries, away only 1
    result = _single("2025-01-04,A,B,25,8,1,4,Home,")
    action, = result.actions
    assert action.rule == "R1"
    row = result.rows[0]
    assert (row.home_tries, row.away_tries) == (4, 1)
    fields = {change.field for change in action.changes}
    assert fields == {"home_tries", "away_tries"}


def test_rule_reduce_try_counts_when_swap_cannot_fix():
    result = _single("2025-01-04,A,B,12,9,4,2,Home,Won")
    action, = result.actions
    assert action.rule == "R1"
    row = result.rows[0]
    # floor(12/5), floor(9/5)
    assert (row.home_tries, row.away_tries) == (2, 1)


def test_rule_reduce_only_offending_side():
    # swapping cannot help: the away score supports just one try
    result = _single("2025-01-04,A,B,12,9,4,1,Home,Won")
    action, = result.actions
    assert action.rule == "R1"
    row = result.rows[0]
    assert (row.home_tries, row.away_tries) == (2, 1)
    assert [c.field for c in action.changes] == ["home_tries"]


def test_rule_venue_tbc_becomes_neutral():
    result = _single("2025-01-04,A,B,22,10,3,2,tbc,Won")
    action, = result.actions
    assert action.rule == "R2"
    assert result.records[0].venue is Venue.NEUTRAL


def test_rule_declared_win_with_zero_scoreline_becomes_override():
    result = _single("2025-01-04,A,B,0,0,0,0,Home,Won")
    action, = result.actions
    assert action.rule == "R3"
    assert result.records[0].result_override is ResultOutcome.HOME_NARROW
    result = _single("2025-01-04,A,B,0,0,0,0,Home,Loss")
    assert result.records[0].result_override is ResultOutcome.AWAY_NARROW


def test_rule_zero_scoreline_without_declaration_is_a_real_draw():
    result = _single("2025-01-04,A,B,0,0,0,0,Home,")
    assert not result.actions
    assert result.records[0].result_override is None


def test_rule_fill_blank_tries_from_score():
    result = _single("2025-01-04,A,B,18,12,,1,Home,Won")
    action, = result.actions
    assert action.rule == "R4"
    assert result.rows[0].home_tries == 3
    both = _single("2025-01-04,A,B,10,26,,,Home,Loss")
    action, = both.actions
    assert [c.field for c in action.changes] == ["home_tries", "away_tries"]
    assert (both.rows[0].home_tries, both.rows[0].away_tries) == (2, 5)


def test_rule_reversed_score_detected_by_declared_and_tries():
    result = _single("2025-01-04,A,B,10,24,2,1,Home,Won")
    action, = result.actions
    assert action.rule == "R5"
    row = result.rows[0]
    assert (row.home_score, row.away_score) == (24, 10)


def test_rule_reversal_requires_try_support():
    # tries favour the away side, so the declared result is not trusted
    result = _single("2025-01-04,A,B,5,10,1,2,Home,Won")
    assert not result.actions
    reject, = result.rejected
    assert "contradicts" in reject.reason


def test_rules_can_stack_on_one_row():
    # R1 reduces the home try count, then R4 fills the blank away one
    result = _single("2025-01-04,A,B,12,20,4,,Home,Loss")
    assert [a.rule for a in result.actions] == ["R1", "R4"]
    row = result.rows[0]
    assert (row.home_tries, row.away_tries) == (2, 4)


def test_unrecognized_declared_token_rejects_the_row_only():
    result = clean(parse_csv(_text(
        "2025-01-04,A,B,22,10,3,2,Home,won",
        "2025-01-05,B,C,15,10,2,1,Home,Won",
    )))
    assert len(result.records) == 1
    reject, = result.rejected
    assert reject.row == 1
    assert "won" in reject.reason


def test_validation_rejects_unplayable_rows():
    cases = {
        "2025-01-04,A,A,22,10,3,2,Home,": "itself",
        "2025-01-04,A,B,22,10,3,2,Moon,": "venue",
        "2025-01-04,A,B,22,,3,2,Home,": "missing away_score",
    }
    for row, needle in cases.items():
        result = _single(row)
        reject, = result.rejected
        assert needle in reject.reason


def test_exact_duplicates_are_rejected():
    row = "2025-01-04,A,B,22,10,3,2,Home,Won"
    result = clean(parse_csv(_text(row, row)))
    assert len(result.records) == 1
    reject, = result.rejected
    assert reject.row == 2
    assert "duplicate of row 1" in reject.reason


def test_near_duplicates_are_kept():
    result = clean(parse_csv(_text(
        "2025-01-04,A,B,22,10,3,2,Home,Won",
        "2025-01-04,A,B,22,10,3,2,Neutral,Won",
    )))
    assert len(result.records) == 2
    assert not result.rejected


def test_audit_log_one_line_per_field_change():
    raw = (DATA / "golden_cleaning_raw.csv").read_text()
    result = clean(parse_csv(raw))
    audit = write_audit_csv(result.actions)
    lines = audit.strip().split("\n")
    assert lines[0] == ",".join(AUDIT_HEADER)
    total_changes = sum(len(a.changes) for a in result.actions)
    assert len(lines) == 1 + total_changes


def test_replay_actions_reproduces_cleaned_rows():
    raw_rows = parse_csv((DATA / "golden_cleaning_raw.csv").read_text())
    result = clean(raw_rows)
    replayed = replay_actions(raw_rows, result.actions)
    kept = [row for index, row in enumerate(replayed, start=1)
            if index not in {r.row for r in result.rejected}]
    assert kept == list(result.rows)


def test_cleaning_is_idempotent_on_its_own_output():
    raw = (DATA / "golden_cleaning_raw.csv").read_text()
    first = clean(parse_csv(raw))
    cleaned = write_cleaned_csv(first.rows)
    second = clean(parse_csv(cleaned))
    assert not second.actions and not second.rejected
    assert write_cleaned_csv(second.rows) == cleaned


def test_load_matches_on_generated_season():
    result = load_matches(DATA / "golden_season.csv")
    assert len(result.records) == 30
    assert not result.actions and not result.rejected
    venues = {record.venue for record in result.records}
    assert venues == {Venue.HOME_GROUND, Venue.NEUTRAL}


def test_row_indices_are_one_based_in_input_order():
    result = clean(parse_csv(_text(
        "2025-01-04,A,B,22,10,3,2,Home,",
        "2025-01-05,C,D,25,8,1,4,Home,",
    )))
    action, = result.actions
    assert action.row == 2


def test_clean_does_not_mutate_parsed_rows():
    rows = parse_csv(_text("2025-01-04,A,B,25,8,1,4,Home,"))
    clean(rows)
    assert rows[0].home_tries == 1 and rows[0].away_tries == 4


def test_raw_match_row_defaults():
    row = RawMatchRow(date="d", home_team="A", away_team="B",
                      home_score=1, away_score=0, home_tries=0,
                      away_tries=0)
    assert row.venue == "Home" and row.declared_result == ""


def test_parse_accepts_exactly_what_int_accepts():
    tokens = ["7", "+3", " 12 ", "0003", "1_0", "\u0663", "-0", "3.0",
              "3e1", "0x10", "1__0", "\u2212" + "3", "-3", "seven"]
    for token in tokens:
        text = _text(f"2025-01-04,A,B,{token},10,,,Home,")
        try:
            expected = int(token.strip())
        except ValueError:
            expected = None
        if expected is None or expected < 0:
            with pytest.raises(CsvParseError) as err:
                parse_csv(text)
            assert (err.value.row, err.value.column) == (1, "home_score")
        else:
            assert parse_csv(text)[0].home_score == expected


def test_parse_rejects_integers_beyond_64_bits():
    with pytest.raises(CsvParseError, match="out of range") as err:
        parse_csv(_text("2025-01-04,A,B,22,10,3,2,Home,",
                        f"2025-01-05,A,B,22,10,3,{2 ** 63},Home,"))
    assert (err.value.row, err.value.column) == (2, "away_tries")
    assert parse_csv(_text(f"2025-01-04,A,B,{2 ** 63 - 1},10,3,2,Home,")
                     )[0].home_score == 2 ** 63 - 1


_OVERRIDE_HEADER = HEADER + ",outcome_override"
_GOOD = "2025-01-04,A,B,22,10,3,2,Home,Won,"
# one bad cell per integer column and the override, in the order a row's
# first bad cell is named
_BAD_CELLS = ((3, "x"), (4, "-1"), (5, "2.5"), (6, "many"), (9, "both"))


def _with(row: str, *bad: tuple[int, str]) -> str:
    cells = row.split(",")
    for index, token in bad:
        cells[index] = token
    return ",".join(cells)


def test_parse_names_the_first_bad_row():
    for first, second in ((_BAD_CELLS[3], _BAD_CELLS[0]),
                          (_BAD_CELLS[4], _BAD_CELLS[1])):
        text = "\n".join([_OVERRIDE_HEADER, _GOOD, _with(_GOOD, first),
                          _with(_GOOD, second)]) + "\n"
        with pytest.raises(CsvParseError) as err:
            parse_csv(text)
        assert err.value.row == 2
    # a short row after a bad cell, and a bad cell after a short row
    short = "2025-01-04,A,B,22"
    for rows, row, column in (((_with(_GOOD, _BAD_CELLS[2]), short), 1,
                               "home_tries"),
                              ((short, _with(_GOOD, _BAD_CELLS[2])), 1,
                               None)):
        with pytest.raises(CsvParseError) as err:
            parse_csv("\n".join((_OVERRIDE_HEADER,) + rows) + "\n")
        assert (err.value.row, err.value.column) == (row, column)


def test_parse_names_a_rows_cells_in_column_order():
    for k, first in enumerate(_BAD_CELLS):
        for second in _BAD_CELLS[k + 1:]:
            text = "\n".join([_OVERRIDE_HEADER, _GOOD,
                              _with(_GOOD, second, first)]) + "\n"
            with pytest.raises(CsvParseError) as err:
                parse_csv(text)
            column = _OVERRIDE_HEADER.split(",")[first[0]]
            assert (err.value.row, err.value.column) == (2, column)
    # a wrong cell count comes before any bad cell of the row
    with pytest.raises(CsvParseError, match="expected 10 cells") as err:
        parse_csv("\n".join([_OVERRIDE_HEADER, "2025-01-04,A,B,x,-1,,"]))
    assert (err.value.row, err.value.column) == (1, None)


# The per-row cleaner: each rule mutates one row and returns its action.
# It is the reference the column cleaner must match output for output.

def _cell_text(value) -> str:
    return "" if value is None else str(value)


def _snapshot(row, names):
    return {name: _cell_text(getattr(row, name)) for name in names}


def _changes(row, before):
    return tuple(FieldChange(name, old, _cell_text(getattr(row, name)))
                 for name, old in before.items()
                 if _cell_text(getattr(row, name)) != old)


def _max_tries(score):
    return score // TRY_SCORE_VALUE


def _side_inconsistent(score, tries):
    return (score is not None and tries is not None
            and score < TRY_SCORE_VALUE * tries)


def _declared_for(home_score, away_score):
    if home_score > away_score:
        return "Won"
    if home_score < away_score:
        return "Loss"
    return "Draw"


def _apply_r1(row, index):
    home_bad = _side_inconsistent(row.home_score, row.home_tries)
    away_bad = _side_inconsistent(row.away_score, row.away_tries)
    if not (home_bad or away_bad):
        return None
    before = _snapshot(row, ("home_tries", "away_tries"))
    if None not in (row.home_score, row.away_score, row.home_tries,
                    row.away_tries):
        swapped_home, swapped_away = row.away_tries, row.home_tries
        if not (_side_inconsistent(row.home_score, swapped_home)
                or _side_inconsistent(row.away_score, swapped_away)):
            row.home_tries, row.away_tries = swapped_home, swapped_away
            return CleaningAction(
                index, "R1",
                "try counts exceed what the scores allow; swapping them "
                "fixes both sides", _changes(row, before))
    parts = []
    if home_bad:
        row.home_tries = _max_tries(row.home_score)
        parts.append("home")
    if away_bad:
        row.away_tries = _max_tries(row.away_score)
        parts.append("away")
    return CleaningAction(
        index, "R1",
        f"{' and '.join(parts)} try count exceeds what the score allows; "
        "reduced to the maximum the score supports", _changes(row, before))


def _apply_r2(row, index):
    if row.venue != "tbc":
        return None
    before = _snapshot(row, ("venue",))
    row.venue = "Neutral"
    return CleaningAction(index, "R2", "venue to be confirmed; treated as "
                          "neutral", _changes(row, before))


def _apply_r3(row, index):
    if row.outcome_override or row.declared_result not in ("Won", "Loss"):
        return None
    if not (row.home_score == 0 and row.away_score == 0
            and row.home_tries == 0 and row.away_tries == 0):
        return None
    before = _snapshot(row, ("outcome_override",))
    winner = "home" if row.declared_result == "Won" else "away"
    row.outcome_override = winner
    return CleaningAction(
        index, "R3",
        f"declared {row.declared_result!r} with an all-zero scoreline: "
        f"awarded as a narrow {winner} win, no try bonuses",
        _changes(row, before))


def _apply_r4(row, index):
    before = _snapshot(row, ("home_tries", "away_tries"))
    filled = []
    if row.home_tries is None and row.home_score is not None:
        row.home_tries = _max_tries(row.home_score)
        filled.append("home")
    if row.away_tries is None and row.away_score is not None:
        row.away_tries = _max_tries(row.away_score)
        filled.append("away")
    if not filled:
        return None
    return CleaningAction(
        index, "R4",
        f"blank {' and '.join(filled)} try count filled with the maximum "
        "the score supports", _changes(row, before))


def _apply_r5(row, index):
    if row.outcome_override or row.declared_result == "":
        return None
    if None in (row.home_score, row.away_score, row.home_tries,
                row.away_tries):
        return None
    if row.declared_result == _declared_for(row.home_score, row.away_score):
        return None
    if row.declared_result != _declared_for(row.home_tries, row.away_tries):
        return None
    reversed_home, reversed_away = row.away_score, row.home_score
    if row.declared_result != _declared_for(reversed_home, reversed_away):
        return None
    if (_side_inconsistent(reversed_home, row.home_tries)
            or _side_inconsistent(reversed_away, row.away_tries)):
        return None
    before = _snapshot(row, ("home_score", "away_score"))
    row.home_score, row.away_score = reversed_home, reversed_away
    return CleaningAction(
        index, "R5",
        "declared result contradicts the score but matches the try counts; "
        "score was entered backwards and has been reversed",
        _changes(row, before))


def _validate_row(row):
    if not row.home_team or not row.away_team:
        return "blank team name"
    if row.home_team == row.away_team:
        return "a team cannot play itself"
    if row.venue not in ("Home", "Neutral"):
        return f"unrecognized venue {row.venue!r}"
    if row.declared_result not in ("", "Won", "Draw", "Loss"):
        return (f"unrecognized declared result {row.declared_result!r}; "
                "expected one of Won, Draw, Loss or blank")
    for name in ("home_score", "away_score", "home_tries", "away_tries"):
        if getattr(row, name) is None:
            return f"missing {name}"
    if not row.outcome_override:
        if (_side_inconsistent(row.home_score, row.home_tries)
                or _side_inconsistent(row.away_score, row.away_tries)):
            return "score too small for the try count"
        if row.declared_result and row.declared_result != _declared_for(
                row.home_score, row.away_score):
            return (f"declared result {row.declared_result!r} contradicts "
                    f"the {row.home_score}-{row.away_score} score")
    return None


def _row_clean(rows):
    """(kept rows, records, actions, rejections) of the per-row cleaner."""
    kept, records, actions, rejected, seen = [], [], [], [], {}
    for index, original in enumerate(rows, start=1):
        key = dataclasses.astuple(original)
        if key in seen:
            rejected.append(RejectedRow(
                index, f"exact duplicate of row {seen[key]}"))
            continue
        seen[key] = index
        row = dataclasses.replace(original)
        for rule in (_apply_r1, _apply_r2, _apply_r3, _apply_r4, _apply_r5):
            action = rule(row, index)
            if action is not None:
                actions.append(action)
        reason = _validate_row(row)
        if reason is not None:
            rejected.append(RejectedRow(index, reason))
            continue
        kept.append(row)
        records.append(MatchRecord(
            row.home_team, row.away_team, row.home_score, row.away_score,
            row.home_tries, row.away_tries,
            Venue.HOME_GROUND if row.venue == "Home" else Venue.NEUTRAL,
            {"home": ResultOutcome.HOME_NARROW,
             "away": ResultOutcome.AWAY_NARROW}.get(row.outcome_override)))
    return kept, records, actions, rejected


def _dirty_row(rng: random.Random) -> list[str]:
    """One results row with any mix of the defects the rules repair and
    the ones that get a row rejected."""
    home, away = rng.choice("ABCDEF"), rng.choice("ABCDEF")
    if rng.random() < 0.03:
        home = ""
    tries = [rng.randint(0, 6), rng.randint(0, 6)]
    scores = [TRY_SCORE_VALUE * t + rng.randint(0, 12) for t in tries]
    declared = _declared_for(*scores)
    roll = rng.random
    if roll() < 0.08:
        scores = tries = [0, 0]  # an awarded match
        declared = rng.choice(["Won", "Loss", "Draw"])
    if roll() < 0.1:
        tries.reverse()  # swapped try entries
    if roll() < 0.1:
        tries[rng.randrange(2)] += rng.randint(1, 4)  # too many tries
    if roll() < 0.1:
        scores.reverse()  # score entered backwards
    cells = [str(v) for v in scores + tries]
    for k in range(4):
        if roll() < (0.12 if k >= 2 else 0.03):
            cells[k] = ""
    if roll() < 0.05:
        cells[rng.randrange(4)] = f" {cells[0]} "
    venue = rng.choice(["Home"] * 6 + ["Neutral", "tbc", "tbc", "Moon"])
    declared = rng.choice([declared] * 6 + ["", "", "Won", "Loss", "Draw",
                                            "won"])
    override = rng.choice([""] * 12 + ["home", "away"])
    return [f"2025-01-{rng.randint(1, 3):02d}", home, away, *cells, venue,
            declared, override]


def _dirty_season(seed: int, n: int = 500) -> str:
    rng = random.Random(seed)
    rows: list[list[str]] = []
    for _ in range(n):
        if rows and rng.random() < 0.06:
            rows.append(list(rng.choice(rows)))  # exact duplicate
        elif rows and rng.random() < 0.06:
            near = list(rng.choice(rows))  # one cell differs
            k = rng.choice([0, 3, 7, 8])
            near[k] = {0: "2025-02-01", 3: "99", 7: "Neutral",
                       8: ""}[k] if near[k] != "99" else "98"
            rows.append(near)
        else:
            rows.append(_dirty_row(rng))
    return "\n".join([_OVERRIDE_HEADER] + [",".join(r) for r in rows]) + "\n"


@pytest.mark.parametrize("seed", range(4))
def test_column_cleaner_matches_the_per_row_cleaner(seed):
    raw = parse_csv(_dirty_season(seed))
    result = clean(raw)
    kept, records, actions, rejected = _row_clean(list(raw))
    assert write_cleaned_csv(result.rows) == write_cleaned_csv(kept)
    assert list(result.rows) == kept
    assert write_audit_csv(result.actions) == write_audit_csv(actions)
    assert list(result.actions) == actions
    assert list(result.rejected) == rejected
    assert list(result.records) == records
    dropped = {r.row for r in rejected}
    for log in (result.actions, actions):
        replayed = replay_actions(raw, log)
        assert [row for index, row in enumerate(replayed, start=1)
                if index not in dropped] == kept
    for points in (PointsSystem(), PointsSystem(
            win_points=3, draw_points=1, loss_points=0,
            losing_bonus_margin=5, try_bonus_threshold=3)):
        ours, theirs = (outcome_counts(result.records, points),
                        outcome_counts(records, points))
        assert ours.teams == theirs.teams
        for name in ("home", "away", "home_ground", "result", "tries"):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name))
    # the season reaches every rule, both R1 repairs and every rejection
    assert {a.rule for a in actions} == {"R1", "R2", "R3", "R4", "R5"}
    assert {a.description.split(";")[1].split()[0] for a in actions
            if a.rule == "R1"} == {"swapping", "reduced"}
    # (no row reaches "score too small": R1 repairs every such side first)
    reasons = {r.reason.split()[0] + " " + r.reason.split()[1]
               for r in rejected}
    assert {"exact duplicate", "blank team", "a team", "unrecognized venue",
            "unrecognized declared", "declared result"} <= reasons
    assert any(r.reason.startswith("missing") for r in rejected)
    # and keeps near duplicates, overrides and blanks that R4 filled
    assert any(row.outcome_override for row in kept)
