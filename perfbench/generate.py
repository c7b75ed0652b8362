"""Generate one workload's inputs from a seed.

    python3 perfbench/generate.py --workload season-200 --seed 1 --out DIR

Writes into DIR:

    raw.csv               results with injected defects (rules R1-R5)
    expected_cleaned.csv  what cleaning must produce
    fixtures.csv          the schedule (home_team,away_team,venue)
    prev_ranks.csv        previous-season ranks (workloads that rank)
    truth.json            generating parameters and the injected defects

Outcomes are sampled from the paper's cell weights (perfbench/reference.py,
NumPy only), then rendered as scores and tries that fall in the sampled
cells. The same seed gives byte-identical files on every commit, because
nothing here imports the program.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import TRY_SCORE_VALUE, cell_probs  # noqa: E402
from workloads import RING_OFFSETS, WORKLOADS, Workload  # noqa: E402

RAW_HEADER = ["date", "home_team", "away_team", "home_score", "away_score",
              "home_tries", "away_tries", "venue", "declared_result"]
CLEANED_HEADER = RAW_HEADER + ["outcome_override"]

# Structural values of the acceptance suite's reference league, in the
# generalized-mean-1 gauge: about 65% wide results, 1% both try bonuses.
TRUTH_STRUCTURAL = {"rho_n": 0.448, "rho_d": 0.212, "tau_b": 0.042,
                    "tau_z": 2.801, "kappa": 1.113}
LOG_STRENGTH_SD = 0.6
NEUTRAL_SHARE = 0.06  # half of these are entered as venue "tbc" (R2)
DEFECT_SHARE = 0.03  # per rule R1, R3, R4, R5
DECLARED_SHARE = 0.5  # clean rows that also carry a declared result
UNRANKED_SHARE = 0.05  # teams with no previous-season rank


def _schedule(workload: Workload, rng) -> tuple[list[str], list[tuple]]:
    """Team names and fixtures as (matchday, home, away) name triples."""
    m = workload.teams
    names = [f"Club {k:04d}" for k in range(m)]
    ring = [names[k] for k in rng.permutation(m)]
    fixtures = []
    if workload.schedule == "ring":
        for leg, d in enumerate(RING_OFFSETS):
            for p in range(m):
                a, b = ring[p], ring[(p + d) % m]
                home, away = (a, b) if leg % 2 == 0 else (b, a)
                fixtures.append((2 * leg + p % 2, home, away))
    else:
        for p, home in enumerate(ring):
            for q, away in enumerate(ring):
                if p != q:
                    fixtures.append(((p + q) % (m - 1) + m * (p > q), home,
                                     away))
    fixtures.sort()
    return names, fixtures


def _render(rng, rcell: int, tcell: int) -> tuple[int, int, int, int]:
    """Scores and tries (home, away) that fall in the sampled cells."""
    home_bonus = tcell in (0, 1)
    away_bonus = tcell in (0, 2)
    tries = [4 + int(rng.poisson(0.7)) if bonus else int(rng.integers(0, 4))
             for bonus in (home_bonus, away_bonus)]
    base = [TRY_SCORE_VALUE * t + 2 * int(rng.binomial(t, 0.7))
            + 3 * int(rng.poisson(1.5)) for t in tries]
    if rcell == 2:
        level = max(base)
        return level, level, tries[0], tries[1]
    margin = (int(rng.integers(1, 8)) if rcell in (1, 3)
              else 8 + int(rng.geometric(0.1)) - 1)
    win, lose = (0, 1) if rcell <= 1 else (1, 0)
    scores = [0, 0]
    scores[lose] = max(base[lose], base[win] - margin)
    scores[win] = scores[lose] + margin
    return scores[0], scores[1], tries[0], tries[1]


def _declared(home_score: int, away_score: int) -> str:
    if home_score > away_score:
        return "Won"
    if home_score < away_score:
        return "Loss"
    return "Draw"


def _take(rng, candidates: list[int], count: int, used: set) -> list[int]:
    pool = [k for k in candidates if k not in used]
    chosen = sorted(int(k) for k in rng.permutation(pool)[:count])
    used.update(chosen)
    return chosen


def generate(workload: Workload, seed: int) -> dict[str, str]:
    """File name -> text for every input of one workload and seed."""
    rng = np.random.default_rng([seed, workload.teams])
    names, fixtures = _schedule(workload, rng)
    log_pi = rng.normal(0.0, LOG_STRENGTH_SD, workload.teams)
    log_pi -= np.log(np.mean(2 * np.exp(log_pi) / (1 + np.exp(log_pi))))
    strength = dict(zip(names, log_pi))
    n = len(fixtures)
    neutral = np.zeros(n, dtype=bool)
    neutral[rng.permutation(n)[:round(NEUTRAL_SHARE * n)]] = True
    home_idx = np.array([strength[f[1]] for f in fixtures])
    away_idx = np.array([strength[f[2]] for f in fixtures])
    pr, pt = cell_probs(home_idx, away_idx, ~neutral, TRUTH_STRUCTURAL)
    u = rng.random((2, n))
    rcell = np.minimum((np.cumsum(pr, axis=0) <= u[0]).sum(axis=0), 4)
    tcell = np.minimum((np.cumsum(pt, axis=0) <= u[1]).sum(axis=0), 3)
    start = datetime.date(2025, 9, 6)
    truth_rows = []
    for k, (day, home, away) in enumerate(fixtures):
        hs, as_, ht, at = _render(rng, int(rcell[k]), int(tcell[k]))
        declared = _declared(hs, as_) if rng.random() < DECLARED_SHARE else ""
        date = (start + datetime.timedelta(days=7 * day)).isoformat()
        venue = "Neutral" if neutral[k] else "Home"
        truth_rows.append([date, home, away, hs, as_, ht, at, venue,
                           declared, ""])

    count = max(1, round(DEFECT_SHARE * n))
    used: set[int] = set()

    def loser_supports_winner_tries(row) -> bool:
        hs, as_, ht, at = row[3:7]
        win_tries, lose_tries = (ht, at) if hs > as_ else (at, ht)
        return min(hs, as_) >= TRY_SCORE_VALUE * win_tries \
            and win_tries > lose_tries

    r2 = _take(rng, list(np.flatnonzero(neutral)),
               (int(neutral.sum()) + 1) // 2, used)
    decisive_home = [k for k, r in enumerate(truth_rows)
                     if r[3] != r[4] and r[7] == "Home"]
    r3 = _take(rng, decisive_home, count, used)
    # R1: swapping the try counts leaves the loser short of the winner's
    # tries, so the swapped row is inconsistent and the swap is repairable.
    r1 = _take(rng, [k for k, r in enumerate(truth_rows)
                     if min(r[3], r[4]) < TRY_SCORE_VALUE * max(r[5], r[6])],
               count, used)
    # R5: a reversed score with the tries and declared result intact.
    r5 = _take(rng, [k for k, r in enumerate(truth_rows)
                     if r[3] != r[4] and loser_supports_winner_tries(r)],
               count, used)
    r4 = _take(rng, range(n), count, used)

    raw_rows = [list(r) for r in truth_rows]
    expected_rows = [list(r) for r in truth_rows]
    audit = []
    for k in r2:
        raw_rows[k][7] = "tbc"
        audit.append([k + 1, "R2", "venue", "tbc", "Neutral"])
    for k in r3:
        winner = "home" if truth_rows[k][3] > truth_rows[k][4] else "away"
        declared = "Won" if winner == "home" else "Loss"
        awarded = truth_rows[k][:3] + [0, 0, 0, 0, "Home", declared]
        raw_rows[k] = awarded + [""]
        expected_rows[k] = awarded + [winner]
        audit.append([k + 1, "R3", "outcome_override", "", winner])
    for k in r1:
        ht, at = truth_rows[k][5], truth_rows[k][6]
        raw_rows[k][5], raw_rows[k][6] = at, ht
        audit.append([k + 1, "R1", "home_tries", str(at), str(ht)])
        audit.append([k + 1, "R1", "away_tries", str(ht), str(at)])
    for k in r5:
        hs, as_ = truth_rows[k][3], truth_rows[k][4]
        raw_rows[k][3], raw_rows[k][4] = as_, hs
        raw_rows[k][8] = expected_rows[k][8] = _declared(hs, as_)
        audit.append([k + 1, "R5", "home_score", str(as_), str(hs)])
        audit.append([k + 1, "R5", "away_score", str(hs), str(as_)])
    for position, k in enumerate(r4):
        side = position % 2  # alternate blank home and away try cells
        score = truth_rows[k][3 + side]
        raw_rows[k][5 + side] = ""
        expected_rows[k][5 + side] = score // TRY_SCORE_VALUE
        audit.append([k + 1, "R4", ("home_tries", "away_tries")[side], "",
                      str(score // TRY_SCORE_VALUE)])
    audit.sort(key=lambda a: (a[0], a[1]))

    files = {
        "raw.csv": _csv([RAW_HEADER] + [r[:9] for r in raw_rows]),
        "expected_cleaned.csv": _csv([CLEANED_HEADER] + expected_rows),
        "fixtures.csv": _csv([["home_team", "away_team", "venue"]]
                             + [[r[1], r[2], r[7]] for r in truth_rows]),
    }
    if "rank" in workload.steps:  # rank --prev-ranks
        previous = log_pi + rng.normal(0.0, 0.5, workload.teams)
        order = [names[k] for k in np.argsort(-previous, kind="stable")]
        ranked = [t for t in order if rng.random() >= UNRANKED_SHARE]
        files["prev_ranks.csv"] = _csv(
            [["team", "previous_rank"]]
            + [[t, r] for r, t in enumerate(ranked, start=1)])
    files["truth.json"] = json.dumps({
        "workload": workload.name,
        "seed": seed,
        "structural": TRUTH_STRUCTURAL,
        "strengths": {t: float(np.exp(v)) for t, v in strength.items()},
        "audit": audit,
    }, indent=1, sort_keys=True) + "\n"
    return files


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def write_inputs(workload: Workload, seed: int, out: str):
    os.makedirs(out, exist_ok=True)
    for name, text in generate(workload, seed).items():
        with open(os.path.join(out, name), "w", encoding="utf-8",
                  newline="") as handle:
            handle.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_inputs(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
