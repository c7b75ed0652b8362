"""The paper's outcome model and league tallies, written with NumPy alone.

The benchmark generates its inputs and checks the program's outputs with
this module, never with ``scrumrank``, so its inputs stay byte-identical
across commits that change the program and its checks stay valid for a
program that truly corrects the method.

A fixture between home side i and away side j has two independently
normalized outcome blocks. A cell awarding (a, b) league points has log
weight

    a log pi_i + b log pi_j + (a - b) log kappa [home ground]
    + log rho_n [narrow result] + log rho_d [draw]
    + log tau_b [both try bonuses] + log tau_z [no try bonus]
"""

from __future__ import annotations

import numpy as np

# Default league points: win 4, draw 2, loss 0, losing bonus within 7,
# try bonus at 4 tries. Result cells: home wide, home narrow, draw, away
# narrow, away wide. Try cells: both bonuses, home only, away only, none.
LOSING_BONUS_MARGIN = 7
TRY_BONUS_THRESHOLD = 4
TRY_SCORE_VALUE = 5
RESULT_HOME = np.array([4.0, 4.0, 2.0, 1.0, 0.0])
RESULT_AWAY = np.array([0.0, 1.0, 2.0, 4.0, 4.0])
TRY_HOME = np.array([1.0, 1.0, 0.0, 0.0])
TRY_AWAY = np.array([1.0, 0.0, 1.0, 0.0])
NARROW_CELLS = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
DRAW_CELL = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
BOTH_CELL = np.array([1.0, 0.0, 0.0, 0.0])
ZERO_CELL = np.array([0.0, 0.0, 0.0, 1.0])

STRUCTURAL = ("rho_n", "rho_d", "tau_b", "tau_z", "kappa")


def _softmax_columns(lw: np.ndarray) -> np.ndarray:
    lw = lw - lw.max(axis=0)
    w = np.exp(lw)
    return w / w.sum(axis=0)


def cell_probs(log_pi_home, log_pi_away, at_home, structural):
    """Result (5 x n) and try (4 x n) cell probabilities for n fixtures."""
    log_pi_home = np.asarray(log_pi_home, dtype=float)
    log_pi_away = np.asarray(log_pi_away, dtype=float)
    lk = np.log(structural["kappa"]) * np.asarray(at_home, dtype=float)
    lw_r = (RESULT_HOME[:, None] * log_pi_home + RESULT_AWAY[:, None]
            * log_pi_away + (RESULT_HOME - RESULT_AWAY)[:, None] * lk
            + NARROW_CELLS[:, None] * np.log(structural["rho_n"])
            + DRAW_CELL[:, None] * np.log(structural["rho_d"]))
    lw_t = (TRY_HOME[:, None] * log_pi_home + TRY_AWAY[:, None] * log_pi_away
            + (TRY_HOME - TRY_AWAY)[:, None] * lk
            + BOTH_CELL[:, None] * np.log(structural["tau_b"])
            + ZERO_CELL[:, None] * np.log(structural["tau_z"]))
    return _softmax_columns(lw_r), _softmax_columns(lw_t)


def result_cell(home_score: int, away_score: int) -> int:
    margin = home_score - away_score
    if margin == 0:
        return 2
    narrow = abs(margin) <= LOSING_BONUS_MARGIN
    if margin > 0:
        return 1 if narrow else 0
    return 3 if narrow else 4


def try_cell(home_tries: int, away_tries: int) -> int:
    home = home_tries >= TRY_BONUS_THRESHOLD
    away = away_tries >= TRY_BONUS_THRESHOLD
    return {(True, True): 0, (True, False): 1,
            (False, True): 2, (False, False): 3}[(home, away)]


class Season:
    """Cleaned match rows as arrays: who played whom, where, and the cells.

    ``rows`` are the cleaned CSV rows (strings, header excluded). A row
    with an outcome override is a narrow win for the named side and has
    no try cell (``tcell`` is -1).
    """

    def __init__(self, rows):
        self.teams = sorted({r[1] for r in rows} | {r[2] for r in rows})
        index = {t: k for k, t in enumerate(self.teams)}
        self.home = np.array([index[r[1]] for r in rows], dtype=int)
        self.away = np.array([index[r[2]] for r in rows], dtype=int)
        self.at_home = np.array([r[7] == "Home" for r in rows])
        rcell, tcell = [], []
        for r in rows:
            override = r[9] if len(r) > 9 else ""
            if override:
                rcell.append(1 if override == "home" else 3)
                tcell.append(-1)
            else:
                rcell.append(result_cell(int(r[3]), int(r[4])))
                tcell.append(try_cell(int(r[5]), int(r[6])))
        self.rcell = np.array(rcell, dtype=int)
        self.tcell = np.array(tcell, dtype=int)

    @property
    def m(self) -> int:
        return len(self.teams)

    def _per_team(self, home_values, away_values) -> np.ndarray:
        return (np.bincount(self.home, home_values, self.m)
                + np.bincount(self.away, away_values, self.m))

    def observed_points(self) -> np.ndarray:
        has_try = self.tcell >= 0
        tc = np.where(has_try, self.tcell, 3)
        home = RESULT_HOME[self.rcell] + np.where(has_try, TRY_HOME[tc], 0.0)
        away = RESULT_AWAY[self.rcell] + np.where(has_try, TRY_AWAY[tc], 0.0)
        return self._per_team(home, away)

    def played(self) -> np.ndarray:
        ones = np.ones(len(self.home))
        return self._per_team(ones, ones).astype(int)

    def won_drawn_lost(self):
        home_win = self.rcell <= 1
        draw = self.rcell == 2
        away_win = self.rcell >= 3
        won = self._per_team(home_win, away_win)
        drawn = self._per_team(draw, draw)
        lost = self._per_team(away_win, home_win)
        return won.astype(int), drawn.astype(int), lost.astype(int)

    def expected_balance(self, log_pi, structural):
        """Expected team points and structural totals over the schedule.

        Returns (per-team expected points, dict of expected structural
        totals) and the observed counterparts, as the score equations of
        the maximum-likelihood fit pair them.
        """
        pr, pt = cell_probs(log_pi[self.home], log_pi[self.away],
                            self.at_home, structural)
        has_try = (self.tcell >= 0).astype(float)
        pt = pt * has_try
        exp_points = self._per_team(RESULT_HOME @ pr + TRY_HOME @ pt,
                                    RESULT_AWAY @ pr + TRY_AWAY @ pt)
        obs_r = np.zeros_like(pr)
        obs_r[self.rcell, np.arange(len(self.rcell))] = 1.0
        obs_t = np.zeros_like(pt)
        with_try = np.flatnonzero(self.tcell >= 0)
        obs_t[self.tcell[with_try], with_try] = 1.0
        home_ground = self.at_home.astype(float)

        def totals(r, t):
            return {
                "rho_n": float(NARROW_CELLS @ r.sum(axis=1)),
                "rho_d": float(DRAW_CELL @ r.sum(axis=1)),
                "tau_b": float(BOTH_CELL @ t.sum(axis=1)),
                "tau_z": float(ZERO_CELL @ t.sum(axis=1)),
                "kappa": float(((RESULT_HOME - RESULT_AWAY) @ r
                                + (TRY_HOME - TRY_AWAY) @ t) @ home_ground),
            }

        return exp_points, totals(pr, pt), totals(obs_r, obs_t)


def pppm(log_pi, structural) -> np.ndarray:
    """Expected points per match over every home-and-away pairing."""
    m = len(log_pi)
    i, j = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    off = i != j
    hi, aj = i[off], j[off]
    pr, pt = cell_probs(log_pi[hi], log_pi[aj], np.ones(len(hi)), structural)
    home_pts = RESULT_HOME @ pr + TRY_HOME @ pt
    away_pts = RESULT_AWAY @ pr + TRY_AWAY @ pt
    total = np.bincount(hi, home_pts, m) + np.bincount(aj, away_pts, m)
    return total / (2 * (m - 1))


def merit_band_tenths(rank) -> int:
    if rank is None:
        return 0
    if rank <= 25:
        return 3
    if rank <= 50:
        return 2
    if rank <= 75:
        return 1
    return 0
