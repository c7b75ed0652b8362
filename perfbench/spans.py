"""Spans around calls into scrumrank's layers, recorded from outside.

Each traced function is wrapped under the module attribute its caller
looks up (``scrumrank.rank.expected_points`` is the name PPPM calls), so
the program itself is untouched. A span records its name, start, end and
parent; spans stay in memory until the run ends. Self time is a span's
duration minus its children's.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, parent id or -1, start, end]
        self.counters: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.saved: list[tuple] = []
        self.last: dict[str, tuple] = {}  # name -> (args, result)

    def _open(self, name: str) -> list:
        span = [len(self.spans), name, self.stack[-1] if self.stack else -1,
                time.perf_counter(), 0.0]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def _close(self, span: list):
        span[4] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, module, attr: str, name: str, count=None,
             keep: bool = False):
        """Replace ``module.attr`` with a spanned wrapper.

        ``count(args, result)`` returns {counter: increment} for a call;
        ``keep`` stores the last call's arguments and result.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counters[key] += value
            if keep:
                self.last[name] = (args, result)
            return result

        self.saved.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    def reset(self):
        self.spans, self.stack = [], []
        self.counters = defaultdict(int)

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = defaultdict(float)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span_id, name, _, start, end in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return dict(out)

    def child_total(self, parent_name: str, child_name: str) -> float:
        """Seconds in ``child_name`` spans directly under ``parent_name``."""
        parents = {s[0] for s in self.spans if s[1] == parent_name}
        return sum(s[4] - s[3] for s in self.spans
                   if s[1] == child_name and s[2] in parents)

    def dump(self, handle, round_index: int):
        for span_id, name, parent, start, end in self.spans:
            handle.write(json.dumps({"round": round_index, "id": span_id,
                                     "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def install(tracer: Tracer):
    """Wrap every layer boundary the CLI sessions cross."""
    import scrumrank.cli as cli
    import scrumrank.estimate as estimate
    import scrumrank.rank as rank
    import scrumrank.simulate as simulate

    tracer.wrap(cli, "parse_csv", "ingest.parse_csv",
                count=lambda a, r: {"ingest.rows": len(r)})
    tracer.wrap(cli, "clean", "ingest.clean",
                count=lambda a, r: {"ingest.repairs": len(r.actions),
                                    "ingest.rows_cleaned":
                                        len(r.records) + len(r.rejected)})
    tracer.wrap(cli, "outcome_counts", "domain.outcome_counts", keep=True,
                count=lambda a, r: {"domain.pairs": len(r.pairs)})

    def fit_counts(args, result):
        return {"estimate.iterations": result.report.iterations}

    tracer.wrap(cli, "fit", "estimate.fit", count=fit_counts, keep=True)
    tracer.wrap(simulate, "fit", "estimate.fit", count=fit_counts)
    tracer.wrap(estimate, "minimize", "estimate.minimize",
                count=lambda a, r: {"estimate.bfgs_nfev": r.nfev})
    tracer.wrap(estimate, "normalize_parameters", "model.normalize_parameters")
    tracer.wrap(simulate, "normalize_parameters", "model.normalize_parameters")
    tracer.wrap(rank, "expected_points", "model.expected_points")
    tracer.wrap(simulate, "outcome_distribution", "model.outcome_distribution")
    for attr in ("pppm", "playing_records", "merit_points", "build_table"):
        tracer.wrap(cli, attr, f"rank.{attr}")
    tracer.wrap(cli, "recovery_study", "simulate.recovery_study")
    tracer.wrap(simulate, "simulate_season", "simulate.simulate_season",
                count=lambda a, r: {"simulate.fixtures_sampled": len(a[1])})


def score_seconds(tracer: Tracer, repeats: int = 5) -> float:
    """Median time of one public ``estimate.score`` call at the CLI fit's
    raw parameters: a problem build and one likelihood-and-gradient pass."""
    import scrumrank.estimate as estimate

    _, counts = tracer.last["domain.outcome_counts"]
    _, model = tracer.last["estimate.fit"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        estimate.score(model.raw_parameters, counts, model.prior,
                       model.variant, model.points_system)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced session, by name."""
    totals = tracer.totals()

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    c = tracer.counters
    fit_s = total("estimate.fit")
    bfgs_s = total("estimate.minimize")
    study_s = total("simulate.recovery_study")
    sampled = c["simulate.fixtures_sampled"]
    rows_cleaned = c["ingest.rows_cleaned"]
    metrics = {f"cli.{step}_s": total(f"cli.{step}")
               for step in ("clean", "fit", "rank", "simulate")}
    metrics.update({
        "ingest.parse_csv_s": total("ingest.parse_csv"),
        "ingest.clean_s": total("ingest.clean"),
        "ingest.rows": c["ingest.rows"],
        "ingest.repairs": c["ingest.repairs"],
        "ingest.clean_us_per_row":
            1e6 * total("ingest.clean") / rows_cleaned if rows_cleaned else 0.0,
        "domain.outcome_counts_s": total("domain.outcome_counts"),
        "domain.pairs": c["domain.pairs"],
        "estimate.fit_s": fit_s,
        "estimate.fit_calls": calls("estimate.fit"),
        "estimate.iterations": c["estimate.iterations"],
        "estimate.bfgs_s": bfgs_s,
        "estimate.bfgs_nfev": c["estimate.bfgs_nfev"],
        "estimate.after_bfgs_s": fit_s - bfgs_s,
        "model.expected_points_calls": calls("model.expected_points"),
        "model.expected_points_s": total("model.expected_points"),
        "model.outcome_distribution_calls":
            calls("model.outcome_distribution"),
        "model.normalize_parameters_s": total("model.normalize_parameters"),
        "rank.pppm_s": total("rank.pppm"),
        "rank.playing_records_s": total("rank.playing_records"),
        "rank.merit_points_s": total("rank.merit_points"),
        "rank.build_table_s": total("rank.build_table"),
        "simulate.recovery_study_s": study_s,
        "simulate.simulate_season_s": total("simulate.simulate_season"),
        "simulate.fixtures_sampled": sampled,
        "simulate.sample_us_per_fixture":
            1e6 * total("simulate.simulate_season") / sampled
            if sampled else 0.0,
        "simulate.fit_share":
            tracer.child_total("simulate.recovery_study", "estimate.fit")
            / study_s if study_s else 0.0,
        "trace.spans": len(tracer.spans),
    })
    return metrics
