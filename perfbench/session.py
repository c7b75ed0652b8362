"""Run one workload's CLI session in rounds inside one interpreter.

    python3 perfbench/session.py --workload W --inputs DIR --out DIR \
        --seconds S --trace 0|1 --sim-seed N --result FILE

Imports ``scrumrank.cli`` once, then runs the workload's subcommands
through ``scrumrank.cli.main`` round after round while another round
should still end within ``--seconds`` (at least one round). Each round
writes into its own directory and is followed by an untimed ``clean`` of
the cleaned file, which the checks use to confirm that cleaning is
idempotent. With ``--trace 1`` rounds alternate untraced and traced,
starting untraced, so the run can report its own tracing overhead. The
result file holds per-round timings, exit codes, per-layer metrics of
traced rounds and the process's peak RSS.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def _run_step(cli, argv, log_path, tracer=None, span=None) -> int:
    with open(log_path, "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        if tracer is None:
            return cli.main(argv)
        with tracer.span(span):
            return cli.main(argv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sim-seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import scrumrank.cli as cli
    import spans
    from workloads import WORKLOADS, cli_steps

    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    rounds = []
    started = time.perf_counter()
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        out = os.path.join(args.out, f"round-{index}")
        os.makedirs(os.path.join(out, "reclean"))
        if traced:
            tracer.reset()
            spans.install(tracer)
        steps = []
        round_start = time.perf_counter()
        for step, step_argv in cli_steps(workload, args.inputs, out,
                                         args.sim_seed):
            step_start = time.perf_counter()
            code = _run_step(cli, step_argv, os.path.join(out, f"{step}.log"),
                             tracer if traced else None, f"cli.{step}")
            steps.append({"step": step, "code": code,
                          "seconds": time.perf_counter() - step_start})
        session_s = time.perf_counter() - round_start
        record = {"dir": out, "traced": traced, "session_s": session_s,
                  "steps": steps}
        if traced:
            tracer.restore()
            record["layers"] = spans.layer_metrics(tracer)
            record["layers"]["estimate.score_s"] = spans.score_seconds(tracer)
            with open(os.path.join(out, "spans.jsonl"), "w",
                      encoding="utf-8") as handle:
                tracer.dump(handle, index)
            with open(os.path.join(out, "span_totals.json"), "w",
                      encoding="utf-8") as handle:
                json.dump(tracer.totals(), handle, indent=1, sort_keys=True)
        reclean = os.path.join(out, "reclean")
        record["reclean_code"] = _run_step(
            cli, ["clean", os.path.join(out, "cleaned.csv"),
                  os.path.join(reclean, "cleaned.csv"),
                  os.path.join(reclean, "audit.csv")],
            os.path.join(reclean, "clean.log"))
        rounds.append(record)
        # start another round only if it should end within the budget
        elapsed = time.perf_counter() - started
        both_kinds = tracer is None or len(rounds) >= 2
        if both_kinds and elapsed * (len(rounds) + 1) / len(rounds) \
                > args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump({"rounds": rounds, "peak_rss_mb": peak_kb / 1024.0},
                  handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
