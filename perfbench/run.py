"""scrumrank benchmark: one workload's CLI session, timed and checked.

    python3 perfbench/run.py --workload season-200 --seed 1 --seconds 10 \
        --trace 0

Run from the root of a checkout; the program is imported from ``src``.
The benchmark generates its inputs from ``--seed`` (perfbench/generate.py),
runs the workload's ``scrumrank`` subcommands in a child interpreter for
``--seconds`` (perfbench/session.py), checks every round's outputs against
the generator's truth (perfbench/checks.py) and prints one JSON object as
the last line of standard output.

With ``--trace 0`` it reports the end-to-end metrics:

    setup_s      median wall time of fresh interpreters that import
                 scrumrank.cli and build its parser
    session_s    median wall time of one round of the workload's
                 subcommands, imports already done
    peak_rss_mb  peak resident memory of the process running the rounds

With ``--trace 1`` it reports the per-layer metrics of traced rounds
(perfbench/spans.py), import times from ``python -X importtime`` and the
tracing overhead. Each subcommand, each untimed re-clean and each check is
one operation. Generated files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread in every process the benchmark starts: the figures are
# steadier on a small shared machine, and both sides of a comparison must
# use the same setting.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import Reference, check_round  # noqa: E402
from generate import write_inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
IMPORTTIME_PROBES = 3
SESSION_TIMEOUT_S = 160
SETUP_CODE = "import scrumrank.cli as c; c.build_parser()"

END_TO_END_UNITS = {"setup_s": "s", "session_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.clean_s": "s", "cli.fit_s": "s", "cli.rank_s": "s",
    "cli.simulate_s": "s",
    "import.scrumrank.estimate_s": "s", "import.scrumrank.simulate_s": "s",
    "ingest.parse_csv_s": "s", "ingest.clean_s": "s", "ingest.rows": "count",
    "ingest.repairs": "count", "ingest.clean_us_per_row": "us",
    "domain.outcome_counts_s": "s", "domain.pairs": "count",
    "estimate.fit_s": "s", "estimate.fit_calls": "count",
    "estimate.iterations": "count", "estimate.bfgs_s": "s",
    "estimate.bfgs_nfev": "count", "estimate.after_bfgs_s": "s",
    "estimate.score_s": "s",
    "model.expected_points_calls": "count", "model.expected_points_s": "s",
    "model.outcome_distribution_calls": "count",
    "model.normalize_parameters_s": "s",
    "rank.pppm_s": "s", "rank.playing_records_s": "s",
    "rank.merit_points_s": "s", "rank.build_table_s": "s",
    "simulate.recovery_study_s": "s", "simulate.simulate_season_s": "s",
    "simulate.fixtures_sampled": "count",
    "simulate.sample_us_per_fixture": "us", "simulate.fit_share": "ratio",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def _child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _setup_seconds(env) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and build its
    parser, as every ``scrumrank`` invocation does before reading input."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                       cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def _import_seconds(env) -> dict[str, float]:
    """Median cumulative import time of the two heaviest modules."""
    samples: dict[str, list[float]] = {"scrumrank.estimate": [],
                                       "scrumrank.simulate": []}
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import scrumrank.cli"],
            env=env, cwd=ROOT, check=True, timeout=60,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {f"import.{name}_s": statistics.median(values)
            for name, values in samples.items()}


def _session(workload, seed, seconds, trace, inputs, work, env) -> dict:
    result_path = os.path.join(work, "session.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "session.py"),
         "--workload", workload.name, "--inputs", inputs,
         "--out", os.path.join(work, "rounds"), "--seconds", str(seconds),
         "--trace", str(trace), "--sim-seed", str(seed),
         "--result", result_path],
        env=env, cwd=ROOT, check=True, timeout=SESSION_TIMEOUT_S,
        stdout=subprocess.DEVNULL)
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="scrumrank benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "scrumrank", "cli.py")):
        print(f"error: no scrumrank sources under {ROOT}/src; run from the "
              "root of a scrumrank checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # one directory per workload and mode, replaced by the next such run
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{workload.name}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    write_inputs(workload, args.seed, inputs)
    env = _child_env()
    if args.trace:
        probes = _import_seconds(env)
    else:
        probes = {"setup_s": statistics.median(_setup_seconds(env))}
    session = _session(workload, args.seed, args.seconds, args.trace,
                       inputs, work, env)

    ref = Reference(inputs)
    attempted = failed = 0
    correct = True
    for record in session["rounds"]:
        codes = [s["code"] for s in record["steps"]] + [record["reclean_code"]]
        checks = check_round(workload, ref, record["dir"])
        attempted += len(codes) + len(checks)
        failed += sum(code != 0 for code in codes)
        failed += sum(not ok for _, ok, _ in checks)
        correct &= all(ok for _, ok, _ in checks)
        print(f"{os.path.basename(record['dir'])}"
              f"{' (traced)' if record['traced'] else ''}: session "
              f"{record['session_s']:.3f} s, exit codes {codes}")
        # every round runs the same checks: show them once, then failures
        for name, ok, detail in checks:
            if not ok or record is session["rounds"][0]:
                print(f"  {'PASS' if ok else 'FAIL'} {name}: {detail}")

    untraced = [r["session_s"] for r in session["rounds"] if not r["traced"]]
    if args.trace:
        traced = [r for r in session["rounds"] if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = (
            statistics.median(r["session_s"] for r in traced)
            - statistics.median(untraced))
        units = PER_LAYER_UNITS
    else:
        values = {"session_s": statistics.median(untraced),
                  "peak_rss_mb": session["peak_rss_mb"]}
        units = END_TO_END_UNITS
    values.update(probes)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"operations: {attempted} attempted, {failed} failed")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
