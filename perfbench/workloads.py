"""The benchmark's workloads: league shape, inputs and CLI sequence.

Each workload is one season of results run through the ``scrumrank``
command line in the order a user would: ``clean``, then ``fit``, then
``rank`` or ``simulate``.
"""

from __future__ import annotations

from dataclasses import dataclass

# Ring-plus-offset schedule: a team at ring position p meets p +/- d for
# each offset d, one leg at home and one away, so every team plays 12
# matches. The sparse ring keeps the schedule graph's diameter large,
# which is what makes a big fit hard.
RING_OFFSETS = (1, 2, 3, 5, 8, 13)
PRIOR_WEIGHT = 1.0  # every fit, and every refit in a recovery study


@dataclass(frozen=True)
class Workload:
    name: str
    teams: int
    schedule: str  # "ring" or "double-round-robin"
    steps: tuple[str, ...]  # CLI subcommands, in order
    replicates: int = 0  # recovery-study replicates for "simulate"


WORKLOADS = {
    w.name: w for w in (
        Workload("season-200", 200, "ring", ("clean", "fit", "rank")),
        Workload("sparse-1000", 1000, "ring", ("clean", "fit")),
        Workload("recovery-20", 20, "double-round-robin",
                 ("clean", "fit", "simulate"), replicates=20),
    )
}


def cli_steps(workload: Workload, inputs: str, out: str,
              sim_seed: int) -> list[tuple[str, list[str]]]:
    """(subcommand, argv) for one session; ``out`` holds the outputs."""
    cleaned = f"{out}/cleaned.csv"
    model = f"{out}/model.json"
    argv = {
        "clean": ["clean", f"{inputs}/raw.csv", cleaned, f"{out}/audit.csv"],
        "fit": ["fit", cleaned, model, "--prior-weight", str(PRIOR_WEIGHT)],
        "rank": ["rank", model, cleaned, f"{out}/table.csv",
                 "--prev-ranks", f"{inputs}/prev_ranks.csv"],
        "simulate": ["simulate", model, f"{inputs}/fixtures.csv",
                     f"{out}/report.csv", "--replicates",
                     str(workload.replicates), "--prior-weight",
                     str(PRIOR_WEIGHT),
                     "--seed", str(sim_seed)],
    }
    return [(step, argv[step]) for step in workload.steps]
