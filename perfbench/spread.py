"""Run-to-run spread of the end-to-end metrics, next to host steal.

Usage, from the repository root::

    python3 perfbench/spread.py --workload hot-rw --seeds 1-10 --seconds 15

Runs the benchmark once per seed, one run at a time, and prints each
run's metrics with the host steal share over its window, then per metric
the median and the quartile spread ``(Q3 - Q1) / median`` as
``statistics.quantiles(values, n=4)`` gives the quartiles.  ``--json
PATH`` also writes the runs and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    """``"1-5"`` or ``"1,4,9"`` as a list of seeds."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}"
        )
    record = json.loads(lines[-2].removeprefix("record "))
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "steal_share": record["steal_share"],
        "seed_counts": record["seed_counts"],
        "metrics": {
            name: entry["value"] for name, entry in result["metrics"].items()
        },
    }


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument(
        "--seconds", type=float,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    )
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in seeds_of(args.seeds):
        run = run_once(args.workload, seed, args.seconds)
        runs.append(run)
        shown = " ".join(
            f"{name}={value:.4g}" for name, value in run["metrics"].items()
        )
        print(f"seed {seed:>3} steal={run['steal_share']:.3f} {shown}",
              flush=True)
    bounds = {
        metric["name"]: metric["bound"]
        for metric in json.loads(
            (ROOT / "BENCHMARK.json").read_text()
        )["end_to_end"]
    }
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs]
        summary[name] = {
            "median": statistics.median(values),
            "spread": spread(values),
            "bound": bounds.get(name),
        }
        print(f"{name:>15} median={summary[name]['median']:.4g} "
              f"spread={summary[name]['spread']:.4f} "
              f"bound={summary[name]['bound']}")
    steals = [run["steal_share"] for run in runs]
    print(f"{'steal':>15} min={min(steals):.3f} "
          f"median={statistics.median(steals):.3f} max={max(steals):.3f}")
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "runs": runs, "summary": summary}, indent=2,
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
