"""Run-to-run spread of the end-to-end metrics, as the acceptance check sees it.

Runs ``run.py`` once per seed on each named workload, then prints for
every end-to-end metric its median and its inter-quartile spread as a
share of the median (``statistics.quantiles(values, n=4)``), next to
the metric's bound from ``BENCHMARK.json``.  A spread above a third of
the bound is flagged: such a metric is too noisy to gate on.
``setup_s`` is flagged by the same rule; the acceptance check gates
only its median, but a noisy set-up time is still worth seeing.

Usage: python3 cqnbench/spread.py --workloads warm_hit cold_miss --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

from stats import quartile_spread

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    noisy = False
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            out = subprocess.run(
                [
                    sys.executable,
                    str(ROOT / "cqnbench" / "run.py"),
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]),
                    "--trace", "0",
                ],
                cwd=str(ROOT),
                capture_output=True,
                text=True,
                timeout=180,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                print(out.stdout, out.stderr, file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + json.dumps(
                {k: round(v[-1], 4) for k, v in values.items()}
            ), flush=True)
        for name, series in values.items():
            spread = quartile_spread(series) if len(series) >= 2 else 0.0
            bound = bounds[name]
            flag = ""
            if spread > bound / 3:
                flag = "  <-- above bound/3"
                noisy = True
            print(
                f"  {workload:12s} {name:44s} median {statistics.median(series):14.6g}"
                f"  spread {spread:7.3f}  bound {bound}{flag}"
            )
    return 1 if noisy else 0


if __name__ == "__main__":
    sys.exit(main())
