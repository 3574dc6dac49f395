"""Determinism self-check of the benchmark.

For every workload, two traced runs with the same seed must report
identical per-layer call counts, and a run with another seed must give
the same digest of its seed-independent ("golden") answers.  Every run
must also pass its own correctness checks.

From the repository root:

    python3 bench/selfcheck.py

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import BENCH_DIR, import_locrep

# Seconds of requests per traced run; every run does at least one whole pass.
SECONDS = 1


def traced_run(workload: str, seed: int) -> tuple[dict, str]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"]
    done = subprocess.run(argv, cwd=BENCH_DIR.parent, capture_output=True, text=True,
                          check=True)
    lines = done.stdout.splitlines()
    digest = next(line.rsplit(" ", 1)[1] for line in lines if "golden digest" in line)
    return json.loads(lines[-1]), digest


def main() -> int:
    import_locrep()
    from workloads import WORKLOADS

    ok = True
    for workload in WORKLOADS:
        runs = [traced_run(workload, seed) for seed in (1, 1, 2)]
        counts = [
            {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count/pass"}
            for result, _ in runs
        ]
        checks = {
            "every run correct": all(result["correct"] for result, _ in runs),
            "same seed, same call counts": counts[0] == counts[1],
            "other seed, same golden answers": runs[0][1] == runs[2][1],
        }
        for name, held in checks.items():
            print(f"{workload:9s} {name:32s} {'ok' if held else 'FAILED'}")
            ok = ok and held
        if counts[0] != counts[1]:
            for key in counts[0]:
                if counts[0][key] != counts[1][key]:
                    print(f"          {key}: {counts[0][key]} != {counts[1][key]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
