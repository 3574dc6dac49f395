"""Run a locrep benchmark workload, check every answer, print its metrics.

From the repository root:

    python3 bench/run.py --workload phi --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --seed 1 --seconds 25     # every workload in turn

One client sends requests in a closed loop: each starts when the last
one has returned.  Requests call ``locrep.cli.main`` (or the library,
for ``repair``) in this process, so interpreter start-up, about 0.13 s
per ``locrep`` process, is not measured.  A run repeats whole passes
over its workload's request list until the requests have taken about
``--seconds`` in total.  Every time is corrected for the shared host's
changing speed (see hostspeed.py); the wall-clock figures are printed
beside the corrected ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with every layer wrapped (see tracing.py),
prints the per-layer metrics per traced pass, and writes the spans to
``bench/out/``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` every workload runs in a fresh interpreter, one after
another, so peak memory and the package's caches never carry over.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Set-up runs once before the first pass, then again between passes
# whenever set-ups have taken less than SETUP_SHARE of the request time
# so far, and at least SETUP_MIN_REPS times in all; setup_s is the median
# of their corrected times.
# A single set-up takes 5 ms to 1.5 s depending on the workload.  Spread
# over the run, the set-ups sample the host's speed as the requests do,
# not at one moment.
SETUP_SHARE = 0.1
SETUP_MIN_REPS = 3

# The tail percentile of each workload is fixed, so that two commits
# compare the same percentile.  Each is the highest of 70, 75, ..., 95
# and 99 that leaves at least 10 of a 25 s run's samples beyond it, even
# when a pass takes 1.5 times as long as in the baseline runs
# (baseline.json); the count beyond is printed with it.
TAIL_PERCENTILE = {"distance": 85, "phi": 70, "repair": 99, "build": 85}


def import_locrep():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import locrep
    except ImportError as exc:
        sys.exit(f"bench: cannot import locrep from {src}: {exc}")
    if Path(locrep.__file__).resolve().parent != src / "locrep":
        sys.exit(f"bench: locrep was imported from {locrep.__file__}, not {src}")


def commit_id() -> str:
    """The checked-out commit, or "unknown" outside a git work tree.

    git runs only when this checkout has its own ``.git``, so that a
    checkout inside another repository never reports that one's commit.
    """
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class Passes:
    """Latencies and failures of whole passes over a request list."""

    def __init__(self):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.corrected: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.passes = 0
        self.golden = hashlib.sha256()

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def run(self, requests, seconds: float, tracer=None, after_pass=None) -> "Passes":
        """Run whole passes until the requests have taken about ``seconds``.

        At least one pass runs; another starts only while it would end
        nearer to ``seconds`` than stopping now.  Every request is timed
        and checked; none is dropped or retried.  ``after_pass(self)``,
        if given, runs untimed after every pass.
        """
        while self.passes == 0 or self.busy * (1 + 0.5 / self.passes) < seconds:
            for req in requests:
                if tracer is not None:
                    tracer.install()
                start = time.perf_counter()
                try:
                    if tracer is None:
                        answer, error = req.call(), None
                    else:
                        answer, error = tracer.run_request(req.label, req.call), None
                except (Exception, SystemExit) as exc:
                    answer, error = None, exc
                self.latencies.append(time.perf_counter() - start)
                self.starts.append(start)
                if tracer is not None:
                    tracer.uninstall()
                reason = f"raised {error!r}" if error is not None else req.check(answer)
                if reason is not None:
                    self.failures.append((req.label, reason))
                if req.golden and self.passes == 0:
                    self.golden.update(f"{req.label}\0{answer!r}\0".encode())
            self.passes += 1
            if after_pass is not None:
                after_pass(self)
        return self

    def correct(self, speed) -> None:
        """Correct every latency for the host's speed (see hostspeed.py)."""
        self.corrected = [speed.corrected(t, lat) for t, lat in zip(self.starts, self.latencies)]

    @property
    def ops_per_s(self) -> float:
        """Requests completed per second of (corrected) request time."""
        return len(self.corrected) / sum(self.corrected)

    def per_pass(self, statistic, latencies) -> float:
        """The mean over passes of ``statistic`` of each pass's ``latencies``.

        Every pass holds each request once, so a percentile of one pass
        always falls on the same rank among the requests.  A percentile
        of all of a run's latencies at once would fall between two
        requests of different cost or inside one, depending on how many
        passes the run made.
        """
        n = len(latencies) // self.passes
        return statistics.fmean(
            statistic(latencies[p * n:(p + 1) * n]) for p in range(self.passes)
        )


def nearest_rank(latencies: list[float], percentile: float) -> float:
    ordered = sorted(latencies)
    return ordered[max(1, math.ceil(percentile / 100 * len(ordered))) - 1]


def beyond(n: int, percentile: float) -> int:
    """Samples beyond the nearest-rank percentile of ``n`` samples."""
    return n - max(1, math.ceil(percentile / 100 * n))


def show(metrics: dict, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:.6g} {unit}{note}")


def end_to_end(name: str, setups: Passes, timed: Passes) -> dict:
    """The end-to-end metrics, from latencies corrected for the host's speed."""
    pct = TAIL_PERCENTILE[name]
    n = len(timed.corrected)

    def tail(latencies):
        return nearest_rank(latencies, pct)

    metrics = {
        "setup_s": (statistics.median(setups.corrected), "s"),
        "ops_per_s": (timed.ops_per_s, "1/s"),
        "latency_p50_ms": (timed.per_pass(statistics.median, timed.corrected) * 1e3, "ms"),
        "latency_tail_ms": (timed.per_pass(tail, timed.corrected) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = timed.latencies
    beyond_it = timed.passes * beyond(n // timed.passes, pct)
    show(metrics, {
        "setup_s": f"median of {len(setups.corrected)} set-ups; "
                   f"wall clock {statistics.median(setups.latencies):.6g} s",
        "ops_per_s": f"wall clock {n / sum(wall):.6g} 1/s",
        "latency_p50_ms": f"mean over {timed.passes} passes of each pass's median; "
                          f"wall clock {timed.per_pass(statistics.median, wall) * 1e3:.6g} ms",
        "latency_tail_ms": f"p{pct}, mean over {timed.passes} passes; {beyond_it} of {n} "
                           f"samples beyond it; "
                           f"wall clock {timed.per_pass(tail, wall) * 1e3:.6g} ms",
    })
    # failed_frac reads 0 when all is well, so it cannot be judged as a
    # share of its median; it is printed here and carried by the result
    # line's "failed" and "attempted".
    show({"failed_frac": (len(timed.failures) / n, "ratio")},
         {"failed_frac": f"{len(timed.failures)} of {n}"})
    return metrics


def per_layer(tracer, untraced: Passes, traced: Passes) -> dict:
    """Per-layer metrics of one traced pass (counts and seconds per pass)."""
    k = traced.passes
    calls = tracer.calls
    metrics = {}

    def count(name, value):
        metrics[name] = (value / k, "count/pass")

    def seconds(name, value):
        metrics[name] = (value / k, "s/pass")

    def ratio(name, num, den):
        metrics[name] = (num / den if den else 0.0, "ratio")

    for layer in ("gf2m.field_init", "gf2m.is_irreducible", "gf2m.matrix_rank",
                  "gf2m.solve_column", "linear_code.entropy",
                  "linear_code.min_distance", "regsets.minimal_regsets"):
        count(layer + ".calls", calls[layer])
        seconds(layer + ".s", tracer.busy[layer])
    count("gf2m.mul.calls", calls["gf2m.mul"])
    count("gf2m.inv.calls", calls["gf2m.inv"])
    entropy_misses = tracer.under["linear_code.entropy", "gf2m.matrix_rank"]
    ratio("linear_code.entropy.hit_ratio",
          calls["linear_code.entropy"] - entropy_misses, calls["linear_code.entropy"])
    count("regsets.minimal_regsets.sets_found", tracer.sets_found)
    ratio("regsets.minimal_regsets.useful_ratio", tracer.sets_found,
          tracer.under["regsets.minimal_regsets", "linear_code.entropy"])
    for layer in ("linear_code.loads", "regsets.verify_locality",
                  "square.verify_optimal_distance", "repair.execute_repair",
                  "repair.repair_tolerance", "bounds"):
        seconds(layer + ".s", tracer.busy[layer])
    for layer in ("cli.main", "regsets.phi_profile", "square.build_square_code",
                  "repair.plan_repair"):
        seconds(layer + ".self_s", tracer.self_s[layer])
    seconds("trace.pass_s", traced.busy)
    metrics["trace.overhead_frac"] = (1 - traced.ops_per_s / untraced.ops_per_s, "ratio")
    show(metrics, {})
    share = metrics["gf2m.matrix_rank.s"][0] / metrics["trace.pass_s"][0]
    print(f"gf2m.matrix_rank.s is {share:.2%} of traced request time "
          f"(base: trace.pass_s, {k} traced passes)")
    return metrics


def write_spans(tracer, name: str, seed: int, info: dict) -> Path:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{name}-seed{seed}-spans.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**info, "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                   "spans": tracer.spans}, fh)
    return path


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from hostspeed import HostSpeed
    from tracing import Tracer
    from workloads import WORKLOADS

    setup, warm_up = WORKLOADS[name]
    info = {"workload": name, "seed": seed, "seconds": seconds,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit_id()}
    print(f"locrep benchmark: workload={name} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    print(f"python {info['python']}, nproc {info['nproc']}, commit {info['commit']}")
    print("closed loop, 1 client, in-process; interpreter start-up "
          "(~0.13 s per locrep process) is excluded")
    workdir = BENCH_DIR / "work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = Passes()  # set-ups are timed and corrected like requests

        def set_up():
            # the same seed writes the same files, so the requests made by
            # the first set-up stay valid after later ones
            start = time.perf_counter()
            made = setup(Random(seed), workdir)
            setups.latencies.append(time.perf_counter() - start)
            setups.starts.append(start)
            return made

        def set_up_again(passes):
            while setups.busy < SETUP_SHARE * passes.busy:
                set_up()

        with HostSpeed() as speed:
            requests = set_up()
            runs = [Passes().run(requests, 0)] if warm_up else []
            if trace:
                tracer = Tracer()
                untraced = Passes().run(requests, seconds / 2)
                timed = Passes().run(requests, seconds / 2, tracer)
                runs += [untraced, timed]
            else:
                timed = Passes().run(requests, seconds, after_pass=set_up_again)
                runs.append(timed)
                while len(setups.latencies) < SETUP_MIN_REPS:
                    set_up()
        for passes in runs + [setups]:
            passes.correct(speed)
        failures = [f for passes in runs for f in passes.failures]
        print(f"{len(timed.latencies)} requests in {timed.passes} passes of "
              f"{len(requests)}; golden digest {timed.golden.hexdigest()}")
        for label, reason in failures[:5]:
            print(f"FAILED {label}: {reason}")
        if trace:
            metrics = per_layer(tracer, untraced, timed)
            print(f"spans written to {write_spans(tracer, name, seed, info)}")
        else:
            metrics = end_to_end(name, setups, timed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(len(passes.latencies) for passes in runs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args, names) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    status = 0
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, cwd=ROOT).returncode)
    return status


def main() -> int:
    import_locrep()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all, each in a fresh process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args, list(WORKLOADS))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
