"""Benchmark of the stereograph package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload report --seed 1 --seconds 40 --trace 0

Run from the repository root. One client runs each workload's operations
back to back (a closed loop, no threads), in batches; every batch is a
fresh interpreter so the package's caches start empty. Batches run for
--seconds: another starts only while it is expected to end in time, and
a workload's minimum count of batches always runs.

--trace 0 prints the end-to-end metrics: the median set-up time; the
batch time, per-op median and tail, all from each op's median duration
over the batches; the share of ops correct; peak memory. The times are
scaled to a host of nominal speed by the reference kernel timed between
the operations (see reference.py); the raw times are printed before the
result.
--trace 1 alternates untraced and traced batches and prints the
per-layer metrics from the traced ones (self time per layer and exact
counts), plus the tracing overhead. The last line of stdout is one JSON
object; lines before it give the context and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402

# A run must end within 180 s; stop starting batches past this point.
DEADLINE_S = 165.0
# Extra set-up-only interpreters per run, so setup_s is a median of many.
SETUP_PROBES = 5
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args()


def source_digest(src: str) -> str:
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_sha(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


class Runner:
    """Starts batch.py interpreters one at a time and collects their results."""

    def __init__(self, root: str, workload: str, seed: int, started: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = started + DEADLINE_S
        self.out = os.path.join(HERE, "out")
        os.makedirs(self.out, exist_ok=True)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.problems: list[str] = []

    def batch(self, *flags: str) -> dict | None:
        """One interpreter; returns its result with setup_s added, or None."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            self.problems.append("deadline reached before all batches ran")
            return None
        workdir = os.path.join(self.out, f"work-{os.getpid()}")
        argv = [
            sys.executable, os.path.join(HERE, "batch.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--workdir", workdir, *flags,
        ]
        began = time.monotonic()
        try:
            done = subprocess.run(
                argv, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired:
            self.problems.append("a batch ran past the deadline and was killed")
            return None
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            self.problems.append(f"batch exited with code {done.returncode}")
            return None
        result = json.loads(done.stdout)
        result["setup_s"] = result["setup_end"] - began
        return result

    def spans_path(self) -> str:
        return os.path.join(self.out, f"spans-{self.workload}-seed{self.seed}.jsonl")


def op_medians(op_lists: list[list[float]]) -> list[float]:
    """Each op's median duration over the run's batches. Every batch runs
    the same deterministic ops in the same order, so repeats of an op
    differ only by interference from the shared host, which slows the same
    code by 1.5x to 2x for spells from a fraction of a second to a minute.
    Per-op medians varied least between runs; per-op minima varied more,
    as a fast spell of the host reached some runs and not others."""
    return [statistics.median(times) for times in zip(*op_lists)]


def tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it,
    and that percentile."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def op_times(op_lists: list[list[float]]) -> tuple[float, float, float, float, int]:
    """wall_s, op p50 and op tail in seconds, the tail's percentile and its
    sample count, from each batch's op durations."""
    typical = op_medians(op_lists)
    # With fewer ops than the tail needs (census), the tail is taken over
    # every repeat of every op instead.
    tail_samples = typical if len(typical) > TAIL_BEYOND else [s for ops in op_lists for s in ops]
    tail_s, percentile = tail(tail_samples)
    return sum(typical), statistics.median(typical), tail_s, percentile, len(tail_samples)


def end_to_end(runs: list[dict], setups: list[float]) -> dict[str, tuple[float, str]]:
    failed = sum(len(r["errors"]) for r in runs)
    attempted = sum(len(r["op_s"]) for r in runs)
    # Each batch's op times are scaled by the mean of the kernel samples
    # spread through that batch, so a spell of the host that spans some
    # batches of a run and not others cancels too; set-up, timed outside
    # the batches, is scaled by the mean over the run.
    scales = [reference.NOMINAL_S / statistics.mean(r["reference_s"]) for r in runs]
    run_scale = reference.NOMINAL_S / statistics.mean(s for r in runs for s in r["reference_s"])
    wall, p50, tail_s, percentile, tail_count = op_times(
        [[scale * s for s in r["op_s"]] for r, scale in zip(runs, scales)]
    )
    raw_wall, raw_p50, raw_tail, _, _ = op_times([r["op_s"] for r in runs])
    setup = statistics.median(setups)
    print(f"samples: {len(runs)} batches of {len(runs[0]['op_s'])} ops, {len(setups)} set-ups")
    print("batch walls: " + ", ".join(f"{r['wall_s']:.3f}" for r in runs) + " s")
    print(f"op_tail_ms: p{percentile:.2f} of {tail_count} samples, {TAIL_BEYOND} beyond it")
    print(
        f"reference kernel: nominal {reference.NOMINAL_S} s; batch scales "
        + ", ".join(f"{scale:.3f}" for scale in scales)
        + f"; unscaled: setup_s {setup:.4f}, wall_s {raw_wall:.4f}, "
        f"op_p50_ms {1000 * raw_p50:.4f}, op_tail_ms {1000 * raw_tail:.4f}"
    )
    return {
        "setup_s": (run_scale * setup, "s"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (1000 * p50, "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "ok_frac": (1 - failed / attempted, "frac"),
        "peak_rss_mib": (max(r["rss_mib"] for r in runs), "MiB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    for name in traced[0]["layers"]:
        metrics[name] = (statistics.median(r["layers"][name] for r in traced), "s")
    for name, value in traced[0]["counts"].items():
        metrics[name] = (value, "frac" if name.endswith("_frac") else "count")
    untraced_wall = sum(op_medians([r["op_s"] for r in plain]))
    traced_wall = sum(op_medians([r["op_s"] for r in traced]))
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "frac")
    print(f"samples: {len(traced)} traced and {len(plain)} untraced batches")
    busy = {n: v for n, (v, unit) in metrics.items() if unit == "s"}
    shares = ", ".join(
        f"{n} {v / traced_wall:.1%}" for n, v in sorted(busy.items(), key=lambda kv: -kv[1])[:6]
    )
    print(f"largest self-time shares of traced wall_s: {shares}")
    return metrics


def counts_repeat(runs: list[dict]) -> list[str]:
    """Count metrics must be identical in every batch on the same inputs;
    traced batches carry more counts than untraced ones."""
    problems = []
    for name in sorted(set().union(*(r["counts"] for r in runs))):
        seen = {r["counts"][name] for r in runs if name in r["counts"]}
        if len(seen) != 1:
            problems.append(f"count {name} differs between batches: {sorted(seen)}")
    return problems


def main() -> int:
    started = time.monotonic()
    args = parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stereograph", "__init__.py")):
        print("run.py: no src/stereograph here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("context: " + json.dumps({
        "workload": workload.name,
        "why": workload.why,
        "stresses": workload.stresses,
        "bypasses": workload.bypasses,
        "seed": args.seed,
        "seed_use": workload.seed_use,
        "client": "one client, closed loop, no threads; one fresh interpreter per batch",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "src_sha256": source_digest(os.path.join(root, "src")),
    }))

    runner = Runner(root, workload.name, args.seed, started)
    setups: list[float] = []
    plain: list[dict | None] = []
    traced: list[dict | None] = []
    if not args.trace:
        probes = [runner.batch("--setup-only") for _ in range(SETUP_PROBES)]
        setups = [r["setup_s"] for r in probes if r]
    # One round is a batch, or with --trace an untraced and a traced batch.
    minimum = 2 if args.trace else workload.min_batches
    began = time.monotonic()
    rounds: list[float] = []
    while not runner.problems and (
        len(rounds) < minimum
        or time.monotonic() - began + statistics.median(rounds) <= args.seconds
    ):
        start = time.monotonic()
        plain.append(runner.batch())
        if args.trace:
            traced.append(runner.batch("--trace", runner.spans_path()))
        rounds.append(time.monotonic() - start)
    plain = [r for r in plain if r]
    traced = [r for r in traced if r]
    runs = plain + traced
    setups += [r["setup_s"] for r in plain]

    problems = list(runner.problems)
    if not plain or (args.trace and not traced):
        problems.append("no batch completed")
    else:
        problems += counts_repeat(runs)
    for r in runs:
        problems += r["errors"][:5]
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    attempted = sum(len(r["op_s"]) for r in runs)
    failed = sum(len(r["errors"]) for r in runs)
    metrics: dict[str, tuple[float, str]] = {}
    if plain and not args.trace:
        metrics = end_to_end(plain, setups)
    elif plain and traced:
        metrics = per_layer(plain, traced)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
