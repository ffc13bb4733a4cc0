"""One batch of one workload in a fresh interpreter.

Started by run.py with ``src`` on PYTHONPATH. A fresh process per batch
pins cache state: the lru_caches of the characteristic and chromatic
polynomials start empty every time. Between operations it times the
reference kernel (``reference.py``) after about every 0.3 s of operation
time, and before the first and after the last. Prints one JSON object on
stdout.

    python3 perfbench/batch.py --workload report --seed 1 --workdir DIR
        [--trace SPANS.jsonl] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

import reference
import stereograph.chromatic
import stereograph.spectral
from spans import COUNTS, Tracer
from workloads import WORKLOADS

CHARPOLY = stereograph.spectral.characteristic_polynomial
CHROMPOLY = stereograph.chromatic._chromatic_polynomial_cached
# Operation seconds between two samples of the reference kernel.
REFERENCE_EVERY_S = 0.3


def run_batch(workload_name: str, seed: int, workdir: str, spans_path: str | None) -> dict:
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[workload_name](seed, workdir)
        tracer = None
        if spans_path is not None:
            tracer = Tracer()
            tracer.install()
        for cache in (CHARPOLY, CHROMPOLY):
            if cache.cache_info().currsize:
                raise RuntimeError(f"{cache.__name__} cache is not empty before the first op")

        outputs: list = []
        durations: list[float] = []
        setup_end = time.monotonic()
        start = time.perf_counter()
        references = [reference.sample()]
        since_reference = 0.0
        for op_id, op in enumerate(workload.ops):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outputs.append(op())
                else:
                    tracer.op = op_id
                    outputs.append(tracer.span("op", op))
            except Exception as exc:  # one failed op must not stop the batch
                outputs.append(exc)
            durations.append(time.perf_counter() - t0)
            since_reference += durations[-1]
            if since_reference >= REFERENCE_EVERY_S or op_id == len(workload.ops) - 1:
                references.append(reference.sample())
                since_reference = 0.0

        errors = workload.check(outputs)
        charpoly = CHARPOLY.cache_info()
        result = {
            "setup_end": setup_end,
            "wall_s": sum(durations),
            "op_s": durations,
            "reference_s": references,
            "errors": [e for e in errors if e is not None],
            "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "counts": {
                "spectral.charpoly_hits": charpoly.hits,
                "spectral.charpoly_misses": charpoly.misses,
                **workload.counts(outputs),
            },
        }
        if tracer is not None:
            layers = tracer.layer_metrics()
            result["layers"] = {k: v for k, v in layers.items() if k not in COUNTS}
            result["counts"].update({k: layers[k] for k in COUNTS})
            tracer.write(spans_path, start)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", metavar="SPANS", help="trace and write spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        os.makedirs(args.workdir, exist_ok=True)
        try:
            WORKLOADS[args.workload](args.seed, args.workdir)
            result = {"setup_end": time.monotonic()}
        finally:
            shutil.rmtree(args.workdir, ignore_errors=True)
    else:
        result = run_batch(args.workload, args.seed, args.workdir, args.trace)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
