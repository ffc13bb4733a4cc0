"""The benchmark workloads: why each exists, its inputs, and its checks.

A workload makes its inputs from the seed in ``__init__`` (set-up, not
timed), exposes the timed operations as ``ops`` (callables run back to
back by one client), and checks every output afterwards in ``check``,
which returns one error string or None per operation.
"""

from __future__ import annotations

import io
import json
import os
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import stereograph
from stereograph import cli

# census(n) rows at the seed commit: n -> ((k, labeled, iso classes), ...).
CENSUS_ROWS = {
    2: ((2, 2, 1),),
    3: ((2, 4, 1), (3, 4, 1)),
    4: ((2, 8, 1), (3, 48, 1), (4, 8, 1)),
    5: ((2, 16, 1), (3, 400, 2), (4, 592, 3), (5, 16, 1)),
}
# Two-graph counts (OEIS A002854): isomorphism classes summed over k.
CLASS_TOTALS = {3: 2, 4: 3, 5: 7}

# generate --type random --n n --seed s at the seed commit:
# (n, s) -> (CSI, pattern bits read as a big-endian binary number, hex).
RANDOM_POOL = {
    (12, 0): (6, "2aabe330dfc5eb66d"),
    (12, 1): (6, "36c870be2b1a24e14"),
    (12, 2): (6, "b6ec782edcc9edb0"),
    (12, 3): (6, "3d0514d6ea29c752f"),
    (13, 0): (6, "2aabe330dfc5eb66d44d"),
    (13, 1): (6, "36c870be2b1a24e14ff6"),
    (13, 2): (7, "b6ec782edcc9edb0d7e"),
    (13, 3): (6, "3d0514d6ea29c752f3fd"),
    (14, 0): (6, "5557c661bf8bd6cda89b0e5"),
    (14, 1): (6, "6d90e17c563449c29fedf70"),
    (14, 2): (6, "16dd8f05db993db61afc65c"),
    (14, 3): (7, "7a0a29add4538ea5e7fb28b"),
}


class Workload:
    """What every workload defines; see the module docstring for the protocol."""

    name: str
    why: str
    stresses: str
    bypasses: str
    seed_use: str
    min_batches = 2

    def counts(self, outputs: list) -> dict[str, int]:
        """Exact counts taken from the outputs."""
        return {"chromatic.chrompoly_skipped": 0}


class Report(Workload):
    name = "report"
    why = (
        "stability_report on all 1098 graphs with 2..5 pairs and 40 random graphs "
        "with 8..12 pairs: the only workload that runs all eight criteria"
    )
    stresses = (
        "spectral (characteristic polynomial, Bareiss, matrix identity), polynomials, "
        "chromatic polynomial up to its 14-vertex bound, CSI, girth, triangles, merge"
    )
    bypasses = "cli, serialize, isomorphism, build_with_csi"
    seed_use = (
        "orders the operations; the random graphs are the fixed pool gen_random(n, s) "
        "for s in 0..7 and 8..12 pairs"
    )

    # A fixed pool rather than graphs drawn from the seed: the CSI search
    # time of one random 12-pair graph ranges from milliseconds to over a
    # second, so seeded draws moved wall_s by a quarter between seeds.
    RANDOM_PAIRS = range(8, 13)
    RANDOM_SEEDS = range(8)

    def __init__(self, seed: int, workdir: str) -> None:
        self.graphs = [g for n in range(2, 6) for g in stereograph.enumerate_all(n)]
        self.graphs += [
            stereograph.gen_random(n, s) for n in self.RANDOM_PAIRS for s in self.RANDOM_SEEDS
        ]
        random.Random(seed).shuffle(self.graphs)
        self.ops = [lambda g=g: stereograph.stability_report(g) for g in self.graphs]

    def check(self, outputs: list) -> list[str | None]:
        errors: list[str | None] = []
        for g, report in zip(self.graphs, outputs):
            if isinstance(report, BaseException):
                errors.append(f"n={g.n} {g.bits}: {report!r}")
            elif not report.agreement:
                errors.append(f"n={g.n} {g.bits}: criteria disagree {report.criteria()}")
            elif not 2 <= report.csi <= g.n:
                errors.append(f"n={g.n} {g.bits}: csi {report.csi} outside [2, n]")
            else:
                errors.append(None)
        for n, rows in CENSUS_ROWS.items():
            expected = {k: labeled for k, labeled, _ in rows}
            mine = [i for i, g in enumerate(self.graphs) if g.n == n]
            seen = Counter(outputs[i].csi for i in mine if errors[i] is None)
            if dict(seen) != expected:
                for i in mine:
                    errors[i] = errors[i] or f"n={n} csi histogram {dict(seen)} != {expected}"
        return errors

    def counts(self, outputs: list) -> dict[str, int]:
        skipped = sum(
            1
            for g, r in zip(self.graphs, outputs)
            if not isinstance(r, BaseException) and g.n >= 2 and r.chromatically_bipartite is None
        )
        return {"chromatic.chrompoly_skipped": skipped}


class Census(Workload):
    name = "census"
    why = (
        "census(3), census(4), census(5): exhaustive counting whose time goes to "
        "pairwise isomorphism, with CSI on 1096 tiny graphs"
    )
    stresses = "graphs.isomorphism, generators.enumerate, chromatic CSI per-call cost, model.recognize"
    bypasses = "spectral, polynomials, chromatic polynomial, merge, cli, serialize"
    seed_use = "none: the census is exhaustive; census(6) (about 25 min) is left out"
    # With 3 ops per batch the pooled tail (10 samples beyond it) lies in
    # the census(5) samples only from 11 batches on.
    min_batches = 11

    PAIRS = (3, 4, 5)

    def __init__(self, seed: int, workdir: str) -> None:
        self.ops = [lambda n=n: stereograph.census(n) for n in self.PAIRS]

    def check(self, outputs: list) -> list[str | None]:
        errors: list[str | None] = []
        for n, rows in zip(self.PAIRS, outputs):
            if isinstance(rows, BaseException):
                errors.append(f"census({n}): {rows!r}")
                continue
            got = tuple((r.k, r.labeled_count, r.iso_class_count) for r in rows)
            classes = sum(r.iso_class_count for r in rows)
            if got != CENSUS_ROWS[n]:
                errors.append(f"census({n}) rows {got} != {CENSUS_ROWS[n]}")
            elif classes != CLASS_TOTALS[n]:
                errors.append(f"census({n}) has {classes} classes, A002854 gives {CLASS_TOTALS[n]}")
            else:
                errors.append(None)
        return errors


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


class CsiFiles(Workload):
    name = "csi_files"
    why = (
        "CLI build --csi for every k on 12..14 pairs and generate --type random, then "
        "validate and csi --witness on every file: CLI and file I/O with CSI as the tail"
    )
    stresses = "cli, serialize, generators.build/expand, chromatic CSI search, max_clique, model.validate"
    bypasses = "spectral, polynomials, chromatic polynomial, merge, isomorphism"
    seed_use = (
        "orders the writes and the reads; the random files are the fixed pool "
        "generate --seed 0..3 for 12..14 pairs, whose CSI values are pinned"
    )

    PAIRS = (12, 13, 14)

    def __init__(self, seed: int, workdir: str) -> None:
        self.files: list[tuple[str, list[str], int, str | None]] = []
        for n in self.PAIRS:
            for k in range(2, n + 1):
                path = os.path.join(workdir, f"build-{n}-{k}.json")
                argv = ["build", "--n", str(n), "--csi", str(k), "-o", path]
                self.files.append((path, argv, k, None))
        for (n, s), (k, pattern) in RANDOM_POOL.items():
            path = os.path.join(workdir, f"random-{n}-{s}.json")
            argv = ["generate", "--type", "random", "--n", str(n), "--seed", str(s), "-o", path]
            self.files.append((path, argv, k, pattern))
        rng = random.Random(seed)
        rng.shuffle(self.files)
        writes = [(f, "write") for f in self.files]
        reads = [(f, kind) for f in self.files for kind in ("validate", "csi")]
        rng.shuffle(reads)
        self.plan = writes + reads
        self.ops = [lambda argv=self._argv(f, kind): _run_cli(argv) for f, kind in self.plan]

    @staticmethod
    def _argv(file, kind: str) -> list[str]:
        path, write_argv = file[0], file[1]
        if kind == "write":
            return write_argv
        if kind == "validate":
            return ["validate", path]
        return ["csi", path, "--witness"]

    def check(self, outputs: list) -> list[str | None]:
        errors: list[str | None] = []
        for (f, kind), output in zip(self.plan, outputs):
            try:
                errors.append(self._check_one(f, kind, output))
            except (OSError, ValueError, KeyError, IndexError) as exc:  # malformed output or file
                errors.append(f"{kind} {os.path.basename(f[0])}: unreadable output: {exc!r}")
        return errors

    @staticmethod
    def _check_one(file, kind: str, output) -> str | None:
        path, _, k, pattern = file
        name = os.path.basename(path)
        if isinstance(output, BaseException):
            return f"{kind} {name}: {output!r}"
        code, text = output
        if code != 0:
            return f"{kind} {name}: exit {code}: {text.strip()}"
        lines = text.splitlines()
        if kind == "validate":
            return None if lines[-1:] == ["valid: yes"] else f"validate {name}: {text!r}"
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        n, bits = doc["n"], doc["pattern"]
        if kind == "write":
            if pattern is not None and int("".join(map(str, bits)), 2) != int(pattern, 16):
                return f"generate {name}: pattern differs from the pinned one"
            return None
        if lines[:1] != [str(k)]:
            return f"csi {name}: printed {lines[:1]}, expected {k}"
        return _witness_error(n, bits, json.loads(lines[1]), k, name)


def _witness_error(n: int, bits: list[int], colors: dict, k: int, name: str) -> str | None:
    """Check a witness colour map against edges rebuilt from the bits here,
    independently of the library's own graph construction."""
    edges = [((1, i), (2, i)) for i in range(1, n + 1)]
    slot = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if bits[slot] == 0:
                edges += [((1, i), (1, j)), ((2, i), (2, j))]
            else:
                edges += [((1, i), (2, j)), ((2, i), (1, j))]
            slot += 1
    names = {f"u{side}.{pair}" for side in (1, 2) for pair in range(1, n + 1)}
    if set(colors) != names:
        return f"csi {name}: witness does not colour exactly the 2n vertices"
    if len(set(colors.values())) != k:
        return f"csi {name}: witness uses {len(set(colors.values()))} colours, expected {k}"
    for (s1, p1), (s2, p2) in edges:
        if colors[f"u{s1}.{p1}"] == colors[f"u{s2}.{p2}"]:
            return f"csi {name}: witness colours both ends of u{s1}.{p1}-u{s2}.{p2}"
    return None


WORKLOADS = {w.name: w for w in (Report, CsiFiles, Census)}
