"""One sha256 over outputs that a refactor must leave byte-identical.

The digest covers, on every graph with 1..5 pairs, gen_random(n, s) for
6 <= n <= 14 and s in {0, 1}, and build_with_csi(n, k) for every
2 <= k <= n <= 10:
- the colors of _csi_coloring, optimal_coloring and, from two pairs
  on, constructive_pair_coloring;
- two_coloring's result;
- reduce_to_k2's verdict, step log and blocking witness;
- stability_report;
and the rows build_with_csi returns. Each output is fed in as its repr,
one line each. A change that alters one of them on purpose updates
PINNED and says why in CHANGES.md.
"""

import hashlib

from stereograph import (
    build_with_csi,
    constructive_pair_coloring,
    enumerate_all,
    gen_random,
    optimal_coloring,
    stability_report,
    two_coloring,
)
from stereograph.chromatic import _csi_coloring
from stereograph.merge import reduce_to_k2

PINNED = "2459a69b8e2a66aff39e6d0c846f9409a36357aa67016fc02cd29cac00c64da7"


def outputs_digest() -> str:
    digest = hashlib.sha256()

    def feed(value: object) -> None:
        digest.update(repr(value).encode() + b"\n")

    graphs = [g for n in range(1, 6) for g in enumerate_all(n)]
    graphs += [gen_random(n, seed) for n in range(6, 15) for seed in (0, 1)]
    built = [build_with_csi(n, k) for n in range(2, 11) for k in range(2, n + 1)]
    for g in built:
        feed(g.rows)
    for g in graphs + built:
        feed(_csi_coloring(g).colors)
        feed(optimal_coloring(g.graph).colors)
        if g.n >= 2:
            feed(constructive_pair_coloring(g).colors)
        feed(two_coloring(g.graph))
        verdict = reduce_to_k2(g)
        feed((verdict.stable, verdict.step_log, verdict.blocking_witness))
        feed(stability_report(g))
    return digest.hexdigest()


def test_outputs_match_the_pinned_digest():
    assert outputs_digest() == PINNED
