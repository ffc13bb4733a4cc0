"""The index census, targeted construction, and edge-deletion stability.

The chromatic stability index ranges over every integer in [2, n], with
the all-crossed pattern alone at 2 and the ladder alone at n. Any index
in between is reached by the expansion chain: grow the 2-pair 4-cycle
one pair at a time, n-k steps that keep the index and then k-2 that
raise it. build_with_csi writes that chain's result down directly,
with a coloring and a clique that certify its index. Deleting edges
(dropping assumptions) never raises the index.
"""

from stereograph import (
    build_with_csi,
    census,
    chromatic_number,
    delete_edges,
    gen_random,
    recognize_complete_ladder,
    splitmix64_stream,
)

print("census of labeled graphs and isomorphism classes by index:")
print("n,k,labeled_count,iso_class_count")
class_totals = []
for n in (2, 3, 4, 5, 6):
    rows = census(n)
    for row in rows:
        print(f"{row.n},{row.k},{row.labeled_count},{row.iso_class_count}")
    class_totals.append(sum(row.iso_class_count for row in rows))
# One class per two-graph: the counts of OEIS A002854.
assert class_totals == [1, 2, 3, 7, 16]
print(f"classes for n = 2..6: {class_totals}, the two-graph counts")

print("\ntargeted construction: one graph per index at n=6")
for k in range(2, 7):
    g = build_with_csi(6, k)
    print(f"  k={k}: pattern {g.bits} -> index {chromatic_number(g.graph)}")

assert recognize_complete_ladder(build_with_csi(6, 6))
print("  the k=6 build is the complete ladder, as it must be")

print("\nedge deletion never raises the index (20 seeded spot checks):")
drops = 0
for seed in range(20):
    g = gen_random(4, seed)
    stream = splitmix64_stream(seed + 1000)
    removed = [e for e in g.graph.sorted_edges() if next(stream) & 1]
    before = chromatic_number(g.graph)
    after = chromatic_number(delete_edges(g, removed))
    assert after <= before
    drops += before - after
print(f"  total index decrease across trials: {drops}")
