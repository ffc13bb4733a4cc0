"""The stability criteria all decide the same question.

Eight different routes decide whether a stereotype graph is bipartitely
stable: merge reduction, 2-colorability, completeness of the bipartition,
girth above 3, absence of the triangle principal minor, the matrix identity
A^2 + nA = nJ, a vanishing third characteristic coefficient, and the
second chromatic coefficient reaching C(n^2, 2). The chromatic stability
index ties them together: stable means index 2. Every criterion answers
on every graph, a single pair (K2, stable with index 2) included.
"""

from stereograph import enumerate_all, from_pattern, stability_report

for bits in [(1, 1, 1), (0, 0, 0), (0, 1, 1, 0, 1, 0)]:
    n = {3: 3, 6: 4}[len(bits)]
    g = from_pattern(n, bits)
    report = stability_report(g)
    print(f"pattern {bits} (n={n}): csi={report.csi}")
    for name, verdict in report.criteria().items():
        print(f"  {name:24s} {'stable' if verdict else 'unstable'}")
    print(f"  agreement: {report.agreement}\n")

print("exhaustive agreement check over all graphs with up to 4 pairs:")
for n in (1, 2, 3, 4):
    reports = [stability_report(g) for g in enumerate_all(n)]
    stable = sum(1 for r in reports if r.csi == 2)
    assert all(r.agreement for r in reports)
    print(f"  n={n}: {len(reports)} graphs, {stable} stable, all criteria agree")
