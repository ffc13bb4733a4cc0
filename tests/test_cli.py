"""Command-line surface: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stereograph
import stereograph.cli as cli
from stereograph import enumerate_all, from_pattern, graph_to_json
from stereograph.chromatic import Coloring, StabilityReport, stability_report
from stereograph.graphs import Graph
from stereograph.model import vertex_name
from test_chromatic import count_calls, drawn_three_block_graph


# (the command that writes the file, the index, the witness colors of
# u1.1, u2.1, u1.2, u2.2, ...) that csi --witness prints. They pin the
# DSATUR search's branching order: a faster step must keep them.
PINNED_WITNESSES = [
    ("build --n 13 --csi 2", 2, "1 2 1 2 1 2 1 2 1 2 1 2 1 2 1 2 1 2 1 2 1 2 1 2 1 2"),
    ("build --n 13 --csi 3", 3, "1 2 3 2 3 2 3 2 3 2 3 2 3 2 3 2 3 2 3 2 3 2 3 2 3 1"),
    ("build --n 13 --csi 7", 7, "1 2 7 2 7 2 7 2 7 2 7 2 7 2 7 2 3 1 4 3 5 4 6 5 7 6"),
    (
        "build --n 13 --csi 13",
        13,
        "1 2 13 2 3 1 4 3 5 4 6 5 7 6 8 7 9 8 10 9 11 10 12 11 13 12",
    ),
    (
        "generate --type random --n 13 --seed 0",
        6,
        "1 3 2 5 2 5 6 3 6 1 4 3 4 1 1 2 5 2 4 3 6 5 2 5 4 6",
    ),
    (
        "generate --type random --n 13 --seed 1",
        6,
        "1 3 4 2 5 3 3 4 1 3 1 2 4 6 1 2 6 4 2 5 6 5 1 5 6 2",
    ),
    (
        "generate --type random --n 13 --seed 2",
        7,
        "1 2 2 6 5 6 6 2 2 7 4 3 4 3 4 5 5 2 1 7 5 3 4 3 1 6",
    ),
    (
        "generate --type random --n 13 --seed 3",
        6,
        "1 2 6 2 4 3 4 3 3 4 5 1 1 5 4 3 5 1 5 1 2 6 5 1 6 2",
    ),
    (
        "generate --type random --n 14 --seed 0",
        6,
        "1 6 1 2 3 5 1 6 4 3 1 3 2 3 4 3 3 1 4 5 5 4 2 6 4 5 1 2",
    ),
    (
        "generate --type random --n 14 --seed 1",
        6,
        "1 6 4 2 2 3 2 3 1 3 4 6 4 5 1 5 3 4 6 4 2 5 3 5 2 1 6 2",
    ),
    (
        "generate --type random --n 14 --seed 2",
        6,
        "1 4 2 5 3 6 1 3 2 5 1 4 1 6 4 2 2 4 3 5 4 6 1 3 5 2 3 6",
    ),
    (
        "generate --type random --n 14 --seed 3",
        7,
        "3 5 1 5 1 6 3 2 3 4 2 4 7 5 4 3 1 6 4 3 5 2 2 7 7 5 6 1",
    ),
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def package_env():
    """os.environ with the package's parent directory first on
    PYTHONPATH, for running python -m stereograph in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(stereograph.__file__).parent.parent), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture()
def kl3_file(tmp_path):
    path = tmp_path / "kl3.json"
    path.write_text('{"format": "stereograph-v1", "n": 3, "pattern": [0, 0, 0]}')
    return str(path)


@pytest.fixture()
def k33_file(tmp_path):
    path = tmp_path / "k33.json"
    path.write_text('{"format": "stereograph-v1", "n": 3, "pattern": [1, 1, 1]}')
    return str(path)


class TestValidate:
    def test_valid_file(self, capsys, kl3_file):
        code, out, _ = run(capsys, "validate", kl3_file)
        assert code == 0
        assert "valid: yes" in out

    def test_edge_form_violation(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "format": "stereograph-edges-v1",
                    "n": 2,
                    "edges": [["u1.1", "u2.1"], ["u1.2", "u2.2"], ["u1.1", "u1.2"]],
                }
            )
        )
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("repeat", [["u1.1", "u1.2"], ["u1.2", "u1.1"]])
    def test_duplicate_edge_rejected(self, capsys, tmp_path, repeat):
        edges = [["u1.1", "u2.1"], ["u1.2", "u2.2"], ["u1.1", "u1.2"], ["u2.1", "u2.2"]]
        path = tmp_path / "dup.json"
        path.write_text(
            json.dumps({"format": "stereograph-edges-v1", "n": 2, "edges": edges + [repeat]})
        )
        for command in ("validate", "report", "csi"):
            code, out, err = run(capsys, command, str(path))
            assert code == 1, command
            assert out == ""
            assert "duplicate edge (0, 2)" in err

    @pytest.mark.parametrize(
        "name, shown",
        [
            (5, "5"),
            ("u1.\u00b2", "'u1.\u00b2'"),
            ("u1.01", "'u1.01'"),
            ("u01.1", "'u01.1'"),
            ("u1.\u0661", "'u1.\u0661'"),
        ],
    )
    def test_non_canonical_vertex_name_rejected(self, capsys, tmp_path, name, shown):
        edges = [[name, "u2.1"], ["u1.2", "u2.2"], ["u1.1", "u1.2"], ["u2.1", "u2.2"]]
        path = tmp_path / "names.json"
        path.write_text(json.dumps({"format": "stereograph-edges-v1", "n": 2, "edges": edges}))
        for command in ("validate", "report"):
            code, out, err = run(capsys, command, str(path))
            assert code == 1, command
            assert out == ""
            assert err == (
                f"stereograph: bad edge entry {[name, 'u2.1']!r}: bad vertex name {shown}\n"
            )

    def test_huge_edgeless_file_checked_in_linear_time(self, tmp_path):
        # 2 * 10^5 vertices and no edges. The clause search stops at the
        # first pair of pairs, the distance BFS at the first empty level,
        # and the girth search skips every root with fewer than two
        # neighbours, so the whole command stays far inside the timeout.
        path = tmp_path / "edgeless.json"
        path.write_text('{"format": "stereograph-edges-v1", "n": 100000, "edges": []}')
        result = subprocess.run(
            [sys.executable, "-m", "stereograph", "validate", str(path)],
            env=package_env(),
            capture_output=True,
            text=True,
            timeout=2,
        )
        assert result.returncode == 1
        assert result.stdout.splitlines() == [
            "pass  pair-structure",
            "FAIL  in-pair-edges  (witness: 1)",
            "FAIL  pair-pair-four-cycles  (witness: (1, 2))",
            "FAIL  edge-count  (witness: 0)",
            "FAIL  n-regular  (witness: 0)",
            "FAIL  connected",
            "FAIL  diameter",
            "FAIL  girth",
            "valid: no",
        ]

    def test_edge_form_prints_what_the_bit_form_prints(self, capsys, tmp_path):
        """validate and csi --witness on every file that build --csi and
        generate --type random write for 12..14 pairs, each rewritten as
        an edge list, print byte for byte what they print on the file."""
        for n in (12, 13, 14):
            writes = [["build", "--n", str(n), "--csi", str(k)] for k in range(2, n + 1)]
            writes += [
                ["generate", "--type", "random", "--n", str(n), "--seed", str(s)] for s in range(4)
            ]
            for argv in writes:
                bits_path = tmp_path / "bits.json"
                assert run(capsys, *argv, "-o", str(bits_path))[0] == 0
                g = stereograph.graph_from_json(bits_path.read_text())
                edges = [[vertex_name(u), vertex_name(v)] for u, v in g.graph.sorted_edges()]
                edges_path = tmp_path / "edges.json"
                edges_path.write_text(
                    json.dumps({"format": "stereograph-edges-v1", "n": n, "edges": edges})
                )
                for command in (["validate"], ["csi", "--witness"]):
                    expected = run(capsys, command[0], str(bits_path), *command[1:])
                    assert expected[0] == 0, (argv, command)
                    assert run(capsys, command[0], str(edges_path), *command[1:]) == expected

    def test_wrong_pattern_length(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"format": "stereograph-v1", "n": 3, "pattern": [0, 1]}')
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "stereograph:" in err

    def test_non_int_bits(self, capsys, tmp_path):
        path = tmp_path / "floats.json"
        path.write_text('{"format": "stereograph-v1", "n": 3, "pattern": [1.0, true, 0]}')
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert "stereograph:" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/graph.json")
        assert code == 1

    @pytest.mark.parametrize("command", ["validate", "report", "csi"])
    def test_file_not_utf8_exits_one(self, capsys, tmp_path, command):
        path = tmp_path / "z.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"stereograph: {path} is not valid UTF-8: ")
        assert len(err.splitlines()) == 1

    def test_stdin_not_utf8_reported_as_a_file_is(self, tmp_path):
        # Read through sys.stdin's text layer, whose error handler is
        # surrogateescape under the C locale, the bytes reached the JSON
        # parser and were reported as invalid JSON.
        path = tmp_path / "z.json"
        path.write_bytes(b"\xff")
        env = package_env()
        env["LC_ALL"] = "C"
        env.pop("PYTHONIOENCODING", None)
        errors = []
        for source in ("-", str(path)):
            result = subprocess.run(
                [sys.executable, "-m", "stereograph", "csi", source],
                input=b"\xff",
                env=env,
                capture_output=True,
                timeout=60,
            )
            assert (result.returncode, result.stdout) == (1, b"")
            errors.append(result.stderr.decode().replace(source, "<input>", 1))
        assert errors[0] == errors[1]
        assert errors[0].startswith("stereograph: <input> is not valid UTF-8: ")
        assert len(errors[0].splitlines()) == 1


class TestReport:
    def test_text_report(self, capsys, k33_file):
        code, out, _ = run(capsys, "report", k33_file)
        assert code == 0
        assert "csi: 2" in out
        assert "agreement: yes" in out

    def test_json_report(self, capsys, kl3_file):
        code, out, _ = run(capsys, "report", kl3_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["csi"] == 3
        assert doc["criteria"]["merge"] is False
        assert doc["agreement"] is True

    def test_nine_pairs_report_every_criterion(self, capsys, tmp_path):
        # Past the chromatic polynomial's 14-vertex bound the
        # chromatically-bipartite criterion still gives a verdict.
        path = tmp_path / "kl9.json"
        path.write_text(json.dumps({"format": "stereograph-v1", "n": 9, "pattern": [0] * 36}))
        code, out, _ = run(capsys, "report", str(path))
        assert code == 0
        assert "chromatically-bipartite: unstable" in out
        assert "skipped" not in out

    @pytest.mark.parametrize("n", [2, 5, 9, 16])
    def test_json_report_has_no_skipped_criterion(self, capsys, tmp_path, n):
        path = tmp_path / "g.json"
        pattern = [1] * (n * (n - 1) // 2)
        path.write_text(json.dumps({"format": "stereograph-v1", "n": n, "pattern": pattern}))
        code, out, _ = run(capsys, "report", str(path), "--json")
        doc = json.loads(out)
        assert code == 0
        assert all(v is True for v in doc["criteria"].values())

    def test_single_pair_skips_the_two_pair_criteria(self, capsys, tmp_path):
        # Nothing is skipped at one pair: all eight criteria read stable.
        path = tmp_path / "k2.json"
        path.write_text('{"format": "stereograph-v1", "n": 1, "pattern": []}')
        code, out, _ = run(capsys, "report", str(path))
        assert code == 0
        assert "skipped" not in out
        verdicts = [line.split(": ")[1] for line in out.splitlines()[:8]]
        assert verdicts == ["stable"] * 8
        assert "agreement: yes" in out
        code, out, _ = run(capsys, "report", str(path), "--json")
        assert code == 0
        assert list(json.loads(out)["criteria"].values()) == [True] * 8

    def test_disagreement_exits_two(self, capsys, kl3_file, monkeypatch):
        fake = StabilityReport(
            merge=True,
            coloring=False,
            bipartite=True,
            girth=True,
            minor=True,
            matrix=True,
            characteristic=True,
            chromatically_bipartite=True,
            csi=2,
        )
        assert not fake.agreement
        monkeypatch.setattr(cli, "stability_report", lambda g: fake)
        code, out, _ = run(capsys, "report", kl3_file)
        assert code == 2

    def test_profile_girth_runs_no_girth_search(self, capsys, kl3_file, monkeypatch):
        # The girth line is read off the triangle count, so Graph.girth
        # runs only inside stability_report, here replaced by its result.
        fixed = stability_report(from_pattern(3, [0, 0, 0]))
        monkeypatch.setattr(cli, "stability_report", lambda g: fixed)
        calls = []
        girth = Graph.girth
        monkeypatch.setattr(Graph, "girth", lambda graph: calls.append(graph) or girth(graph))
        _, text, _ = run(capsys, "report", kl3_file)
        _, doc, _ = run(capsys, "report", kl3_file, "--json")
        assert "girth: 3" in text
        assert json.loads(doc)["girth"] == 3
        assert calls == []

    def test_profile_girth_matches_girth_search(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        for n in range(1, 5):
            for g in enumerate_all(n):
                path.write_text(graph_to_json(g))
                girth = g.graph.girth()
                _, text, _ = run(capsys, "report", str(path))
                _, doc, _ = run(capsys, "report", str(path), "--json")
                assert f"girth: {'acyclic' if girth is None else girth}" in text.splitlines()
                assert json.loads(doc)["girth"] == girth


class TestCsiAndPolynomials:
    @pytest.mark.parametrize("n", ["0", "-1", "true", "2.0", '"2"'])
    def test_bad_pair_count_exits_one(self, capsys, tmp_path, n):
        path = tmp_path / "bad_n.json"
        path.write_text(f'{{"format": "stereograph-v1", "n": {n}, "pattern": [0]}}')
        code, out, err = run(capsys, "csi", str(path))
        assert code == 1
        assert out == ""
        assert "pair count must be a positive int" in err

    def test_csi_plain(self, capsys, kl3_file):
        code, out, _ = run(capsys, "csi", kl3_file)
        assert code == 0
        assert out.splitlines()[0] == "3"

    def test_python_dash_m_runs_the_cli(self, capsys, kl3_file):
        # python -m stereograph prints what the stereograph entry point,
        # cli.main, prints for the same arguments.
        result = subprocess.run(
            [sys.executable, "-m", "stereograph", "csi", kl3_file],
            env=package_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        code, out, _ = run(capsys, "csi", kl3_file)
        assert (result.returncode, result.stdout) == (code, out) == (0, "3\n")

    def test_csi_witness(self, capsys, kl3_file):
        code, out, _ = run(capsys, "csi", kl3_file, "--witness")
        lines = out.splitlines()
        assert lines[0] == "3"
        witness = json.loads(lines[1])
        assert set(witness) == {f"u{p}.{i}" for p in (1, 2) for i in (1, 2, 3)}
        assert len(set(witness.values())) == 3

    @pytest.mark.parametrize("argv, index, colors", PINNED_WITNESSES)
    def test_witness_stdout_pinned(self, capsys, tmp_path, argv, index, colors):
        """csi --witness prints, byte for byte, the index and the coloring
        the exact search gave on files written by build and generate;
        colors lists u1.1, u2.1, u1.2, ... in order."""
        path = tmp_path / "graph.json"
        assert run(capsys, *argv.split(), "-o", str(path))[0] == 0
        colors = [int(c) for c in colors.split()]
        names = [f"u{side}.{pair}" for pair in range(1, len(colors) // 2 + 1) for side in (1, 2)]
        expected = f"{index}\n{json.dumps(dict(zip(names, colors)))}\n"
        assert run(capsys, "csi", str(path), "--witness") == (0, expected, "")

    def test_csi_takes_the_library_route(self, capsys, monkeypatch, tmp_path):
        """CLI csi prints the coloring chromatic.csi reads: on a 3-block
        pattern the index-3 certificate, with no call to the search."""
        searches = ("optimal_coloring", "_pair_rooted_clique", "max_clique")
        calls = count_calls(monkeypatch, searches)
        path = tmp_path / "graph.json"
        for n in (3, 8, 20):
            for seed in range(3):
                g = drawn_three_block_graph(n, seed)
                path.write_text(graph_to_json(g))
                code, out, err = run(capsys, "csi", str(path), "--witness")
                index, witness = out.splitlines()
                colors = json.loads(witness)
                coloring = Coloring(tuple(colors[vertex_name(v)] for v in range(2 * n)))
                assert (code, index, err, len(colors)) == (0, "3", "", 2 * n)
                assert coloring.is_proper(g.graph) and set(coloring.colors) == {1, 2, 3}
        assert calls == dict.fromkeys(searches, 0)
        # The counters are live: any other index reaches the search, with
        # its clique from the pair-rooted search.
        path.write_text(graph_to_json(from_pattern(4, [0] * 6)))
        assert run(capsys, "csi", str(path))[:2] == (0, "4\n")
        assert calls == {"optimal_coloring": 1, "_pair_rooted_clique": 1, "max_clique": 0}

    def test_charpoly_text(self, capsys, kl3_file):
        code, out, _ = run(capsys, "charpoly", kl3_file)
        assert code == 0
        assert out.strip() == "1 0 -9 -4 12 0 0"

    def test_charpoly_json(self, capsys, k33_file):
        code, out, _ = run(capsys, "charpoly", k33_file, "--json")
        doc = json.loads(out)
        assert doc == {"degree": 6, "coefficients": [1, 0, -9, 0, 0, 0, 0]}

    def test_chrompoly_text(self, capsys, tmp_path):
        path = tmp_path / "k22.json"
        path.write_text('{"format": "stereograph-v1", "n": 2, "pattern": [0]}')
        code, out, _ = run(capsys, "chrompoly", str(path))
        assert out.strip() == "1 -4 6 -3 0"


class TestGenerateAndBuild:
    def test_generate_ladder_then_validate(self, capsys, tmp_path):
        out_path = tmp_path / "out.json"
        code, _, _ = run(capsys, "generate", "--type", "ladder", "--n", "4", "-o", str(out_path))
        assert code == 0
        code2, out, _ = run(capsys, "validate", str(out_path))
        assert code2 == 0

    def test_generate_random_metadata(self, capsys):
        code, out, _ = run(capsys, "generate", "--type", "random", "--n", "4", "--seed", "9")
        doc = json.loads(out)
        assert doc["meta"]["prng"] == "splitmix64-v1"
        assert doc["meta"]["seed"] == 9

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_generate_seed_outside_64_bits_exits_one(self, capsys, seed):
        code, out, err = run(capsys, "generate", "--type", "random", "--n", "3", "--seed", seed)
        assert code == 1
        assert out == ""
        assert "seed must be an int in [0, 2^64)" in err

    def test_generate_largest_seed(self, capsys):
        seed = 2**64 - 1
        code, out, _ = run(capsys, "generate", "--type", "random", "--n", "3", "--seed", str(seed))
        assert code == 0
        assert json.loads(out)["meta"]["seed"] == seed

    def test_generate_random_deterministic(self, capsys):
        _, out1, _ = run(capsys, "generate", "--type", "random", "--n", "5", "--seed", "3")
        _, out2, _ = run(capsys, "generate", "--type", "random", "--n", "5", "--seed", "3")
        assert out1 == out2

    def test_build(self, capsys):
        code, out, _ = run(capsys, "build", "--n", "5", "--csi", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 5
        assert doc["meta"]["csi"] == 3

    def test_written_files_pinned(self, capsys, tmp_path):
        """generate and build write one JSON document and a newline."""
        generated, built = tmp_path / "random.json", tmp_path / "built.json"
        argv = ["generate", "--type", "random", "--n", "4", "--seed", "9", "-o", str(generated)]
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, "build", "--n", "5", "--csi", "3", "-o", str(built))[0] == 0
        assert generated.read_bytes() == (
            b'{"format": "stereograph-v1", "n": 4, "pattern": [0, 0, 0, 0, 1, 0], '
            b'"meta": {"generator": "random", "n": 4, "seed": 9, "prng": "splitmix64-v1"}}\n'
        )
        assert built.read_bytes() == (
            b'{"format": "stereograph-v1", "n": 5, "pattern": [1, 1, 1, 0, 1, 1, 1, 1, 1, 1], '
            b'"meta": {"generator": "build-with-csi", "n": 5, "csi": 3}}\n'
        )

    def test_build_at_120_pairs(self, capsys):
        """build needs no bound: it writes its graph down without a search."""
        code, out, _ = run(capsys, "build", "--n", "120", "--csi", "60")
        assert code == 0
        g = stereograph.graph_from_dict(json.loads(out))
        assert g.n == 120
        assert stereograph.recognize_complete_bipartite(stereograph.restrict_pairs(g, 62))

    def test_build_out_of_range(self, capsys):
        code, _, err = run(capsys, "build", "--n", "3", "--csi", "5")
        assert code == 1


class TestEnumerateAndCensus:
    def test_enumerate_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["pattern"] == [0]
        assert out == (
            '{"format": "stereograph-v1", "n": 2, "pattern": [0]}\n'
            '{"format": "stereograph-v1", "n": 2, "pattern": [1]}\n'
        )

    def test_census_csv(self, capsys):
        code, out, _ = run(capsys, "census", "--n", "3")
        assert code == 0
        assert out == "n,k,labeled_count,iso_class_count\n3,2,4,1\n3,3,4,1\n"

    def test_enumerate_has_no_census_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["enumerate", "--n", "3", "--census"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --census" in captured.err

    def test_env_bound_lowering(self, capsys, monkeypatch):
        monkeypatch.setenv("STEREOGRAPH_MAX_N", "2")
        code, _, err = run(capsys, "enumerate", "--n", "3")
        assert code == 1
        assert "bounded" in err

    def test_env_bound_lowering_census(self, capsys, monkeypatch):
        monkeypatch.setenv("STEREOGRAPH_MAX_N", "2")
        code, _, err = run(capsys, "census", "--n", "3")
        assert code == 1
        assert "bounded" in err

    def test_default_bounds(self, capsys, monkeypatch):
        # Unset, the variable leaves enumerate at n <= 6 and census at n <= 7.
        monkeypatch.delenv("STEREOGRAPH_MAX_N", raising=False)
        code, _, err = run(capsys, "enumerate", "--n", "7")
        assert (code, err) == (1, "stereograph: enumeration bounded at n <= 6, got n=7\n")
        code, out, _ = run(capsys, "census", "--n", "7")
        assert code == 0
        assert out.splitlines()[1:] == [
            "7,2,64,1",
            "7,3,19264,4",
            "7,4,1566848,30",
            "7,5,498368,15",
            "7,6,12544,3",
            "7,7,64,1",
        ]
        code, out, err = run(capsys, "census", "--n", "8")
        assert (code, out) == (1, "")
        assert err == "stereograph: census bounded at n <= 7, got n=8\n"

    @pytest.mark.parametrize("raw", ["0", "-1", "x", "2.5", "7_0", "+7", " 7", "07", "\u0667"])
    def test_env_bound_must_be_integer(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("STEREOGRAPH_MAX_N", raw)
        for command in ("enumerate", "census"):
            code, out, err = run(capsys, command, "--n", "1")
            assert (code, out) == (1, "")
            message = f"STEREOGRAPH_MAX_N must be a positive integer, got {raw!r}"
            assert err == f"stereograph: {message}\n"


class TestMerge:
    def test_single_merge(self, capsys, kl3_file):
        code, out, _ = run(capsys, "merge", kl3_file, "--pairs", "1,2")
        doc = json.loads(out)
        assert doc["status"] == "merged"
        assert doc["classes"]["u1.1"] == ["u1.1", "u2.2"]

    def test_reduction_with_trace(self, capsys, k33_file):
        code, out, _ = run(capsys, "merge", k33_file, "--to-k2", "--trace")
        doc = json.loads(out)
        assert doc["status"] == "stable"
        assert doc["classes"] == [["u1.1", "u1.2", "u1.3"], ["u2.1", "u2.2", "u2.3"]]
        assert len(doc["trace"]) == 2

    @pytest.mark.parametrize(
        "graph, argv, expected",
        [
            (
                "k33",
                ("--to-k2", "--trace"),
                '{"status": "stable", "classes": [["u1.1", "u1.2", "u1.3"], '
                '["u2.1", "u2.2", "u2.3"]], "trace": [{"merged": [1, 2], "classes": '
                '[["u1.1", "u1.2"], ["u2.1", "u2.2"]]}, {"merged": [1, 3], "classes": '
                '[["u1.1", "u1.2", "u1.3"], ["u2.1", "u2.2", "u2.3"]]}]}',
            ),
            (
                "kl3",
                ("--to-k2", "--trace"),
                '{"status": "unstable", "triangle": ["u1.1", "u2.1", "u1.3"], "trace": '
                '[{"merged": [1, 2], "classes": [["u1.1", "u2.2"], ["u2.1", "u1.2"]]}]}',
            ),
            (
                "kl3",
                ("--pairs", "1,2"),
                '{"status": "merged", "classes": {"u1.1": ["u1.1", "u2.2"], '
                '"u2.1": ["u2.1", "u1.2"], "u1.3": ["u1.3"], "u2.3": ["u2.3"]}}',
            ),
            (
                "k33",
                ("--pairs", "3,1"),
                '{"status": "merged", "classes": {"u1.1": ["u1.1", "u1.3"], '
                '"u2.1": ["u2.1", "u2.3"], "u1.2": ["u1.2"], "u2.2": ["u2.2"]}}',
            ),
        ],
        ids=["k33-trace", "kl3-trace", "kl3-pairs", "k33-pairs-reversed"],
    )
    def test_exact_text(self, capsys, request, graph, argv, expected):
        # The whole line, so a change to the step log or the class views
        # shows as a changed character.
        code, out, err = run(capsys, "merge", request.getfixturevalue(f"{graph}_file"), *argv)
        assert (code, out, err) == (0, expected + "\n", "")

    def test_unstable_reduction(self, capsys, kl3_file):
        code, out, _ = run(capsys, "merge", kl3_file, "--to-k2")
        doc = json.loads(out)
        assert doc["status"] == "unstable"
        assert len(doc["triangle"]) == 3

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ("1,9", "pair 9 is not alive"),
            ("1,1", "cannot merge pair 1 with itself"),
            ("0,1", "pair 0 is not alive"),
        ],
    )
    def test_absent_pair_message(self, capsys, kl3_file, pairs, message):
        code, out, err = run(capsys, "merge", kl3_file, "--pairs", pairs)
        assert code == 1
        assert out == ""
        assert err == f"stereograph: {message}\n"

    def test_bad_pairs_argument(self, capsys, kl3_file):
        # A pair number is spelt as parse_vertex_name reads one: int() alone
        # would merge pairs 1 and 2 for "1,\u0662" and pair 10 for "1_0".
        for pairs in ["1;2", "1,\u0662", "1_0,2", " 1,2", "+1,2", "1,02"]:
            code, out, err = run(capsys, "merge", kl3_file, "--pairs", pairs)
            assert (code, out) == (1, ""), pairs
            assert err == f"stereograph: --pairs expects 'i,j', got {pairs!r}\n"

    def test_pairs_with_trace_rejected(self, capsys, kl3_file):
        # Only the --to-k2 reduction keeps a step log to print.
        code, out, err = run(capsys, "merge", kl3_file, "--pairs", "1,2", "--trace")
        assert (code, out) == (1, "")
        assert err == "stereograph: --trace logs the --to-k2 reduction; --pairs has no step log\n"


class TestExportDot:
    def test_deterministic_output(self, capsys, kl3_file, tmp_path):
        p1, p2 = tmp_path / "a.dot", tmp_path / "b.dot"
        run(capsys, "export-dot", kl3_file, "-o", str(p1))
        run(capsys, "export-dot", kl3_file, "-o", str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().startswith("graph stereograph {")


class TestArgumentHandling:
    def test_unknown_flag_exits_one(self, capsys, kl3_file):
        with pytest.raises(SystemExit) as exc:
            cli.main(["csi", kl3_file, "--frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "--type", "knn", "--n", "1_2"),
            ("generate", "--type", "knn", "--n", "\u0663"),
            ("generate", "--type", "random", "--n", "3", "--seed", "+1"),
            ("build", "--n", "5", "--csi", "03"),
            ("census", "--n", " 3"),
        ],
        ids=["n-underscore", "n-arabic-indic", "seed-plus", "csi-leading-zero", "n-space"],
    )
    def test_integer_options_are_canonical(self, capsys, argv):
        # The spelling STEREOGRAPH_MAX_N and --pairs take too.
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (1, "")
        assert captured.err.endswith(f"{argv[-2]}: invalid int value: {argv[-1]!r}\n")

    def test_no_subcommand_prints_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 1
        assert "usage" in out.lower()

    def test_consecutive_calls_share_no_state(self, capsys, kl3_file):
        code, out, _ = run(capsys, "report", kl3_file, "--json")
        assert code == 0
        assert json.loads(out)["csi"] == 3
        code, out, _ = run(capsys, "report", kl3_file)
        assert code == 0
        assert "csi: 3" in out.splitlines()
        with pytest.raises(SystemExit) as exc:
            cli.main(["csi", kl3_file, "--frobnicate"])
        assert exc.value.code == 1
        capsys.readouterr()
        code, out, err = run(capsys, "csi", kl3_file, "--witness")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "3"
        assert len(json.loads(lines[1])) == 6

    def test_dash_reads_stdin(self, capsys, monkeypatch):
        import io

        # A text stream over bytes, as sys.stdin is: "-" reads its buffer.
        monkeypatch.setattr(
            "sys.stdin",
            io.TextIOWrapper(io.BytesIO(b'{"format": "stereograph-v1", "n": 2, "pattern": [1]}')),
        )
        code, out, _ = run(capsys, "csi", "-")
        assert code == 0
        assert out.strip() == "2"

    def test_chrompoly_size_bound_exits_one(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps({"format": "stereograph-v1", "n": 8, "pattern": [0] * 28})
        )
        code, _, err = run(capsys, "chrompoly", str(path))
        assert code == 1
        assert "bounded" in err
