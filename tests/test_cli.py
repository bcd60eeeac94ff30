"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.datasets.io import save_strings, save_vectors


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestTable1:
    def test_default(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "392085" in out  # d=4, k=12

    def test_custom_range(self, capsys):
        assert main(["table1", "--max-d", "2", "--max-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "18" in out
        assert "392085" not in out


class TestBound:
    def test_euclidean_exact(self, capsys):
        assert main(["bound", "3", "5"]) == 0
        assert "96" in capsys.readouterr().out

    def test_l1(self, capsys):
        assert main(["bound", "2", "4", "--p", "1"]) == 0
        out = capsys.readouterr().out
        assert "upper bound" in out or "exact" in out

    def test_inf(self, capsys):
        assert main(["bound", "2", "5", "--p", "inf"]) == 0
        assert "N_{2,inf}(5)" in capsys.readouterr().out

    def test_invalid_p(self, capsys):
        assert main(["bound", "2", "5", "--p", "3"]) == 1
        assert "error" in capsys.readouterr().err


class TestCensus:
    def test_vector_census(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((200, 3)))
        code = main([
            "census", "--input", str(path), "--kind", "vectors",
            "--metric", "l2", "--sites", "5", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "unique distance permutations" in out
        assert "bits/element" in out

    def test_string_census_with_dump(self, tmp_path, capsys):
        path = tmp_path / "words.txt"
        words = ["hello", "help", "word", "world", "cat", "cart", "care",
                 "core", "bore", "gene"]
        save_strings(path, words)
        dump = tmp_path / "perms.txt"
        code = main([
            "census", "--input", str(path), "--kind", "strings",
            "--metric", "levenshtein", "--sites", "3", "--dump", str(dump),
        ])
        assert code == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == len(words)
        # The paper's pipeline: unique lines == reported census.
        out = capsys.readouterr().out
        reported = int(out.split("unique distance permutations: ")[1].split()[0])
        assert len(set(lines)) == reported

    def test_too_many_sites(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((5, 2)))
        code = main([
            "census", "--input", str(path), "--kind", "vectors",
            "--metric", "l2", "--sites", "10",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_empty_database(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code = main([
            "census", "--input", str(path), "--kind", "strings",
            "--metric", "levenshtein",
        ])
        assert code == 1


class TestSearch:
    def test_batched_knn_over_vectors(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((120, 3)))
        code = main([
            "search", "--input", str(path), "--kind", "vectors",
            "--metric", "l2", "--index", "distperm", "--mode", "knn",
            "--k", "5", "--n-queries", "10", "--show", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "queries/sec:" in out
        assert "distances/query:" in out
        assert "query 0:" in out and "query 1:" in out

    def test_knn_approx_budget_caps_cost(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((200, 3)))
        code = main([
            "search", "--input", str(path), "--kind", "vectors",
            "--metric", "l2", "--index", "distperm",
            "--mode", "knn-approx", "--k", "3", "--budget", "20",
            "--sites", "4", "--n-queries", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        cost = float(out.split("distances/query: ")[1].split()[0])
        assert cost == 20 + 4  # budget + site evaluations per query

    def test_string_workload_with_query_file(self, tmp_path, capsys):
        db = tmp_path / "words.txt"
        save_strings(db, ["hello", "help", "word", "world", "cat", "cart",
                          "care", "core", "bore", "gene"])
        qfile = tmp_path / "queries.txt"
        save_strings(qfile, ["helo", "wort"])
        code = main([
            "search", "--input", str(db), "--kind", "strings",
            "--metric", "levenshtein", "--index", "linear",
            "--mode", "knn", "--k", "3", "--queries", str(qfile),
            "--show", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 queries" in out

    def test_empty_database(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code = main([
            "search", "--input", str(path), "--kind", "strings",
            "--metric", "levenshtein",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_rejects_bad_k(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((10, 2)))
        code = main([
            "search", "--input", str(path), "--kind", "vectors",
            "--metric", "l2", "--k", "0",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestOtherCommands:
    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig 3" in out
        assert "18" in out

    def test_counterexample_small(self, capsys):
        code = main(["counterexample", "--points", "200000"])
        out = capsys.readouterr().out
        assert "Euclidean limit N_3,2(5): 96" in out
        assert code == 0  # exceeds the limit even at 200k points

    def test_table3_slice(self, capsys):
        code = main([
            "table3", "--dims", "1", "--ks", "4", "--n", "2000",
            "--runs", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "L1" in out and "Linf" in out

    def test_table2_slice(self, capsys):
        code = main(["table2", "--names", "long", "--n", "300"])
        assert code == 0
        assert "long" in capsys.readouterr().out


class TestParallelFlags:
    """--workers / --shards wiring plus the table3 --seed flag."""

    def test_table3_seed_changes_draws(self, capsys):
        argv = ["table3", "--dims", "1", "--ks", "4", "--n", "1500",
                "--runs", "2"]
        assert main(argv + ["--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--seed", "1"]) == 0
        again = capsys.readouterr().out
        assert main(argv + ["--seed", "2"]) == 0
        other = capsys.readouterr().out
        assert first == again  # same seed reproduces the run
        assert first != other  # the flag actually reaches the draws

    def test_census_parallel_matches_serial(self, tmp_path, capsys):
        path = tmp_path / "words.txt"
        save_strings(path, ["hello", "help", "word", "world", "cat",
                            "cart", "care", "core", "bore", "gene"])
        argv = ["census", "--input", str(path), "--kind", "strings",
                "--metric", "levenshtein", "--sites", "3", "--seed", "4"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2", "--shards", "3"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_invalid_flags_report_errors(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((30, 2)))
        base = ["search", "--input", str(path), "--kind", "vectors",
                "--metric", "l2", "--index", "linear", "--n-queries", "3"]
        assert main(base + ["--shards", "0"]) == 1
        assert "--shards must be >= 1" in capsys.readouterr().err
        assert main(base + ["--workers", "-1"]) == 1
        assert "--workers must be >= 0" in capsys.readouterr().err
        argv = ["census", "--input", str(path), "--kind", "vectors",
                "--metric", "l2", "--sites", "3", "--workers", "-2"]
        assert main(argv) == 1
        assert "--workers must be >= 0" in capsys.readouterr().err
        assert main(["table3", "--dims", "1", "--ks", "4", "--n", "100",
                     "--runs", "1", "--shards", "0"]) == 1
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_search_sharded_matches_unsharded(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((90, 3)))
        argv = ["search", "--input", str(path), "--kind", "vectors",
                "--metric", "l2", "--index", "vptree", "--mode", "knn",
                "--k", "4", "--n-queries", "6", "--show", "6"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--shards", "3", "--workers", "2"]) == 0
        sharded = capsys.readouterr().out
        answers = lambda text: [  # noqa: E731
            line for line in text.splitlines() if line.startswith("query")
        ]
        assert answers(plain) == answers(sharded)
        assert "3 shards" in sharded


class TestResilienceFlags:
    """--resident / --deadline / --retries / --on-partial wiring."""

    def test_resident_search_matches_plain(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((90, 3)))
        argv = ["search", "--input", str(path), "--kind", "vectors",
                "--metric", "l2", "--index", "linear", "--mode", "knn",
                "--k", "4", "--n-queries", "5", "--show", "5"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--shards", "3", "--resident",
                            "--on-partial", "degrade"]) == 0
        resident = capsys.readouterr().out
        answers = lambda text: [  # noqa: E731
            line for line in text.splitlines() if line.startswith("query")
        ]
        assert answers(plain) == answers(resident)
        assert "resident workers" in resident
        assert "all 3 shards answered" in resident

    def test_resilience_flags_require_shards(self, tmp_path, capsys, rng):
        path = tmp_path / "vectors.txt"
        save_vectors(path, rng.random((30, 2)))
        base = ["search", "--input", str(path), "--kind", "vectors",
                "--metric", "l2", "--index", "linear", "--n-queries", "3"]
        assert main(base + ["--resident"]) == 1
        assert "--shards" in capsys.readouterr().err
        assert main(base + ["--shards", "2", "--deadline", "0"]) == 1
        assert "--deadline must be > 0" in capsys.readouterr().err
        assert main(base + ["--shards", "2", "--retries", "-1"]) == 1
        assert "--retries must be >= 0" in capsys.readouterr().err
