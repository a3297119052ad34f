"""Tests for the command-line interface."""

import argparse
import io
import json

import pytest

from repro.cli import main, serve_loop
from repro.schema.builder import TreeBuilder
from repro.schema.serialization import save_repository
from repro.service import MatchingService
from repro.workload.corpus import bundled_corpus_documents


@pytest.fixture
def schema_directory(tmp_path):
    """Write the bundled corpus documents out as real .dtd/.xsd files."""
    for name, (format_name, text) in bundled_corpus_documents().items():
        (tmp_path / f"{name}.{format_name}").write_text(text, encoding="utf-8")
    return tmp_path


@pytest.fixture
def repository_file(tmp_path, synthetic_repository):
    path = tmp_path / "repository.json"
    save_repository(synthetic_repository, path)
    return path


class TestGenerate:
    def test_generate_writes_repository_json(self, tmp_path, capsys):
        out = tmp_path / "repo.json"
        exit_code = main(["generate", "--nodes", "300", "--min-tree-size", "10", "--max-tree-size", "40", "--out", str(out)])
        assert exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["trees"]
        assert "wrote" in capsys.readouterr().out


class TestMatch:
    def test_match_against_schema_directory(self, schema_directory, capsys):
        exit_code = main(
            [
                "match",
                "--schema-dir",
                str(schema_directory),
                "--personal",
                '{"book": ["title", "author"]}',
                "--variant",
                "tree",
                "--delta",
                "0.6",
                "--top",
                "3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "mapping elements" in output
        assert "Δ=" in output
        assert "book ->" in output

    def test_match_against_repository_file(self, repository_file, capsys):
        exit_code = main(
            [
                "match",
                "--repository",
                str(repository_file),
                "--personal",
                '{"name": ["address", "email"]}',
                "--variant",
                "medium",
            ]
        )
        assert exit_code == 0
        assert "useful clusters" in capsys.readouterr().out

    def test_missing_repository_arguments_is_an_error(self, capsys):
        exit_code = main(["match", "--personal", '{"a": []}'])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_personal_json_is_an_error(self, repository_file, capsys):
        exit_code = main(
            ["match", "--repository", str(repository_file), "--personal", "not-json"]
        )
        assert exit_code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_empty_schema_directory_is_an_error(self, tmp_path, capsys):
        exit_code = main(
            ["match", "--schema-dir", str(tmp_path), "--personal", '{"a": ["b"]}']
        )
        assert exit_code == 2
        assert "no .xsd or .dtd" in capsys.readouterr().err


class TestExperimentCommand:
    def test_runs_figure4_at_quick_scale(self, capsys):
        exit_code = main(["experiment", "figure4", "--scale", "quick"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 4" in output

    def test_unknown_experiment_is_an_error(self, capsys):
        exit_code = main(["experiment", "table99"])
        assert exit_code == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestSnapshotQueryCommands:
    def test_snapshot_then_top_k_query_with_process_executor(self, tmp_path, repository_file, capsys):
        snapshot_path = tmp_path / "repo.snapshot.json"
        assert main(["snapshot", "--repository", str(repository_file), "--out", str(snapshot_path)]) == 0
        capsys.readouterr()
        exit_code = main(
            [
                "query",
                "--snapshot",
                str(snapshot_path),
                "--personal",
                '{"person": ["name", "email"]}',
                "--top-k",
                "3",
                "--workers",
                "2",
                "--executor",
                "process",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "useful clusters" in output

    def test_snapshot_and_inspect_list_no_oracles(self, tmp_path, repository_file, capsys):
        snapshot_path = tmp_path / "repo.snapshot.json"
        assert main(["snapshot", "--repository", str(repository_file), "--out", str(snapshot_path)]) == 0
        written = capsys.readouterr().out
        assert "wrote snapshot of" in written and "1 name indexes" in written
        assert "oracle" not in written
        assert "oracles" not in json.loads(snapshot_path.read_text(encoding="utf-8"))

        assert main(["snapshot", "inspect", "--snapshot", str(snapshot_path)]) == 0
        inspected = capsys.readouterr().out
        assert "JSON snapshot" in inspected and "indexes: 1" in inspected
        assert "oracle" not in inspected

        frozen_path = tmp_path / "repo.frozen"
        assert main(["snapshot", "freeze", "--snapshot", str(snapshot_path), "--out", str(frozen_path)]) == 0
        capsys.readouterr()
        assert main(["snapshot", "inspect", "--snapshot", str(frozen_path)]) == 0
        inspected = capsys.readouterr().out
        assert " v2" in inspected and "forest/parents" in inspected
        assert "oracle" not in inspected


def _serve(service, lines, top=5, top_k=None):
    """Run the serve loop over literal request lines; return parsed responses."""
    out = io.StringIO()
    args = argparse.Namespace(top=top, top_k=top_k)
    exit_code = serve_loop(service, lines, out, args)
    assert exit_code == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestServeLoop:
    @pytest.fixture
    def service(self, synthetic_repository):
        return MatchingService(synthetic_repository, element_threshold=0.5)

    def test_valid_query_answers_with_mappings(self, service):
        (response,) = _serve(service, ['{"personal": {"person": ["name", "email"]}}'])
        assert "mappings" in response
        assert response["mapping_count"] >= 0

    def test_non_dict_json_lines_produce_error_envelopes(self, service):
        responses = _serve(
            service,
            [
                "[1, 2]",
                '"hello"',
                "42",
                "null",
                '{"personal": {"person": ["name", "email"]}}',
            ],
        )
        assert len(responses) == 5
        for bad in responses[:4]:
            assert "error" in bad and "must be a JSON object" in bad["error"]
        assert "mappings" in responses[4]  # the loop survived every bad line

    def test_invalid_json_produces_error_envelope(self, service):
        responses = _serve(service, ["not json at all", '{"stats": true}'])
        assert "error" in responses[0]
        assert "stats" in responses[1]

    def test_unknown_request_kind_is_an_error(self, service):
        (response,) = _serve(service, ['{"frobnicate": 1}'])
        assert "personal, batch, add, remove, stats" in response["error"]

    def test_negative_top_is_an_error_not_a_mis_slice(self, service):
        (response,) = _serve(
            service, ['{"personal": {"person": ["name", "email"]}, "top": -1}']
        )
        assert "top must be non-negative" in response["error"]

    def test_unexpected_exception_keeps_the_loop_alive(self, service, monkeypatch):
        calls = {"count": 0}
        original = MatchingService.match

        def flaky_match(self, personal_schema, **kwargs):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("simulated internal failure")
            return original(self, personal_schema, **kwargs)

        monkeypatch.setattr(MatchingService, "match", flaky_match)
        responses = _serve(
            service,
            [
                '{"personal": {"person": ["name", "email"]}}',
                '{"personal": {"person": ["name", "email"]}}',
            ],
        )
        assert responses[0] == {"error": "simulated internal failure", "type": "RuntimeError"}
        assert "mappings" in responses[1]

    def test_blank_lines_are_skipped(self, service):
        responses = _serve(service, ["", "   ", '{"stats": true}'])
        assert len(responses) == 1

    def test_batch_request_answers_every_query(self, service):
        (response,) = _serve(
            service,
            [json.dumps({"batch": [{"person": ["name", "email"]}, {"book": ["title"]}], "top": 2})],
        )
        assert response["queries"] == 2
        assert len(response["results"]) == 2
        for entry in response["results"]:
            assert "mapping_count" in entry
            assert len(entry["mappings"]) <= 2

    def test_empty_or_non_list_batch_is_an_error(self, service):
        responses = _serve(service, ['{"batch": []}', '{"batch": {"a": []}}'])
        for response in responses:
            assert "non-empty JSON array" in response["error"]

    def test_mutations_and_top_k_through_the_loop(self, service):
        responses = _serve(
            service,
            [
                json.dumps({"add": {"zqxroot": ["zqxchild"]}, "name": "served-tree"}),
                json.dumps({"personal": {"zqxroot": ["zqxchild"]}, "top_k": 1}),
                json.dumps({"remove": 10**9}),  # invalid id: error envelope, not a crash
                json.dumps({"stats": True}),
            ],
        )
        assert responses[0]["ok"] is True
        assert responses[1]["mapping_count"] >= 1
        assert len(responses[1]["mappings"]) <= 1
        assert "error" in responses[2]
        assert responses[3]["stats"]["trees_added"] == 1

    def test_stats_report_cache_shape_and_executor(self, service):
        (response,) = _serve(service, ['{"stats": true}'])
        stats = response["stats"]
        assert stats["executor"] == "serial"
        assert stats["query_cache_capacity"] == 64
        assert "repository_version" in stats


class TestShardCommands:
    @pytest.fixture
    def shard_dir(self, tmp_path, repository_file):
        out_dir = tmp_path / "shards"
        exit_code = main(
            [
                "shard", "split",
                "--repository", str(repository_file),
                "--shards", "3",
                "--router", "size-balanced",
                "--out-dir", str(out_dir),
            ]
        )
        assert exit_code == 0
        return out_dir

    def test_split_writes_manifest_and_snapshots(self, shard_dir):
        assert (shard_dir / "manifest.json").exists()
        for shard_id in range(3):
            assert (shard_dir / f"shard-{shard_id}.snapshot.json").exists()

    def test_status_reports_the_set(self, shard_dir, capsys):
        assert main(["shard", "status", "--manifest", str(shard_dir / "manifest.json")]) == 0
        output = capsys.readouterr().out
        assert "3 shards" in output
        assert "size-balanced" in output

    def test_status_on_malformed_manifest_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text("{broken")
        assert main(["shard", "status", "--manifest", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_query_against_shards_matches_snapshot_query(
        self, shard_dir, tmp_path, repository_file, capsys
    ):
        snapshot_path = tmp_path / "whole.snapshot.json"
        assert main(["snapshot", "--repository", str(repository_file), "--out", str(snapshot_path)]) == 0
        capsys.readouterr()
        personal = '{"person": ["name", "email"]}'
        assert main(["query", "--snapshot", str(snapshot_path), "--personal", personal, "--delta", "0.5"]) == 0
        unsharded_output = capsys.readouterr().out
        assert (
            main(
                [
                    "query",
                    "--shards", str(shard_dir / "manifest.json"),
                    "--personal", personal,
                    "--delta", "0.5",
                ]
            )
            == 0
        )
        sharded_output = capsys.readouterr().out
        # Identical rankings ⇒ identical printed mapping lines (the headers
        # name the same sizes/cluster counts too, by the equivalence).
        assert sharded_output.splitlines()[1:] == unsharded_output.splitlines()[1:]

    def test_batch_query_prints_one_json_line_per_query(self, shard_dir, tmp_path, capsys):
        batch_file = tmp_path / "batch.jsonl"
        batch_file.write_text(
            '{"person": ["name", "email"]}\n\n{"person": ["name", "email"]}\n'
        )
        exit_code = main(
            [
                "query",
                "--shards", str(shard_dir / "manifest.json"),
                "--batch", str(batch_file),
                "--delta", "0.5",
                "--cache-size", "8",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert len(lines) == 2
        assert lines[0] == lines[1]
        assert "1 duplicates" in captured.err

    def test_batch_query_rejects_negative_top(self, shard_dir, tmp_path, capsys):
        batch_file = tmp_path / "batch.jsonl"
        batch_file.write_text('{"person": ["name"]}\n')
        exit_code = main(
            [
                "query",
                "--shards", str(shard_dir / "manifest.json"),
                "--batch", str(batch_file),
                "--top", "-1",
            ]
        )
        assert exit_code == 2
        assert "top must be non-negative" in capsys.readouterr().err

    def test_query_requires_exactly_one_source_and_one_input(self, shard_dir, tmp_path, capsys):
        manifest = str(shard_dir / "manifest.json")
        assert main(["query", "--personal", '{"a": []}']) == 2
        assert "exactly one of --snapshot or --shards" in capsys.readouterr().err
        assert main(["query", "--shards", manifest]) == 2
        assert "exactly one of --personal or --batch" in capsys.readouterr().err

    def test_rebalance_preserves_cli_query_output(self, shard_dir, capsys):
        manifest = str(shard_dir / "manifest.json")
        personal = '{"person": ["name", "email"]}'
        assert main(["query", "--shards", manifest, "--personal", personal, "--delta", "0.5"]) == 0
        before = capsys.readouterr().out
        assert main(["shard", "rebalance", "--manifest", manifest, "--shards", "2", "--router", "round-robin"]) == 0
        capsys.readouterr()
        assert main(["query", "--shards", manifest, "--personal", personal, "--delta", "0.5"]) == 0
        after = capsys.readouterr().out
        assert before.splitlines()[1:] == after.splitlines()[1:]

    def test_serve_loop_over_a_sharded_service(self, shard_dir):
        from repro.shard import load_shard_set

        service = load_shard_set(shard_dir / "manifest.json")
        responses = _serve(
            service,
            [
                json.dumps({"batch": [{"person": ["name"]}, {"person": ["name"]}], "delta": 0.5}),
                json.dumps({"add": {"zqxroot": ["zqxchild"]}, "name": "served-tree"}),
                json.dumps({"personal": {"zqxroot": ["zqxchild"]}, "top_k": 1}),
                json.dumps({"remove": 10**9}),
                json.dumps({"stats": True}),
            ],
        )
        assert responses[0]["queries"] == 2
        assert responses[1]["ok"] is True
        assert responses[2]["mapping_count"] >= 1
        assert "error" in responses[3]
        stats = responses[4]["stats"]
        assert stats["shards"] == 3
        assert len(stats["per_shard"]) == 3
        assert stats["trees_added"] == 1


class TestIngestCommands:
    @pytest.fixture
    def corpus_dir(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "good.dtd").write_text("<!ELEMENT a (b)><!ELEMENT b (#PCDATA)>")
        (corpus / "bad.xsd").write_text(
            "<xs:schema xmlns:xs='http://www.w3.org/2001/XMLSchema'><unclosed>"
        )
        return corpus

    def test_run_status_resume_roundtrip(self, tmp_path, corpus_dir, capsys):
        run_dir = str(tmp_path / "run")
        assert main(
            ["ingest", "run", "--run-dir", run_dir, "--bundled",
             "--source-dir", str(corpus_dir), "--stop-after", "dedupe"]
        ) == 0
        out = capsys.readouterr().out
        assert "merge     pending" in out
        assert "bad.xsd" in out

        assert main(["ingest", "status", "--run-dir", run_dir]) == 0
        assert "snapshot: not yet written" in capsys.readouterr().out

        assert main(
            ["ingest", "resume", "--run-dir", run_dir, "--bundled",
             "--source-dir", str(corpus_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "merge     complete" in out
        assert "out.frozen" in out

    def test_run_twice_is_a_clean_error(self, tmp_path, corpus_dir, capsys):
        run_dir = str(tmp_path / "run")
        args = ["ingest", "run", "--run-dir", run_dir, "--source-dir", str(corpus_dir)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_status_on_a_non_run_directory_is_a_clean_error(self, tmp_path, capsys):
        assert main(["ingest", "status", "--run-dir", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestTraceCommands:
    def test_synth_then_replay_against_ingested_snapshot(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert main(["ingest", "run", "--run-dir", run_dir, "--bundled"]) == 0
        trace_path = str(tmp_path / "trace.json")
        assert main(
            ["trace", "synth", "--out", trace_path, "--length", "12", "--seed", "7"]
        ) == 0
        capsys.readouterr()
        snapshot = str(tmp_path / "run" / "out.frozen")
        assert main(["trace", "replay", "--trace", trace_path, "--snapshot", snapshot]) == 0
        batched = capsys.readouterr().out
        assert main(
            ["trace", "replay", "--trace", trace_path, "--snapshot", snapshot, "--single"]
        ) == 0
        single = capsys.readouterr().out
        digest = [line for line in batched.splitlines() if "ranking digest" in line]
        assert digest and digest == [
            line for line in single.splitlines() if "ranking digest" in line
        ]

    def test_replay_json_report(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert main(["ingest", "run", "--run-dir", run_dir, "--bundled"]) == 0
        trace_path = str(tmp_path / "trace.json")
        assert main(["trace", "synth", "--out", trace_path, "--length", "6", "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(
            ["trace", "replay", "--trace", trace_path,
             "--snapshot", str(tmp_path / "run" / "out.frozen"), "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["queries"] == 6
        assert len(report["query_digests"]) == 6

    def test_replay_missing_trace_is_a_clean_error(self, tmp_path, capsys):
        assert main(
            ["trace", "replay", "--trace", str(tmp_path / "nope.json"),
             "--snapshot", str(tmp_path / "nope.frozen")]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_synth_rejects_bad_option_lists(self, tmp_path, capsys):
        assert main(
            ["trace", "synth", "--out", str(tmp_path / "t.json"), "--deltas", "abc"]
        ) == 2
        assert "must be numbers" in capsys.readouterr().err
