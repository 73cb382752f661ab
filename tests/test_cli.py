"""End-to-end tests for the command line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from selfverify import cli
from selfverify.cli import main

FIXTURES = Path(__file__).parent.parent / "fixtures"
MED_DATA = str(FIXTURES / "medication_status.jsonl")
MED_SCRIPT = str(FIXTURES / "medication_script.jsonl")
ICD_DATA = str(FIXTURES / "icd10_notes.jsonl")
ICD_SCRIPT = str(FIXTURES / "icd10_script.jsonl")


def extract_args(tmp_path, out="run", extra=()):
    return [
        "extract",
        "--task",
        "medication_status",
        "--dataset",
        MED_DATA,
        "--script",
        MED_SCRIPT,
        "--out",
        str(tmp_path / out),
        *extra,
    ]


class TestExtract:
    def test_writes_run_dir(self, tmp_path, capsys):
        assert main(extract_args(tmp_path, extra=["--seeds", "0,1"])) == 0
        out = capsys.readouterr().out
        assert "wrote 6 results" in out
        run_dir = tmp_path / "run"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["task"] == "medication_status"
        assert manifest["seeds"] == [0, 1]
        assert manifest["n_results"] == 6
        assert manifest["config"]["demonstrations_k"] == 5
        assert manifest["wall_seconds"] > 0
        lines = (run_dir / "results.jsonl").read_text().strip().splitlines()
        assert len(lines) == 6

    def test_refuses_existing_run_dir(self, tmp_path):
        assert main(extract_args(tmp_path)) == 0
        assert main(extract_args(tmp_path)) == 2

    def test_no_traces(self, tmp_path):
        assert main(extract_args(tmp_path, extra=["--no-traces"])) == 0
        line = (tmp_path / "run" / "results.jsonl").read_text().splitlines()[0]
        assert "traces" not in json.loads(line)

    def test_megaprompt_flag(self, tmp_path):
        assert main(extract_args(tmp_path, extra=["--megaprompt"])) == 0
        record = json.loads(
            (tmp_path / "run" / "results.jsonl").read_text().splitlines()[0]
        )
        assert record["megaprompt"] is True
        assert {i["value"] for i in record["final"]} == {"aspirin", "metformin"}

    def test_steps_none_skips_verification(self, tmp_path):
        assert main(extract_args(tmp_path, extra=["--steps", "none"])) == 0
        record = json.loads(
            (tmp_path / "run" / "results.jsonl").read_text().splitlines()[0]
        )
        steps = {t["step"] for t in record["traces"]}
        assert steps == {"original"}

    def test_config_file_applies_and_flags_win(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("temperature: 0.3\nsteps: [omission]\n", encoding="utf-8")
        args = extract_args(tmp_path, extra=["--config", str(config), "--steps", "none"])
        assert main(args) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["temperature"] == 0.3
        assert manifest["config"]["steps"] == []

    def test_icd_run_maps_codes(self, tmp_path):
        args = [
            "extract",
            "--task",
            "icd10",
            "--dataset",
            ICD_DATA,
            "--script",
            ICD_SCRIPT,
            "--out",
            str(tmp_path / "icd"),
        ]
        assert main(args) == 0
        records = [
            json.loads(line)
            for line in (tmp_path / "icd" / "results.jsonl").read_text().splitlines()
        ]
        by_doc = {r["doc_id"]: {i["value"] for i in r["final"]} for r in records}
        assert by_doc["icd-1"] == {"j18.9", "e11.9"}
        assert by_doc["icd-2"] == {"i10"}

    def test_icd_mapping_config_ignored_for_medication_task(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("icd_mapping: true\n", encoding="utf-8")
        assert main(extract_args(tmp_path, extra=["--config", str(config)])) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["icd_mapping"] is False
        for line in (tmp_path / "run" / "results.jsonl").read_text().splitlines():
            assert "icd_map" not in {t["step"] for t in json.loads(line)["traces"]}


class TestExitCodes:
    def test_unknown_task_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(extract_args(tmp_path)[:2] + ["nonsense"] + extract_args(tmp_path)[3:])
        assert exc_info.value.code == 2

    def test_missing_script_exits_two(self, tmp_path, capsys):
        args = extract_args(tmp_path)
        args.remove("--script")
        args.remove(MED_SCRIPT)
        assert main(args) == 2
        assert "--script is required" in capsys.readouterr().err

    def test_bad_steps_exit_two(self, tmp_path):
        assert main(extract_args(tmp_path, extra=["--steps", "omission,bogus"])) == 2

    def test_bad_config_key_exits_two(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("not_a_setting: 1\n", encoding="utf-8")
        assert main(extract_args(tmp_path, extra=["--config", str(config)])) == 2

    def test_ablate_demo_shortfall_exits_two_before_any_call(self, monkeypatch, capsys):
        built = []
        make_backend = cli.make_backend

        def recording(args):
            built.append(make_backend(args))
            return built[-1]

        monkeypatch.setattr(cli, "make_backend", recording)
        args = ["ablate", "--task", "medication_status", "--dataset", MED_DATA,
                "--script", MED_SCRIPT, "--demos", "9"]
        assert main(args) == 2
        assert "9 demonstrations requested" in capsys.readouterr().err
        assert not any(backend.calls for backend in built)

    def test_repeated_seed_exits_two(self, tmp_path, capsys):
        assert main(extract_args(tmp_path, extra=["--seeds", "0,0"])) == 2
        assert "seeds must be distinct" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
        args = ["ablate", "--task", "medication_status", "--dataset", MED_DATA,
                "--script", MED_SCRIPT, "--seeds", "0,1,0"]
        assert main(args) == 2
        assert "seeds must be distinct" in capsys.readouterr().err

    def test_missing_dataset_exits_three(self, tmp_path):
        args = extract_args(tmp_path)
        args[args.index(MED_DATA)] = str(tmp_path / "absent.jsonl")
        assert main(args) == 3

    def test_malformed_dataset_exits_three(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        args = extract_args(tmp_path)
        args[args.index(MED_DATA)] = str(bad)
        assert main(args) == 3

    def test_bad_script_exits_three(self, tmp_path):
        bad = tmp_path / "bad_script.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        args = extract_args(tmp_path)
        args[args.index(MED_SCRIPT)] = str(bad)
        assert main(args) == 3

    def test_mistyped_script_field_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad_script.jsonl"
        bad.write_text(json.dumps({"match": [1, "x"], "response": "A"}) + "\n", encoding="utf-8")
        args = extract_args(tmp_path)
        args[args.index(MED_SCRIPT)] = str(bad)
        assert main(args) == 3
        assert "bad_script.jsonl:1:" in capsys.readouterr().err

    def test_dataset_run_mismatch_exits_four(self, tmp_path):
        assert main(extract_args(tmp_path)) == 0
        args = ["evaluate", "--run", str(tmp_path / "run"), "--dataset", ICD_DATA]
        assert main(args) == 4

    def test_exhausted_script_exits_five(self, tmp_path, capsys):
        script = tmp_path / "partial.jsonl"
        script.write_text(
            json.dumps({"match": "List every medication", "response": "- aspirin (active)"})
            + "\n",
            encoding="utf-8",
        )
        args = extract_args(tmp_path)
        args[args.index(MED_SCRIPT)] = str(script)
        assert main(args) == 5
        assert "backend failure" in capsys.readouterr().err

    def test_lenient_dataset_warns_and_continues(self, tmp_path, capsys):
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(
            Path(MED_DATA).read_text(encoding="utf-8") + "{broken\n", encoding="utf-8"
        )
        args = extract_args(tmp_path)
        args[args.index(MED_DATA)] = str(mixed)
        assert main(args + ["--lenient"]) == 0
        assert "warning:" in capsys.readouterr().err


class TestEvaluate:
    def run_and_evaluate(self, tmp_path, capsys, extra=()):
        assert main(extract_args(tmp_path, extra=["--seeds", "0,1"])) == 0
        capsys.readouterr()
        args = ["evaluate", "--run", str(tmp_path / "run"), "--dataset", MED_DATA, *extra]
        code = main(args)
        return code, capsys.readouterr().out

    def test_perfect_run_scores_one(self, tmp_path, capsys):
        code, out = self.run_and_evaluate(tmp_path, capsys)
        assert code == 0
        assert "1.000 ± 0.000" in out

    def test_status_accuracy_reported(self, tmp_path, capsys):
        code, out = self.run_and_evaluate(tmp_path, capsys, extra=["--status"])
        assert code == 0
        assert "Status accuracy: 1.000" in out

    def test_per_doc_lines(self, tmp_path, capsys):
        code, out = self.run_and_evaluate(tmp_path, capsys, extra=["--per-doc"])
        assert code == 0
        assert "doc=note-1" in out and "doc=note-3" in out

    def test_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "metrics.json"
        code, _ = self.run_and_evaluate(tmp_path, capsys, extra=["--json", str(out_file)])
        assert code == 0
        rows = json.loads(out_file.read_text())
        assert rows[0]["f1"] == 1.0
        assert rows[0]["n_seeds"] == 2

    def test_top_k_filter(self, tmp_path, capsys):
        code, out = self.run_and_evaluate(tmp_path, capsys, extra=["--top-k", "1"])
        assert code == 0
        assert "1.000" in out

    def test_top_k_below_one_exits_two(self, tmp_path, capsys):
        assert main(extract_args(tmp_path)) == 0
        for run in ("run", "absent"):  # rejected before the run is read: not 3
            args = ["evaluate", "--run", str(tmp_path / run), "--dataset", MED_DATA,
                    "--top-k", "0"]
            assert main(args) == 2
            assert "--top-k must be at least 1" in capsys.readouterr().err


class TestMalformedRunDir:
    """A run directory that cannot be scored or rendered exits 3 with one error line."""

    def run_dir(self, tmp_path, capsys) -> Path:
        assert main(extract_args(tmp_path)) == 0
        capsys.readouterr()
        return tmp_path / "run"

    def assert_exit_three(self, capsys, args):
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def evaluate(self, run_dir):
        return ["evaluate", "--run", str(run_dir), "--dataset", MED_DATA]

    def test_empty_results_exit_three(self, tmp_path, capsys):
        run_dir = self.run_dir(tmp_path, capsys)
        (run_dir / "results.jsonl").write_text("", encoding="utf-8")
        self.assert_exit_three(capsys, self.evaluate(run_dir))

    @pytest.mark.parametrize("field", ["final", "seed"])
    def test_result_missing_field_exits_three(self, tmp_path, capsys, field):
        run_dir = self.run_dir(tmp_path, capsys)
        results = run_dir / "results.jsonl"
        records = [json.loads(line) for line in results.read_text().splitlines()]
        del records[-1][field]
        results.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        self.assert_exit_three(capsys, self.evaluate(run_dir))

    def test_report_corrupt_manifest_exits_three(self, tmp_path, capsys):
        run_dir = self.run_dir(tmp_path, capsys)
        (run_dir / "manifest.json").write_text("{not json", encoding="utf-8")
        self.assert_exit_three(capsys, ["report", "--run", str(run_dir)])

    def test_manifest_not_an_object_exits_three(self, tmp_path, capsys):
        run_dir = self.run_dir(tmp_path, capsys)
        (run_dir / "manifest.json").write_text("[1]", encoding="utf-8")
        self.assert_exit_three(capsys, self.evaluate(run_dir))

    def test_final_item_without_value_exits_three(self, tmp_path, capsys):
        run_dir = self.run_dir(tmp_path, capsys)
        results = run_dir / "results.jsonl"
        records = [json.loads(line) for line in results.read_text().splitlines()]
        del records[-1]["final"][0]["value"]
        results.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        self.assert_exit_three(capsys, self.evaluate(run_dir))


class TestAblateReportCache:
    def test_ablate_writes_tables(self, tmp_path, capsys):
        dsv = tmp_path / "table.tsv"
        as_json = tmp_path / "table.json"
        args = [
            "ablate",
            "--task",
            "medication_status",
            "--dataset",
            MED_DATA,
            "--script",
            MED_SCRIPT,
            "--seeds",
            "0,1",
            "--with-megaprompt",
            "--dsv",
            str(dsv),
            "--json",
            str(as_json),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        for name in ("Original", "+ Omission", "+ Prune", "+ Full SV", "Megaprompt"):
            assert name in out
        assert dsv.read_text().startswith("variant\t")
        assert len(json.loads(as_json.read_text())) == 5

    def test_ablate_gives_each_run_its_own_backend(self, tmp_path, capsys):
        dataset = tmp_path / "one_note.jsonl"
        dataset.write_text(
            json.dumps({
                "doc_id": "n1",
                "text": "Takes aspirin 81 mg daily. Metformin was stopped.",
                "gold": [
                    {"value": "aspirin", "status": "active"},
                    {"value": "metformin", "status": "discontinued"},
                ],
            })
            + "\n",
            encoding="utf-8",
        )
        script = tmp_path / "script.jsonl"
        steps = [
            {"match": "List every medication", "response": "- aspirin (active)"},
            {"match": "missing from the list above", "response": "- metformin: discontinued", "once": True},
            {"match": "missing from the list above", "response": "None"},
            {"match": "exact quote",
             "response": '- aspirin: "aspirin 81 mg daily"\n- metformin: "Metformin was stopped"'},
            {"match": "Candidate medication:", "response": "Yes."},
        ]
        script.write_text("".join(json.dumps(step) + "\n" for step in steps), encoding="utf-8")
        tables = []
        for backend in ("mock", "http"):
            args = ["ablate", "--task", "medication_status", "--dataset", str(dataset),
                    "--script", str(script), "--demos", "0", "--seeds", "0,1", "--backend", backend]
            assert main(args) == 0
            tables.append(capsys.readouterr().out)
        assert "1.000 ± 0.000" in tables[0]
        assert tables[0] == tables[1]

    def test_report_command(self, tmp_path, capsys):
        assert main(extract_args(tmp_path)) == 0
        assert main(["report", "--run", str(tmp_path / "run")]) == 0
        html_text = (tmp_path / "run" / "report.html").read_text(encoding="utf-8")
        assert "<mark>" in html_text

    def test_report_missing_run_exits_three(self, tmp_path):
        assert main(["report", "--run", str(tmp_path / "nope")]) == 3

    def test_report_unwritable_out_exits_two_naming_it(self, tmp_path, capsys):
        assert main(extract_args(tmp_path)) == 0
        capsys.readouterr()
        out = tmp_path / "missing" / "r.html"
        assert main(["report", "--run", str(tmp_path / "run"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert "run directory" not in err

    def test_record_then_replay_identical(self, tmp_path):
        store = str(tmp_path / "store.bin")
        record_args = extract_args(tmp_path, out="rec", extra=["--backend", "record", "--cache", store])
        assert main(record_args) == 0
        replay_args = [
            "extract",
            "--task",
            "medication_status",
            "--dataset",
            MED_DATA,
            "--backend",
            "replay",
            "--cache",
            store,
            "--out",
            str(tmp_path / "rep"),
        ]
        assert main(replay_args) == 0
        assert (tmp_path / "rec" / "results.jsonl").read_bytes() == (
            tmp_path / "rep" / "results.jsonl"
        ).read_bytes()

    def test_cache_stats_purge_export_import(self, tmp_path, capsys):
        store = str(tmp_path / "store.bin")
        assert main(extract_args(tmp_path, extra=["--backend", "record", "--cache", store])) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache", store]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] > 0

        other = str(tmp_path / "other.bin")
        assert main(["cache", "export", "--cache", store, "--into", other]) == 0
        assert f"exported {stats['entries']}" in capsys.readouterr().out

        assert main(["cache", "purge", "--cache", store]) == 0
        assert f"removed {stats['entries']}" in capsys.readouterr().out

        assert main(["cache", "import", "--cache", store, "--from", other]) == 0
        assert f"imported {stats['entries']}" in capsys.readouterr().out

    def test_cache_export_requires_into(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["cache", "export", "--cache", str(tmp_path / "s.bin")])
        assert exc_info.value.code == 2


def test_cli_import_leaves_requests_and_yaml_unloaded():
    """Only a live endpoint needs `requests` and only --config needs `yaml`."""
    program = "import sys, selfverify.cli; print(sorted({'requests', 'yaml'} & set(sys.modules)))"
    src = str(Path(cli.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-c", program], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert run.stdout.strip() == "[]"
