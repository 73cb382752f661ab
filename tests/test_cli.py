"""End-to-end tests for the command line interface."""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from selfverify import cli
from selfverify.backend import ResponseStore
from selfverify.cli import main
from selfverify.data import FormatError, load_run

from oracles import _check_result as former_check_result

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

    def test_refuses_existing_run_dir_before_any_model_call(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "run").mkdir()
        calls = []
        complete = cli.MockBackend.complete

        def counted(backend, request):
            calls.append(request)
            return complete(backend, request)

        monkeypatch.setattr(cli.MockBackend, "complete", counted)
        store = tmp_path / "b.bin"
        args = extract_args(tmp_path, extra=["--backend", "record", "--cache", str(store)])
        assert main(args) == 2
        assert "run directory already exists" in capsys.readouterr().err
        assert calls == []
        assert not store.exists() or store.stat().st_size == 0

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

    @pytest.mark.parametrize("command", ["extract", "ablate"])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("temperature: hot", "config key 'temperature' must be int or float, got 'hot'"),
            ("omission_max_iters: true", "config key 'omission_max_iters' must be int, got True"),
            ("demonstrations_k: 2.5", "config key 'demonstrations_k' must be int or null, got 2.5"),
            ("icd_mapping: 1", "config key 'icd_mapping' must be bool or null, got 1"),
            ("steps: 3", "config key 'steps' must be list or str, got 3"),
        ],
    )
    def test_mistyped_config_value_exits_two_before_any_read(self, tmp_path, capsys, touched, command, line, message):
        config = tmp_path / "config.yaml"
        config.write_text(line + "\n", encoding="utf-8")
        args = {
            "extract": extract_args(tmp_path, extra=["--config", str(config)]),
            "ablate": ["ablate", "--task", "medication_status", "--dataset", MED_DATA,
                       "--script", MED_SCRIPT, "--config", str(config)],
        }[command]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert touched == [] and not (tmp_path / "run").exists()

    def test_config_steps_string_reads_as_the_flag(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text("steps: prune, omission\n", encoding="utf-8")
        assert main(extract_args(tmp_path, extra=["--config", str(config)])) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["steps"] == ["omission", "prune"]

    def test_config_steps_string_with_an_unknown_step_names_it(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("steps: prune, bogus\n", encoding="utf-8")
        assert main(extract_args(tmp_path, extra=["--config", str(config)])) == 2
        assert "unknown steps ['bogus']" in capsys.readouterr().err

    def test_config_file_not_utf8_exits_two(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_bytes(b"temperature: 0.3 \xff\n")
        assert main(extract_args(tmp_path, extra=["--config", str(config)])) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config file: ")

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

    @pytest.fixture
    def touched(self, monkeypatch):
        """What a command read or built: the dataset, the backend."""
        touched = []
        monkeypatch.setattr(cli, "_load_records", lambda args: touched.append("dataset"))
        monkeypatch.setattr(cli, "make_backend", lambda args: touched.append("backend"))
        return touched

    def test_extract_workers_below_one_exits_two_before_any_read(self, tmp_path, capsys, touched):
        assert main(extract_args(tmp_path, extra=["--workers", "-3"])) == 2
        assert capsys.readouterr().err == "error: --workers must be at least 1\n"
        assert touched == [] and not (tmp_path / "run").exists()

    def test_ablate_workers_below_one_exits_two_before_any_read(self, capsys, touched):
        args = ["ablate", "--task", "medication_status", "--dataset", MED_DATA,
                "--script", MED_SCRIPT, "--workers", "0"]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: --workers must be at least 1\n"
        assert touched == []

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

    def test_dataset_not_utf8_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "latin1.jsonl"
        bad.write_bytes(Path(MED_DATA).read_bytes() + '{"doc_id": "caf\u00e9"}\n'.encode("latin-1"))
        args = extract_args(tmp_path)
        args[args.index(MED_DATA)] = str(bad)
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_dataset_directory_exits_three(self, tmp_path, capsys):
        args = extract_args(tmp_path)
        args[args.index(MED_DATA)] = str(tmp_path)
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: cannot read dataset {tmp_path}: Is a directory\n"

    def test_script_directory_exits_three(self, tmp_path, capsys):
        args = extract_args(tmp_path)
        args[args.index(MED_SCRIPT)] = str(tmp_path)
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: cannot read script {tmp_path}: Is a directory\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    def test_run_that_is_a_file_exits_three(self, tmp_path, capsys, command):
        args = {
            "evaluate": ["evaluate", "--run", MED_DATA, "--dataset", MED_DATA],
            "report": ["report", "--run", MED_DATA, "--out", str(tmp_path / "report.html")],
        }[command]
        assert main(args) == 3
        assert capsys.readouterr().err == f"error: cannot read run {MED_DATA}: Not a directory\n"

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

    def test_dataset_line_with_a_lone_surrogate_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "make_backend", lambda args: pytest.fail("a backend was built"))
        dataset = tmp_path / "surrogate.jsonl"
        lines = Path(MED_DATA).read_text(encoding="utf-8").splitlines()
        dataset.write_text("\n".join(lines) + '\n{"doc_id": "s1", "text": "takes \\ud800 daily", "gold": []}\n',
                           encoding="utf-8")
        args = extract_args(tmp_path)
        args[args.index(MED_DATA)] = str(dataset)
        assert main(args) == 3
        message = f"line {len(lines) + 1}: a string holds a lone surrogate, which UTF-8 cannot encode"
        assert capsys.readouterr().err == f"error: {dataset}: {message}\n"
        assert not (tmp_path / "run").exists()
        monkeypatch.undo()
        assert main(args + ["--lenient"]) == 0
        assert capsys.readouterr().err == f"warning: {message}\n"
        assert "s1" not in {result.doc_id for result in load_run(tmp_path / "run")[1]}

    def test_script_line_with_a_lone_surrogate_exits_three(self, tmp_path, capsys):
        script = tmp_path / "surrogate_script.jsonl"
        script.write_text(Path(MED_SCRIPT).read_text(encoding="utf-8")
                          + '{"match": "never asked", "response": "- aspirin \\udfff"}\n', encoding="utf-8")
        args = extract_args(tmp_path)
        args[args.index(MED_SCRIPT)] = str(script)
        assert main(args) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad script file: {script}:") and "lone surrogate" in err
        assert err.count("\n") == 1 and not (tmp_path / "run").exists()

    def test_out_under_a_file_exits_two_before_any_backend(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "afile").write_text("", encoding="utf-8")
        monkeypatch.setattr(cli, "make_backend", lambda args: pytest.fail("a backend was built"))
        assert main(extract_args(tmp_path, out="afile/deeper/run")) == 2
        message = f"cannot write {tmp_path / 'afile/deeper/run'}: {tmp_path / 'afile'} is not a directory"
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_out_made_unwritable_during_the_run_exits_two(self, tmp_path, capsys, monkeypatch):
        make_backend = cli.make_backend

        def then_block_out(args):  # a file appears where the run directory's parent was to go
            (tmp_path / "late").write_text("", encoding="utf-8")
            return make_backend(args)

        monkeypatch.setattr(cli, "make_backend", then_block_out)
        assert main(extract_args(tmp_path, out="late/run")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / 'late/run'}: ") and err.count("\n") == 1

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

    def test_json_to_missing_dir_exits_two_naming_it(self, tmp_path, capsys):
        out_file = tmp_path / "nodir" / "m.json"
        assert main(extract_args(tmp_path)) == 0
        capsys.readouterr()
        args = ["evaluate", "--run", str(tmp_path / "run"), "--dataset", MED_DATA, "--json", str(out_file)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out_file) in err

    def test_json_to_missing_dir_exits_two_before_reading_the_run(self, tmp_path, capsys):
        out_file = tmp_path / "nodir" / "m.json"
        args = ["evaluate", "--run", str(tmp_path / "absent"), "--dataset", MED_DATA, "--json", str(out_file)]
        assert main(args) == 2  # not 3: the missing run is never read
        captured = capsys.readouterr()
        assert captured.out == "" and str(out_file) in captured.err

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


def _with_first_final(record, **changes):
    return {**record, "final": [{**record["final"][0], **changes}, *record["final"][1:]]}


# Results-line faults that `evaluate` and `report` must both reject with exit 3.
BAD_RESULTS = {
    "not_an_object": lambda r: [1],
    "doc_id_list": lambda r: {**r, "doc_id": [r["doc_id"]]},
    "seed_list": lambda r: {**r, "seed": [r["seed"]]},
    "text_missing": lambda r: {k: v for k, v in r.items() if k != "text"},
    "evidence_string": lambda r: _with_first_final(r, evidence="aspirin"),
    "pruned_int": lambda r: {**r, "pruned": 3},
    "status_list": lambda r: _with_first_final(r, status=["active"]),
    "pruned_value_int": lambda r: {**r, "pruned": [{**r["final"][0], "value": 1}]},
    # Refused since results are read back into their types: each value
    # below has its JSON type, but no result could have been written so.
    "origin_unknown": lambda r: _with_first_final(r, origin="banana"),
    "status_unknown": lambda r: _with_first_final(r, status="paused"),
    "traces_string": lambda r: {**r, "traces": "not a list"},
    "trace_not_object": lambda r: {**r, "traces": [1]},
    "start_after_end": lambda r: _with_first_final(
        r, evidence={"quote": "x", "start": 5, "end": 3, "match_kind": "exact"}),
}


def _json_values():
    leaves = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5)
    return st.recursive(
        leaves, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        max_leaves=6,
    )


def _checked_paths(record):
    """Key paths to every node of a results line that the former checks (`oracles._check_result`) read."""
    paths = [(key,) for key in ("doc_id", "seed", "text", "final", "pruned")]
    for key in ("final", "pruned"):
        for i, item in enumerate(record[key]):
            paths.append((key, i))
            paths += [(key, i, field) for field in ("value", "origin", "status", "prune_reason", "evidence")]
            if item["evidence"] is not None:
                paths += [(key, i, "evidence", field) for field in ("quote", "start", "end", "match_kind")]
    return paths


def _written_paths(record):
    """Key paths to every node of a results line that `result_to_record` writes, traces included."""
    paths = [(key,) for key in record]
    for key in ("final", "pruned", "traces"):
        for i, obj in enumerate(record.get(key, ())):
            paths += [(key, i), *((key, i, field) for field in obj)]
            if key != "traces" and obj["evidence"] is not None:
                paths += [(key, i, "evidence", field) for field in obj["evidence"]]
    return paths


class TestMalformedRunDir:
    """A run directory that cannot be scored or rendered exits 3 with one error line.

    `evaluate` and `report` read runs through one reader, so each fault is
    checked under both, except an empty run, which still renders a report.
    """

    def run_dir(self, tmp_path, capsys) -> Path:
        assert main(extract_args(tmp_path)) == 0
        capsys.readouterr()
        return tmp_path / "run"

    def edit_last_result(self, run_dir, edit) -> int:
        """Replace the last results line by edit(record); returns its line number."""
        results = run_dir / "results.jsonl"
        records = [json.loads(line) for line in results.read_text().splitlines()]
        records[-1] = edit(records[-1])
        results.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        return len(records)

    def assert_exit_three(self, capsys, run_dir, commands=("evaluate", "report"), names=()):
        for command in commands:
            dataset = ["--dataset", MED_DATA] if command == "evaluate" else []
            assert main([command, "--run", str(run_dir), *dataset]) == 3, command
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
            assert all(name in err for name in names), (command, err)

    def test_empty_results_exit_three(self, tmp_path, capsys):
        run_dir = self.run_dir(tmp_path, capsys)
        (run_dir / "results.jsonl").write_text("", encoding="utf-8")
        self.assert_exit_three(capsys, run_dir, commands=("evaluate",))

    @pytest.mark.parametrize("field", ["final", "seed"])
    def test_result_missing_field_exits_three(self, tmp_path, capsys, field):
        run_dir = self.run_dir(tmp_path, capsys)
        line = self.edit_last_result(run_dir, lambda r: {k: v for k, v in r.items() if k != field})
        self.assert_exit_three(capsys, run_dir, names=("results.jsonl", f"line {line}:", field))

    def test_report_corrupt_manifest_exits_three(self, tmp_path, capsys):
        run_dir = self.run_dir(tmp_path, capsys)
        (run_dir / "manifest.json").write_text("{not json", encoding="utf-8")
        self.assert_exit_three(capsys, run_dir, names=("manifest.json", "invalid JSON"))

    def test_manifest_not_an_object_exits_three(self, tmp_path, capsys):
        run_dir = self.run_dir(tmp_path, capsys)
        (run_dir / "manifest.json").write_text("[1]", encoding="utf-8")
        self.assert_exit_three(capsys, run_dir, names=("manifest.json", "not a JSON object"))

    def test_final_item_without_value_exits_three(self, tmp_path, capsys):
        run_dir = self.run_dir(tmp_path, capsys)
        line = self.edit_last_result(
            run_dir, lambda r: {**r, "final": [{k: v for k, v in r["final"][0].items() if k != "value"}]}
        )
        self.assert_exit_three(capsys, run_dir, names=("results.jsonl", f"line {line}:", "final[0]"))

    @pytest.mark.parametrize("case", sorted(BAD_RESULTS))
    def test_bad_results_line_exits_three(self, tmp_path, capsys, case):
        run_dir = self.run_dir(tmp_path, capsys)
        line = self.edit_last_result(run_dir, BAD_RESULTS[case])
        self.assert_exit_three(capsys, run_dir, names=("results.jsonl", f"line {line}:"))

    @pytest.mark.parametrize("where", ["final_value", "text", "manifest"])
    def test_lone_surrogate_exits_three(self, tmp_path, capsys, where):
        # Written as a \\ud800 escape, decoded to a string UTF-8 cannot encode.
        run_dir = self.run_dir(tmp_path, capsys)
        if where == "manifest":
            manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
            (run_dir / "manifest.json").write_text(json.dumps({**manifest, "run_id": "\ud800"}))
            names = ("manifest.json", "lone surrogate")
        else:
            edit = (lambda r: _with_first_final(r, value="\ud800")) if where == "final_value" else (
                lambda r: {**r, "text": r["text"] + "\udfff"})
            line = self.edit_last_result(run_dir, edit)
            names = ("results.jsonl", f"line {line}:", "lone surrogate")
        self.assert_exit_three(capsys, run_dir, names=names)

    def test_paired_surrogate_escape_is_accepted(self, tmp_path, capsys):
        run_dir = self.run_dir(tmp_path, capsys)
        self.edit_last_result(run_dir, lambda r: _with_first_final(r, value="aspirin \U0001F48A"))
        assert "\\ud83d\\udc8a" in (run_dir / "results.jsonl").read_text(encoding="utf-8")
        assert main(["report", "--run", str(run_dir)]) == 0
        assert main(["evaluate", "--run", str(run_dir), "--dataset", MED_DATA]) == 0

    def test_results_line_not_json_exits_three(self, tmp_path, capsys):
        run_dir = self.run_dir(tmp_path, capsys)
        results = run_dir / "results.jsonl"
        lines = results.read_text(encoding="utf-8").splitlines()
        results.write_text("\n".join([*lines, "{not json"]) + "\n", encoding="utf-8")
        self.assert_exit_three(capsys, run_dir, names=("results.jsonl", f"line {len(lines) + 1}:", "invalid JSON"))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_checked_node_replaced_exits_zero_or_three(self, tmp_path, capsys, data):
        run_dir = tmp_path / "run"
        if not run_dir.exists():  # one extract serves every example; each rewrites the results
            assert main(extract_args(tmp_path)) == 0
            (tmp_path / "valid.jsonl").write_bytes((run_dir / "results.jsonl").read_bytes())
        results = run_dir / "results.jsonl"
        records = [json.loads(line) for line in (tmp_path / "valid.jsonl").read_text().splitlines()]
        n = data.draw(st.integers(0, len(records) - 1), label="line")
        path = data.draw(st.sampled_from(_written_paths(records[n])), label="path")
        node = records[n]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(_json_values(), label="value")
        results.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run", str(run_dir)]) in (0, 3)
        # A doc_id replaced by a string that names no dataset document is exit 4.
        evaluate = ["evaluate", "--run", str(run_dir), "--dataset", MED_DATA, "--status"]
        assert main(evaluate) in ((0, 3, 4) if path == ("doc_id",) else (0, 3))


class TestReaderAgainstFormerChecks:
    """`load_run` against the checks it made before the run-record schema.

    Each results line of a run gets one checked node replaced, or its key
    removed. Wherever the former checks (`oracles._check_result`) refuse
    the line, `load_run` refuses it with the same message.
    """

    REPLACEMENTS = (None, True, 0, -1, 2.5, "", "x", "exact", [], [1], {}, {"x": 1}, ...)  # ...: removed

    def test_same_message_wherever_the_former_checks_refuse(self, tmp_path):
        assert main(extract_args(tmp_path)) == 0
        results = tmp_path / "run" / "results.jsonl"
        records = [json.loads(line) for line in results.read_text(encoding="utf-8").splitlines()]
        refused = 0
        for record in records:
            for path in _checked_paths(record):
                for value in self.REPLACEMENTS:
                    if value is ... and type(path[-1]) is int:
                        continue
                    line = copy.deepcopy(record)
                    node = line
                    for key in path[:-1]:
                        node = node[key]
                    if value is ...:
                        del node[path[-1]]
                    else:
                        node[path[-1]] = value
                    try:
                        former_check_result(line)
                        continue
                    except ValueError as exc:
                        expected = str(exc)
                    results.write_text(json.dumps(line) + "\n", encoding="utf-8")
                    with pytest.raises(FormatError) as info:
                        load_run(tmp_path / "run")
                    assert (info.value.line, info.value.reason) == (1, expected), (path, value)
                    refused += 1
        assert refused >= 500


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

    def test_ablate_dsv_to_missing_dir_exits_two_naming_it(self, tmp_path, capsys):
        dsv = tmp_path / "nodir" / "t.tsv"
        args = ["ablate", "--task", "medication_status", "--dataset", MED_DATA, "--script", MED_SCRIPT,
                "--dsv", str(dsv)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(dsv) in err

    @pytest.mark.parametrize("flag", ["--dsv", "--json"])
    def test_ablate_output_to_missing_dir_exits_two_before_any_call(self, tmp_path, capsys, monkeypatch, flag):
        out_file = tmp_path / "nodir" / "t.out"
        monkeypatch.setattr(cli, "make_backend", lambda args: pytest.fail("a backend was built"))
        args = ["ablate", "--task", "medication_status", "--dataset", MED_DATA, "--script", MED_SCRIPT,
                flag, str(out_file)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(out_file) in captured.err

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

    def test_corrupt_store_exits_three_naming_cache_repair(self, tmp_path, capsys):
        store = tmp_path / "store.bin"
        assert main(extract_args(tmp_path, extra=["--backend", "record", "--cache", str(store)])) == 0
        whole = store.read_bytes()
        store.write_bytes(whole + whole[:50])  # a second copy of the first record, torn
        capsys.readouterr()
        replay = ["extract", "--task", "medication_status", "--dataset", MED_DATA,
                  "--backend", "replay", "--cache", str(store), "--out", str(tmp_path / "rep")]
        for argv in (["cache", "stats", "--cache", str(store)], replay):
            assert main(argv) == 3
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error: response store is corrupt")
            assert f"selfverify cache repair --cache {store}" in err[0]

        assert main(["cache", "repair", "--cache", str(store)]) == 0
        assert capsys.readouterr().out == f"{store}: dropped 50 bytes holding 1 torn or invalid record(s)\n"
        assert store.read_bytes() == whole
        assert main(replay) == 0

    def test_cache_repair_of_missing_store_exits_three(self, tmp_path, capsys):
        missing = tmp_path / "none.bin"
        assert main(["cache", "repair", "--cache", str(missing)]) == 3
        assert str(missing) in capsys.readouterr().err
        assert not missing.exists()

    @pytest.mark.parametrize("command", ["stats", "purge", "export", "import", "replay"])
    def test_reading_a_missing_store_exits_three_and_creates_nothing(self, tmp_path, capsys, command):
        missing = tmp_path / "typo" / "store.bin"
        argv = {
            "stats": ["cache", "stats", "--cache", str(missing)],
            "purge": ["cache", "purge", "--cache", str(missing)],
            "export": ["cache", "export", "--cache", str(missing), "--into", str(tmp_path / "out.bin")],
            "import": ["cache", "import", "--cache", str(tmp_path / "in.bin"), "--from", str(missing)],
            "replay": ["extract", "--task", "medication_status", "--dataset", MED_DATA,
                       "--backend", "replay", "--cache", str(missing), "--out", str(tmp_path / "rep")],
        }[command]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: response store not found: {missing}\n"
        assert list(tmp_path.iterdir()) == []

    def test_import_and_export_create_their_destination(self, tmp_path):
        store = str(tmp_path / "store.bin")
        assert main(extract_args(tmp_path, extra=["--backend", "record", "--cache", store])) == 0
        into, fresh = tmp_path / "a" / "into.bin", tmp_path / "b" / "fresh.bin"
        assert main(["cache", "export", "--cache", store, "--into", str(into)]) == 0
        assert main(["cache", "import", "--cache", str(fresh), "--from", store]) == 0
        texts = [{key: s.get(key) for key in s.keys()} for s in map(ResponseStore, (store, into, fresh))]
        assert texts[0] and texts[0] == texts[1] == texts[2]

    def test_export_into_an_empty_store_copies_the_bytes(self, tmp_path):
        store = ResponseStore(tmp_path / "store.bin")
        for i, stamp in enumerate((1000, 1000, 2000)):
            store.put(f"{i:064x}", f"reply {i}", timestamp=stamp)
        into = tmp_path / "into.bin"
        assert main(["cache", "export", "--cache", str(store.path), "--into", str(into)]) == 0
        assert into.read_bytes() == store.path.read_bytes()

    @pytest.mark.parametrize(
        "command", ["stats", "purge", "export", "repair", "import", "record", "replay", "caching"]
    )
    def test_a_directory_as_store_exits_three_with_one_error_line(self, tmp_path, capsys, command):
        folder = tmp_path / "folder"
        folder.mkdir()
        run = ["extract", "--task", "medication_status", "--dataset", MED_DATA, "--out", str(tmp_path / "run")]
        argv = {
            "stats": ["cache", "stats", "--cache", str(folder)],
            "purge": ["cache", "purge", "--cache", str(folder)],
            "export": ["cache", "export", "--cache", str(folder), "--into", str(tmp_path / "out.bin")],
            "repair": ["cache", "repair", "--cache", str(folder)],
            "import": ["cache", "import", "--cache", str(tmp_path / "in.bin"), "--from", str(folder)],
            "record": run + ["--backend", "record", "--script", MED_SCRIPT, "--cache", str(folder)],
            "replay": run + ["--backend", "replay", "--cache", str(folder)],
            "caching": run + ["--backend", "mock", "--script", MED_SCRIPT, "--cache", str(folder)],
        }[command]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: response store is a directory: {folder}\n"
        assert list(folder.iterdir()) == []

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
