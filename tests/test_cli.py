"""CLI tests: subcommand behavior and exit codes (0 ok, 1 per-signal
failures, 2 config/stage errors)."""

from __future__ import annotations

import base64
import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
import typing
from dataclasses import asdict

import numpy as np
import pytest

from svagen.backends import ScriptedBackend
from svagen.bank import save_bank
from svagen.cli import main
from svagen.config import RunConfig
from svagen.rag import HashedBowEmbedder, VectorIndex, build_index_from_dir
from svagen.records import dumps, encode

from conftest import (
    MALFORMED_TREES,
    VALID_BARE_ASSERT,
    VALID_PROPERTY_UNIT,
    critic_reply,
    fenced,
    make_bank,
    record_text,
    tree_dump,
)


def write_script_file(path, entries) -> str:
    with open(path, "w") as f:
        json.dump(entries, f)
    return str(path)


def write_config(tmp_path, script_entries, n_rollouts=1, extra=None) -> str:
    script_path = write_script_file(tmp_path / "script.json", script_entries)
    config = {
        "design_name": "demo",
        "search": {"n_rollouts": n_rollouts},
        "backend": {"type": "scripted", "script_path": script_path},
        "paths": {
            "bank_file": str(tmp_path / "bank.json"),
            "output_dir": str(tmp_path / "out"),
        },
        "early_stop": False,
    }
    if extra:
        config.update(extra)
    path = tmp_path / "config.json"
    with open(path, "w") as f:
        json.dump(config, f)
    return str(path)


def one_signal_entries(signal="ack_o"):
    return [
        {"response": fenced(VALID_BARE_ASSERT)},
        {"response": critic_reply(30)},
        {"response": critic_reply(31)},
        {"response": critic_reply(32)},
        {"response": fenced(VALID_PROPERTY_UNIT)},
        {"response": critic_reply(50)},
        {"response": fenced(VALID_BARE_ASSERT, VALID_PROPERTY_UNIT)},
    ]


def write_stage_one_config(tmp_path, extra=None) -> str:
    """A config whose run starts with stage 1 (spec and Verilog, no bank)."""
    (tmp_path / "spec.txt").write_text("ack_o acknowledges req_i requests")
    (tmp_path / "design.v").write_text("module m(input req_i, output ack_o); endmodule")
    paths = {
        "spec_file": str(tmp_path / "spec.txt"),
        "verilog_file": str(tmp_path / "design.v"),
        "bank_file": str(tmp_path / "bank.json"),
        "output_dir": str(tmp_path / "out"),
    }
    entries = [
        {"response": "req_i: request\nack_o: acknowledge"},
        {"response": "[Signal Name]: req_i\n[Description]: request"},
        {"response": "[Signal Name]: ack_o\n[Description]: acknowledge"},
    ]
    return write_config(tmp_path, entries, extra={"paths": paths, **(extra or {})})


def record_backend_calls(monkeypatch) -> list:
    """Make every scripted backend append the prompts it is sent to a list."""
    calls: list = []
    complete = ScriptedBackend.complete

    def recording_complete(self, messages):
        calls.append(messages)
        return complete(self, messages)

    monkeypatch.setattr(ScriptedBackend, "complete", recording_complete)
    return calls


INVALID_SEARCH = [{"n_rollouts": 0}, {"c": -5}, {"epsilon": 0}, {"score_cap": 500}]
INVALID_SEARCH_FLAGS = [
    ["--rollouts", "0"],
    ["--c", "-5"],
    ["--epsilon", "0"],
    ["--score-cap", "500"],
]


def bad_index_text(case: str) -> str:
    """An index file that `VectorIndex.load` rejects, made from a valid one:
    a header line, then one line per document."""
    if case == "invalid json":
        return "{not json"
    index = VectorIndex()
    index.add("guide.txt", ["ack_o acknowledges requests"], HashedBowEmbedder())
    index.add("notes.md", ["rst_n is active low"], HashedBowEmbedder())
    vector = index.chunks[0].vector
    (columns,) = np.nonzero(vector)

    def b64(values, dtype: str) -> str:
        return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode()

    header = {"count": 2, "dimension": index.dimension}
    guide = {
        "doc_id": "guide.txt",
        "texts": [index.chunks[0].text],
        "row_nnz": b64([len(columns)], "<u4"),
        "columns": b64(columns, "<u4"),
        "values": b64(vector[columns], "<f8"),
    }
    notes = {**guide, "doc_id": "notes.md", "texts": [index.chunks[1].text]}
    lines = [header, guide, notes]
    chunks = [{"doc_id": c.doc_id, "chunk_index": 0, "text": c.text} for c in index.chunks]
    if case == "old layout":  # one object, a `vector` list per chunk
        lines = [{**header, "chunks": [{**c, "vector": vector.tolist()} for c in chunks]}]
    elif case == "dense vectors layout":  # one object, one dense base64 float64 matrix
        lines = [{**header, "chunks": chunks, "vectors": b64([vector, vector], "<f8")}]
    elif case == "old single-object layout":  # one object, the entries of every row in three arrays
        entries = {k: b64(np.tile(np.frombuffer(base64.b64decode(guide[k]), d), 2), d)
                   for k, d in [("row_nnz", "<u4"), ("columns", "<u4"), ("values", "<f8")]}
        lines = [{**header, "chunks": chunks, **entries}]
    elif case == "wrong byte length":
        guide["values"] = base64.b64encode(np.zeros(len(columns)).tobytes()[:-3]).decode()
    elif case == "column out of range":
        guide["columns"] = b64([*columns[:-1], index.dimension], "<u4")
    elif case == "row_nnz sum mismatch":
        guide["row_nnz"] = b64([len(columns) + 1], "<u4")
    elif case == "values length mismatch":
        guide["values"] = b64(vector[columns[:-1]], "<f8")
    elif case == "count mismatch":
        header["count"] = 3
    elif case == "missing document line":
        lines.pop()
    elif case == "doc_id on two lines":
        notes["doc_id"] = "guide.txt"
    elif case == "header not first":
        lines[:2] = [guide, header]
    elif case == "string chunk index":  # chunks keyed by a string index, not listed
        guide["texts"] = {"0": guide["texts"][0]}
    elif case == "number text":
        guide["texts"] = [5]
    elif case == "unknown chunk key":
        guide["page"] = 3
    text = "".join(json.dumps(line) + "\n" for line in lines)
    return text[:-10] if case == "torn last line" else text


# each case, and what the error names after the file
BAD_INDEX = {
    "invalid json": "line 1: not valid JSON",
    "old layout": "line 1: unknown key chunks",
    "dense vectors layout": "line 1: unknown key chunks",
    "old single-object layout": "line 1: unknown key chunks",
    "wrong byte length": "line 2: values holds 21 bytes, not a multiple of 8",
    "column out of range": "line 2: column 512 is not below dimension 512",
    "row_nnz sum mismatch": "line 2: columns and values hold 3 and 3 entries, not the row_nnz sum 4",
    "values length mismatch": "line 2: columns and values hold 3 and 2 entries, not the row_nnz sum 3",
    "count mismatch": "line 1: chunk total 2 is not count = 3",
    "missing document line": "line 1: chunk total 1 is not count = 2",
    "torn last line": "line 3: not valid JSON",
    "doc_id on two lines": "line 3: doc_id 'guide.txt' is on an earlier line too",
    "header not first": "line 1: unknown key doc_id",
    "string chunk index": "line 2: texts must be a list",
    "number text": "line 2: texts[0] must be a string, not 5",
    "unknown chunk key": "line 2: unknown key page",
}

INVALID_RAG = [
    {"k": 0},
    {"chunk_size": 0},
    {"chunk_overlap": -1},
    {"chunk_size": 200, "chunk_overlap": 200},
]


class TestCheck:
    def test_passing_file(self, tmp_path, capsys):
        path = tmp_path / "ok.sv"
        path.write_text(VALID_PROPERTY_UNIT + "\n")
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_failing_file(self, tmp_path, capsys):
        path = tmp_path / "bad.sv"
        path.write_text("assert property (@(posedge clk) a |-> );\n")
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "expected expression after |->" in out

    def test_multiple_units(self, tmp_path, capsys):
        path = tmp_path / "two.sv"
        path.write_text(VALID_PROPERTY_UNIT + "\n" + VALID_BARE_ASSERT + "\n")
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[1]" in out and "[2]" in out

    def test_semicolon_in_comment_does_not_split(self, tmp_path, capsys):
        path = tmp_path / "commented.sv"
        path.write_text(
            "assert property (@(posedge clk) // wait; then check\n"
            "    req |-> ##1 ack);\n" + VALID_BARE_ASSERT + "\n"
        )
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == "[1] PASS\n[2] PASS\n"

    def test_two_asserts_on_one_line(self, tmp_path, capsys):
        path = tmp_path / "one_line.sv"
        path.write_text(
            "assert property (@(posedge clk) a |-> b); assert property (@(posedge clk) c |-> d);\n"
        )
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == "[1] PASS\n[2] PASS\n"

    def test_text_without_a_unit_is_checked_whole(self, tmp_path, capsys):
        path = tmp_path / "prose.sv"
        path.write_text("the request is acknowledged\n")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().out == (
            "[1] FAIL\n"
            "  1:1 error [parse-expected] expected 'property' or an assert statement, found 'the'\n"
        )

    @pytest.mark.parametrize(
        "text", ["", "  \n\t\n", "// only a comment\n"], ids=["empty", "blank", "comment"]
    )
    def test_file_without_a_unit_fails(self, tmp_path, capsys, text):
        path = tmp_path / "empty.sv"
        path.write_text(text)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().out == "[1] FAIL\n  1:1 error [parse-empty] no assertion unit found\n"

    def test_missing_file_is_config_error(self, capsys):
        assert main(["check", "/does/not/exist.sv"]) == 2

    def test_check_and_pipeline_import_no_numpy(self, tmp_path):
        # numpy comes with svagen.rag, which only building or loading an index imports
        path = tmp_path / "ok.sv"
        path.write_text(VALID_PROPERTY_UNIT + "\n")
        code = (
            "import sys\n"
            "import svagen.cli, svagen.pipeline\n"
            f"status = svagen.cli.main(['check', {str(path)!r}])\n"
            "print(status, 'numpy' in sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.splitlines() == ["[1] PASS", "0 False"]


def float_fields(cls=RunConfig, prefix: str = "") -> list[str]:
    """The dotted path of every float field of `cls` and of its sections."""
    hints, paths = typing.get_type_hints(cls), []
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            paths += float_fields(hints[f.name], f"{prefix}{f.name}.")
        elif hints[f.name] is float:
            paths.append(prefix + f.name)
    return paths


FLOAT_FIELDS = float_fields()
FLOAT_FLAGS = {"search.c": "--c", "search.epsilon": "--epsilon", "search.score_cap": "--score-cap"}
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestRun:
    def test_successful_run(self, tmp_path, capsys):
        save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
        config = write_config(tmp_path, one_signal_entries())
        assert main(["run", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "ack_o" in out
        assert os.path.exists(tmp_path / "out" / "summary.json")

    def test_failed_signal_exit_one(self, tmp_path):
        save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
        config = write_config(tmp_path, [])  # empty script: signal fails
        assert main(["run", "--config", config]) == 1

    def test_bad_config_exit_two(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{\"unknown_section\": 1}")
        assert main(["run", "--config", str(path)]) == 2

    def test_missing_config_exit_two(self):
        assert main(["run", "--config", "/no/such/config.json"]) == 2

    @pytest.mark.parametrize("search", INVALID_SEARCH)
    def test_invalid_search_config_exit_two(self, tmp_path, monkeypatch, capsys, search):
        calls = record_backend_calls(monkeypatch)
        save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
        config = write_config(tmp_path, one_signal_entries(), extra={"search": search})
        assert main(["run", "--config", config]) == 2
        assert calls == []
        assert "invalid search parameters" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", INVALID_SEARCH_FLAGS)
    def test_invalid_search_override_exit_two(self, tmp_path, monkeypatch, capsys, flags):
        calls = record_backend_calls(monkeypatch)
        save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
        config = write_config(tmp_path, one_signal_entries())
        assert main(["run", "--config", config, *flags]) == 2
        assert calls == []
        assert "invalid search parameters" in capsys.readouterr().err

    @pytest.mark.parametrize("layer", ["file", "flag"])
    def test_early_stop_above_the_score_cap_exit_two(self, tmp_path, monkeypatch, capsys, layer):
        calls = record_backend_calls(monkeypatch)
        save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
        search = {"n_rollouts": 1, "score_cap": 85} if layer == "file" else {"n_rollouts": 1}
        config = write_config(tmp_path, one_signal_entries(), extra={"early_stop": True, "search": search})
        flags = ["--score-cap", "85"] if layer == "flag" else []
        assert main(["run", "--config", config, *flags]) == 2
        assert calls == []
        assert not os.path.exists(tmp_path / "out")
        err = capsys.readouterr().err
        assert "early_stop_score 90 is above search.score_cap 85" in err

    @pytest.mark.parametrize("key", ["score_min", "score_max"])
    def test_removed_score_range_key_exit_two(self, tmp_path, monkeypatch, capsys, key):
        calls = record_backend_calls(monkeypatch)
        save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
        config = write_config(tmp_path, one_signal_entries(), extra={"search": {"n_rollouts": 1, key: 100}})
        assert main(["run", "--config", config]) == 2
        assert calls == []
        assert not os.path.exists(tmp_path / "out")
        assert f"unknown key search.{key}" in capsys.readouterr().err

    def test_score_cap_below_the_early_stop_score_without_early_stop(self, tmp_path):
        save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
        config = write_config(tmp_path, one_signal_entries(), extra={"early_stop": True})
        assert main(["run", "--config", config, "--score-cap", "85", "--no-early-stop"]) == 0

    def test_every_float_field_is_listed(self):
        named = {"search.c", "search.epsilon", "backend.timeout_s", "checker.timeout_s", "early_stop_score"}
        assert named <= set(FLOAT_FIELDS)
        assert set(FLOAT_FLAGS) <= set(FLOAT_FIELDS)

    @pytest.mark.parametrize("value", NON_FINITE, ids=str)
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_non_finite_float_config_exit_two(self, tmp_path, monkeypatch, capsys, field, value):
        calls = record_backend_calls(monkeypatch)
        save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
        config = write_config(tmp_path, one_signal_entries())
        with open(config) as f:
            data = json.load(f)
        *sections, key = field.split(".")
        functools.reduce(lambda d, section: d.setdefault(section, {}), sections, data)[key] = value
        with open(config, "w") as f:
            json.dump(data, f)  # NaN, Infinity and -Infinity, as Python's json reads them
        assert main(["run", "--config", config]) == 2
        assert calls == []
        assert f"{field} must be a finite number, not {json.dumps(value)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity"])
    @pytest.mark.parametrize("field", FLOAT_FLAGS)
    def test_non_finite_float_override_exit_two(self, tmp_path, monkeypatch, capsys, field, value):
        calls = record_backend_calls(monkeypatch)
        save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
        config = write_config(tmp_path, one_signal_entries())
        assert main(["run", "--config", config, f"{FLOAT_FLAGS[field]}={value}"]) == 2
        assert calls == []
        assert f"{field} must be a finite number, not " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rag", INVALID_RAG)
    def test_invalid_rag_config_exit_two(self, tmp_path, monkeypatch, capsys, rag):
        from svagen.rag import HashedBowEmbedder, VectorIndex

        calls = record_backend_calls(monkeypatch)
        save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
        index_path = str(tmp_path / "index.json")
        index = VectorIndex()
        index.add("guide.txt", ["ack_o acknowledges requests"], HashedBowEmbedder())
        index.save(index_path)
        config = write_config(
            tmp_path, one_signal_entries(), extra={"rag": {"index_path": index_path, **rag}}
        )
        assert main(["run", "--config", config]) == 2
        assert calls == []
        assert "rag." in capsys.readouterr().err

    def test_parallel_zero_override_exit_two(self, tmp_path, monkeypatch, capsys):
        calls = record_backend_calls(monkeypatch)
        save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
        config = write_config(tmp_path, one_signal_entries())
        assert main(["run", "--config", config, "--parallel", "0"]) == 2
        assert calls == []
        assert "parallel" in capsys.readouterr().err

    def test_string_parallel_fails_before_stage_one(self, tmp_path, monkeypatch, capsys):
        calls = record_backend_calls(monkeypatch)
        config = write_stage_one_config(tmp_path, {"parallel": "4"})
        assert main(["run", "--config", config]) == 2
        assert calls == []
        assert not os.path.exists(tmp_path / "bank.json")
        assert "parallel" in capsys.readouterr().err

    @pytest.mark.parametrize("case", BAD_INDEX)
    def test_bad_index_fails_before_stage_one(self, tmp_path, monkeypatch, capsys, case):
        calls = record_backend_calls(monkeypatch)
        index_path = tmp_path / "index.json"
        index_path.write_text(bad_index_text(case))
        config = write_stage_one_config(tmp_path, {"rag": {"index_path": str(index_path)}})
        assert main(["run", "--config", config]) == 2
        assert calls == []
        assert not os.path.exists(tmp_path / "bank.json")
        err = capsys.readouterr().err
        assert f"index file {str(index_path)!r}, {BAD_INDEX[case]}" in err and "svagen rag build" in err

    def test_bad_index_cases_start_from_a_loadable_index(self, tmp_path):
        index_path = tmp_path / "index.json"
        index_path.write_text(bad_index_text("none"))
        assert [c.doc_id for c in VectorIndex.load(str(index_path)).chunks] == ["guide.txt", "notes.md"]

    def test_missing_index_fails_before_stage_one(self, tmp_path, monkeypatch, capsys):
        calls = record_backend_calls(monkeypatch)
        index_path = tmp_path / "no-index.json"
        config = write_stage_one_config(tmp_path, {"rag": {"index_path": str(index_path)}})
        assert main(["run", "--config", config]) == 2
        assert calls == []
        assert not os.path.exists(tmp_path / "bank.json")
        err = capsys.readouterr().err
        assert f"cannot read index file {str(index_path)!r}" in err and "svagen rag build" in err

    def test_external_template_without_placeholder_exit_two(self, tmp_path, monkeypatch, capsys):
        calls = record_backend_calls(monkeypatch)
        save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
        checker = {"kind": "external", "command_template": "jg-lint"}
        config = write_config(tmp_path, one_signal_entries(), extra={"checker": checker})
        assert main(["run", "--config", config]) == 2
        assert calls == []
        assert "{file}" in capsys.readouterr().err

    def test_template_role_line_is_ignored(self, tmp_path, monkeypatch):
        # the file stem fixes the role: an older file's [role] line precedes the first header
        calls = record_backend_calls(monkeypatch)
        save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
        (tmp_path / "templates").mkdir()
        (tmp_path / "templates" / "critic.txt").write_text(
            "[role] sva\n[system]\nstrict critic\n[user]\nReview {assertions}.\n"
        )
        config = write_config(
            tmp_path, one_signal_entries(), extra={"templates_dir": str(tmp_path / "templates")}
        )
        assert main(["run", "--config", config]) == 0
        with open(tmp_path / "out" / "summary.json") as f:
            assert json.load(f)["ledger"]["signals"]["ack_o"] == {"critic": 4, "deduplication": 1, "sva": 2}
        critic_prompts = [m for m in calls if m[0]["content"] == "strict critic"]
        assert len(critic_prompts) == 4
        assert "[role]" not in critic_prompts[0][1]["content"]

    @pytest.mark.parametrize(
        "command, name",
        [("run", "signal_mapper.txt"), ("bank", "spec_analyzer.txt"), ("run", "deduplication.txt")],
    )
    def test_template_with_unknown_placeholder_exit_two(
        self, tmp_path, monkeypatch, capsys, command, name
    ):
        calls = record_backend_calls(monkeypatch)
        (tmp_path / "templates").mkdir()
        (tmp_path / "templates" / name).write_text(
            "[system]\ns\n[user]\n{specification_text} {no_such_key}\n"
        )
        extra = {"templates_dir": str(tmp_path / "templates")}
        if name == "deduplication.txt":
            save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
            config = write_config(tmp_path, one_signal_entries(), extra=extra)
        else:
            config = write_stage_one_config(tmp_path, extra)
        argv = ["run", "--config", config] if command == "run" else ["bank", "build", "--config", config]
        before = files_under(tmp_path)
        assert main(argv) == 2
        assert calls == []
        assert files_under(tmp_path) == before
        err = capsys.readouterr().err
        assert f"template file {name!r}: unknown placeholder {{no_such_key}}; allowed: " in err
        assert "{specification_text}" in err.split("allowed: ")[1]

    def test_template_with_placeholder_in_system_exit_two(self, tmp_path, monkeypatch, capsys):
        calls = record_backend_calls(monkeypatch)
        save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
        (tmp_path / "templates").mkdir()
        (tmp_path / "templates" / "critic.txt").write_text(
            "[system]\nStrict critic of {signal_name}.\n[user]\nReview {assertions}.\n"
        )
        config = write_config(
            tmp_path, one_signal_entries(), extra={"templates_dir": str(tmp_path / "templates")}
        )
        assert main(["run", "--config", config]) == 2
        assert calls == []
        assert not os.path.exists(tmp_path / "out")
        err = capsys.readouterr().err
        assert "template file 'critic.txt': placeholder {signal_name} in [system]" in err

    def test_path_like_signal_name_exit_two(self, tmp_path, monkeypatch):
        calls = record_backend_calls(monkeypatch)
        bank = asdict(make_bank(["ack_o"]))
        bank["signals"][0]["verilog_name"] = "../../escape"
        with open(tmp_path / "bank.json", "w") as f:
            json.dump(bank, f)
        config = write_config(tmp_path, one_signal_entries())
        assert main(["run", "--config", config]) == 2
        assert calls == []
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("stage1", [False, True])
    def test_uncreatable_output_dir_fails_before_any_call(
        self, tmp_path, monkeypatch, capsys, stage1
    ):
        calls = record_backend_calls(monkeypatch)
        (tmp_path / "blocker").write_text("a regular file, not a directory")
        output = str(tmp_path / "blocker" / "out")
        if stage1:
            config = write_stage_one_config(tmp_path)
            with open(config) as f:
                payload = json.load(f)
            payload["paths"]["output_dir"] = output
            with open(config, "w") as f:
                json.dump(payload, f)
        else:
            save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
            config = write_config(tmp_path, one_signal_entries())
        assert main(["run", "--config", config, "--output", output]) == 2
        assert calls == []
        assert "blocker" in capsys.readouterr().err

    def test_signal_filter(self, tmp_path, capsys):
        save_bank(make_bank(["ack_o", "req_i"]), str(tmp_path / "bank.json"))
        entries = [
            {"response": fenced(VALID_BARE_ASSERT), "match": "Signal name: ack_o"},
            {"response": critic_reply(30), "match": "Signal name: ack_o"},
            {"response": critic_reply(31), "match": "Signal name: ack_o"},
            {"response": critic_reply(32), "match": "Signal name: ack_o"},
            {"response": fenced(VALID_PROPERTY_UNIT), "match": "Signal name: ack_o"},
            {"response": critic_reply(50), "match": "Signal name: ack_o"},
            {"response": fenced(VALID_BARE_ASSERT, VALID_PROPERTY_UNIT), "match": "for the ack_o"},
        ]
        config = write_config(tmp_path, entries)
        assert main(["run", "--config", config, "--signal", "ack_o"]) == 0
        out = capsys.readouterr().out
        assert "req_i" not in out

    def test_rollout_override_changes_budget(self, tmp_path):
        save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
        config = write_config(tmp_path, one_signal_entries())
        assert main(["run", "--config", config, "--rollouts", "1"]) == 0
        with open(tmp_path / "out" / "summary.json") as f:
            summary = json.load(f)
        assert summary["totals"]["max_api_calls"] == 8  # 2 + 4*1 + 2


MALFORMED_SCRIPTS = {
    "missing response": [{"match": "Verilog declarations:"}],
    "top-level object": {"response": "req_i: request"},
    "non-string response": [{"response": 1}],
    "unknown key": [{"resp": "req_i: request"}],
}


class TestBackendInputErrors:
    @pytest.mark.parametrize("case", MALFORMED_SCRIPTS)
    def test_malformed_script_exit_two(self, tmp_path, monkeypatch, capsys, case):
        config = write_stage_one_config(tmp_path)
        write_script_file(tmp_path / "script.json", MALFORMED_SCRIPTS[case])
        calls = record_backend_calls(monkeypatch)
        assert main(["run", "--config", config]) == 2
        assert calls == []
        assert not os.path.exists(tmp_path / "bank.json")
        err = capsys.readouterr().err
        assert str(tmp_path / "script.json") in err

    @pytest.mark.parametrize("command", ["run", "bank build"])
    def test_exhausted_script_in_stage_one_exit_two(self, tmp_path, capsys, command):
        config = write_stage_one_config(tmp_path)
        write_script_file(tmp_path / "script.json", [])
        assert main([*command.split(), "--config", config]) == 2
        assert not os.path.exists(tmp_path / "bank.json")
        assert "scripted backend exhausted" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "bank build"])
    def test_unset_api_key_in_stage_one_exit_two(
        self, tmp_path, monkeypatch, capsys, chat_server, command
    ):
        monkeypatch.delenv("SVAGEN_TEST_UNSET_KEY", raising=False)
        backend = {
            "type": "http",
            "endpoint": chat_server.url,
            "model": "m",
            "api_key_env": "SVAGEN_TEST_UNSET_KEY",
        }
        config = write_stage_one_config(tmp_path, {"backend": backend})
        assert main([*command.split(), "--config", config]) == 2
        assert chat_server.requests == []
        assert not os.path.exists(tmp_path / "bank.json")
        assert not os.path.exists(tmp_path / "out")
        assert "SVAGEN_TEST_UNSET_KEY" in capsys.readouterr().err


README = os.path.join(os.path.dirname(__file__), "..", "README.md")

# one key per prompt kind of the README demo's script, in its order: each
# matches its own template, so the end-of-signal batch, where the last
# evaluation and the deduplication are in flight together, cannot swap them
README_SCRIPT_KEYS = [
    "Write a first set",  # weak answer
    "SVAs under review",  # root evaluation
    "SVAs under review",  # rollout 1: re-sample
    "SVAs under review",  # rollout 1: expansion feedback
    "Improve the SVAs",  # rollout 1: refined assertion set
    "SVAs under review",  # rollout 1: evaluation of the new node
    "Extract all unique",  # stage 3: deduplication
]


def write_readme_demo() -> None:
    """Write the README offline demo's bank.json, config.json and a keyed
    script.json in the working directory."""
    with open(README, encoding="utf-8") as f:
        section = f.read().split("### Offline demo", 1)[1]
    code = re.search(r"<<'EOF'\n(.*?)^EOF$", section, re.DOTALL | re.MULTILINE).group(1)
    subprocess.run([sys.executable, "-c", code], check=True)
    with open("script.json", encoding="utf-8") as f:
        script = json.load(f)
    assert len(script) == len(README_SCRIPT_KEYS)
    for entry, key in zip(script, README_SCRIPT_KEYS):
        entry["match"] = key
    write_script_file("script.json", script)


class TestHttpRun:
    """The README demo through `HttpChatBackend`, over a loopback chat
    server that answers from the demo's script."""

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_writes_what_the_scripted_run_writes(
        self, tmp_path, monkeypatch, chat_server, parallel
    ):
        monkeypatch.chdir(tmp_path)
        write_readme_demo()
        assert main(["run", "--config", "config.json", "--output", "scripted",
                     "--parallel", parallel]) == 0
        chat_server.backend = ScriptedBackend.from_file("script.json")
        with open("config.json", encoding="utf-8") as f:
            config = json.load(f)
        config["backend"] = {"type": "http", "endpoint": chat_server.url, "model": "demo-model",
                             "api_key_env": "SVAGEN_TEST_KEY"}
        with open("http.json", "w", encoding="utf-8") as f:
            json.dump(config, f)
        monkeypatch.setenv("SVAGEN_TEST_KEY", "sk-loopback")
        assert main(["run", "--config", "http.json", "--output", "http",
                     "--parallel", parallel]) == 0
        assert files_under(tmp_path / "http") == files_under(tmp_path / "scripted")
        with open("http/summary.json", encoding="utf-8") as f:
            calls = json.load(f)["totals"]["total_llm_calls"]
        assert calls == len(chat_server.requests) == len(README_SCRIPT_KEYS)
        for request in chat_server.requests:
            assert request["headers"]["Authorization"] == "Bearer sk-loopback"
            assert request["json"]["model"] == "demo-model"


class TestBankBuild:
    def test_builds_bank(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("ack_o acknowledges req_i requests")
        verilog = tmp_path / "design.v"
        verilog.write_text("module m(input req_i, output ack_o); endmodule")
        entries = [
            {"response": "req_i: request\nack_o: acknowledge"},
            {"response": "[Signal Name]: req_i\n[Description]: request"},
            {"response": "[Signal Name]: ack_o\n[Description]: acknowledge"},
        ]
        config = write_config(tmp_path, entries)
        rc = main([
            "bank", "build", "--config", config,
            "--spec", str(spec), "--verilog", str(verilog),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 signals" in out
        assert os.path.exists(tmp_path / "bank.json")

    def test_unknown_mapped_signal_warns_on_stderr(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("ack_o acknowledges each request")
        verilog = tmp_path / "design.v"
        verilog.write_text("module m(input clk, output ack_o); endmodule")
        entries = [
            {"response": "ack_o: acknowledge\nghost_o: not declared"},
            {"response": "[Signal Name]: ack_o\n[Description]: acknowledge"},
        ]
        config = write_config(tmp_path, entries)
        rc = main([
            "bank", "build", "--config", config,
            "--spec", str(spec), "--verilog", str(verilog),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: mapped signal 'ghost_o' not found in Verilog declarations\n"
        assert "1 signals, 0 waveforms, 2 calls" in captured.out

    def test_missing_inputs_exit_two(self, tmp_path):
        config = write_config(tmp_path, [])
        assert main(["bank", "build", "--config", config]) == 2

    def test_bank_file_in_a_missing_directory(self, tmp_path):
        config = write_stage_one_config(tmp_path)
        out = tmp_path / "new" / "dir" / "bank.json"
        assert main(["bank", "build", "--config", config, "--out", str(out)]) == 0
        assert out.is_file()

    @pytest.mark.parametrize("command", ["run", "bank build"])
    def test_uncreatable_bank_directory_fails_before_any_call(
        self, tmp_path, monkeypatch, capsys, command
    ):
        calls = record_backend_calls(monkeypatch)
        (tmp_path / "blocker").write_text("a regular file, not a directory")
        config = write_stage_one_config(tmp_path)
        with open(config) as f:
            payload = json.load(f)
        payload["paths"]["bank_file"] = str(tmp_path / "blocker" / "bank.json")
        with open(config, "w") as f:
            json.dump(payload, f)
        assert main([*command.split(), "--config", config]) == 2
        assert calls == []
        assert "blocker" in capsys.readouterr().err


class TestRagBuild:
    @staticmethod
    def _docs(tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "guide.txt").write_text("how to write assertions " * 100)
        return docs

    def test_builds_index(self, tmp_path, capsys):
        docs = self._docs(tmp_path)
        out_path = tmp_path / "index.json"
        assert main(["rag", "build", str(docs), "--out", str(out_path)]) == 0
        assert out_path.exists()
        assert "chunks" in capsys.readouterr().out

    def test_help_lists_config_and_dimension(self, capsys):
        with pytest.raises(SystemExit):
            main(["rag", "build", "--help"])
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {"--help", "--out", "--config", "--dimension"}

    def test_config_sets_the_chunking(self, tmp_path, capsys):
        docs = self._docs(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rag": {"chunk_size": 200, "chunk_overlap": 40}}))
        out_path, expected = tmp_path / "index.json", tmp_path / "expected.json"
        assert main(["rag", "build", str(docs), "--out", str(out_path), "--config", str(config)]) == 0
        build_index_from_dir(str(docs), size=200, overlap=40).save(str(expected))
        assert out_path.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize(
        "rag, field",
        [({"chunk_size": 0}, "rag.chunk_size"), ({"chunk_size": 100, "chunk_overlap": 100}, "rag.chunk_overlap")],
        ids=["chunk_size", "chunk_overlap"],
    )
    def test_invalid_chunking_exit_two(self, tmp_path, monkeypatch, capsys, rag, field):
        reads = []
        monkeypatch.setattr("svagen.rag.read_text", lambda *args: reads.append(args))
        docs = self._docs(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rag": rag}))
        out_path = tmp_path / "index.json"
        assert main(["rag", "build", str(docs), "--out", str(out_path), "--config", str(config)]) == 2
        assert reads == []  # refused before the corpus is read
        assert not out_path.exists()
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("flags, dimension", [([], 512), (["--dimension", "64"], 64)])
    def test_empty_corpus_keeps_the_dimension(self, tmp_path, capsys, flags, dimension):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "skip.bin").write_text("not indexed")
        out_path = tmp_path / "index.json"
        assert main(["rag", "build", str(docs), "--out", str(out_path), *flags]) == 0
        assert capsys.readouterr().out == f"index written to {out_path}: 0 chunks, dimension {dimension}\n"
        assert json.loads(out_path.read_text().splitlines()[0]) == {"count": 0, "dimension": dimension}
        loaded = VectorIndex.load(str(out_path))
        assert (len(loaded), loaded.dimension) == (0, dimension)

    def test_invalid_dimension_exit_two(self, tmp_path, capsys):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "guide.txt").write_text("how to write assertions " * 100)
        out_path = tmp_path / "index.json"
        assert main(["rag", "build", str(docs), "--out", str(out_path), "--dimension", "0"]) == 2
        assert not out_path.exists()
        assert "--dimension" in capsys.readouterr().err


def tree_text(duplicate=False, **node_fields) -> str:
    """A one-node tree dump with `node_fields` replaced; `duplicate` lists
    the node twice."""
    node = {
        "id": 0, "parent": None, "children": [], "answer": {"assertions": ["assert property (x);"]},
        "q_value": 42.0, "visit_count": 1, "reward_samples": [42.0], **node_fields,
    }
    nodes = [node, node] if duplicate else [node]
    return json.dumps({"signal_name": "ack_o", "root": 0, "rollouts_completed": 0, "nodes": nodes})


class TestTreeShow:
    def test_renders(self, tmp_path, capsys):
        from svagen.tree import AnswerContent, ReasoningTree

        tree = ReasoningTree("ack_o", AnswerContent(assertions=["assert property (x);"]))
        tree.record_reward(0, 42.0)
        tree.add_child(tree.add_child(0, AnswerContent()), AnswerContent())
        tree.add_child(0, AnswerContent())
        path = tmp_path / "ack_o.json"
        path.write_text(record_text(dumps(encode(tree.record()))))
        assert main(["tree", "show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "signal: ack_o" in out
        assert "Q=42" in out
        # children under their parent, one indent deeper per level
        assert [line.split(" Q=")[0] for line in out.splitlines()[1:]] == ["[0]", "  [1]", "    [2]", "  [3]"]

    def test_deep_chain(self, tmp_path, capsys):
        from svagen.tree import AnswerContent, ReasoningTree

        tree = ReasoningTree("ack_o", AnswerContent())
        node = tree.root
        for _ in range(2999):
            node = tree.add_child(node, AnswerContent())
        path = tmp_path / "ack_o.json"
        path.write_text(record_text(dumps(encode(tree.record()))))
        assert main(["tree", "show", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3001
        assert lines[-1] == " " * (2 * 2999) + "[2999] Q=0 N=0 assertions=0 rewards=[]"

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"x": 1}', "unknown key x"),
            ("[]", "top level"),
            ("{nope", "not valid JSON"),
            (record_text(tree_text(q_value="hi")), r"tree\.nodes\[0\]\.q_value"),
            (record_text(tree_text(answer={"assertions": "abc"})), r"tree\.nodes\[0\]\.answer\.assertions"),
            (record_text(tree_text(duplicate=True)), r"tree\.nodes\[1\]\.id"),
            (tree_text(), "unknown key signal_name"),  # a bare tree dump
        ]
        + [(record_text(tree_dump(shape, root)), r"tree\." + path) for _, shape, root, path in MALFORMED_TREES],
        ids=["unknown key", "list", "invalid json", "string q_value", "string assertions",
             "duplicate id", "bare tree"] + [case[0] for case in MALFORMED_TREES],
    )
    def test_bad_dump_exit_two(self, tmp_path, capsys, text, message):
        path = tmp_path / "ack_o.json"
        path.write_text(text)
        assert main(["tree", "show", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert re.search(message, captured.err)


LATIN1 = "ack_o: réponse à la requête\n".encode("latin-1")  # not valid UTF-8


def latin1_config(tmp_path) -> tuple[list[str], str]:
    path = tmp_path / "config.json"
    path.write_bytes(b'{"design_name": "d\xe9mo"}')
    return ["run", "--config", str(path)], str(path)


def latin1_bank(tmp_path) -> tuple[list[str], str]:
    config = write_config(tmp_path, one_signal_entries())
    (tmp_path / "bank.json").write_bytes(LATIN1)
    return ["run", "--config", config], str(tmp_path / "bank.json")


def latin1_template(tmp_path) -> tuple[list[str], str]:
    save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
    (tmp_path / "templates").mkdir()
    (tmp_path / "templates" / "critic.txt").write_bytes(LATIN1)
    config = write_config(
        tmp_path, one_signal_entries(), extra={"templates_dir": str(tmp_path / "templates")}
    )
    return ["run", "--config", config], str(tmp_path / "templates" / "critic.txt")


def latin1_script(tmp_path) -> tuple[list[str], str]:
    save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
    config = write_config(tmp_path, one_signal_entries())
    (tmp_path / "script.json").write_bytes(b'[{"response": "r\xe9ponse"}]')
    return ["run", "--config", config], str(tmp_path / "script.json")


def latin1_spec(tmp_path) -> tuple[list[str], str]:
    config = write_stage_one_config(tmp_path)
    (tmp_path / "spec.txt").write_bytes(LATIN1)
    return ["bank", "build", "--config", config], str(tmp_path / "spec.txt")


def latin1_corpus(tmp_path) -> tuple[list[str], str]:
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.txt").write_bytes(LATIN1)
    return ["rag", "build", str(tmp_path / "docs"), "--out", str(tmp_path / "index.json")], str(
        tmp_path / "docs" / "guide.txt"
    )


def latin1_check_file(tmp_path) -> tuple[list[str], str]:
    (tmp_path / "a.sv").write_bytes(b"assert property (@(posedge clk) a |-> b); // \xe9\n")
    return ["check", str(tmp_path / "a.sv")], str(tmp_path / "a.sv")


def files_under(directory) -> dict[str, bytes | None]:
    """Every path under `directory`, with the bytes of each file."""
    return {
        str(path.relative_to(directory)): path.read_bytes() if path.is_file() else None
        for path in directory.rglob("*")
    }


class TestNonUtf8Input:
    @pytest.mark.parametrize(
        "make",
        [
            latin1_config,
            latin1_bank,
            latin1_template,
            latin1_script,
            latin1_spec,
            latin1_corpus,
            latin1_check_file,
        ],
    )
    def test_exit_two_naming_the_file(self, tmp_path, monkeypatch, capsys, make):
        argv, bad_path = make(tmp_path)
        calls = record_backend_calls(monkeypatch)
        before = files_under(tmp_path)
        assert main(argv) == 2
        assert calls == []
        assert files_under(tmp_path) == before
        err = capsys.readouterr().err
        assert bad_path in err and "utf-8" in err


def wrongly_typed_config(tmp_path) -> tuple[list[str], str]:
    config = write_config(tmp_path, one_signal_entries(), extra={"parallel": "4"})
    return ["run", "--config", config], config


def bank_without_a_name(tmp_path) -> tuple[list[str], str]:
    bank = asdict(make_bank(["ack_o"]))
    del bank["signals"][0]["verilog_name"]
    (tmp_path / "bank.json").write_text(json.dumps(bank))
    return ["run", "--config", write_config(tmp_path, one_signal_entries())], str(
        tmp_path / "bank.json"
    )


def bank_with_a_duplicate(tmp_path) -> tuple[list[str], str]:
    save_bank(make_bank(["ack_o"]), str(tmp_path / "bank.json"))
    bank = json.loads((tmp_path / "bank.json").read_text())
    bank["signals"].append(bank["signals"][0])
    (tmp_path / "bank.json").write_text(json.dumps(bank))
    return ["run", "--config", write_config(tmp_path, one_signal_entries())], str(
        tmp_path / "bank.json"
    )


def tree_with_a_string_q(tmp_path) -> tuple[list[str], str]:
    (tmp_path / "ack_o.json").write_text(record_text(tree_text(q_value="hi")))
    return ["tree", "show", str(tmp_path / "ack_o.json")], str(tmp_path / "ack_o.json")


class TestMalformedInput:
    @pytest.mark.parametrize(
        "make",
        [wrongly_typed_config, bank_without_a_name, bank_with_a_duplicate, tree_with_a_string_q],
    )
    def test_exit_two_naming_the_file(self, tmp_path, monkeypatch, capsys, make):
        argv, bad_path = make(tmp_path)
        calls = record_backend_calls(monkeypatch)
        assert main(argv) == 2
        assert calls == []
        assert repr(bad_path) in capsys.readouterr().err
