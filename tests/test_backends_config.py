"""HTTP backend wire-shape tests (over a loopback chat server), its session
pool (against stub sessions), and run-config loading, overrides, and
factory tests."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import threading

import pytest

from svagen.backends import BackendError, HttpChatBackend, ScriptedBackend
from svagen.config import BackendSettings, ConfigError, RunConfig, config_from_dict, load_config
from svagen.prompts import DEFAULT_TEMPLATES, load_template
from svagen.sva.checker import DEFAULT_EXTERNAL_PATTERNS, BuiltinChecker, DiagnosticPattern, ExternalChecker

DOCS_FORMATS = os.path.join(os.path.dirname(__file__), "..", "docs", "formats.md")


class _FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload or {}

    def json(self):
        return self._payload


class _FakeSession:
    def __init__(self, response: _FakeResponse):
        self.response = response
        self.requests: list[dict] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append(
            {"url": url, "json": json, "headers": headers, "timeout": timeout}
        )
        return self.response


def _backend(monkeypatch, endpoint="https://llm.example/v1/chat/completions"):
    monkeypatch.setenv("SVAGEN_API_KEY", "sk-test")
    return HttpChatBackend(endpoint, "some-model")


MESSAGES = [{"role": "user", "content": "u"}]


class TestHttpBackend:
    def test_request_and_response_shape(self, chat_server, monkeypatch):
        chat_server.backend = ScriptedBackend.from_responses(["hello"])
        backend = _backend(monkeypatch, chat_server.url)
        messages = [{"role": "system", "content": "s"}, {"role": "user", "content": "u"}]
        assert backend.complete(messages) == "hello"
        (request,) = chat_server.requests
        assert request["path"] == "/v1/chat/completions"
        assert request["json"] == {"model": "some-model", "messages": messages}
        assert request["headers"]["Authorization"] == "Bearer sk-test"

    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv("SVAGEN_API_KEY", raising=False)
        with pytest.raises(BackendError, match="SVAGEN_API_KEY"):
            HttpChatBackend("https://llm.example/v1/chat/completions", "some-model")
        monkeypatch.setenv("SVAGEN_API_KEY", "")
        with pytest.raises(BackendError, match="SVAGEN_API_KEY"):
            HttpChatBackend("https://llm.example/v1/chat/completions", "some-model")

    def test_key_is_read_once_when_made(self, chat_server, monkeypatch):
        chat_server.backend = ScriptedBackend.from_responses(["a", "b"])
        backend = _backend(monkeypatch, chat_server.url)
        assert backend.complete(MESSAGES) == "a"
        monkeypatch.delenv("SVAGEN_API_KEY")
        assert backend.complete(MESSAGES) == "b"
        assert [r["headers"]["Authorization"] for r in chat_server.requests] == [
            "Bearer sk-test"
        ] * 2

    def test_http_error_status(self, chat_server, monkeypatch):
        chat_server.status, chat_server.payload = 500, {}
        backend = _backend(monkeypatch, chat_server.url)
        with pytest.raises(BackendError, match="HTTP 500"):
            backend.complete(MESSAGES)

    def test_malformed_response(self, chat_server, monkeypatch):
        chat_server.payload = {"weird": 1}
        backend = _backend(monkeypatch, chat_server.url)
        with pytest.raises(BackendError, match="malformed"):
            backend.complete(MESSAGES)

    @pytest.mark.parametrize(
        "payload", [{"choices": None}, {"choices": [{"message": "x"}]}, {"choices": [None]}]
    )
    def test_wrongly_typed_response(self, chat_server, monkeypatch, payload):
        chat_server.payload = payload
        backend = _backend(monkeypatch, chat_server.url)
        with pytest.raises(BackendError, match="malformed"):
            backend.complete(MESSAGES)

    def test_empty_text_rejected(self, chat_server, monkeypatch):
        chat_server.payload = {"choices": [{"message": {"content": ""}}]}
        backend = _backend(monkeypatch, chat_server.url)
        with pytest.raises(BackendError, match="no text"):
            backend.complete(MESSAGES)

    def test_refused_connection(self, chat_server, monkeypatch):
        backend = _backend(monkeypatch, chat_server.url)
        chat_server.shutdown()
        chat_server.server_close()  # nothing listens on the port now
        with pytest.raises(BackendError, match="request failed"):
            backend.complete(MESSAGES)


class TestHttpSessions:
    @staticmethod
    def _sessions(monkeypatch, barrier=None):
        """The sessions the backend makes, each of whose posts first waits
        on `barrier` when one is given."""
        import requests

        made = []

        class CountingSession(_FakeSession):
            def __init__(self):
                super().__init__(
                    _FakeResponse(payload={"choices": [{"message": {"content": "ok"}}]})
                )
                made.append(self)

            def post(self, url, **kwargs):
                if barrier is not None:
                    barrier.wait(timeout=10)
                return super().post(url, **kwargs)

        monkeypatch.setattr(requests, "Session", CountingSession)
        return made

    @staticmethod
    def _run(threads):
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()

    def test_calls_one_after_another_share_one_session(self, monkeypatch):
        made = self._sessions(monkeypatch)
        backend = _backend(monkeypatch)
        messages = [{"role": "user", "content": "u"}]
        assert backend.complete(messages) == backend.complete(messages) == "ok"
        for _ in range(3):  # a new thread for each call, as each batch starts its own
            self._run([threading.Thread(target=backend.complete, args=(messages,))])
        assert [len(s.requests) for s in made] == [5]

    def test_calls_held_open_at_once_use_one_session_each(self, monkeypatch):
        made = self._sessions(monkeypatch, threading.Barrier(2))
        backend = _backend(monkeypatch)
        messages = [{"role": "user", "content": "u"}]
        replies = []
        # each post waits until the other is in flight too
        self._run([
            threading.Thread(target=lambda: replies.append(backend.complete(messages)))
            for _ in range(2)
        ])
        assert replies == ["ok", "ok"]
        assert [len(s.requests) for s in made] == [1, 1]

    def test_no_session_serves_two_calls_at_once_under_contention(self, monkeypatch):
        import sys
        import time

        overlaps = []

        class Guarded(_FakeSession):
            def __init__(self):
                super().__init__(
                    _FakeResponse(payload={"choices": [{"message": {"content": "ok"}}]})
                )
                self.busy = False

            def post(self, url, **kwargs):
                overlaps.append(self.busy)
                self.busy = True
                time.sleep(0.0005)
                self.busy = False
                return super().post(url, **kwargs)

        import requests

        monkeypatch.setattr(requests, "Session", Guarded)
        backend = _backend(monkeypatch)
        messages = [{"role": "user", "content": "u"}]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self._run([
                threading.Thread(target=lambda: [backend.complete(messages) for _ in range(40)])
                for _ in range(8)
            ])
        finally:
            sys.setswitchinterval(interval)
        assert len(overlaps) == 320 and not any(overlaps)
        assert 1 <= len(backend._idle) <= 8  # every session is idle again
        assert sum(len(s.requests) for s in backend._idle) == 320

    def test_a_failed_call_gives_its_session_back(self, monkeypatch):
        made = self._sessions(monkeypatch)
        backend = _backend(monkeypatch)
        messages = [{"role": "user", "content": "u"}]
        backend.complete(messages)
        made[0].response = _FakeResponse(status_code=503)
        with pytest.raises(BackendError, match="HTTP 503"):
            backend.complete(messages)
        made[0].post = lambda url, **kwargs: 1 / 0
        with pytest.raises(BackendError, match="request failed"):
            backend.complete(messages)
        del made[0].post
        made[0].response = _FakeResponse(payload={"choices": [{"message": {"content": "ok"}}]})
        assert backend.complete(messages) == "ok"
        assert [len(s.requests) for s in made] == [3]


class TestScriptFile:
    def test_entries_with_and_without_match_load(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([{"response": "first"}, {"response": "keyed", "match": "K"}]))
        backend = ScriptedBackend.from_file(str(path))
        assert backend.complete([{"role": "user", "content": "K"}]) == "first"
        assert backend.complete([{"role": "user", "content": "K"}]) == "keyed"

    @pytest.mark.parametrize(
        "script, message",
        [
            ([{"match": "K"}], r"\[0\]\.response is missing"),
            ({"response": "r"}, "top level must be a list"),
            ([{"response": 1}], r"\[0\]\.response must be a string, not 1"),
            ([{"response": "r"}, {"resp": "r"}], r"unknown key \[1\]\.resp"),
        ],
    )
    def test_malformed_script_names_file_and_path(self, tmp_path, script, message):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        with pytest.raises(ValueError, match=message) as err:
            ScriptedBackend.from_file(str(path))
        assert str(path) in str(err.value)


class TestRunConfig:
    def test_defaults_reproduce_reference_settings(self):
        config = RunConfig()
        assert config.search.n_rollouts == 4
        assert config.search.c == 1.4
        assert config.search.score_cap == 95.0
        assert config.max_api_calls_per_signal == 20  # 2 + 4*4 + 2

    def test_budget_follows_rollouts(self):
        config = config_from_dict({"search": {"n_rollouts": 2}})
        assert config.max_api_calls_per_signal == 12

    def test_explicit_budget_kept(self):
        config = config_from_dict(
            {"search": {"n_rollouts": 2}, "max_api_calls_per_signal": 99}
        )
        assert config.max_api_calls_per_signal == 99

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"surprise": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"backend": {"script": "typo"}})

    @pytest.mark.parametrize(
        "rag",
        [{"k": 0}, {"chunk_size": 0}, {"chunk_overlap": -1}, {"chunk_overlap": 1200}],
    )
    def test_invalid_rag_rejected(self, rag):
        with pytest.raises(ConfigError, match="rag"):
            config_from_dict({"rag": rag})

    @pytest.mark.parametrize(
        "data",
        [
            {"parallel": "4"},
            {"parallel": 0},
            {"early_stop": "false"},
            {"early_stop_score": "high"},
            {"max_api_calls_per_signal": 0},
            {"paths": {"waveform_files": "wave.txt"}},
            {"paths": {"waveform_files": [1]}},
            {"search": {"n_rollouts": 2.5}},
            {"search": {"n_rollouts": True}},
            {"rag": {"k": True}},
            {"rag": {"k": "3"}},
            {"design_name": None},
            {"search": "x"},
            {"backend": {"timeout_s": -1}},
            {"checker": {"timeout_s": 0}},
            {"checker": {"patterns": [{"severity": "error"}]}},
            {"checker": {"patterns": [{"pattern": "x", "severty": "error"}]}},
            {"checker": {"patterns": [{"pattern": "("}]}},
            {"checker": {"kind": "external", "command_template": "jg-lint"}},
        ],
    )
    def test_invalid_value_rejected(self, data):
        with pytest.raises(ConfigError):
            config_from_dict(data)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0], ids=str)
    def test_backend_timeout_made_in_code_is_finite_and_positive(self, value):
        with pytest.raises(ConfigError, match=r"^backend\.timeout_s must be finite and positive$"):
            BackendSettings(timeout_s=value)

    def test_non_object_config_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict([])

    def test_number_types(self):
        config = config_from_dict(
            {"search": {"c": 2, "score_cap": 90}, "early_stop_score": 80, "max_api_calls_per_signal": None}
        )
        # an int is accepted for a float and kept as given
        assert (config.search.c, config.search.score_cap, config.early_stop_score) == (2, 90, 80)
        assert type(config.search.c) is int
        assert config.max_api_calls_per_signal == 20  # null: derived

    def test_early_stop_score_at_most_the_score_cap(self):
        assert config_from_dict({"search": {"score_cap": 90}}).early_stop_score == 90  # equal: reachable
        assert not config_from_dict({"early_stop": False, "early_stop_score": 99}).early_stop
        with pytest.raises(ConfigError, match="early_stop_score 99 is above search.score_cap 95"):
            config_from_dict({"early_stop_score": 99})

    @pytest.mark.parametrize("key", ["score_min", "score_max"])
    def test_removed_score_range_key_rejected(self, tmp_path, key):
        # the critic's scale is fixed (svagen.tree.SCORE_MIN/SCORE_MAX), not a knob
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"search": {"n_rollouts": 1, key: 100}}))
        with pytest.raises(ConfigError, match=rf"unknown key search\.{key}"):
            load_config(str(path))
        with pytest.raises(ConfigError, match=rf"unknown key search\.{key}"):
            config_from_dict({"search": {key: -100}}, config_from_dict({}))

    def test_layer_with_rollouts_rederives_budget(self):
        base = config_from_dict({"search": {"c": 2.0}, "max_api_calls_per_signal": 99})
        config = config_from_dict({"search": {"n_rollouts": 1}}, base)
        assert config.max_api_calls_per_signal == 8  # 2 + 4*1 + 2
        assert config.search.c == 2.0  # the base layer's other values stay

    def test_layer_without_rollouts_keeps_budget(self):
        base = config_from_dict({"max_api_calls_per_signal": 99})
        config = config_from_dict({"parallel": 2}, base)
        assert (config.max_api_calls_per_signal, config.parallel) == (99, 2)

    def test_layer_shares_nothing_with_its_base(self):
        base = config_from_dict({"paths": {"waveform_files": ["a.txt"]},
                                 "checker": {"patterns": [{"pattern": "x"}]}})
        config = config_from_dict({"parallel": 2}, base)
        for name in ("search", "backend", "checker", "rag", "paths"):
            assert getattr(config, name) is not getattr(base, name)
            assert getattr(config, name) == getattr(base, name)
        assert config.paths.waveform_files is not base.paths.waveform_files
        assert config.checker.patterns[0] is not base.checker.patterns[0]
        config.paths.waveform_files.append("b.txt")
        config.checker.patterns.clear()
        config.search.c = 0.5
        assert base == config_from_dict({"paths": {"waveform_files": ["a.txt"]},
                                         "checker": {"patterns": [{"pattern": "x"}]}})

    def test_docs_example_names_every_field_and_loads(self):
        """The example under "Run configuration" in docs/formats.md loads
        and names every config field, so a new field must be documented."""
        with open(DOCS_FORMATS, encoding="utf-8") as f:
            docs = f.read()
        section = docs[docs.index("## Run configuration") :]
        example = json.loads(section[section.index("```json") + 7 : section.index("```\n")])
        config = config_from_dict(example)
        assert config.backend.type in ("scripted", "http")
        assert config.checker.kind in ("builtin", "external")
        for name, value in vars(config).items():
            assert name in example, name
            if dataclasses.is_dataclass(value):
                assert set(example[name]) == {f.name for f in dataclasses.fields(value)}, name

    def test_valid_rag_kept(self):
        config = config_from_dict({"rag": {"k": 1, "chunk_size": 10, "chunk_overlap": 0}})
        assert (config.rag.k, config.rag.chunk_size, config.rag.chunk_overlap) == (1, 10, 0)

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"design_name": "i2c", "parallel": 3}))
        config = load_config(str(path))
        assert config.design_name == "i2c"
        assert config.parallel == 3

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_checker_factory(self):
        config = config_from_dict({"checker": {"kind": "builtin"}})
        assert isinstance(config.make_checker(), BuiltinChecker)
        config = config_from_dict(
            {"checker": {"kind": "external", "command_template": "lint {file}"}}
        )
        assert isinstance(config.make_checker(), ExternalChecker)

    def test_checker_patterns_decoded(self):
        pattern = {"pattern": r"E(?P<line>\d+): (?P<message>.+)", "code": "lint"}
        config = config_from_dict(
            {"checker": {"kind": "external", "command_template": "lint {file}", "patterns": [pattern]}}
        )
        assert config.make_checker().patterns == [DiagnosticPattern(**pattern)]
        with pytest.raises(ConfigError, match=r"checker\.patterns\[0\]\.severity must be a string"):
            config_from_dict({"checker": {"patterns": [{"pattern": "x", "severity": 1}]}})

    @pytest.mark.parametrize("severity", ["Error", "ERROR", "warn", "fatal", ""])
    def test_misspelled_pattern_severity_rejected(self, severity):
        # a pattern whose severity is not "error" could never fail an assertion
        patterns = [{"pattern": "W", "severity": "warning"}, {"pattern": "E", "severity": severity}]
        message = r"checker\.patterns\[1\]\.severity must be error or warning, not "
        with pytest.raises(ConfigError, match=message + re.escape(repr(severity))):
            config_from_dict({"checker": {"patterns": patterns}})

    @pytest.mark.parametrize(
        "broken, field",
        [
            ({"timeout_s": 0}, "timeout_s"),
            ({"command_template": "lint --fast"}, "command_template"),
            ({"patterns": [{"pattern": "ok"}, {"pattern": "(bad"}]}, "patterns[1].pattern"),
            (
                {"patterns": [{"pattern": "W", "severity": "warning"}, {"pattern": "E", "severity": "Error"}]},
                "patterns[1].severity",
            ),
        ],
        ids=["timeout", "template", "regex", "severity"],
    )
    def test_checker_rule_message_is_the_checkers(self, broken, field):
        # the config reports a rule exactly as a checker made in code does, under `checker.`
        section = {"command_template": "lint {file}", **broken}
        patterns = [DiagnosticPattern(**p) for p in section.get("patterns", [])]
        with pytest.raises(ValueError) as made:
            ExternalChecker(section["command_template"], patterns, section.get("timeout_s", 30.0))
        with pytest.raises(ConfigError) as loaded:
            config_from_dict({"checker": section})
        assert str(loaded.value) == "checker." + str(made.value)
        assert str(made.value).startswith(field + " ")

    def test_omitted_patterns_are_the_defaults_and_empty_means_none(self):
        # one meaning in a config and in code: no key, the defaults; [], no pattern
        command = """sh -c 'echo "ERROR (line 1): looks bad"' {file}"""
        section = {"kind": "external", "command_template": command}
        omitted = config_from_dict({"checker": section}).make_checker()
        empty = config_from_dict({"checker": {**section, "patterns": []}}).make_checker()
        assert omitted.patterns == ExternalChecker(command).patterns == DEFAULT_EXTERNAL_PATTERNS
        assert empty.patterns == ExternalChecker(command, []).patterns == []
        assert [d.message for d in omitted.check("assert property (a);")] == ["looks bad"]
        assert empty.check("assert property (a);") == []  # the tool exits 0

    def test_external_checker_needs_command(self):
        config = config_from_dict({"checker": {"kind": "external"}})
        with pytest.raises(ConfigError):
            config.make_checker()

    def test_unknown_checker_kind(self):
        config = config_from_dict({"checker": {"kind": "verible"}})
        with pytest.raises(ConfigError, match="unknown checker kind 'verible'"):
            config.make_checker()

    def test_scripted_backend_needs_script(self):
        config = config_from_dict({"backend": {"type": "scripted"}})
        with pytest.raises(ConfigError):
            config.make_backend()

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"type": "grpc"}, "unknown backend type 'grpc'"),
            ({"type": "http", "model": "m"}, "requires backend.endpoint and backend.model"),
            ({"type": "http", "endpoint": "https://llm.example/v1"}, "requires backend.endpoint"),
        ],
    )
    def test_backend_settings_rejected(self, settings, message):
        config = config_from_dict({"backend": settings})
        with pytest.raises(ConfigError, match=message):
            config.make_backend()

    def test_http_backend_takes_the_settings(self, chat_server, monkeypatch):
        monkeypatch.setenv("MY_KEY", "sk-mine")
        chat_server.backend = ScriptedBackend.from_responses(["ok"])
        settings = {"type": "http", "endpoint": chat_server.url, "model": "m",
                    "api_key_env": "MY_KEY", "timeout_s": 5.0}
        backend = config_from_dict({"backend": settings}).make_backend()
        assert isinstance(backend, HttpChatBackend)
        assert (backend.endpoint, backend.model, backend.timeout_s) == (chat_server.url, "m", 5.0)
        assert backend.complete([{"role": "user", "content": "u"}]) == "ok"
        (request,) = chat_server.requests
        assert request["json"]["model"] == "m"
        assert request["headers"]["Authorization"] == "Bearer sk-mine"

    def test_http_backend_with_the_key_unset(self, monkeypatch):
        monkeypatch.delenv("MY_KEY", raising=False)
        settings = {"type": "http", "endpoint": "https://llm.example/v1", "model": "m",
                    "api_key_env": "MY_KEY"}
        with pytest.raises(ConfigError, match="MY_KEY"):
            config_from_dict({"backend": settings}).make_backend()


TEMPLATE_FILE = """\
[system]
Custom critic system text with CORRECTNESS focus.
[user]
Review {assertions} for {signal_name}.
"""


class TestTemplateLoading:
    def test_load_template_file(self, tmp_path):
        path = tmp_path / "critic.txt"
        path.write_text(TEMPLATE_FILE)
        template = load_template(str(path), DEFAULT_TEMPLATES["critic"])
        assert template.role_name == "critic"  # from the default: the file names no role
        assert "CORRECTNESS" in template.system_text
        assert template.placeholders() == ["assertions", "signal_name"]

    def test_placeholder_in_system_section_rejected(self, tmp_path):
        tdir = tmp_path / "templates"
        tdir.mkdir()
        (tdir / "critic.txt").write_text("[system]\nCritic of {signal_name}.\n[user]\nReview {assertions}.\n")
        with pytest.raises(ValueError, match=r"placeholder \{signal_name\} in \[system\]"):
            load_template(str(tdir / "critic.txt"), DEFAULT_TEMPLATES["critic"])
        with pytest.raises(ConfigError, match=r"'critic.txt': placeholder \{signal_name\} in \[system\]"):
            config_from_dict({"templates_dir": str(tdir)}).load_templates()

    def test_shipped_system_texts_hold_no_placeholder(self):
        for key, template in DEFAULT_TEMPLATES.items():
            assert not re.search(r"\{[a-z_]+\}", template.system_text), key
        assert "give a score from -100 to 100." in DEFAULT_TEMPLATES["critic"].system_text

    def test_missing_sections_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("[system]\nonly system\n")
        with pytest.raises(ValueError):
            load_template(str(path), DEFAULT_TEMPLATES["critic"])

    def test_config_overrides_one_template(self, tmp_path):
        tdir = tmp_path / "templates"
        tdir.mkdir()
        (tdir / "critic.txt").write_text(TEMPLATE_FILE)
        config = config_from_dict({"templates_dir": str(tdir)})
        templates = config.load_templates()
        assert "Custom critic system text" in templates["critic"].system_text
        # others untouched
        assert templates["sva_weak"] == DEFAULT_TEMPLATES["sva_weak"]

    def test_files_other_than_txt_are_skipped(self, tmp_path):
        tdir = tmp_path / "templates"
        tdir.mkdir()
        (tdir / "critic.txt").write_text(TEMPLATE_FILE)
        (tdir / "mystery.md").write_text("not a template")
        templates = config_from_dict({"templates_dir": str(tdir)}).load_templates()
        assert sorted(templates) == sorted(DEFAULT_TEMPLATES)
        assert "Custom critic system text" in templates["critic"].system_text

    def test_unknown_template_file_rejected(self, tmp_path):
        tdir = tmp_path / "templates"
        tdir.mkdir()
        (tdir / "mystery.txt").write_text(TEMPLATE_FILE)
        config = config_from_dict({"templates_dir": str(tdir)})
        with pytest.raises(ConfigError):
            config.load_templates()
