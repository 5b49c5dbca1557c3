"""Run configuration: search parameters, backend/checker/RAG selection and
filesystem paths, loadable from a JSON file with CLI overrides on top.

API keys never live in the config file; only the name of the environment
variable that holds them does.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

from svagen.backends import (
    ChatBackend,
    HttpBackendConfig,
    HttpChatBackend,
    ScriptedBackend,
)
from svagen.prompts import DEFAULT_TEMPLATES, PromptTemplate, load_template
from svagen.sva.checker import (
    BuiltinChecker,
    DiagnosticPattern,
    ExternalChecker,
    SyntaxChecker,
)
from svagen.tree import SearchParams


class ConfigError(ValueError):
    pass


def default_call_budget(n_rollouts: int) -> int:
    """Per-signal LLM call budget: 2 for the initial node, 4 per rollout,
    2 for combination."""
    return 2 + 4 * n_rollouts + 2


def replace_search(search: SearchParams, **changes) -> SearchParams:
    """`search` with `changes` applied; ConfigError when a value is invalid."""
    try:
        return dataclasses.replace(search, **changes)
    except ValueError as err:
        raise ConfigError(f"invalid search parameters: {err}") from err


@dataclass
class BackendSettings:
    type: str = "scripted"  # scripted | http
    script_path: str | None = None
    endpoint: str = ""
    model: str = ""
    api_key_env: str = "SVAGEN_API_KEY"
    timeout_s: float = 120.0


@dataclass
class CheckerSettings:
    kind: str = "builtin"  # builtin | external
    command_template: str = ""
    patterns: list[dict] = field(default_factory=list)
    timeout_s: float = 30.0


@dataclass
class RagSettings:
    index_path: str | None = None
    k: int = 4
    chunk_size: int = 1200
    chunk_overlap: int = 200

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError("rag.k must be at least 1")
        if self.chunk_size < 1:
            raise ConfigError("rag.chunk_size must be at least 1")
        if not 0 <= self.chunk_overlap < self.chunk_size:
            raise ConfigError("rag.chunk_overlap must be >= 0 and < rag.chunk_size")


@dataclass
class PathSettings:
    spec_file: str | None = None
    verilog_file: str | None = None
    waveform_files: list[str] = field(default_factory=list)
    design_summary_file: str | None = None
    bank_file: str = "bank.json"
    output_dir: str = "svagen-out"


@dataclass
class RunConfig:
    search: SearchParams = field(default_factory=SearchParams)
    backend: BackendSettings = field(default_factory=BackendSettings)
    checker: CheckerSettings = field(default_factory=CheckerSettings)
    rag: RagSettings = field(default_factory=RagSettings)
    paths: PathSettings = field(default_factory=PathSettings)
    design_name: str = "design"
    early_stop: bool = True
    early_stop_score: float = 90.0
    max_api_calls_per_signal: int | None = None
    parallel: int = 1
    templates_dir: str | None = None

    def __post_init__(self) -> None:
        if self.max_api_calls_per_signal is None:
            self.max_api_calls_per_signal = default_call_budget(self.search.n_rollouts)
        if self.max_api_calls_per_signal < 1:
            raise ConfigError("max_api_calls_per_signal must be positive")
        if self.parallel < 1:
            raise ConfigError("parallel must be at least 1")

    # -- factories

    def make_backend(self) -> ChatBackend:
        b = self.backend
        if b.type == "scripted":
            if not b.script_path:
                raise ConfigError("scripted backend requires backend.script_path")
            return ScriptedBackend.from_file(b.script_path)
        if b.type == "http":
            if not b.endpoint or not b.model:
                raise ConfigError("http backend requires backend.endpoint and backend.model")
            return HttpChatBackend(
                HttpBackendConfig(
                    endpoint=b.endpoint,
                    model=b.model,
                    api_key_env=b.api_key_env,
                    timeout_s=b.timeout_s,
                )
            )
        raise ConfigError(f"unknown backend type {b.type!r}")

    def make_checker(self) -> SyntaxChecker:
        c = self.checker
        if c.kind == "builtin":
            return BuiltinChecker()
        if c.kind == "external":
            if not c.command_template:
                raise ConfigError("external checker requires checker.command_template")
            patterns = [
                DiagnosticPattern(
                    pattern=p["pattern"],
                    severity=p.get("severity", "error"),
                    code=p.get("code", "external-tool"),
                )
                for p in c.patterns
            ] or None
            return ExternalChecker(c.command_template, patterns, c.timeout_s)
        raise ConfigError(f"unknown checker kind {c.kind!r}")

    def load_templates(self) -> dict[str, PromptTemplate]:
        templates = dict(DEFAULT_TEMPLATES)
        if self.templates_dir:
            for name in sorted(os.listdir(self.templates_dir)):
                if not name.endswith(".txt"):
                    continue
                key = name[: -len(".txt")]
                if key not in templates:
                    raise ConfigError(f"unknown template file {name!r}")
                templates[key] = load_template(os.path.join(self.templates_dir, name))
        return templates


def _update_dataclass(obj, data: dict, path: str) -> None:
    for key, value in data.items():
        if not hasattr(obj, key):
            raise ConfigError(f"unknown config key {path}.{key}")
        setattr(obj, key, value)


def config_from_dict(data: dict) -> RunConfig:
    config = RunConfig()
    for section, value in data.items():
        if section == "search":
            config.search = replace_search(SearchParams(), **value)
        elif section == "backend":
            _update_dataclass(config.backend, value, "backend")
        elif section == "checker":
            _update_dataclass(config.checker, value, "checker")
        elif section == "rag":
            _update_dataclass(config.rag, value, "rag")
            config.rag.__post_init__()  # range-check the updated fields
        elif section == "paths":
            _update_dataclass(config.paths, value, "paths")
        elif section in (
            "design_name",
            "early_stop",
            "early_stop_score",
            "max_api_calls_per_signal",
            "parallel",
            "templates_dir",
        ):
            setattr(config, section, value)
        else:
            raise ConfigError(f"unknown config section {section!r}")
    # re-derive the default budget when rollouts were configured
    if "max_api_calls_per_signal" not in data:
        config.max_api_calls_per_signal = default_call_budget(config.search.n_rollouts)
    return config


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    try:
        return config_from_dict(data)
    except TypeError as err:
        raise ConfigError(str(err)) from err
