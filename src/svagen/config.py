"""Run configuration: search parameters, backend/checker/RAG selection and
filesystem paths, loadable from a JSON file with CLI overrides on top.

API keys never live in the config file; only the name of the environment
variable that holds them does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from svagen.backends import BackendError, ChatBackend, HttpChatBackend, ScriptedBackend
from svagen.prompts import DEFAULT_TEMPLATES, PromptTemplate, load_template
from svagen.records import decode, encode, load
from svagen.sva.checker import (
    DEFAULT_EXTERNAL_PATTERNS,
    BuiltinChecker,
    DiagnosticPattern,
    ExternalChecker,
    SyntaxChecker,
)
from svagen.tree import SearchParams

DEFAULT_TOP_K = 4
DEFAULT_CHUNK_SIZE = 1200
DEFAULT_CHUNK_OVERLAP = 200


class ConfigError(ValueError):
    pass


def default_call_budget(n_rollouts: int) -> int:
    """Per-signal LLM call budget: 2 for the initial node, 4 per rollout,
    2 for combination."""
    return 2 + 4 * n_rollouts + 2


@dataclass
class BackendSettings:
    type: str = "scripted"  # scripted | http
    script_path: str | None = None
    endpoint: str = ""
    model: str = ""
    api_key_env: str = "SVAGEN_API_KEY"
    timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ConfigError("backend.timeout_s must be positive")


@dataclass
class CheckerSettings:
    kind: str = "builtin"  # builtin | external
    command_template: str = ""
    patterns: list[DiagnosticPattern] = field(default_factory=lambda: list(DEFAULT_EXTERNAL_PATTERNS))
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        # the rules are ExternalChecker's; an unset template is make_checker's error
        try:
            ExternalChecker(self.command_template or "{file}", self.patterns, self.timeout_s)
        except ValueError as err:
            raise ConfigError(f"checker.{err}") from err


@dataclass
class RagSettings:
    index_path: str | None = None
    k: int = DEFAULT_TOP_K
    chunk_size: int = DEFAULT_CHUNK_SIZE
    chunk_overlap: int = DEFAULT_CHUNK_OVERLAP

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
        if self.early_stop and self.early_stop_score > self.search.score_cap:
            raise ConfigError(  # it is compared with a suppressed score, never above the cap
                f"early_stop_score {self.early_stop_score:g} is above search.score_cap "
                f"{self.search.score_cap:g}, so the early stop could never fire"
            )

    # -- factories

    def make_backend(self) -> ChatBackend:
        b = self.backend
        if b.type == "scripted":
            if not b.script_path:
                raise ConfigError("scripted backend requires backend.script_path")
            try:
                return ScriptedBackend.from_file(b.script_path)
            except ValueError as err:
                raise ConfigError(str(err)) from err
        if b.type == "http":
            if not b.endpoint or not b.model:
                raise ConfigError("http backend requires backend.endpoint and backend.model")
            try:
                return HttpChatBackend(b.endpoint, b.model, b.api_key_env, b.timeout_s)
            except BackendError as err:
                raise ConfigError(str(err)) from err
        raise ConfigError(f"unknown backend type {b.type!r}")

    def make_checker(self) -> SyntaxChecker:
        c = self.checker
        if c.kind == "builtin":
            return BuiltinChecker()
        if c.kind == "external":
            if not c.command_template:
                raise ConfigError("external checker requires checker.command_template")
            return ExternalChecker(c.command_template, c.patterns, c.timeout_s)
        raise ConfigError(f"unknown checker kind {c.kind!r}")

    def load_templates(self) -> dict[str, PromptTemplate]:
        """The shipped templates, each overridden by `templates_dir/<key>.txt`
        if there is one. ConfigError naming the file when its key is
        unknown or `load_template` rejects it."""
        templates = dict(DEFAULT_TEMPLATES)
        if self.templates_dir:
            for name in sorted(os.listdir(self.templates_dir)):
                if not name.endswith(".txt"):
                    continue
                key = name[: -len(".txt")]
                if key not in templates:
                    raise ConfigError(f"unknown template file {name!r}")
                path = os.path.join(self.templates_dir, name)
                try:
                    templates[key] = load_template(path, templates[key])
                except ValueError as err:
                    raise ConfigError(f"template file {name!r}: {err}") from err
        return templates


def config_from_dict(data: dict, config: RunConfig | None = None) -> RunConfig:
    """A fresh RunConfig: the settings in `data` merged as JSON over those of
    `config` (default: the defaults) and decoded once, so it shares no
    section or list with `config`; ConfigError on an unknown key, a wrong
    type or a value out of range. A layer that sets search.n_rollouts but
    not max_api_calls_per_signal re-derives the budget."""
    if config is not None and type(data) is dict:
        search = data.get("search")
        if type(search) is dict and "n_rollouts" in search and "max_api_calls_per_signal" not in data:
            data = {**data, "max_api_calls_per_signal": None}  # not the base's: derive it again
        data = _merge(encode(config), data)
    return decode(RunConfig, data, ConfigError)


def _merge(base: dict, layer: dict) -> dict:
    """`layer` over `base`: an object over an object merges key by key."""
    out = dict(base)
    for key, value in layer.items():
        below = out.get(key)
        out[key] = _merge(below, value) if type(value) is dict and type(below) is dict else value
    return out


def load_config(path: str) -> RunConfig:
    """ConfigError naming the file and the field when `path` does not hold
    a valid config."""
    return load(RunConfig, path, "config", ConfigError)
