"""Signal-wise information bank: the per-signal knowledge base built in
stage 1 and consumed by the search and combination stages.

Construction goes through three analyzer agents (signal mapping, per-signal
specification analysis, waveform interdependence analysis); persistence is
a JSON document that round-trips exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from svagen import read_text
from svagen.backends import ChatBackend
from svagen.prompts import DEFAULT_TEMPLATES, PromptTemplate, render_prompt


class StageError(RuntimeError):
    """A pipeline stage could not produce its required output."""


class BankLoadError(ValueError):
    """Bank file failed schema validation; message carries the field path."""


@dataclass
class SignalInfo:
    verilog_name: str
    spec_name: str = ""
    description: str = ""
    definition: str = ""
    functionality: str = ""
    interconnection: str = ""
    additional_info: str = ""
    related_signals: list[str] = field(default_factory=list)

    def describe(self) -> str:
        """Bank entry rendered as the per-signal prompt excerpt."""
        parts = [f"[Signal Name]: {self.spec_name or self.verilog_name}"]
        parts.append(f"[Verilog Name]: {self.verilog_name}")
        if self.description:
            parts.append(f"[Description]: {self.description}")
        if self.definition:
            parts.append(f"[Definition]: {self.definition}")
        if self.functionality:
            parts.append(f"[Functionality]: {self.functionality}")
        if self.interconnection:
            parts.append(f"[Interconnection]: {self.interconnection}")
        if self.additional_info:
            parts.append(f"[Additional Information]: {self.additional_info}")
        if self.related_signals:
            parts.append(f"[Related Signals]: {', '.join(self.related_signals)}")
        return "\n".join(parts)

    def to_dict(self) -> dict:
        return {
            "verilog_name": self.verilog_name,
            "spec_name": self.spec_name,
            "description": self.description,
            "definition": self.definition,
            "functionality": self.functionality,
            "interconnection": self.interconnection,
            "additional_info": self.additional_info,
            "related_signals": list(self.related_signals),
        }


@dataclass
class WaveformSummary:
    waveform_name: str
    signals: list[str]
    timing_relationship: str = ""
    causal_dependencies: str = ""
    state_transitions: str = ""
    protocol_mechanisms: str = ""
    additional_observations: str = ""

    def describe(self) -> str:
        return "\n".join(
            [
                f"[Waveform Name]: {self.waveform_name}",
                f"[Signals]: {', '.join(self.signals)}",
                f"[Timing Relationship]: {self.timing_relationship}",
                f"[Causal Dependencies]: {self.causal_dependencies}",
                f"[State Transitions]: {self.state_transitions}",
                f"[Protocol/Handshaking Mechanisms]: {self.protocol_mechanisms}",
                f"[Additional Observations]: {self.additional_observations}",
            ]
        )

    def to_dict(self) -> dict:
        return {
            "waveform_name": self.waveform_name,
            "signals": list(self.signals),
            "timing_relationship": self.timing_relationship,
            "causal_dependencies": self.causal_dependencies,
            "state_transitions": self.state_transitions,
            "protocol_mechanisms": self.protocol_mechanisms,
            "additional_observations": self.additional_observations,
        }


@dataclass
class InformationBank:
    design_name: str
    workflow_info: str = ""
    signals: list[SignalInfo] = field(default_factory=list)
    waveforms: list[WaveformSummary] = field(default_factory=list)

    def signal(self, verilog_name: str) -> SignalInfo:
        for s in self.signals:
            if s.verilog_name == verilog_name:
                return s
        raise KeyError(f"signal {verilog_name!r} not in bank")

    def validate(self) -> list[str]:
        """Enforce hard invariants; returns soft warnings (dangling refs)."""
        seen: set[str] = set()
        for i, s in enumerate(self.signals):
            if not s.verilog_name:
                raise BankLoadError(f"signals[{i}].verilog_name: must be non-empty")
            # the name becomes a directory under output_dir
            if s.verilog_name in (".", "..") or any(c in s.verilog_name for c in "/\\"):
                raise BankLoadError(
                    f"signals[{i}].verilog_name: {s.verilog_name!r} is not a file name"
                )
            if s.verilog_name in seen:
                raise BankLoadError(
                    f"signals[{i}].verilog_name: duplicate {s.verilog_name!r}"
                )
            seen.add(s.verilog_name)
        known = seen | {s.spec_name for s in self.signals if s.spec_name}
        warnings = []
        for s in self.signals:
            for ref in s.related_signals:
                if ref not in known:
                    warnings.append(
                        f"signal {s.verilog_name!r} references unknown signal {ref!r}"
                    )
        return warnings

    def to_dict(self) -> dict:
        return {
            "design_name": self.design_name,
            "workflow_info": self.workflow_info,
            "signals": [s.to_dict() for s in self.signals],
            "waveforms": [w.to_dict() for w in self.waveforms],
        }


# --------------------------------------------------------------------------
# Parsing of agent replies. All of it is forgiving: section-header anchored
# and order-insensitive, because model formatting drifts.

_MAPPING_LINE_RE = re.compile(
    r"^\s*(?:[-*\u2022]\s*)?\[?([A-Za-z_][A-Za-z0-9_$]*)\]?\s*:\s*(\S.*)$"
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")
_COMMENT_OR_STRING_RE = re.compile(
    r'"(?:\\.|[^"\\])*"|//[^\n]*|/\*.*?\*/', re.DOTALL
)

_SIGNAL_SECTIONS = {
    "signal name": "spec_name",
    "description": "description",
    "definition": "definition",
    "functionality": "functionality",
    "interconnection": "interconnection",
    "additional information": "additional_info",
    "related signals": "related_signals",
}

_WAVEFORM_SECTIONS = {
    "waveform name": "waveform_name",
    "signals": "signals",
    "timing relationship": "timing_relationship",
    "causal dependencies": "causal_dependencies",
    "state transitions": "state_transitions",
    "protocol/handshaking mechanisms": "protocol_mechanisms",
    "additional observations": "additional_observations",
}

_SECTION_RE = re.compile(r"\[([^\[\]]+)\]\s*[:;]?", re.IGNORECASE)


def identifier_names(verilog_text: str) -> set[str]:
    """All identifier tokens in a Verilog source, comments/strings stripped."""
    cleaned = _COMMENT_OR_STRING_RE.sub(" ", verilog_text)
    return set(_IDENT_RE.findall(cleaned))


def _split_sections(text: str, section_map: dict[str, str]) -> dict[str, str]:
    """Slice `text` at known [Section] headers; values are the trailing text
    up to the next known header."""
    found: list[tuple[int, int, str]] = []
    for m in _SECTION_RE.finditer(text):
        key = m.group(1).strip().lower()
        if key in section_map:
            found.append((m.start(), m.end(), section_map[key]))
    out: dict[str, str] = {}
    for i, (_, body_start, name) in enumerate(found):
        body_end = found[i + 1][0] if i + 1 < len(found) else len(text)
        out[name] = text[body_start:body_end].strip()
    return out


def _split_names(text: str) -> list[str]:
    return [t for t in re.split(r"[,\s]+", text) if _IDENT_RE.fullmatch(t)]


def map_signals(
    backend: ChatBackend,
    spec_text: str,
    verilog_decls: str,
    templates: dict[str, PromptTemplate] | None = None,
) -> tuple[list[tuple[str, str]], list[str]]:
    """Run the signal-mapping agent; returns ((verilog_name, description)
    pairs, warnings).

    Mapping lines the model emits for names that do not occur as identifiers
    in the Verilog text are dropped with a warning; prose lines are ignored.
    Raises StageError when nothing parses.
    """
    if not spec_text.strip() or not verilog_decls.strip():
        raise StageError("signal mapping needs non-empty specification and Verilog inputs")
    templates = templates or DEFAULT_TEMPLATES
    messages = render_prompt(
        templates["signal_mapper"],
        {"specification_text": spec_text, "verilog_declarations": verilog_decls},
    )
    reply = backend.complete(messages)
    known = identifier_names(verilog_decls)
    pairs: list[tuple[str, str]] = []
    warnings: list[str] = []
    seen: set[str] = set()
    for line in reply.splitlines():
        m = _MAPPING_LINE_RE.match(line)
        if not m:
            if ":" in line and line.strip():
                warnings.append(f"unparseable mapping line: {line.strip()!r}")
            continue
        name, description = m.group(1), m.group(2).strip()
        if name not in known:
            warnings.append(f"mapped signal {name!r} not found in Verilog declarations")
            continue
        if name in seen:
            warnings.append(f"duplicate mapping for {name!r} ignored")
            continue
        seen.add(name)
        pairs.append((name, description))
    if not pairs:
        raise StageError("signal mapper produced no usable signal mappings")
    return pairs, warnings


def analyze_signal(
    backend: ChatBackend,
    spec_text: str,
    signal_name: str,
    templates: dict[str, PromptTemplate] | None = None,
) -> SignalInfo:
    """Run the specification analyzer for one mapped signal."""
    templates = templates or DEFAULT_TEMPLATES
    messages = render_prompt(
        templates["spec_analyzer"],
        {"specification_text": spec_text, "signal_name": signal_name},
    )
    reply = backend.complete(messages)
    if signal_name not in reply:
        raise StageError(
            f"spec analyzer reply does not mention signal {signal_name!r}"
        )
    sections = _split_sections(reply, _SIGNAL_SECTIONS)
    return SignalInfo(
        verilog_name=signal_name,
        spec_name=sections.get("spec_name", signal_name) or signal_name,
        description=sections.get("description", ""),
        definition=sections.get("definition", ""),
        functionality=sections.get("functionality", ""),
        interconnection=sections.get("interconnection", ""),
        additional_info=sections.get("additional_info", ""),
        related_signals=_split_names(sections.get("related_signals", "")),
    )


def analyze_waveform(
    backend: ChatBackend,
    spec_text: str,
    waveform_ref: str,
    templates: dict[str, PromptTemplate] | None = None,
) -> tuple[WaveformSummary | None, list[str]]:
    """Run the waveform analyzer on one textual waveform description.

    Waveforms are optional context: an unparseable reply is skipped with a
    warning instead of failing the stage.
    """
    templates = templates or DEFAULT_TEMPLATES
    messages = render_prompt(
        templates["waveform_analyzer"],
        {"specification_text": spec_text, "waveform_text": waveform_ref},
    )
    reply = backend.complete(messages)
    sections = _split_sections(reply, _WAVEFORM_SECTIONS)
    signals = _split_names(sections.get("signals", ""))
    if not signals:
        return None, [
            f"waveform analysis skipped: no signals parsed from reply for {waveform_ref[:40]!r}"
        ]
    summary = WaveformSummary(
        waveform_name=sections.get("waveform_name", "").splitlines()[0].strip()
        if sections.get("waveform_name")
        else "unnamed",
        signals=signals,
        timing_relationship=sections.get("timing_relationship", ""),
        causal_dependencies=sections.get("causal_dependencies", ""),
        state_transitions=sections.get("state_transitions", ""),
        protocol_mechanisms=sections.get("protocol_mechanisms", ""),
        additional_observations=sections.get("additional_observations", ""),
    )
    return summary, []


def build_workflow_info(
    mapping_pairs: list[tuple[str, str]],
    waveforms: list[WaveformSummary],
    design_summary: str = "",
) -> str:
    """Combine mapping table, waveform analyses and design summary into the
    workflow text every downstream prompt receives."""
    parts = ["[Signal Mapping]"]
    parts += [f"{name}: {desc}" for name, desc in mapping_pairs]
    for w in waveforms:
        parts.append("")
        parts.append(w.describe())
    if design_summary:
        parts += ["", "[Design Summary]", design_summary]
    return "\n".join(parts)


# --------------------------------------------------------------------------
# Persistence


def _require(d: dict, key: str, kind: type, path: str):
    if key not in d:
        raise BankLoadError(f"{path}.{key}: missing")
    value = d[key]
    if not isinstance(value, kind):
        raise BankLoadError(f"{path}.{key}: expected {kind.__name__}")
    return value


def bank_from_dict(d: dict) -> InformationBank:
    design_name = _require(d, "design_name", str, "bank")
    workflow_info = _require(d, "workflow_info", str, "bank")
    signals_raw = _require(d, "signals", list, "bank")
    waveforms_raw = _require(d, "waveforms", list, "bank")
    signals = []
    for i, s in enumerate(signals_raw):
        path = f"signals[{i}]"
        if not isinstance(s, dict):
            raise BankLoadError(f"{path}: expected object")
        signals.append(
            SignalInfo(
                verilog_name=_require(s, "verilog_name", str, path),
                spec_name=_require(s, "spec_name", str, path),
                description=_require(s, "description", str, path),
                definition=_require(s, "definition", str, path),
                functionality=_require(s, "functionality", str, path),
                interconnection=_require(s, "interconnection", str, path),
                additional_info=_require(s, "additional_info", str, path),
                related_signals=[str(r) for r in _require(s, "related_signals", list, path)],
            )
        )
    waveforms = []
    for i, w in enumerate(waveforms_raw):
        path = f"waveforms[{i}]"
        if not isinstance(w, dict):
            raise BankLoadError(f"{path}: expected object")
        waveforms.append(
            WaveformSummary(
                waveform_name=_require(w, "waveform_name", str, path),
                signals=[str(x) for x in _require(w, "signals", list, path)],
                timing_relationship=_require(w, "timing_relationship", str, path),
                causal_dependencies=_require(w, "causal_dependencies", str, path),
                state_transitions=_require(w, "state_transitions", str, path),
                protocol_mechanisms=_require(w, "protocol_mechanisms", str, path),
                additional_observations=_require(w, "additional_observations", str, path),
            )
        )
    bank = InformationBank(
        design_name=design_name,
        workflow_info=workflow_info,
        signals=signals,
        waveforms=waveforms,
    )
    bank.validate()
    return bank


def save_bank(bank: InformationBank, path: str) -> None:
    bank.validate()
    with open(path, "w", encoding="utf-8") as f:
        json.dump(bank.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def load_bank(path: str) -> InformationBank:
    try:
        raw = json.loads(read_text(path, "bank", BankLoadError))
    except json.JSONDecodeError as err:
        raise BankLoadError(f"bank: invalid JSON ({err})") from err
    if not isinstance(raw, dict):
        raise BankLoadError("bank: expected a JSON object")
    return bank_from_dict(raw)
