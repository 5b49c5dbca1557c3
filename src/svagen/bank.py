"""Signal-wise information bank: the per-signal knowledge base built in
stage 1 and consumed by the search and combination stages.

Construction goes through three analyzer agents (signal mapping, per-signal
specification analysis, waveform interdependence analysis); the mapper
makes its own call, and each analysis is a call to send plus a parser for
its reply, so stage 1 can send the analyses as one batch. Persistence is a
JSON document that round-trips exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from svagen.prompts import Call, CallLog, render_prompt
from svagen.records import dumps, encode, load
from svagen.sva.tokens import scan_through

# A Verilog simple identifier: the names the signal mapper accepts, and so
# the names a bank may hold (each one names a record, signals/<name>.json)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


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
        """Bank entry rendered as the per-signal prompt excerpt; empty
        sections are left out."""
        head = [f"[Signal Name]: {self.spec_name or self.verilog_name}"]
        head.append(f"[Verilog Name]: {self.verilog_name}")
        return "\n".join(head + _render_sections(self, _SIGNAL_SECTIONS[1:], keep_empty=False))


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
        return "\n".join(_render_sections(self, _WAVEFORM_SECTIONS, keep_empty=True))


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
            if not _IDENT_RE.fullmatch(s.verilog_name):
                raise BankLoadError(
                    f"signals[{i}].verilog_name: {s.verilog_name!r} is not a Verilog identifier"
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


# --------------------------------------------------------------------------
# Parsing of agent replies. All of it is forgiving: section-header anchored
# and order-insensitive, because model formatting drifts.

_MAPPING_LINE_RE = re.compile(rf"^\s*(?:[-*\u2022]\s*)?\[?({_IDENT_RE.pattern})\]?\s*:\s*(\S.*)$")

# The [Header] sections of an analyzer reply, in the order a bank entry is
# rendered, with the field each one fills
_SIGNAL_SECTIONS = (
    ("Signal Name", "spec_name"),
    ("Description", "description"),
    ("Definition", "definition"),
    ("Functionality", "functionality"),
    ("Interconnection", "interconnection"),
    ("Additional Information", "additional_info"),
    ("Related Signals", "related_signals"),
)

_WAVEFORM_SECTIONS = (
    ("Waveform Name", "waveform_name"),
    ("Signals", "signals"),
    ("Timing Relationship", "timing_relationship"),
    ("Causal Dependencies", "causal_dependencies"),
    ("State Transitions", "state_transitions"),
    ("Protocol/Handshaking Mechanisms", "protocol_mechanisms"),
    ("Additional Observations", "additional_observations"),
)

_SECTION_RE = re.compile(r"\[([^\[\]]+)\]\s*[:;]?", re.IGNORECASE)


def identifier_names(verilog_text: str) -> set[str]:
    """The identifier and keyword tokens of a Verilog source, lexed as the
    checker lexes it, through any unterminated comment or string: no word
    of a comment or a string, no `hFF` of `8'hFF`, no `display` of `$display`."""
    tokens = scan_through(verilog_text)
    return {text for kind, text, _ in tokens if kind == "identifier" or kind == "keyword"}


def _render_sections(record, sections: tuple, keep_empty: bool) -> list[str]:
    """`[Header]: value` lines of `record`'s fields, a list joined by commas."""
    lines = []
    for header, name in sections:
        value = getattr(record, name)
        if value or keep_empty:
            lines.append(f"[{header}]: {', '.join(value) if isinstance(value, list) else value}")
    return lines


def _split_sections(text: str, sections: tuple) -> dict[str, str]:
    """Slice `text` at known [Section] headers, matched in any case; values
    are the trailing text up to the next known header."""
    fields = {header.lower(): name for header, name in sections}
    found: list[tuple[int, int, str]] = []
    for m in _SECTION_RE.finditer(text):
        key = m.group(1).strip().lower()
        if key in fields:
            found.append((m.start(), m.end(), fields[key]))
    out: dict[str, str] = {}
    for i, (_, body_start, name) in enumerate(found):
        body_end = found[i + 1][0] if i + 1 < len(found) else len(text)
        out[name] = text[body_start:body_end].strip()
    return out


def _split_names(text: str) -> list[str]:
    return [t for t in re.split(r"[,\s]+", text) if _IDENT_RE.fullmatch(t)]


def analyzer_call(log: CallLog, key: str, spec_text: str, **context: str) -> Call:
    """Render `log`'s stage-1 template `key` (the signal mapper, the spec
    analyzer or the waveform analyzer) with the specification and
    `context`, as the `(role, messages)` call `log` sends."""
    template = log.templates[key]
    return template.role_name, render_prompt(template, {"specification_text": spec_text, **context})


def map_signals(
    log: CallLog, spec_text: str, verilog_decls: str
) -> tuple[list[tuple[str, str]], list[str]]:
    """Run the signal-mapping agent; returns ((verilog_name, description)
    pairs, warnings).

    Mapping lines the model emits for names that do not occur as identifiers
    in the Verilog text are dropped with a warning; prose lines are ignored.
    Raises StageError when nothing parses.
    """
    if not spec_text.strip() or not verilog_decls.strip():
        raise StageError("signal mapping needs non-empty specification and Verilog inputs")
    call = analyzer_call(log, "signal_mapper", spec_text, verilog_declarations=verilog_decls)
    reply = log.complete(*call)
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


def analyze_signal(reply: str, signal_name: str) -> SignalInfo:
    """Parse the specification analyzer's reply for one mapped signal."""
    if signal_name not in reply:
        raise StageError(
            f"spec analyzer reply does not mention signal {signal_name!r}"
        )
    sections = _split_sections(reply, _SIGNAL_SECTIONS)
    sections["spec_name"] = sections.get("spec_name") or signal_name
    sections["related_signals"] = _split_names(sections.get("related_signals", ""))
    return SignalInfo(verilog_name=signal_name, **sections)


def analyze_waveform(reply: str, waveform_ref: str) -> tuple[WaveformSummary | None, list[str]]:
    """Parse the waveform analyzer's reply for one waveform description.

    Waveforms are optional context: an unparseable reply is skipped with a
    warning instead of failing the stage.
    """
    sections = _split_sections(reply, _WAVEFORM_SECTIONS)
    signals = _split_names(sections.get("signals", ""))
    if not signals:
        return None, [
            f"waveform analysis skipped: no signals parsed from reply for {waveform_ref[:40]!r}"
        ]
    name = sections.get("waveform_name")
    sections["waveform_name"] = name.splitlines()[0].strip() if name else "unnamed"
    sections["signals"] = signals
    return WaveformSummary(**sections), []


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


def save_bank(bank: InformationBank, path: str) -> None:
    bank.validate()
    text = dumps(encode(bank))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_bank(path: str) -> InformationBank:
    """BankLoadError naming the file and the field when `path` does not
    hold a valid bank."""
    return load(InformationBank, path, "bank", BankLoadError, _validated)


def _validated(bank: InformationBank) -> InformationBank:
    bank.validate()
    return bank
