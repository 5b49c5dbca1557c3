"""Information-bank tests: analyzer reply parsing, construction rules, and
persistence round-trips."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svagen.backends import ScriptedBackend
from svagen.bank import (
    BankLoadError,
    InformationBank,
    SignalInfo,
    StageError,
    WaveformSummary,
    analyze_signal,
    analyze_waveform,
    analyzer_call,
    identifier_names,
    load_bank,
    map_signals,
    save_bank,
)
from svagen.prompts import CallLog

SPEC_TEXT = "The ack_o output acknowledges a request. The req_i input starts one."
VERILOG_DECLS = """\
module demo (
  input  wire clk_i,     // system clock
  input  wire req_i,
  output reg  ack_o
);
reg [7:0] cfg_q;
endmodule
"""


class TestIdentifierNames:
    def test_declarations_scanned(self):
        names = identifier_names(VERILOG_DECLS)
        assert {"clk_i", "req_i", "ack_o", "cfg_q"} <= names

    def test_comments_ignored(self):
        assert "system" not in identifier_names("wire a; // system clock")

    def test_based_numbers_and_system_names_are_not_names(self):
        names = identifier_names(
            "wire [7:0] a = 8'hFF;\nreg b = 1'b0;\nwire [3:0] c = 4'd10;\ninitial $display(a);\n"
        )
        assert {"a", "b", "c", "wire", "reg", "initial"} <= names
        assert not names & {"hFF", "b0", "d10", "display"}

    def test_spaced_sized_literal_is_not_names(self):
        names = identifier_names("localparam [7:0] ONES = 8'h FF;\nwire [4:0] d = 5 'D 3;\n")
        assert {"localparam", "ONES", "d"} <= names
        assert not names & {"h", "FF", "D"}

    @pytest.mark.parametrize("opener", ['"', "/*"])
    def test_names_after_an_unterminated_string_or_comment_found(self, opener):
        names = identifier_names(f"wire a; initial $display({opener}open\nreg late_q;\n")
        assert {"a", "late_q"} <= names


class TestMapSignals:
    def test_three_mapped(self):
        reply = "[clk_i]: system clock\n[req_i]: request strobe\nack_o: acknowledge"
        backend = ScriptedBackend.from_responses([reply])
        pairs, warnings = map_signals(CallLog("s", backend), SPEC_TEXT, VERILOG_DECLS)
        assert pairs == [
            ("clk_i", "system clock"),
            ("req_i", "request strobe"),
            ("ack_o", "acknowledge"),
        ]
        assert warnings == []

    def test_unknown_signal_dropped_with_warning(self):
        reply = "[clk_i]: clock\n[ghost_sig]: not in the verilog"
        backend = ScriptedBackend.from_responses([reply])
        pairs, warnings = map_signals(CallLog("s", backend), SPEC_TEXT, VERILOG_DECLS)
        assert pairs == [("clk_i", "clock")]
        assert any("ghost_sig" in w for w in warnings)

    def test_based_number_digits_dropped_with_warning(self):
        reply = "ack_o: acknowledge\nhFF: all ones"
        backend = ScriptedBackend.from_responses([reply])
        decls = VERILOG_DECLS + "localparam [7:0] ONES = 8'hFF;\n"
        pairs, warnings = map_signals(CallLog("s", backend), SPEC_TEXT, decls)
        assert pairs == [("ack_o", "acknowledge")]
        assert warnings == ["mapped signal 'hFF' not found in Verilog declarations"]

    def test_numbered_line_warned_as_unparseable(self):
        reply = "ack_o: acknowledge\n1. foo: bar"
        backend = ScriptedBackend.from_responses([reply])
        pairs, warnings = map_signals(CallLog("s", backend), SPEC_TEXT, VERILOG_DECLS)
        assert pairs == [("ack_o", "acknowledge")]
        assert warnings == ["unparseable mapping line: '1. foo: bar'"]

    def test_prose_only_is_stage_error(self):
        backend = ScriptedBackend.from_responses(["I could not find any signals."])
        with pytest.raises(StageError):
            map_signals(CallLog("s", backend), SPEC_TEXT, VERILOG_DECLS)

    def test_empty_inputs_rejected(self):
        backend = ScriptedBackend.from_responses(["x: y"])
        with pytest.raises(StageError):
            map_signals(CallLog("s", backend), "", VERILOG_DECLS)

    def test_duplicate_mapping_ignored(self):
        reply = "clk_i: clock\nclk_i: clock again"
        backend = ScriptedBackend.from_responses([reply])
        pairs, warnings = map_signals(CallLog("s", backend), SPEC_TEXT, VERILOG_DECLS)
        assert len(pairs) == 1
        assert any("duplicate" in w for w in warnings)


FULL_ANALYSIS = """\
[Signal Name]: ack_o
[Description]: acknowledge output of the handshake
[Definition]: 1-bit registered output
[Functionality]: raised one cycle after req_i is sampled high
[Interconnection]: feeds the bus bridge ready logic
[Additional Information]: deasserts when req_i drops
[Related Signals]: req_i, clk_i
"""


class TestAnalyzeSignal:
    def test_full_format(self):
        info = analyze_signal(FULL_ANALYSIS, "ack_o")
        assert info.verilog_name == "ack_o"
        assert info.spec_name == "ack_o"
        assert "acknowledge output" in info.description
        assert "1-bit registered" in info.definition
        assert "one cycle after" in info.functionality
        assert info.related_signals == ["req_i", "clk_i"]

    def test_missing_optional_section_empty(self):
        reply = "[Signal Name]: ack_o\n[Description]: ack\n[Definition]: 1-bit"
        info = analyze_signal(reply, "ack_o")
        assert info.additional_info == ""
        assert info.functionality == ""

    def test_reply_without_signal_name_is_stage_error(self):
        with pytest.raises(StageError):
            analyze_signal("nothing about your signal here", "ack_o")

    def test_order_insensitive(self):
        reply = "[Functionality]: f\n[Signal Name]: ack_o\n[Description]: d"
        info = analyze_signal(reply, "ack_o")
        assert info.functionality == "f" and info.description == "d"

    def test_twenty_three_signals(self):
        names = [f"sig_{i}" for i in range(23)]
        replies = [f"[Signal Name]: {n}\n[Description]: d{n}" for n in names]
        log = CallLog("s", ScriptedBackend.from_responses(replies))
        calls = [analyzer_call(log, "spec_analyzer", SPEC_TEXT, signal_name=n) for n in names]
        infos = [analyze_signal(r, n) for r, n in zip(log.complete_many(calls, 1), names)]
        assert len(infos) == 23
        assert [i.verilog_name for i in infos] == names


WAVEFORM_REPLY = """\
[Waveform Name]: handshake timing
[Signals]: req_i, ack_o, clk_i
[Interdependence Analysis]:
[Timing Relationship]: ack_o follows req_i by one clk_i cycle
[Causal Dependencies]: req_i triggers ack_o
[State Transitions]: idle to busy on req_i
[Protocol/Handshaking Mechanisms]: two-phase request-acknowledge
[Additional Observations]: none
"""


class TestAnalyzeWaveform:
    def test_full_sections(self):
        summary, warnings = analyze_waveform(WAVEFORM_REPLY, "figure 3 text")
        assert warnings == []
        assert summary.waveform_name == "handshake timing"
        assert summary.signals == ["req_i", "ack_o", "clk_i"]
        assert "one clk_i cycle" in summary.timing_relationship
        assert "request-acknowledge" in summary.protocol_mechanisms

    def test_malformed_skipped_with_warning(self):
        summary, warnings = analyze_waveform("no structure at all", "figure 3 text")
        assert summary is None
        assert len(warnings) == 1


class TestDescribe:
    """The prompt excerpts use the same section headers the analyzers parse."""

    def test_signal_leaves_out_empty_sections(self):
        info = SignalInfo("ack_o", description="d", additional_info="x", related_signals=["req_i", "clk"])
        assert info.describe() == (
            "[Signal Name]: ack_o\n[Verilog Name]: ack_o\n[Description]: d\n"
            "[Additional Information]: x\n[Related Signals]: req_i, clk"
        )
        assert SignalInfo("ack_o", spec_name="ACK").describe() == "[Signal Name]: ACK\n[Verilog Name]: ack_o"

    def test_waveform_keeps_every_section(self):
        summary = WaveformSummary("hs", ["req_i", "ack_o"], timing_relationship="t")
        assert summary.describe() == (
            "[Waveform Name]: hs\n[Signals]: req_i, ack_o\n[Timing Relationship]: t\n"
            "[Causal Dependencies]: \n[State Transitions]: \n"
            "[Protocol/Handshaking Mechanisms]: \n[Additional Observations]: "
        )


class TestBankValidation:
    def test_duplicate_verilog_name_rejected(self):
        bank = InformationBank(
            design_name="d",
            signals=[SignalInfo(verilog_name="a"), SignalInfo(verilog_name="a")],
        )
        with pytest.raises(BankLoadError):
            bank.validate()

    def test_dangling_related_signal_warns(self):
        bank = InformationBank(
            design_name="d",
            signals=[SignalInfo(verilog_name="a", related_signals=["missing"])],
        )
        warnings = bank.validate()
        assert any("missing" in w for w in warnings)

    def test_empty_waveforms_is_valid(self):
        bank = InformationBank(design_name="d", signals=[SignalInfo(verilog_name="a")])
        assert bank.validate() == []
        assert bank.waveforms == []


class TestPersistence:
    def _bank(self) -> InformationBank:
        return InformationBank(
            design_name="demo",
            workflow_info="[Signal Mapping]\nack_o: ack",
            signals=[
                SignalInfo(
                    verilog_name="ack_o",
                    spec_name="ACK",
                    description="d",
                    definition="1-bit",
                    functionality="f",
                    interconnection="i",
                    additional_info="x",
                    related_signals=["req_i"],
                ),
                SignalInfo(verilog_name="req_i"),
            ],
            waveforms=[
                WaveformSummary(
                    waveform_name="w",
                    signals=["ack_o"],
                    timing_relationship="t",
                )
            ],
        )

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "bank.json")
        bank = self._bank()
        save_bank(bank, path)
        loaded = load_bank(path)
        assert asdict(loaded) == asdict(bank)

    def test_missing_field_names_path(self, tmp_path):
        path = str(tmp_path / "bank.json")
        bank_dict = asdict(self._bank())
        del bank_dict["signals"][0]["verilog_name"]
        with open(path, "w") as f:
            json.dump(bank_dict, f)
        with pytest.raises(BankLoadError) as err:
            load_bank(path)
        assert "signals[0].verilog_name" in str(err.value)

    def test_duplicate_name_fails_load(self, tmp_path):
        path = str(tmp_path / "bank.json")
        bank_dict = asdict(self._bank())
        bank_dict["signals"][1]["verilog_name"] = "ack_o"
        with open(path, "w") as f:
            json.dump(bank_dict, f)
        with pytest.raises(BankLoadError):
            load_bank(path)

    def test_empty_name_fails_load(self, tmp_path):
        path = str(tmp_path / "bank.json")
        bank_dict = asdict(self._bank())
        bank_dict["signals"][1]["verilog_name"] = ""
        with open(path, "w") as f:
            json.dump(bank_dict, f)
        with pytest.raises(BankLoadError, match=r"signals\[1\]\.verilog_name: must be non-empty"):
            load_bank(path)

    @pytest.mark.parametrize("name", ["../../escape", "a/b", "a\\b", ".", "..", "a\x00b", "ack o"])
    def test_path_like_name_fails_load(self, tmp_path, name):
        path = str(tmp_path / "bank.json")
        bank_dict = asdict(self._bank())
        bank_dict["signals"][0]["verilog_name"] = name
        with open(path, "w") as f:
            json.dump(bank_dict, f)
        with pytest.raises(BankLoadError, match=r"signals\[0\]\.verilog_name: .* is not a Verilog identifier"):
            load_bank(path)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda b: b["signals"][0].update(related_signals=[1]),
             r"signals\[0\]\.related_signals\[0\] must be a string"),
            (lambda b: b["waveforms"][0].update(signals="ack_o"),
             r"waveforms\[0\]\.signals must be a list"),
            (lambda b: b["signals"][1].update(notes="x"), r"unknown key signals\[1\]\.notes"),
            (lambda b: b.update(version=2), r"unknown key version"),
        ],
    )
    def test_wrong_type_or_unknown_key_fails_load(self, tmp_path, change, message):
        path = str(tmp_path / "bank.json")
        bank_dict = asdict(self._bank())
        change(bank_dict)
        with open(path, "w") as f:
            json.dump(bank_dict, f)
        with pytest.raises(BankLoadError, match=message):
            load_bank(path)

    def test_fields_with_defaults_may_be_omitted(self, tmp_path):
        path = str(tmp_path / "bank.json")
        with open(path, "w") as f:
            json.dump({"design_name": "d", "signals": [{"verilog_name": "ack_o"}]}, f)
        assert load_bank(path) == InformationBank("d", signals=[SignalInfo("ack_o")])

    def test_invalid_json(self, tmp_path):
        path = str(tmp_path / "bank.json")
        with open(path, "w") as f:
            f.write("{nope")
        with pytest.raises(BankLoadError):
            load_bank(path)


_names = st.lists(
    st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True), min_size=1, max_size=6, unique=True
)
_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40
)


@given(names=_names, texts=st.lists(_text, min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_round_trip_property(tmp_path_factory, names, texts):
    bank = InformationBank(
        design_name=texts[0] or "d",
        workflow_info=texts[1],
        signals=[
            SignalInfo(
                verilog_name=name,
                spec_name=texts[2],
                description=texts[3],
                functionality=texts[4],
                additional_info=texts[5],
                related_signals=names[:1],
            )
            for name in names
        ],
    )
    path = str(tmp_path_factory.mktemp("banks") / "bank.json")
    save_bank(bank, path)
    assert asdict(load_bank(path)) == asdict(bank)
