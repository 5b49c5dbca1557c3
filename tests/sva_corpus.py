"""Corpus of subset-grammar assertions used by the parser round-trip and
mutation-sensitivity suites (and the acceptance gate)."""

# The timer-interrupt assertion exercised throughout: property declaration,
# posedge clocking, active-low disable, comparison, indexing, implication.
TIMER_INTERRUPT_ASSERTION = """\
property mtime_intr_p;
  @(posedge clk_i) disable iff (!rst_ni)
  (mtime >= mtimecmp[0]) |-> intr[0];
endproperty
assert property (mtime_intr_p);"""

CORPUS = [
    TIMER_INTERRUPT_ASSERTION,
    "assert property (@(posedge clk) req |-> ack);",
    "assert property (@(posedge clk) disable iff (rst) req |-> ##1 ack);",
    """\
property p_stable_cfg;
  @(posedge clk_i) disable iff (!rst_n)
  !en |-> $stable(cfg_q);
endproperty
assert property (p_stable_cfg);""",
    "assert property (@(posedge clk) $rose(start) |-> ##[1:3] busy);",
    "assert property (@(posedge clk) a && b |-> c or d);",
    """\
property p_chain;
  @(posedge clk)
  a ##1 b ##2 c |-> d;
endproperty
assert property (p_chain);""",
    "assert property (@(posedge clk) valid |=> ready);",
    "assert property (@(negedge clk) (cnt == 4'd15) |-> wrap);",
    """\
property p_burst;
  @(posedge clk) disable iff (rst)
  start |-> busy[*3] ##1 done;
endproperty
assert property (p_burst);""",
    "assert property (@(posedge clk) $fell(busy) |-> done);",
    "assert property (@(posedge clk) (state != 2'b11) |-> err_clear);",
    """\
property p_past_data;
  @(posedge clk)
  en |-> (data_q == $past(data_d, 1));
endproperty
assert property (p_past_data);""",
    "assert property (@(posedge clk) $onehot(sel) |-> grant);",
    "assert property (@(posedge clk) req |-> ##[0:$] ack);",
    """\
property p_addr_window;
  @(posedge clk)
  (addr >= 8'h10) && (addr <= 8'h1F) |-> cs;
endproperty
assert property (p_addr_window);""",
    "assert property (@(posedge clk) not (gnt0 && gnt1));",
    "mutex_check: assert property (@(posedge clk) x |-> y);",
    "assert property (@(posedge clk) fifo_cnt <= 5'd16);",
    """\
property p_hold_two;
  @(posedge clk) disable iff (clr)
  set |-> q[*2];
endproperty
assert property (p_hold_two);""",
    "assert property (@(posedge clk) ((a | b) != 2'b00) |-> go);",
    "assert property (@(posedge clk) vec[3] |-> vec[0]);",
    "assert property (@(posedge clk) bus[7:4] == bus[3:0] |-> sym);",
    """\
property p_concat_match;
  @(posedge clk)
  ({hi, lo} == 16'hBEEF) |-> match;
endproperty
assert property (p_concat_match);""",
    "assert property (@(posedge clk) mode == 2'b01 ? fast : slow);",
    "assert property (@(posedge clk) ack |-> $past(req));",
    """\
property p_step_window;
  @(posedge clk)
  start ##1 (step[*1:4]) ##1 stop |-> idle;
endproperty
assert property (p_step_window);""",
    'assert property (@(posedge clk) err |-> intr) else $error("interrupt missing");',
    "assert property (@(posedge clk) !rst_n |-> (out_q == '0));",
    """\
property p_commit;
  @(posedge clk)
  (req && !stall) |=> ##1 commit;
endproperty
assert property (p_commit);""",
]

assert len(CORPUS) == 30

# ROADMAP item 3's probes, by the IEEE 1800-2017 §16 construct each holds.
# The built-in checker passes each level false accept, none of which is
# legal SVA: a property or a sequence as a boolean operand, a bare `$`, a
# sequence repeated without parentheses.
LEVEL_FALSE_ACCEPTS = {
    "property-as-boolean": "assert property (@(posedge clk) (a |-> b) && c);",
    "property-in-comparison": "assert property (@(posedge clk) a == (b |-> c));",
    "sequence-as-boolean": "assert property (@(posedge clk) $past(a) == a[*2]);",
    "bare-dollar": "assert property (@(posedge clk) $);",
    "repeated-repetition": "assert property (@(posedge clk) a[*2][*3]);",
}

# It rejects each of these legal constructs, and accepts the known-good
# forms beside them.
FALSE_REJECTS = {
    "goto-repetition": "assert property (@(posedge clk) req |-> ##1 ack[->1]);",
    "nonconsecutive-repetition": "assert property (@(posedge clk) req |-> ##1 ack[=2]);",
    "throughout": "assert property (@(posedge clk) req |-> busy throughout (##[1:3] ack));",
    "within": "assert property (@(posedge clk) req |-> (a ##1 b) within (c ##[1:5] d));",
    "intersect": "assert property (@(posedge clk) req |-> (a ##[1:3] b) intersect (c ##2 d));",
    "until": "assert property (@(posedge clk) req |-> busy until ack);",
    "s_until_with": "assert property (@(posedge clk) req |-> busy s_until_with ack);",
    "implies": "assert property (@(posedge clk) (req |-> ack) implies (gnt |-> done));",
    "iff": "assert property (@(posedge clk) (req |-> ack) iff (gnt |-> done));",
    "always": "assert property (@(posedge clk) req |-> always ack);",
    "s_eventually": "assert property (@(posedge clk) req |-> s_eventually ack);",
    "nexttime": "assert property (@(posedge clk) req |-> nexttime ack);",
    "inside": "assert property (@(posedge clk) valid |-> state inside {1, 2});",
    "first_match": "assert property (@(posedge clk) first_match(req ##[1:3] gnt) |-> ack);",
    "strong": "assert property (@(posedge clk) req |-> strong(##[1:$] ack));",
    "sync_accept_on": "assert property (@(posedge clk) sync_accept_on (flush) req |-> ##1 ack);",
    "if-else": "assert property (@(posedge clk) mode |-> if (fast) ack else ##2 ack);",
    "sequence-declaration": """\
sequence s_req;
  req ##1 gnt;
endsequence
assert property (@(posedge clk) s_req |-> ack);""",
    "property-ports": """\
property p_resp(a, b);
  @(posedge clk) a |-> ##1 b;
endproperty
assert property (p_resp(req, ack));""",
    "triggered": "assert property (@(posedge clk) s_req.triggered |-> ack);",
    "local-variable": """\
property p_data;
  logic [7:0] v;
  @(posedge clk) (valid, v = data) |-> ##1 (out == v);
endproperty
assert property (p_data);""",
    "multi-clock": "assert property (@(posedge clk) req |=> @(posedge clk2) ack);",
}
KNOWN_GOOD = {
    "disable-unbounded-part-select": "assert property (@(posedge clk) disable iff (!rst_n) req |-> ##[0:$] data[7:4] == 4'h0);",
    "past-onehot0": "assert property (@(posedge clk) $past(sel) |-> $onehot0(grant));",
}
