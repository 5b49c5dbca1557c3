"""Reasoning-tree unit and property tests.

Expected UCT/backprop numbers were computed with an independent one-line
evaluation of the formulas before the tree code existed; the property tests
re-derive them with local oracles rather than trusting the implementation.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svagen.records import dumps, encode, loads
from svagen.tree import (
    SCORE_MAX,
    SCORE_MIN,
    AnswerContent,
    ReasoningNode,
    ReasoningTree,
    SearchParams,
    TreeError,
    TreeRecord,
    compute_uct,
)

from conftest import MALFORMED_TREES, tree_dump


def dump(tree: ReasoningTree) -> str:
    """The tree's JSON text, as a signal record's `tree` field holds it."""
    return dumps(encode(tree.record()))


def undump(text: str) -> ReasoningTree:
    """The tree `text` holds, through `from_record`'s validation."""
    return ReasoningTree.from_record(loads(TreeRecord, text, TreeError))


def evaluated_node(q: float, visits: int, node_id: int = 0) -> ReasoningNode:
    return ReasoningNode(
        id=node_id,
        parent=None,
        answer=AnswerContent(assertions=["assert property (a);"]),
        q_value=q,
        visit_count=visits,
        reward_samples=[q] * max(visits, 1),
    )


def new_tree(signal: str = "sig") -> ReasoningTree:
    return ReasoningTree(signal, AnswerContent(assertions=["assert property (a);"]))


class TestSearchParams:
    def test_defaults(self):
        params = SearchParams()
        assert params.c == 1.4
        assert params.epsilon == 1e-6
        assert params.n_rollouts == 4
        assert params.score_cap == 95.0
        assert (SCORE_MIN, SCORE_MAX) == (-100.0, 100.0)
        assert [f.name for f in dataclasses.fields(SearchParams)] == ["c", "epsilon", "n_rollouts", "score_cap"]

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            SearchParams(c=-0.1)
        with pytest.raises(ValueError):
            SearchParams(epsilon=0.0)
        with pytest.raises(ValueError):
            SearchParams(n_rollouts=0)
        with pytest.raises(ValueError):
            SearchParams(score_cap=101.0)
        with pytest.raises(ValueError):
            SearchParams(score_cap=-101.0)
        # made in code, a non-finite value is out of range too (a config's decoder rejects it first)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="exploration constant c must be finite and non-negative"):
                SearchParams(c=value)
            with pytest.raises(ValueError, match="epsilon must be finite and positive"):
                SearchParams(epsilon=value)

    def test_score_cap_lies_on_the_critics_scale(self):
        assert SearchParams(score_cap=100).score_cap == 100  # the top of the scale: no suppression
        with pytest.raises(ValueError, match="-100 < score_cap <= 100"):
            SearchParams(score_cap=-100)  # every score would be suppressed to the floor


class TestComputeUct:
    def test_worked_example(self, params):
        node = evaluated_node(q=50.0, visits=1)
        assert compute_uct(node, 2, params) == pytest.approx(51.8217, abs=1e-3)

    def test_zero_exploration_constant(self):
        params = SearchParams(c=0.0)
        node = evaluated_node(q=30.0, visits=7)
        assert compute_uct(node, 3, params) == 30.0

    def test_ln_one_collapses_numerator(self, params):
        node = evaluated_node(q=0.0, visits=1)
        assert compute_uct(node, 1, params) == pytest.approx(1.4000, abs=1e-3)

    def test_unevaluated_node_rejected(self, params):
        node = ReasoningNode(id=0, parent=None, answer=AnswerContent())
        with pytest.raises(TreeError):
            compute_uct(node, 1, params)

    def test_zero_parent_visits_rejected(self, params):
        node = evaluated_node(q=10.0, visits=0)
        node.reward_samples = [10.0]  # evaluated but zero visits is the ln(0) case
        node.visit_count = 0
        with pytest.raises(TreeError):
            compute_uct(node, 0, params)


class TestSelectNode:
    def test_single_node(self, params):
        tree = new_tree()
        tree.record_reward(0, 10.0)
        assert tree.select_node(params) == 0

    def test_less_visited_child_wins_on_equal_q(self, params):
        tree = new_tree()
        for _ in range(3):
            tree.record_reward(0, 50.0)
        child = tree.add_child(0, AnswerContent())
        tree.record_reward(child, 50.0)
        assert tree.select_node(params) == child

    def test_q_dominates_at_equal_visits(self, params):
        tree = new_tree()
        tree.record_reward(0, 10.0)
        a = tree.add_child(0, AnswerContent())
        b = tree.add_child(0, AnswerContent())
        # avoid backprop so the configured Q values stay put
        tree.nodes[a].reward_samples = [80.0]
        tree.nodes[a].q_value = 80.0
        tree.nodes[a].visit_count = 1
        tree.nodes[b].reward_samples = [20.0]
        tree.nodes[b].q_value = 20.0
        tree.nodes[b].visit_count = 1
        assert tree.select_node(params) == a

    def test_tie_breaks_to_earliest_node(self, params):
        tree = new_tree()
        tree.record_reward(0, 60.0)
        child = tree.add_child(0, AnswerContent())
        tree.nodes[child].reward_samples = [60.0]
        tree.nodes[child].q_value = 60.0
        tree.nodes[child].visit_count = 1
        # root parent term == own visits == 1 == child's parent term
        assert tree.select_node(params) == 0

    def test_unevaluated_node_fails_selection(self, params):
        tree = new_tree()
        tree.record_reward(0, 10.0)
        tree.add_child(0, AnswerContent())
        with pytest.raises(TreeError):
            tree.select_node(params)


class TestAddChild:
    def test_adds_under_root(self):
        tree = new_tree()
        child = tree.add_child(0, AnswerContent())
        assert len(tree) == 2
        assert tree.nodes[0].children == [child]
        assert tree.nodes[child].q_value == 0.0
        assert tree.nodes[child].visit_count == 0
        assert tree.nodes[child].reward_samples == []

    def test_chain_of_four_gives_five_nodes(self):
        tree = new_tree()
        parent = 0
        for _ in range(4):
            parent = tree.add_child(parent, AnswerContent())
        assert len(tree) == 5
        tree.validate()

    def test_unknown_parent(self):
        tree = new_tree()
        with pytest.raises(TreeError):
            tree.add_child(99, AnswerContent())


class TestRecordReward:
    def test_first_reward(self):
        tree = new_tree()
        tree.record_reward(0, 60.0)
        assert tree.nodes[0].q_value == 60.0
        assert tree.nodes[0].visit_count == 1

    def test_mean_of_two(self):
        tree = new_tree()
        tree.record_reward(0, 60.0)
        tree.record_reward(0, 20.0)
        assert tree.nodes[0].q_value == 40.0

    def test_out_of_range_rejected(self):
        tree = new_tree()
        with pytest.raises(TreeError):
            tree.record_reward(0, 150.0)
        with pytest.raises(TreeError):
            tree.record_reward(0, -100.5)


class TestBackpropagate:
    def test_parent_update(self):
        tree = new_tree()
        tree.record_reward(0, 50.0)
        a = tree.add_child(0, AnswerContent())
        b = tree.add_child(0, AnswerContent())
        tree.nodes[a].reward_samples = [40.0]
        tree.nodes[a].q_value = 40.0
        tree.nodes[b].reward_samples = [70.0]
        tree.nodes[b].q_value = 70.0
        tree.backpropagate(b)
        assert tree.nodes[0].q_value == 60.0

    def test_chain_propagation(self):
        tree = new_tree()
        tree.record_reward(0, 0.0)
        mid = tree.add_child(0, AnswerContent())
        tree.nodes[mid].reward_samples = [10.0]
        tree.nodes[mid].q_value = 10.0
        leaf = tree.add_child(mid, AnswerContent())
        tree.nodes[leaf].reward_samples = [100.0]
        tree.nodes[leaf].q_value = 100.0
        tree.backpropagate(leaf)
        assert tree.nodes[mid].q_value == 55.0
        assert tree.nodes[0].q_value == 27.5
        assert tree.nodes[leaf].q_value == 100.0  # starting node untouched

    def test_from_root_is_noop(self):
        tree = new_tree()
        tree.record_reward(0, 33.0)
        before = dump(tree)
        tree.backpropagate(0)
        assert dump(tree) == before

    def test_unknown_node(self):
        tree = new_tree()
        with pytest.raises(TreeError):
            tree.backpropagate(42)

    def test_from_unevaluated_node_rejected(self):
        tree = new_tree()
        tree.record_reward(0, 50.0)
        child = tree.add_child(0, AnswerContent())
        before = dump(tree)
        with pytest.raises(TreeError, match=f"node {child} has not been evaluated"):
            tree.backpropagate(child)
        assert dump(tree) == before


class TestSerialization:
    def test_round_trip(self):
        tree = new_tree("wb_clk_i")
        tree.record_reward(0, 12.5)
        child = tree.add_child(0, AnswerContent(assertions=["assert property (x);"]))
        tree.record_reward(child, 80.0)
        tree.backpropagate(child)
        tree.rollouts_completed = 1
        loaded = undump(dump(tree))
        assert dump(loaded) == dump(tree)
        assert loaded.signal_name == "wb_clk_i"
        assert loaded.nodes[child].reward_samples == [80.0]
        assert loaded.add_child(0, AnswerContent()) == 2  # ids go on from the dump

    def test_duplicate_node_id_rejected(self):
        tree = new_tree()
        tree.record_reward(0, 10.0)
        data = json.loads(dump(tree))
        data["nodes"].append(dict(data["nodes"][0]))
        with pytest.raises(TreeError, match=r"nodes\[1\]\.id: 0, expected 1"):
            undump(json.dumps(data))

    @pytest.mark.parametrize(
        "shape, root, path", [case[1:] for case in MALFORMED_TREES], ids=[c[0] for c in MALFORMED_TREES]
    )
    def test_malformed_structure_rejected(self, shape, root, path):
        with pytest.raises(TreeError, match=path):
            undump(tree_dump(shape, root))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"q_value": "hi"}, r"nodes\[0\]\.q_value must be a number"),
            ({"answer": {"assertions": "abc"}}, r"nodes\[0\]\.answer\.assertions must be a list"),
            ({"visit_count": 1.5}, r"nodes\[0\]\.visit_count must be an integer"),
            ({"extra": 1}, r"unknown key nodes\[0\]\.extra"),
        ],
    )
    def test_wrongly_typed_node_rejected(self, change, message):
        tree = new_tree()
        tree.record_reward(0, 10.0)
        data = json.loads(dump(tree))
        data["nodes"][0].update(change)
        with pytest.raises(TreeError, match=message):
            undump(json.dumps(data))

    def test_invalid_json_is_tree_error(self):
        with pytest.raises(TreeError, match="not valid JSON"):
            undump("{nope")


# --------------------------------------------------------------------------
# Property tests over random operation sequences.
#
# An operation sequence is a list of (kind, data) tuples interpreted against
# the tree; the oracle re-derives invariants from scratch each time.

_PARAMS = SearchParams()

_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "reward", "backprop"]),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


def _apply_ops(tree: ReasoningTree, ops) -> None:
    tree.record_reward(tree.root, 0.0)
    for kind, pick, value in ops:
        target = pick % len(tree.nodes)  # ids are 0 .. len - 1
        if kind == "add":
            child = tree.add_child(target, AnswerContent())
            tree.record_reward(child, value)
        elif kind == "reward":
            tree.record_reward(target, value)
        else:
            tree.backpropagate(target)


@given(ops=_ops)
@settings(max_examples=150, deadline=None)
def test_tree_integrity_and_q_bounds(ops):
    tree = new_tree()
    _apply_ops(tree, ops)
    tree.validate()
    assert list(tree.nodes) == list(range(len(tree)))
    assert dump(undump(dump(tree))) == dump(tree)
    for node in tree.nodes.values():
        assert -100.0 <= node.q_value <= 100.0
        assert node.visit_count == len(node.reward_samples)


@given(ops=_ops)
@settings(max_examples=75, deadline=None)
def test_determinism_bit_identical(ops):
    t1, t2 = new_tree(), new_tree()
    _apply_ops(t1, ops)
    _apply_ops(t2, ops)
    assert dump(t1) == dump(t2)


@given(ops=_ops)
@settings(max_examples=75, deadline=None)
def test_selection_is_greedy(ops):
    params = _PARAMS
    tree = new_tree()
    _apply_ops(tree, ops)
    chosen = tree.select_node(params)
    chosen_uct = compute_uct(
        tree.nodes[chosen], tree.parent_visit_count(chosen), params
    )
    for node_id in tree.nodes:
        other = compute_uct(
            tree.nodes[node_id], tree.parent_visit_count(node_id), params
        )
        assert chosen_uct >= other or math.isclose(chosen_uct, other)


@given(
    parent_q=st.floats(min_value=-100, max_value=100, allow_nan=False),
    child_q=st.floats(min_value=-100, max_value=100, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
@example(parent_q=-100.0, child_q=-99.99999999999999)  # adjacent floats: the mean rounds to one of them
def test_monotone_attraction(parent_q, child_q):
    tree = new_tree()
    tree.record_reward(0, parent_q)
    child = tree.add_child(0, AnswerContent())
    tree.record_reward(child, child_q)
    before = tree.nodes[0].q_value
    tree.backpropagate(child)
    after = tree.nodes[0].q_value
    if child_q > parent_q:
        # strictly higher, unless no float lies strictly between the two
        assert after > before or math.nextafter(parent_q, math.inf) == child_q
    assert -100.0 <= after <= 100.0
