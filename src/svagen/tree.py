"""Reasoning tree for the per-signal self-refine search.

Each node holds one candidate assertion set together with its running
quality estimate (Q), visit count, and the raw reward samples the critic
produced for it. All operations are pure state transitions on the tree;
no agent or I/O code lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class TreeError(ValueError):
    """Structural or contract violation on a reasoning tree."""


SCORE_MIN, SCORE_MAX = -100.0, 100.0  # the critic's fixed scale (MCTSr); its prompt states it


@dataclass
class SearchParams:
    """Knobs of the selection/evaluation loop.

    score_cap is the suppression threshold the critic applies to scores on
    its fixed scale: SCORE_MIN < score_cap <= SCORE_MAX.
    """

    c: float = 1.4
    epsilon: float = 1e-6
    n_rollouts: int = 4
    score_cap: float = 95.0

    def __post_init__(self) -> None:
        if not 0 <= self.c < math.inf:
            raise ValueError("exploration constant c must be finite and non-negative")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        if self.n_rollouts < 1:
            raise ValueError("n_rollouts must be positive")
        if not (SCORE_MIN < self.score_cap <= SCORE_MAX):
            raise ValueError(f"require {SCORE_MIN:g} < score_cap <= {SCORE_MAX:g}")


@dataclass
class AnswerContent:
    """One answer: the assertion texts plus surrounding model commentary."""

    assertions: list[str] = field(default_factory=list)
    commentary: str = ""
    syntax_log: str | None = None


@dataclass
class ReasoningNode:
    id: int
    parent: int | None
    answer: AnswerContent
    children: list[int] = field(default_factory=list)
    q_value: float = 0.0
    visit_count: int = 0
    reward_samples: list[float] = field(default_factory=list)

    @property
    def evaluated(self) -> bool:
        return len(self.reward_samples) > 0


@dataclass
class TreeRecord:
    """A tree as a signal record's `tree` holds it: nodes in id order."""

    signal_name: str
    root: int
    rollouts_completed: int
    nodes: list[ReasoningNode]


def compute_uct(node: ReasoningNode, parent_visit_count: int, params: SearchParams) -> float:
    """Selection score: Q(a) + c * sqrt((ln(N_parent) + 1) / (N(a) + epsilon)).

    The root passes its own visit count as the parent term. Raises TreeError
    if the node was never evaluated or the parent term would hit ln(0).
    """
    if not node.evaluated:
        raise TreeError(f"node {node.id} has no reward samples; not a selection candidate")
    if parent_visit_count < 1:
        raise TreeError(
            f"parent visit count {parent_visit_count} for node {node.id}: ln(0) is undefined"
        )
    bonus = params.c * math.sqrt(
        (math.log(parent_visit_count) + 1.0) / (node.visit_count + params.epsilon)
    )
    return node.q_value + bonus


class ReasoningTree:
    """A rooted tree of ReasoningNodes, grown only by appending.

    Node `i` is the `i`-th node created, and its parent was created before
    it; `nodes` holds them in id order. So the root is node 0, "earliest
    created" tie-breaking is "lowest id", and a walk of `nodes` meets every
    parent before its children. Single-writer: callers must not mutate one
    tree from multiple threads.
    """

    def __init__(self, signal_name: str, root_answer: AnswerContent) -> None:
        self.signal_name = signal_name
        self.rollouts_completed = 0
        root = ReasoningNode(id=0, parent=None, answer=root_answer)
        self.nodes: dict[int, ReasoningNode] = {0: root}
        self.root: int = 0

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> ReasoningNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise TreeError(f"unknown node id {node_id}") from None

    def add_child(self, parent: int, answer: AnswerContent) -> int:
        """Append a fresh, unevaluated node under `parent`; returns its id."""
        parent_node = self.node(parent)
        child = ReasoningNode(id=len(self.nodes), parent=parent, answer=answer)
        self.nodes[child.id] = child
        parent_node.children.append(child.id)
        return child.id

    def record_reward(self, node_id: int, reward: float) -> None:
        """Append a reward sample and refresh Q as the mean of all samples.

        Rewards must already be suppressed upstream; a value off the
        critic's scale is rejected here rather than clamped.
        """
        if not (SCORE_MIN <= reward <= SCORE_MAX):
            raise TreeError(f"reward {reward} outside [{SCORE_MIN}, {SCORE_MAX}]")
        n = self.node(node_id)
        n.reward_samples.append(float(reward))
        n.visit_count += 1
        n.q_value = sum(n.reward_samples) / len(n.reward_samples)

    def backpropagate(self, from_id: int) -> None:
        """Update each ancestor of `from_id`, leaf-to-root, via
        Q'(a) = (Q(a) + max over children of Q) / 2. The starting node
        itself is left untouched.
        """
        start = self.node(from_id)
        if not start.evaluated:
            raise TreeError(f"node {from_id} has not been evaluated; nothing to propagate")
        current = start.parent
        while current is not None:
            a = self.nodes[current]
            best_child_q = max(self.nodes[ch].q_value for ch in a.children)
            a.q_value = 0.5 * (a.q_value + best_child_q)
            current = a.parent

    def parent_visit_count(self, node_id: int) -> int:
        """Parent term of the UCT formula; the root substitutes its own count."""
        n = self.node(node_id)
        if n.parent is None:
            return n.visit_count
        return self.nodes[n.parent].visit_count

    def select_node(self, params: SearchParams) -> int:
        """Greedy global pick: the evaluated node with the highest UCT.

        Ties go to the earliest-created node. Every node in the tree is a
        candidate (small trees, and any node may be re-expanded).
        """
        for n in self.nodes.values():
            if not n.evaluated:
                raise TreeError(f"node {n.id} is unevaluated; tree not ready for selection")
        return max(
            self.nodes, key=lambda i: compute_uct(self.nodes[i], self.parent_visit_count(i), params)
        )

    def validate(self) -> None:
        """Check the invariant that carries the structure: `root` is 0, node
        `i` has id `i`, its parent is an earlier node (none for node 0), and
        each `children` list names, in id order, the nodes whose parent it
        is. An error names the field path, as `nodes[3].parent`."""
        if self.root != 0:
            raise TreeError(f"root: {self.root}, expected 0")
        if not self.nodes:
            raise TreeError("nodes: empty, expected the root at least")
        children: list[list[int]] = []
        for i, n in enumerate(self.nodes.values()):
            if n.id != i:
                raise TreeError(f"nodes[{i}].id: {n.id}, expected {i} (ids follow creation order)")
            if i == 0 and n.parent is not None:
                raise TreeError(f"nodes[0].parent: {n.parent}, expected null at the root")
            if i > 0 and (n.parent is None or not 0 <= n.parent < i):
                raise TreeError(f"nodes[{i}].parent: {n.parent}, expected an id below {i}")
            children.append([])
            if i > 0:
                children[n.parent].append(i)
        for i, (n, expected) in enumerate(zip(self.nodes.values(), children)):
            if n.children != expected:
                raise TreeError(f"nodes[{i}].children: {n.children}, expected {expected}")

    # -- persistence ---------------------------------------------------------

    def record(self) -> TreeRecord:
        """The tree as it is written; it shares its nodes with the tree."""
        return TreeRecord(self.signal_name, self.root, self.rollouts_completed, list(self.nodes.values()))

    @classmethod
    def from_record(cls, record: TreeRecord) -> ReasoningTree:
        """The tree `record` holds; TreeError when it breaks `validate`'s invariant."""
        tree = cls.__new__(cls)
        tree.signal_name, tree.root = record.signal_name, record.root
        tree.rollouts_completed = record.rollouts_completed
        tree.nodes = dict(enumerate(record.nodes))  # keyed by position: validate checks the ids
        tree.validate()
        return tree
