"""Reasoning tree for the per-signal self-refine search.

Each node holds one candidate assertion set together with its running
quality estimate (Q), visit count, and the raw reward samples the critic
produced for it. All operations are pure state transitions on the tree;
no agent or I/O code lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from svagen.records import dumps, encode, load, loads


class TreeError(ValueError):
    """Structural or contract violation on a reasoning tree."""


@dataclass
class SearchParams:
    """Knobs of the selection/evaluation loop.

    score_cap is the suppression threshold applied by the critic layer;
    rewards arriving here must already lie in [score_min, score_max].
    """

    c: float = 1.4
    epsilon: float = 1e-6
    n_rollouts: int = 4
    score_cap: float = 95.0
    score_min: float = -100.0
    score_max: float = 100.0

    def __post_init__(self) -> None:
        if self.c < 0:
            raise ValueError("exploration constant c must be non-negative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.n_rollouts < 1:
            raise ValueError("n_rollouts must be positive")
        if not (self.score_min < self.score_cap <= self.score_max):
            raise ValueError("require score_min < score_cap <= score_max")


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
    """A tree as `tree.json` holds it: nodes in id order."""

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
    """A rooted tree of ReasoningNodes with sequential integer ids.

    Ids follow creation order, which makes "earliest created" tie-breaking
    equal to "lowest id". Single-writer: callers must not mutate one tree
    from multiple threads.
    """

    def __init__(self, signal_name: str, root_answer: AnswerContent) -> None:
        self.signal_name = signal_name
        self.rollouts_completed = 0
        root = ReasoningNode(id=0, parent=None, answer=root_answer)
        self.nodes: dict[int, ReasoningNode] = {0: root}
        self.root: int = 0
        self._next_id = 1

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
        child = ReasoningNode(id=self._next_id, parent=parent, answer=answer)
        self.nodes[child.id] = child
        parent_node.children.append(child.id)
        self._next_id += 1
        return child.id

    def record_reward(self, node_id: int, reward: float, params: SearchParams) -> None:
        """Append a reward sample and refresh Q as the mean of all samples.

        Rewards must already be suppressed/validated upstream; out-of-range
        values are rejected here rather than clamped.
        """
        if not (params.score_min <= reward <= params.score_max):
            raise TreeError(
                f"reward {reward} outside [{params.score_min}, {params.score_max}]"
            )
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
        if not self.nodes:
            raise TreeError("cannot select from an empty tree")
        best_id: int | None = None
        best_score = -math.inf
        for node_id in sorted(self.nodes):
            n = self.nodes[node_id]
            if not n.evaluated:
                raise TreeError(f"node {node_id} is unevaluated; tree not ready for selection")
            score = compute_uct(n, self.parent_visit_count(node_id), params)
            if score > best_score:
                best_score = score
                best_id = node_id
        assert best_id is not None
        return best_id

    def validate(self) -> None:
        """Check the structural invariants: one root, mutual parent/child
        links, acyclicity, full reachability."""
        roots = [n for n in self.nodes.values() if n.parent is None]
        if len(roots) != 1 or roots[0].id != self.root:
            raise TreeError("tree must have exactly one root")
        for n in self.nodes.values():
            if n.parent is not None:
                p = self.nodes.get(n.parent)
                if p is None or n.id not in p.children:
                    raise TreeError(f"node {n.id} not linked from its parent {n.parent}")
            for ch in n.children:
                c = self.nodes.get(ch)
                if c is None or c.parent != n.id:
                    raise TreeError(f"child {ch} of node {n.id} has inconsistent parent")
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise TreeError("cycle detected")
            seen.add(nid)
            stack.extend(self.nodes[nid].children)
        if seen != set(self.nodes):
            raise TreeError("unreachable nodes present")

    # -- persistence ---------------------------------------------------------

    def dumps(self) -> str:
        record = TreeRecord(
            self.signal_name, self.root, self.rollouts_completed,
            [self.nodes[i] for i in sorted(self.nodes)],
        )
        return dumps(encode(record))

    @classmethod
    def loads(cls, text: str) -> ReasoningTree:
        """TreeError naming the field path when `text` is not a tree dump."""
        return cls._from_record(loads(TreeRecord, text, TreeError))

    @classmethod
    def load(cls, path: str) -> ReasoningTree:
        """`loads` of a file; the error names the file too."""
        return load(TreeRecord, path, "tree", TreeError, cls._from_record)

    @classmethod
    def _from_record(cls, record: TreeRecord) -> ReasoningTree:
        tree = cls.__new__(cls)
        tree.signal_name, tree.root = record.signal_name, record.root
        tree.rollouts_completed, tree.nodes = record.rollouts_completed, {}
        for i, node in enumerate(record.nodes):
            if node.id in tree.nodes:
                raise TreeError(f"nodes[{i}].id: duplicate {node.id}")
            tree.nodes[node.id] = node
        tree._next_id = max(tree.nodes) + 1 if tree.nodes else 0
        tree.validate()
        return tree
