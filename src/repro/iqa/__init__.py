"""Intelligent query answering (Section 5)."""

from .knowledge import KnowledgeQuery, parse_describe
from .reachability import reachable_predicates, relevant_context
from .answering import describe, proof_trees

__all__ = [
    "KnowledgeQuery", "parse_describe",
    "reachable_predicates", "relevant_context",
    "describe", "proof_trees",
]
