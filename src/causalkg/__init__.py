"""Causal knowledge-graph extraction, rectification, sense linking, and
graph-based reasoning over tokenized text."""

from .encoder import EncoderConfig, TokenEncoding, encode_tokens
from .evaluation import ScoreReport, score
from .graphs import (
    CorpusGraph,
    Entity,
    KnowledgeGraph,
    Relation,
    Span,
    assemble_graph,
    merge_corpus,
)
from .model import Model, enumerate_spans, extract, load_model, save_model
from .reasoning import NodePattern, QueryResult, ValenceAssertion, compute_valence, find_paths
from .schema import Schema, Violation, check_constraints, load_schema
from .senses import SenseInventory, lca_similarity, link_senses, load_inventory, node_vector
from .training import Example, LossBreakdown, TrainConfig, grad_check, load_dataset, train

__version__ = "0.1.0"
