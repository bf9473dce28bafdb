"""Single-machine out-of-core subgraph mining."""

from .graph import Graph, GraphFormatError, load_graph
from .store import EmbeddingStore, InvariantError
from .fingerprint import (HashCollisionError, Pattern, PatternHasher,
                          SizeLimitError)
from .spill import BudgetTooSmallError, CorruptPartError
from .mining import (Session, clique_discovery, fsm, motif_count,
                     triangle_count)

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphFormatError", "load_graph",
    "EmbeddingStore", "InvariantError",
    "HashCollisionError", "Pattern", "PatternHasher", "SizeLimitError",
    "BudgetTooSmallError", "CorruptPartError",
    "Session", "motif_count", "clique_discovery", "triangle_count", "fsm",
]
