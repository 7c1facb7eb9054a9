"""Knowledge-graph recommender with user-conditioned graph attention,
random-walk context aggregation, gated fusion and pairwise ranking training."""

from .autodiff import (AdamState, CheckpointError, GruParams, NumericError,
                       ParamRegistry, ShapeError, Tensor, finite_difference_check,
                       load_checkpoint, save_checkpoint)
from .evaluation import EvalConfig, EvalReport, FastScorer, evaluate
from .graph import (IdMaps, InputError, InteractionStore, KnowledgeGraph, Triple,
                    load_interactions, load_kg, split_interactions)
from .model import (GraphContextModel, ItemContext, ModelConfig, ScoreContext,
                    init_params)
from .sampling import (WalkCache, WalkConfig, build_walk_cache, sample_bpr_tuples,
                       sample_history, sample_kg_negatives, sample_local_neighbors,
                       substream)
from .training import TrainConfig, TrainReport, train

__version__ = "0.1.0"
