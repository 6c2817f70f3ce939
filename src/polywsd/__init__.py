"""Desk-scale word sense disambiguation by gloss matching.

A target word's contextual embedding attends over its whole sentence through
multi-head attention, giving one code row per word; each encoded sense gloss
gives one code row too, and a pair scores the inner product of its rows.
Training contrasts each item's gold gloss against the other gold glosses in
the batch, so one step costs one gloss encode per item instead of one per
candidate sense.
"""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    CorpusInstance,
    SenseEntry,
    SenseInventory,
    Vocab,
    build_vocab,
    load_corpus,
    load_inventory,
)
from .encoder import EncoderConfig, cls_representation, encode, init_encoder, target_representation
from .errors import PolyWsdError
from .evaluation import EvalReport, compare_costs, score_f1, score_keys
from .fusion import FusionConfig, fuse_context, fuse_gloss, score_pair
from .model import WsdModel, build_model, context_codes, gloss_codes
from .predict import first_sense_predictor, mfs_predictor, predict, score_candidates
from .synthetic import synthetic_corpus
from .tensor import Tape, Tensor, backward, finite_diff_check, matmul, row_softmax
from .training import (
    Adam,
    Batch,
    TrainConfig,
    bcl_loss,
    check_bcl_gradients,
    fusion_matrix,
    train,
    train_all_candidates_step,
    train_step,
)

__version__ = "0.1.0"
