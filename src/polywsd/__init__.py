"""Desk-scale word sense disambiguation by gloss matching.

A target word's contextual embedding attends over its whole sentence through
multi-head attention, giving one code row per word; each encoded sense gloss
gives one code row too, and a pair scores the inner product of its rows.
Training contrasts each item's gold gloss against the other gold glosses in
the batch, so one step costs one gloss encode per item instead of one per
candidate sense.

The names below are the documented library API; every other name is
imported from its own module, e.g. ``from polywsd.model import context_codes``.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .data import build_vocab, load_corpus, load_inventory
from .encoder import EncoderConfig
from .errors import PolyWsdError
from .evaluation import score_f1
from .fusion import FusionConfig
from .model import build_model
from .predict import predict
from .synthetic import synthetic_corpus
from .training import Adam, TrainConfig, train

__version__ = "0.1.0"
