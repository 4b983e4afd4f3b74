"""Segmentation losses with an adaptive logarithmic wrapper, metrics, and a benchmark harness."""

from .adaptive import (
    AdaptiveLogParams,
    adaptive_log_derivative,
    adaptive_log_forward,
    adaptive_log_wrap,
    derivative_jump,
    wrap_loss_fn,
)
from .losses import (
    LossEval,
    bce_loss,
    combo_loss,
    finite_difference_grad,
    focal_loss,
    focal_tversky_loss,
    make_loss,
    soft_dice_loss,
    soft_jaccard_loss,
    tversky_loss,
)
from .metrics import (
    ConfusionCounts,
    RocCurve,
    confusion,
    dice_index,
    f_measure,
    jaccard_index,
    pair_count_auc,
    precision,
    recall,
    roc_auc,
    specificity,
)
from .model import AdamState, RunRecord, TinyNet, TrainConfig, adam_step, backward, forward, train
from .synthdata import Sample, SynthSpec, generate, load_pgm_pair, read_pgm, train_val_split, write_pgm

__all__ = [name for name in dir() if not name.startswith("_")]
