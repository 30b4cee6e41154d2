"""Checkpoint-ensemble uncertainty quantification for image segmentation.

Library layout:

* ``arrays`` / ``arrayio`` -- validators, normalization, and the binary
  array file format
* ``scheduler``            -- warm-restart cosine learning-rate schedule
* ``selection``            -- per-cycle checkpoint selection from a trace
* ``ensemble``             -- posterior averaging and argmax labels
* ``uncertainty``          -- entropy maps, dilation, contour scores
* ``metrics``              -- Dice, calibration (ECE), rank correlation
* ``toy``                  -- synthetic data and a small trainable model
* ``pipeline`` / ``cli``   -- end-to-end driver and command line; the
  ``run`` config keys are the fields of ``PipelineConfig``, and the
  schedule and policy flags the fields of ``SgdrConfig`` and ``SelectionPolicy``
"""

__version__ = "0.1.0"

from .arrays import validate_probabilities, zscore_normalize
from .arrayio import read_array, write_array
from .ensemble import argmax_labels, ensemble_mean
from .metrics import dice, ece, uncertainty_dice_table
from .scheduler import SgdrConfig, cycle_of, lr_at, restart_epochs
from .selection import SelectionPolicy, TrainingTrace, find_cycle_peaks
from .uncertainty import (
    StructuringElement,
    contour_normalizer,
    dilate,
    pixel_entropy,
    uncertainty_score,
)
