"""Desk-scale trainer: synthetic blob scenes and a linear softmax pixel model.

The model maps six per-pixel features (bias, normalized intensity, 3x3
local mean and variance, normalized row/column) to class logits. That is
enough to learn blob segmentation while leaving genuine disagreement
between checkpoints at class boundaries, which is what the downstream
uncertainty pipeline needs to see.

Training is plain full-batch SGD under the warm-restart schedule with a
soft Dice loss (smoothing 1.0); everything is deterministic given
(seed, config).

Per-pixel arrays are class-major, C-contiguous (c, P) rows. Class sums and
maxima are numpy's axis-0 reductions, which take the rows in class order
(for P >= 2): numpy's own order on (P, c) for c <= 7, so bit-identical to
``max``/``sum(axis=1)``; for c >= 8 that sum is pairwise and the weights
differ in the last bit (~1e-16). Pixel sums keep ``np.add.accumulate``'s
last element, first pixel first like ``sum(axis=0)`` on (P, c)
(``sum(axis=1)`` on (c, P) is pairwise). BLAS
operands are C-contiguous (a copy of ``W.T``, the (c, P) gradient); the
products match the pixel-major ones bit for bit (``TestTrainerOracle``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .arrays import validate_labels, zscore_normalize
from .arrayio import write_array
from .ensemble import argmax_labels
from .errors import NumericError, ValidationError
from .metrics import dice
from .pipeline import check_outdir
from .scheduler import SgdrConfig, _cycle_iter, lr_at
from .selection import SelectionPolicy, TraceRecord, TrainingTrace

FEATURE_COUNT = 6
DICE_SMOOTHING = 1.0
MAX_SCENE_PIXELS = 1 << 20  # 1024x1024: bounds the memory of one scene
MAX_DATASET_PIXELS = 1 << 23  # all scenes: a dataset is held whole before it is written


def _render(seed, shape, blobs, noise_std):
    """Image and labels of one case; ``blobs`` holds (class, center, radius, mean)."""
    h, w = shape
    image = np.zeros((h, w), dtype=np.float64)
    labels = np.zeros((h, w), dtype=np.uint8)
    yy, xx = np.mgrid[0:h, 0:w]
    for class_id, (cy, cx), radius, intensity_mean in blobs:
        dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
        # feathered rim: intensity ramps over ~1 px at the blob edge, the
        # partial-volume effect that makes true boundaries ambiguous
        weight = np.clip(radius + 0.5 - dist, 0.0, 1.0)
        image = image * (1.0 - weight) + intensity_mean * weight
        labels[dist <= radius] = class_id
    if noise_std > 0.0:
        rng = np.random.default_rng(seed)
        image = image + rng.normal(0.0, noise_std, size=image.shape)
    return image, labels


@dataclass(frozen=True)
class ToyCase:
    case_id: str
    image: np.ndarray
    labels: np.ndarray
    class_count: int
    noise_std: float

    @cached_property
    def features(self) -> np.ndarray:
        """``case_features`` of the image, computed on first use only."""
        return case_features(self.image)


def generate_dataset(
    seed: int,
    n_cases: int,
    shape=(64, 64),
    class_count: int = 3,
    noise_std: float = 0.1,
) -> list:
    """Deterministically generate blob cases; every class appears somewhere.

    The per-case noise level ramps from 0.5x to 1.5x of ``noise_std`` across
    the dataset, giving a spread of difficulty.
    """
    if n_cases < 1:
        raise ValidationError(f"n_cases must be >= 1, got {n_cases}")
    if class_count < 2:
        raise ValidationError(f"class_count must be >= 2, got {class_count}")
    if class_count > 256:
        raise ValidationError(f"class_count must be <= 256 (uint8 labels), got {class_count}")
    if not (np.isfinite(noise_std) and noise_std >= 0.0):
        raise ValidationError(f"noise_std must be finite and >= 0, got {noise_std}")
    h, w = shape
    m = min(h, w)
    r_lo, r_hi = max(2, m // 7), max(2, m // 5)
    if m < 8 or r_hi < r_lo:
        raise ValidationError(f"shape {shape} too small for blob radii >= {r_lo}")
    if h * w > MAX_SCENE_PIXELS:
        raise ValidationError(f"shape {shape} has more than {MAX_SCENE_PIXELS} pixels")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if n_cases * h * w > MAX_DATASET_PIXELS:
        raise ValidationError(f"{n_cases} scenes of {shape} exceed {MAX_DATASET_PIXELS} pixels")

    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_cases):
        level = noise_std * (0.5 + i / (n_cases - 1)) if n_cases > 1 else noise_std
        # one blob per foreground class in a narrow size range keeps per-case
        # intensity statistics comparable, so per-case normalization maps
        # classes to stable bands a shared linear model can separate;
        # alternating signs (class 1 dark, class 2 bright, ...) keep every
        # foreground band one-sided instead of squeezed between neighbors
        blobs = []
        for k in range(1, class_count):
            radius = int(rng.integers(r_lo, r_hi + 1))
            cy = int(rng.integers(radius, h - radius))
            cx = int(rng.integers(radius, w - radius))
            jitter = float(rng.uniform(-0.2, 0.2))
            magnitude = 2.0 * ((k + 1) // 2)
            sign = -1.0 if k % 2 else 1.0
            blobs.append((k, (cy, cx), radius, sign * magnitude + jitter))
        image, labels = _render(int(rng.integers(0, 2**31)), (h, w), blobs, level)
        cases.append(ToyCase(f"case{i:04d}", image, labels, class_count, level))

    present = {int(v) for case in cases for v in np.unique(case.labels)}
    missing = set(range(1, class_count)) - present
    if missing:
        raise ValidationError(f"generated dataset is missing classes {sorted(missing)}")
    return cases


def case_features(image) -> np.ndarray:
    """Per-pixel feature matrix (P, 6) from a raw intensity image."""
    z = zscore_normalize(image)
    h, w = z.shape
    padded = np.pad(z, 1, mode="edge")
    neigh = np.stack([padded[dy : dy + h, dx : dx + w] for dy in range(3) for dx in range(3)])
    local_mean = neigh.mean(axis=0)
    local_var = neigh.var(axis=0)
    yy, xx = np.mgrid[0:h, 0:w]
    ramps = (yy / max(h - 1, 1), xx / max(w - 1, 1))
    feats = np.stack([np.ones_like(z), z, local_mean, local_var, *ramps], axis=-1)
    return feats.reshape(-1, FEATURE_COUNT)


def _pixel_sum(rows):
    """Per-class pixel sum of (c, P) in the order of ``sum(axis=0)`` on (P, c)."""
    return np.add.accumulate(rows, axis=1)[:, -1]


def _softmax(feats, W):
    """Per-pixel class probabilities (c, P) of the linear model."""
    probs = (feats @ np.ascontiguousarray(W.T)).T.copy()
    probs -= probs.max(axis=0)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=0)
    return probs


def posterior(weights, feats, shape) -> np.ndarray:
    """Softmax posterior (c, H, W) of the pixel model from a case's features."""
    W = np.asarray(weights, dtype=np.float64)
    if W.ndim != 2 or W.shape[1] != FEATURE_COUNT:
        raise ValidationError(f"weights must be (classes, {FEATURE_COUNT}), got {W.shape}")
    return _softmax(feats, W).reshape(W.shape[0], *shape)


def _dice_loss_grad(probs, mask, counts):
    """Soft Dice loss and its gradient w.r.t. the probabilities (c, P).

    ``mask`` is the (c, P) boolean one-hot of the labels and ``counts`` its
    per-class pixel counts as float64.
    """
    s = DICE_SMOOTHING
    num = 2.0 * _pixel_sum(np.where(mask, probs, 0.0)) + s
    den = _pixel_sum(probs) + counts + s
    loss = 1.0 - (num / den).mean()
    n_classes = probs.shape[0]
    # with a 0/1 one-hot, -(2*onehot*den - num) / den**2 / c takes one value
    # per class on the class's pixels and one off them
    on = (num - 2.0 * den) / den**2 / n_classes
    off = num / den**2 / n_classes
    return loss, np.where(mask, on[:, None], off[:, None])


def _case_gradient(feats, mask, counts, W):
    probs = _softmax(feats, W)
    loss, grad = _dice_loss_grad(probs, mask, counts)
    # back through the softmax: probs * (grad - sum_k grad_k * probs_k)
    grad -= (grad * probs).sum(axis=0)
    grad *= probs
    return loss, grad @ feats


def checkpoint_epochs(cfg: SgdrConfig, policy: SelectionPolicy) -> list:
    """Epochs falling inside any cycle's selection window."""
    return [e for cyc in _cycle_iter(cfg) for e in policy.window(cyc) if e < cfg.total_epochs]


def validation_dice(weights, cases) -> float:
    """Mean foreground Dice of argmax predictions; NumericError on a non-finite posterior."""
    per_case = []
    for case in cases:
        probs = posterior(weights, case.features, case.image.shape)
        if not np.isfinite(probs).all():
            raise NumericError(f"validation posterior of case {case.case_id} is not finite")
        pred = argmax_labels(probs)
        scores = [dice(pred, case.labels, k).dice for k in range(1, case.class_count)]
        per_case.append(float(np.mean(scores)))
    return float(np.mean(per_case))


def _check_cases(cases, class_count):
    """Every case must share ``class_count`` and carry labels in [0, class_count)."""
    for case in cases:
        if case.class_count != class_count:
            raise ValidationError(
                f"case {case.case_id}: class_count {case.class_count} differs from "
                f"the first training case's {class_count}"
            )
        labels = np.asarray(case.labels)
        if labels.shape != np.shape(case.image):
            raise ValidationError(
                f"case {case.case_id}: labels shape {labels.shape} != image shape "
                f"{np.shape(case.image)}"
            )
        validate_labels(labels, class_count, name=f"case {case.case_id}")


def train(train_cases, val_cases, cfg: SgdrConfig, policy=None, *, seed: int = 0):
    """Run the schedule; returns (TrainingTrace, {checkpoint_id: weights})."""
    if not train_cases or not val_cases:
        raise ValidationError("need at least one training case and one validation case")
    policy = policy or SelectionPolicy()
    class_count = train_cases[0].class_count
    _check_cases([*train_cases, *val_cases], class_count)

    classes = np.arange(class_count)
    feats = [case.features for case in train_cases]
    masks = [case.labels.reshape(1, -1) == classes[:, None] for case in train_cases]
    counts = [mask.sum(axis=1).astype(np.float64) for mask in masks]
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, 0.01, size=(class_count, FEATURE_COUNT))

    save_at = set(checkpoint_epochs(cfg, policy))
    records = []
    checkpoints = {}
    for epoch in range(cfg.total_epochs):
        lr = lr_at(epoch, cfg)
        grad = np.zeros_like(W)
        loss_total = 0.0
        for X, mask, count in zip(feats, masks, counts):
            loss, g = _case_gradient(X, mask, count, W)
            loss_total += loss
            grad += g
        loss_mean = loss_total / len(feats)
        if not np.isfinite(loss_mean):
            raise NumericError(f"training diverged: non-finite loss at epoch {epoch}")
        W = W - lr * (grad / len(feats))
        metric = validation_dice(W, val_cases)
        cid = None
        if epoch in save_at:
            cid = f"ep{epoch:05d}"
            checkpoints[cid] = W.copy()
        records.append(TraceRecord(epoch, lr, metric, cid))
    return TrainingTrace(tuple(records)), checkpoints


def boundary_band(labels) -> np.ndarray:
    """Pixels whose 3x3 neighborhood contains a different label (both sides
    of every class boundary, one pixel deep)."""
    lab = np.asarray(labels)
    h, w = lab.shape
    padded = np.pad(lab, 1, mode="edge")
    band = np.zeros((h, w), dtype=bool)
    for dy in range(3):
        for dx in range(3):
            band |= padded[dy : dy + h, dx : dx + w] != lab
    return band.astype(np.uint8)


def inject_label_noise(labels, class_count, rng, flip_fraction=0.25) -> np.ndarray:
    """Corrupt a fraction of boundary-band pixels to a different class."""
    if not 0.0 <= flip_fraction <= 1.0:
        raise ValidationError(f"flip_fraction must be in [0, 1], got {flip_fraction}")
    lab = np.asarray(labels).copy()
    band = np.argwhere(boundary_band(lab) == 1)
    if band.size == 0 or flip_fraction == 0.0:
        return lab
    n_flip = int(round(flip_fraction * len(band)))
    chosen = band[rng.choice(len(band), size=n_flip, replace=False)]
    for y, x in chosen:
        current = lab[y, x]
        options = [k for k in range(class_count) if k != current]
        lab[y, x] = options[int(rng.integers(0, len(options)))]
    return lab


def _float32(array, what):
    """``array`` as float32; NumericError if a value is not finite in float32."""
    with np.errstate(over="ignore"):
        out = array.astype(np.float32)
    if not np.isfinite(out).all():
        raise NumericError(f"{what} has values that are not finite in float32")
    return out


def _float32_images(cases):
    return [_float32(case.image, f"case {case.case_id} image") for case in cases]


def write_cases(cases, outdir):
    """Write cases/<id>_image.uqsg (float32) and <id>_labels.uqsg under ``outdir``.

    Every image is checked to fit float32, and ``outdir`` to be absent or
    empty, before the first file is written.
    """
    images = _float32_images(cases)
    check_outdir(outdir)
    cases_dir = Path(outdir) / "cases"
    cases_dir.mkdir(parents=True, exist_ok=True)
    for case, image in zip(cases, images):
        write_array(cases_dir / f"{case.case_id}_image.uqsg", image)
        write_array(cases_dir / f"{case.case_id}_labels.uqsg", case.labels)


def run_toy_training(
    outdir,
    *,
    seed: int,
    n_train: int,
    n_test: int,
    shape=(64, 64),
    class_count: int = 3,
    cfg: SgdrConfig,
    policy=None,
    noise_std: float = 0.1,
):
    """Generate data, train, and write every artifact the pipeline consumes.

    ``outdir`` must be absent or empty (checked before training). Layout
    under it: cases/<id>_image.uqsg and <id>_labels.uqsg for all cases,
    trace.csv, checkpoints/<cid>.uqsg (model weights), and
    predictions/<case>/<cid>.uqsg posteriors for each test case and saved
    checkpoint. Test cases are the last ``n_test`` and double as the
    validation split for the trace. Nothing is written before training has
    finished and every image and weight array is known to fit float32.
    """
    out = Path(outdir)
    cases = generate_dataset(
        seed, n_train + n_test, shape=shape, class_count=class_count, noise_std=noise_std
    )
    train_cases, test_cases = cases[:n_train], cases[n_train:]
    _float32_images(cases)  # an image past float32 fails before training
    check_outdir(outdir)

    trace, checkpoints = train(train_cases, test_cases, cfg, policy, seed=seed)
    stored = {cid: _float32(w, f"checkpoint {cid} weights") for cid, w in checkpoints.items()}
    write_cases(cases, out)
    trace.to_csv(out / "trace.csv")

    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    for cid, weights in stored.items():
        write_array(ckpt_dir / f"{cid}.uqsg", weights)

    pred_dir = out / "predictions"
    for case in test_cases:
        case_dir = pred_dir / case.case_id
        case_dir.mkdir(parents=True, exist_ok=True)
        for cid, weights in checkpoints.items():
            probs = posterior(weights, case.features, case.image.shape)
            write_array(case_dir / f"{cid}.uqsg", probs.astype(np.float32))
    return trace, checkpoints, cases

