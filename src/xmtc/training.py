"""Training loop (Adam, per-epoch lr decay, global-norm clipping, early
stopping on validation micro-F1) plus evaluation and ablation drivers."""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import TrainConfig, check_variants
from .corpus import DocumentRecord, LabelCatalog, Vocabulary
from .errors import DataError, DivergenceError, GradTapeError
from .graph import CooccurrenceGraph
from .mask import AuxMaskIndex, DocMask, make_doc_mask, mask_stats
from .metrics import MetricsReport, compute_metrics, micro_macro_f1
from .model import CodingModel, ModelParams, model_from_config
from .tensor import GradTape, Tensor, add, bce_loss, mul

logger = logging.getLogger(__name__)


# elements per block of Adam's walk over a parameter; its two scratch
# buffers are one block each, 1 MiB together, whatever the model size
ADAM_BLOCK = 65_536

# Adam's moment decay rates and the guard added to its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam with bias-corrected moment estimates.

    A step allocates nothing: the moments update in place, and each
    parameter is walked in flat blocks of ``ADAM_BLOCK`` elements, whose
    update is formed in two one-block scratch buffers shared by all
    parameters.
    """

    def __init__(self, params: ModelParams, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        # C-ordered, so that their flat reshapes in ``step`` are views
        self.m = {name: np.zeros(p.shape) for name, p in params.items()}
        self.v = {name: np.zeros(p.shape) for name, p in params.items()}
        self._scratch = (np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK))

    def step(self) -> None:
        """One update.  A parameter the last backward pass did not reach (the
        label side, when every mask of a batch is empty) steps with a zero
        gradient, so its moments decay as they would under a dense pass.

        The operations and their order are those of
        ``m = b1 * m + (1 - b1) * g``, ``v = b2 * v + (1 - b2) * g * g`` and
        ``p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)``, applied element by
        element, so the result is bit-equal to evaluating those expressions
        over whole arrays.

        Raises ``GradTapeError`` while a ``GradTape`` is open: backward
        re-reads the parameters' arrays (the rebuilds of the embedding rows
        and of each block's activations), so a step before it would change
        the gradients silently."""
        if GradTape.active() is not None:
            raise GradTapeError("Adam.step while a GradTape is open: its backward re-reads "
                                "the parameters")
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        b1t = 1.0 - b1 ** self.t
        b2t = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            if not p.data.flags.c_contiguous:  # so that ``data`` is a view
                p.data = np.ascontiguousarray(p.data)
            data, m_all, v_all = (a.reshape(-1) for a in (p.data, self.m[name], self.v[name]))
            g_all = None if p.grad is None else p.grad.reshape(-1)
            for lo in range(0, p.size, ADAM_BLOCK):
                hi = min(lo + ADAM_BLOCK, p.size)
                g = 0.0 if g_all is None else g_all[lo:hi]
                m, v = m_all[lo:hi], v_all[lo:hi]
                num, den = (buf[:hi - lo] for buf in self._scratch)
                m *= b1
                np.multiply(g, 1.0 - b1, out=num)
                m += num
                v *= b2
                np.multiply(g, 1.0 - b2, out=num)
                num *= g
                v += num
                np.divide(m, b1t, out=num)
                num *= self.lr
                np.divide(v, b2t, out=den)
                np.sqrt(den, out=den)
                den += ADAM_EPS
                num /= den
                data[lo:hi] -= num


def clip_global_norm(params: ModelParams, max_norm: float) -> float:
    """Scale all gradients together so their joint norm is at most
    ``max_norm``; gradients already inside the ball are untouched."""
    total = 0.0
    for _, p in params.items():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / norm
        for _, p in params.items():
            if p.grad is not None:
                p.grad *= scale
    return norm


def _check_finite(loss_value: float, params: ModelParams) -> None:
    """Abort on divergence, naming the first offending parameter."""
    if np.isfinite(loss_value):
        return
    for name, p in params.items():
        if not np.isfinite(p.data).all() or (p.grad is not None and not np.isfinite(p.grad).all()):
            raise DivergenceError(f"non-finite values in parameter {name!r} (loss={loss_value})")
    raise DivergenceError(f"training loss became non-finite ({loss_value})")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_micro_f1: float
    lr: float


@dataclass
class TrainResult:
    params_arrays: dict[str, np.ndarray]
    best_epoch: int
    best_val_micro_f1: float
    history: list[EpochStats] = field(default_factory=list)


def uses_masks(model: CodingModel) -> bool:
    """Whether ``model`` is trained and scored under candidate masks: every
    variant but ``no_mask`` is."""
    return model.variant != "no_mask"


def doc_masks(docs: list[DocumentRecord], model: CodingModel,
              index: AuxMaskIndex) -> list[DocMask]:
    """One candidate mask per document; all-ones where ``uses_masks`` is false."""
    if not uses_masks(model):
        return [DocMask.all_ones(model.num_labels) for _ in docs]
    return [make_doc_mask(doc, index) for doc in docs]


def batch_loss(model: CodingModel, docs: list[DocumentRecord], masks: list[DocMask],
               rng: np.random.Generator) -> Tensor:
    """Mean document BCE over one batch; the label side is computed once
    and shared by every document on the tape."""
    h_label = model.label_representations()
    total = None
    for doc, doc_mask in zip(docs, masks):
        y_hat, _ = model.forward_doc(doc.tokens, doc_mask, h_label, train=True, rng=rng)
        doc_loss = bce_loss(y_hat, doc.label_vector(model.num_labels))
        total = doc_loss if total is None else add(total, doc_loss)
    return mul(total, 1.0 / len(docs))


def train(
    train_docs: list[DocumentRecord],
    val_docs: list[DocumentRecord],
    model: CodingModel,
    mask_index: AuxMaskIndex,
    config: TrainConfig,
    ks: tuple[int, ...] = (5, 8, 15),
) -> TrainResult:
    """Mini-batch training with early stopping on validation micro-F1.

    Returns the best-validation parameter snapshot along with the per-epoch
    history.  The candidate-mask index must have been
    built from the training split beforehand.
    """
    if not train_docs:
        raise DataError("empty training split")
    train_masks = doc_masks(train_docs, model, mask_index)
    val_masks = doc_masks(val_docs, model, mask_index)

    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.params, lr=config.lr)
    best = TrainResult(params_arrays={}, best_epoch=-1, best_val_micro_f1=-1.0)
    since_best = 0

    order = np.arange(len(train_docs))
    for epoch in range(config.max_epochs):
        rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            batch = [train_docs[i] for i in batch_idx]
            masks = [train_masks[i] for i in batch_idx]
            model.params.zero_grads()
            with GradTape() as tape:
                loss = batch_loss(model, batch, masks, rng)
                tape.backward(loss)
            loss_value = float(loss.data)
            _check_finite(loss_value, model.params)
            clip_global_norm(model.params, config.clip_norm)
            optimizer.step()
            epoch_loss += loss_value * len(batch)
        epoch_loss /= len(train_docs)

        val_report = evaluate(val_docs, model, val_masks, config.prediction_threshold, ks)
        stats = EpochStats(epoch=epoch, train_loss=epoch_loss,
                           val_micro_f1=val_report.micro_f1, lr=optimizer.lr)
        best.history.append(stats)
        logger.info("epoch %d: train loss %.5f, val micro-F1 %.4f, lr %.3g",
                    epoch, epoch_loss, val_report.micro_f1, optimizer.lr)

        if val_report.micro_f1 > best.best_val_micro_f1:
            best.best_val_micro_f1 = val_report.micro_f1
            best.best_epoch = epoch
            best.params_arrays = {name: p.data.copy() for name, p in model.params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
        optimizer.lr *= config.lr_decay

    model.params.load_arrays(best.params_arrays)
    return best


def score_docs(docs: list[DocumentRecord], model: CodingModel, masks: list[DocMask],
               with_attention: bool = False):
    """``(doc, mask, gated scores, alpha)`` for each of ``docs`` and its ``masks``
    entry in order; ``alpha``, the [L, n] attention weights, is None unless
    ``with_attention``.  When the split is done, one line logs its mask statistics,
    the empty (ungated) count among them."""
    h_label = model.label_representations()
    for doc, doc_mask in zip(docs, masks, strict=True):
        out = model.predict_scores(doc.tokens, doc_mask, h_label, doc_id=doc.doc_id,
                                   with_attention=with_attention)
        yield (doc, doc_mask, *out) if with_attention else (doc, doc_mask, out, None)
    stats = mask_stats(docs, masks)
    logger.info("scored %d docs: %d empty masks (gating suspended), mean size %.1f, recall %s",
                len(docs), stats.empty_docs, stats.mean_mask_size, stats.recall_text)


def collect_scores(
    docs: list[DocumentRecord],
    model: CodingModel,
    masks: list[DocMask],
) -> tuple[np.ndarray, np.ndarray]:
    """(gold, gated scores) matrices for an evaluation split, fixed doc order."""
    gold = np.zeros((len(docs), model.num_labels), dtype=bool)
    scores = np.zeros((len(docs), model.num_labels))
    for row, (doc, _, doc_scores, _) in enumerate(score_docs(docs, model, masks)):
        gold[row] = doc.label_vector(model.num_labels) > 0
        scores[row] = doc_scores
    return gold, scores


def _log_gating_split(gold, scores, masks, threshold: float) -> None:
    """One line: micro-F1 over the documents whose mask gated their scores
    and over those whose empty mask suspended gating, with their counts,
    so that the hard-gating rule is read apart from the blend."""
    suspended = np.array([doc_mask.empty for doc_mask in masks], dtype=bool)
    parts = []
    for name, rows in (("gated", ~suspended), ("suspended", suspended)):
        f1 = micro_macro_f1(gold[rows], scores[rows] >= threshold)[0] if rows.any() else None
        parts.append(f"{name} {int(rows.sum())} docs, micro-F1 "
                     + ("n/a" if f1 is None else f"{f1:.4f}"))
    logger.info("evaluate: %s", "; ".join(parts))


def evaluate(
    docs: list[DocumentRecord],
    model: CodingModel,
    masks: list[DocMask],
    threshold: float,
    ks: tuple[int, ...] = (5, 8, 15),
    label_codes: list[str] | None = None,
) -> MetricsReport:
    """The split's metrics report, after one line that scores its gated
    and its gating-suspended documents apart."""
    gold, scores = collect_scores(docs, model, masks)
    _log_gating_split(gold, scores, masks, threshold)
    return compute_metrics(gold, scores, threshold, ks, label_codes=label_codes)


# ---------------------------------------------------------------------------
# ablation


def _report_summary(report: MetricsReport, result: TrainResult) -> dict:
    return {
        "micro_f1": report.micro_f1,
        "macro_f1": report.macro_f1,
        "micro_auc": report.micro_auc,
        "macro_auc": report.macro_auc,
        "p_at_k": {str(k): v for k, v in sorted(report.p_at_k.items())},
        "best_epoch": result.best_epoch,
        "best_val_micro_f1": result.best_val_micro_f1,
    }


def ablate(
    variants: list[str],
    train_docs: list[DocumentRecord],
    val_docs: list[DocumentRecord],
    test_docs: list[DocumentRecord],
    vocab: Vocabulary,
    catalog: LabelCatalog,
    graph: CooccurrenceGraph,
    mask_index: AuxMaskIndex,
    embedding_matrix: np.ndarray,
    cfg,
) -> dict:
    """Train and evaluate architecture variants on identical data, seed and
    ``embedding_matrix``.

    ``cfg`` is a resolved RunConfig.  Every variant is checked before the
    first one trains.
    """
    check_variants(*variants)
    report: dict = {"seed": cfg.seed, "variants": {}}
    for variant in variants:
        model = model_from_config(cfg, vocab, catalog, graph, embedding_matrix, variant=variant)
        result = train(train_docs, val_docs, model, mask_index, cfg.train_config(), ks=cfg.p_at_k)
        test_report = evaluate(test_docs, model, doc_masks(test_docs, model, mask_index),
                               cfg.prediction_threshold, ks=cfg.p_at_k)
        report["variants"][variant] = _report_summary(test_report, result)
        logger.info("ablate %s: test micro-F1 %.4f", variant, test_report.micro_f1)

    if "full" in report["variants"]:
        full_f1 = report["variants"]["full"]["micro_f1"]
        report["micro_f1_delta_vs_full"] = {
            v: full_f1 - summary["micro_f1"]
            for v, summary in report["variants"].items()
            if v != "full"
        }
    return report


# ---------------------------------------------------------------------------
# checkpointing

_CKPT_MAGIC = b"XMTC-CKPT-v2\n"
_CKPT_KEYS = ("epoch", "params")


def save_checkpoint(path, params_arrays: dict[str, np.ndarray], epoch: int) -> None:
    """Self-describing binary container: magic, manifest length, JSON
    manifest, then one raw blob per parameter.

    Arrays are stored as little-endian float64 bytes, so a reload reproduces
    forward passes bit-exactly.
    """
    names = list(params_arrays)
    manifest = {
        "epoch": epoch,
        "params": [{"name": n, "shape": list(params_arrays[n].shape)} for n in names],
    }
    payload = json.dumps(manifest, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        for n in names:
            fh.write(np.ascontiguousarray(params_arrays[n], dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Returns (parameter arrays, manifest metadata).  A file that is cut
    short, carries trailing bytes or has a malformed manifest is a
    ``DataError``."""
    raw = Path(path).read_bytes()
    if not raw.startswith(_CKPT_MAGIC):
        raise DataError(f"{path}: not a checkpoint file")
    offset = len(_CKPT_MAGIC) + 8
    if len(raw) < offset:
        raise DataError(f"{path}: checkpoint cut short inside its header")
    (length,) = struct.unpack_from("<Q", raw, len(_CKPT_MAGIC))
    try:
        manifest = json.loads(raw[offset : offset + length])
        missing = [k for k in _CKPT_KEYS if k not in manifest]
        if missing:
            raise DataError(f"{path}: checkpoint manifest lacks {missing}")
        shapes = {spec["name"]: tuple(int(d) for d in spec["shape"])
                  for spec in manifest["params"]}
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise DataError(f"{path}: malformed checkpoint manifest ({exc!r})") from None
    if any(d < 0 for shape in shapes.values() for d in shape):
        raise DataError(f"{path}: negative dimension in checkpoint manifest")
    offset += length
    expected = offset + 8 * sum(math.prod(shape) for shape in shapes.values())
    if len(raw) != expected:
        raise DataError(f"{path}: checkpoint is {len(raw)} bytes, its manifest "
                        f"describes {expected}")

    params = {}
    for name, shape in shapes.items():
        count = math.prod(shape)
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        params[name] = arr.reshape(shape).astype(np.float64)
        offset += count * 8
    return params, manifest
