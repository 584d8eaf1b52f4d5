"""Multi-label evaluation: micro/macro F1 and AUC, precision at K.

Binary predictions come from thresholding gated scores; AUC and P@K use the
scores directly.  AUC is the exact Mann-Whitney statistic (rank-based, ties
worth half), identical to pair counting but linearithmic.  Labels without a
gold positive in the evaluated set are skipped by the macro averages, and
labels additionally need a negative for AUC to be defined; skipped counts
are reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


def _binary_f1(tp: float, fp: float, fn: float) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom > 0 else 0.0


def _label_counts(gold: np.ndarray, pred: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-label true positives, false positives and false negatives, [L] each."""
    return tuple(np.sum(g & p, axis=0).astype(float)
                 for g, p in ((gold, pred), (~gold, pred), (gold, ~pred)))


def micro_macro_f1(gold: np.ndarray, pred: np.ndarray) -> tuple[float, float, int]:
    """Returns (micro, macro, labels skipped for lack of positives)."""
    gold = np.asarray(gold, dtype=bool)
    pred = np.asarray(pred, dtype=bool)
    tp, fp, fn = _label_counts(gold, pred)
    micro = _binary_f1(tp.sum(), fp.sum(), fn.sum())
    has_pos = gold.any(axis=0)
    if has_pos.any():
        macro = float(np.mean([_binary_f1(tp[i], fp[i], fn[i]) for i in np.nonzero(has_pos)[0]]))
    else:
        macro = 0.0
    return float(micro), macro, int((~has_pos).sum())


def _auc(y: np.ndarray, s: np.ndarray) -> float | None:
    """Mann-Whitney AUC with average ranks; None if one class is missing."""
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    # a tie group of c scores ending at 1-based rank r shares rank r - (c - 1) / 2
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    return float((ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def micro_macro_auc(gold: np.ndarray, scores: np.ndarray) -> tuple[float, float, int]:
    """Returns (micro, macro, labels skipped because AUC was undefined)."""
    gold = np.asarray(gold, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    per_label = [_auc(gold[:, i], scores[:, i]) for i in range(gold.shape[1])]
    usable = [a for a in per_label if a is not None]
    macro = float(np.mean(usable)) if usable else 0.0
    micro = _auc(gold.reshape(-1), scores.reshape(-1))
    return (micro if micro is not None else 0.0), macro, len(per_label) - len(usable)


def top_k_labels(scores: np.ndarray, k: int) -> list[int]:
    """Indices of the k best scores, ties toward the lower index.

    Labels with score exactly zero are never predicted; hard gating zeroes
    everything outside the candidate mask, so gated-out labels can never
    enter a top-K list.  Positive scores sort first: cutting at k is exact.
    """
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")[:k]
    return [int(i) for i in order if scores[i] > 0.0]


def precision_at_k(gold: np.ndarray, scores: np.ndarray, ks: tuple[int, ...]) -> dict[int, float]:
    """Mean over documents of (gold labels in the top-K list) / K."""
    gold = np.asarray(gold, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    out = {}
    for k in ks:
        vals = []
        for d in range(gold.shape[0]):
            top = top_k_labels(scores[d], k)
            vals.append(sum(1 for i in top if gold[d, i]) / k)
        out[int(k)] = float(np.mean(vals)) if vals else 0.0
    return out


@dataclass
class MetricsReport:
    micro_f1: float
    macro_f1: float
    micro_auc: float
    macro_auc: float
    p_at_k: dict[int, float]
    num_docs: int = 0
    skipped_labels_f1: int = 0
    skipped_labels_auc: int = 0
    per_label: list[dict] = field(default_factory=list, repr=False)

    def to_json(self) -> str:
        payload = {
            "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1,
            "micro_auc": self.micro_auc,
            "macro_auc": self.macro_auc,
            "p_at_k": {str(k): v for k, v in sorted(self.p_at_k.items())},
            "num_docs": self.num_docs,
            "skipped_labels_f1": self.skipped_labels_f1,
            "skipped_labels_auc": self.skipped_labels_auc,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def write_per_label_tsv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("label\tsupport\ttp\tfp\tfn\tprecision\trecall\tf1\n")
            for row in self.per_label:
                fh.write(
                    "{label}\t{support}\t{tp}\t{fp}\t{fn}\t"
                    "{precision:.6f}\t{recall:.6f}\t{f1:.6f}\n".format(**row)
                )


def compute_metrics(
    gold: np.ndarray,
    scores: np.ndarray,
    threshold: float,
    ks: tuple[int, ...] = (5, 8, 15),
    label_codes: list[str] | None = None,
) -> MetricsReport:
    """Full report from a gold matrix and a gated score matrix, both [N, L]."""
    gold = np.asarray(gold, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    if gold.shape != scores.shape:
        raise DataError(f"gold shape {gold.shape} != score shape {scores.shape}")
    if not gold.any():
        raise DataError("evaluation set has no gold labels")
    pred = scores >= threshold
    micro_f1, macro_f1, skipped_f1 = micro_macro_f1(gold, pred)
    micro_auc, macro_auc, skipped_auc = micro_macro_auc(gold, scores)

    per_label = []
    if label_codes is not None:
        counts = zip(*(c.tolist() for c in _label_counts(gold, pred)))
        for code, support, (tp, fp, fn) in zip(label_codes, gold.sum(axis=0).tolist(), counts):
            per_label.append({
                "label": code,
                "support": support,
                "tp": int(tp),
                "fp": int(fp),
                "fn": int(fn),
                "precision": tp / (tp + fp) if tp + fp > 0 else 0.0,
                "recall": tp / (tp + fn) if tp + fn > 0 else 0.0,
                "f1": _binary_f1(tp, fp, fn),
            })

    return MetricsReport(
        micro_f1=micro_f1,
        macro_f1=macro_f1,
        micro_auc=micro_auc,
        macro_auc=macro_auc,
        p_at_k=precision_at_k(gold, scores, ks),
        num_docs=gold.shape[0],
        skipped_labels_f1=skipped_f1,
        skipped_labels_auc=skipped_auc,
        per_label=per_label,
    )
