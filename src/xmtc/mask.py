"""Per-document candidate-label masks from auxiliary code terminologies.

Three auxiliary terminologies (``drg``, ``cpt``, ``drugs``) are counted
against labels on the training split.  A code's candidate set keeps every
label whose conditional probability given the code strictly exceeds the
threshold; a document's mask is the union of candidate sets over all of its
codes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import TERMINOLOGIES, DocumentRecord, LabelCatalog
from .errors import DataError, ShapeError, read_text
from .graph import conditional_pairs
from .tensor import Tensor, mul

logger = logging.getLogger(__name__)

DEFAULT_TAU = 0.005

# one row of a sparse table: (label ids in ascending order, values)
SparseRow = tuple[np.ndarray, np.ndarray]


@dataclass
class AuxMaskIndex:
    """Conditional co-occurrence tables P(label | aux code).

    The full probability tables are kept (threshold 0), so any tau can be
    applied after the fact without recounting the corpus.  A code co-occurs
    with few of the L labels, so each table row is sparse: a pair of arrays
    (label ids in ascending order, probabilities).
    """

    num_labels: int
    tau: float = DEFAULT_TAU
    probs: dict[str, dict[str, SparseRow]] = field(default_factory=dict)

    def candidates(self, terminology: str, code: str) -> np.ndarray | None:
        """Ids of the candidate labels of one code, ascending, or None if
        the code is unknown (never seen in training)."""
        row = self.probs.get(terminology, {}).get(code)
        if row is None:
            return None
        ids, p = row
        return ids[p > self.tau]


def build_mask_index(
    train_docs: list[DocumentRecord],
    num_labels: int,
    tau: float = DEFAULT_TAU,
) -> AuxMaskIndex:
    """Count label / auxiliary-code co-occurrence on the training split.

    A code occurrence is document-level (a code listed twice in one record
    counts once).  A code that co-occurs with no label, because it never
    occurs or only on records without labels, is absent from the index, as
    it is from the saved file, so a built and a loaded index are equal.
    """
    label_lists = [doc.label_ids(num_labels) for doc in train_docs]
    probs: dict[str, dict[str, SparseRow]] = {}
    for term in TERMINOLOGIES:
        row_of: dict[str, int] = {}
        code_rows = [[row_of.setdefault(code, len(row_of))
                      for code in dict.fromkeys(doc.aux_codes.get(term, ()))]
                     for doc in train_docs]
        rows, label, p = conditional_pairs(code_rows, label_lists, num_labels)
        bounds = np.searchsorted(rows, np.arange(len(row_of) + 1))
        probs[term] = {code: (label[bounds[row]:bounds[row + 1]], p[bounds[row]:bounds[row + 1]])
                       for code, row in row_of.items() if bounds[row] < bounds[row + 1]}
    return AuxMaskIndex(num_labels=num_labels, tau=tau, probs=probs)


@dataclass
class DocMask:
    """Candidate label set for one document, as a set and an aligned 0/1
    vector (same label order as the representation matrix)."""

    labels: set[int]
    vec: np.ndarray

    @property
    def empty(self) -> bool:
        return not self.labels

    @classmethod
    def all_ones(cls, num_labels: int) -> "DocMask":
        return cls(labels=set(range(num_labels)), vec=np.ones(num_labels))


def make_doc_mask(doc: DocumentRecord, index: AuxMaskIndex) -> DocMask:
    """Union of candidate sets over the document's codes in all three
    terminologies.  Codes unseen in training are skipped (logged), since
    inference-time records may carry new codes."""
    vec = np.zeros(index.num_labels)
    for term in TERMINOLOGIES:
        for code in doc.aux_codes.get(term, ()):
            cand = index.candidates(term, code)
            if cand is None:
                logger.debug("doc %s: unknown %s code %r skipped", doc.doc_id, term, code)
                continue
            vec[cand] = 1.0
    return DocMask(labels=set(np.flatnonzero(vec).tolist()), vec=vec)


def apply_mask(h_label: Tensor, mask: DocMask) -> Tensor:
    """Zero the representation rows of labels outside the candidate set.

    Gradient flow through zeroed rows is blocked by the multiplication.  This
    is the dense form of the mask; ``CodingModel.forward_doc`` computes the
    same model by attending with the candidate rows only."""
    if h_label.shape[0] != mask.vec.shape[0]:
        raise ShapeError(
            f"label representation rows {h_label.shape[0]} != mask length {mask.vec.shape[0]}"
        )
    return mul(h_label, Tensor(mask.vec[:, None]))


@dataclass
class MaskStats:
    recall_of_gold: float
    mean_mask_size: float
    mask_fraction: float
    empty_docs: int  # documents whose hard gating is suspended


def mask_stats(docs: list[DocumentRecord], masks: list[DocMask]) -> MaskStats:
    """Gold-label recall, size statistics and the empty count of ``masks``,
    the masks of ``docs`` in the same order."""
    sizes = [len(mask.labels) for mask in masks]
    gold_pairs = sum(len(doc.labels) for doc in docs)
    covered = sum(len(doc.labels & mask.labels) for doc, mask in zip(docs, masks))
    mean_size = float(np.mean(sizes)) if sizes else 0.0
    return MaskStats(
        recall_of_gold=covered / gold_pairs if gold_pairs else 0.0,
        mean_mask_size=mean_size,
        mask_fraction=mean_size / masks[0].vec.size if masks else 0.0,
        empty_docs=sizes.count(0),
    )


# ---------------------------------------------------------------------------
# artifact I/O


def save_mask_index(index: AuxMaskIndex, catalog: LabelCatalog, path, config_hash: str = "") -> None:
    """Persist the full probability tables (no tau filtering) and the tau
    the index was built with."""
    with open(path, "w") as fh:
        fh.write(f"# xmtc-mask-index v1 config={config_hash} tau={float(index.tau)!r}\n")
        for term in TERMINOLOGIES:
            fh.write(f"[{term}]\n")
            for code in sorted(index.probs.get(term, {})):
                ids, p = index.probs[term][code]
                for lab, prob in zip(ids.tolist(), p.tolist()):
                    if prob:
                        fh.write(f"{code}\t{catalog.codes[lab]}\t{prob!r}\n")


def load_mask_index(path, catalog: LabelCatalog) -> tuple[AuxMaskIndex, str]:
    """Load a saved index with its saved tau; returns (index, stamp), the
    stamp being the header's ``config=`` hash, or "" when it has none.
    A malformed line, a ``tau`` outside [0, 1), a probability that is not a
    number in [0, 1] or a label code absent from ``catalog`` is a
    ``DataError`` naming the file and line.  A file with no lines, or one
    that lacks any of the three section lines ``save_mask_index`` always
    writes, is one naming the file (and the first missing section)."""
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty mask index file")
    saved_tau, stamp = DEFAULT_TAU, ""
    header = int(lines[0].startswith("#"))  # 1 if line 1 is the header
    for part in lines[0].split() if header else []:
        if part.startswith("config="):
            stamp = part[len("config="):]
        if part.startswith("tau="):
            try:
                saved_tau = float(part[len("tau="):])
            except ValueError:
                raise DataError(f"{path}:1: malformed header field {part!r}") from None
            if not 0.0 <= saved_tau < 1.0:
                raise DataError(f"{path}:1: tau {part[len('tau='):]!r} outside [0, 1)")
    entries: dict[str, dict[str, dict[int, float]]] = {}
    term = None
    for ln, line in enumerate(lines[header:], start=1 + header):
        if not line.strip():
            continue
        if line.startswith("[") and line.endswith("]"):
            term = line[1:-1]
            if term not in TERMINOLOGIES:
                raise DataError(f"{path}:{ln}: unknown terminology {term!r}")
            entries.setdefault(term, {})
            continue
        if term is None:
            raise DataError(f"{path}:{ln}: entry before any terminology section")
        try:
            code, label_code, prob_s = line.split("\t")
            prob = float(prob_s)
        except ValueError:
            raise DataError(
                f"{path}:{ln}: expected 'code<TAB>label<TAB>prob', got {line!r}"
            ) from None
        if not 0.0 <= prob <= 1.0:
            raise DataError(f"{path}:{ln}: probability {prob_s!r} outside [0, 1]")
        if label_code not in catalog.code_to_id:
            raise DataError(f"{path}:{ln}: label code {label_code!r} not in the catalog")
        entries[term].setdefault(code, {})[catalog.code_to_id[label_code]] = prob
    missing = [term for term in TERMINOLOGIES if term not in entries]
    if missing:
        raise DataError(f"{path}: no [{missing[0]}] section")
    probs = {
        term: {code: (np.array(sorted(row)),
                      np.array([row[lab] for lab in sorted(row)]))
               for code, row in entries[term].items()}
        for term in TERMINOLOGIES
    }
    return AuxMaskIndex(num_labels=len(catalog), tau=saved_tau, probs=probs), stamp
