"""Corpus ingestion: text preprocessing, vocabulary, catalogs, document records.

Raw corpora are JSON Lines, one document per line:

    {"doc_id": str, "text": str, "labels": [str],
     "drg": [str], "cpt": [str], "drugs": [str]}

``labels`` and the auxiliary code fields are optional at predict time.  The
label catalog is a two-column TSV of ``code<TAB>descriptor``.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .config import config_stamp
from .errors import DataError, read_text

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
NUM_TOKEN = "<num>"

TERMINOLOGIES = ("drg", "cpt", "drugs")

DEFAULT_MAX_LEN = 4000

_DEID_RE = re.compile(r"\[\*\*.*?\*\*\]", re.DOTALL)
# "<num>" placeholders pass through unchanged so preprocessing is idempotent.
_TOKEN_RE = re.compile(r"<num>|[a-z0-9]+")


def preprocess(text: str, max_len: int = DEFAULT_MAX_LEN) -> list[str]:
    """Normalize raw text into a token list.

    De-identification placeholders (``[** ... **]`` spans) are removed,
    everything is lowercased, punctuation acts as whitespace, tokens mixing
    digits and letters (``3a``, ``4kg``) are dropped, pure numbers become
    the ``<num>`` placeholder, and the result is truncated to ``max_len``.
    """
    text = _DEID_RE.sub(" ", text).lower()
    out: list[str] = []
    for tok in _TOKEN_RE.findall(text):
        # a token is "<num>" or ASCII alphanumeric; neither alpha nor digit is mixed
        if tok.isalpha():
            out.append(tok)
        elif tok == NUM_TOKEN or tok.isdigit():
            out.append(NUM_TOKEN)
        else:
            continue
        if len(out) == max_len:
            break
    return out


class Vocabulary:
    """Token/id bijection with reserved PAD=0 and UNK=1 rows."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = [PAD_TOKEN, UNK_TOKEN, *tokens]
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def encode(self, tokens: list[str]) -> list[int]:
        get = self.token_to_id.get
        return [get(t, UNK_ID) for t in tokens]

    def save(self, path, config_hash: str | None = None) -> None:
        lines = []
        if config_hash:
            lines.append(f"# config={config_hash}")
        lines.extend(self.id_to_token)
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> tuple["Vocabulary", str]:
        """The vocabulary saved at ``path`` and its config stamp."""
        lines = read_text(path).splitlines()
        line_of: dict[str, int] = {}  # token -> its line, in file order
        for ln, line in enumerate(lines, start=1):
            if not line.startswith("#") and line_of.setdefault(line, ln) != ln:
                raise DataError(f"{path}:{ln}: duplicate token {line!r}")
        tokens = list(line_of)
        if tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise DataError(f"{path}: not a vocabulary file (missing special tokens)")
        return cls(tokens[2:]), config_stamp(lines)


def build_vocab(token_docs, min_count: int = 3) -> Vocabulary:
    """Build a vocabulary from an iterable of token lists.

    Tokens seen at least ``min_count`` times get ids ordered by frequency
    (descending) then lexicographically, which makes the result a pure
    function of the corpus contents.
    """
    counts: Counter[str] = Counter()
    n_docs = 0
    for tokens in token_docs:
        n_docs += 1
        counts.update(tokens)
    if n_docs == 0:
        raise DataError("cannot build a vocabulary from an empty corpus")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(kept)


class LabelCatalog:
    """Ordered label space: code strings and their full-text descriptors.

    Row order in the catalog file fixes the label id order used everywhere
    else (adjacency matrix, mask vectors, classifier outputs).
    """

    def __init__(self, codes: list[str], descriptors: list[str]):
        if len(codes) != len(descriptors):
            raise DataError("catalog codes and descriptors differ in length")
        self.codes = list(codes)
        self.descriptors = list(descriptors)
        self.code_to_id = {c: i for i, c in enumerate(self.codes)}
        if len(self.code_to_id) != len(self.codes):
            raise DataError("catalog contains duplicate label codes")

    def __len__(self) -> int:
        return len(self.codes)

    def id_of(self, code: str) -> int:
        try:
            return self.code_to_id[code]
        except KeyError:
            raise DataError(f"label code {code!r} not present in the catalog") from None

    @classmethod
    def load_tsv(cls, path) -> "LabelCatalog":
        line_of: dict[str, int] = {}  # code -> its line, in file order
        descriptors = []
        for ln, line in enumerate(read_text(path).splitlines(), start=1):
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{path}:{ln}: expected 'code<TAB>descriptor', got {line!r}")
            if line_of.setdefault(parts[0], ln) != ln:
                raise DataError(f"{path}:{ln}: duplicate label code {parts[0]!r}")
            descriptors.append(parts[1])
        if not descriptors:
            raise DataError(f"{path}: empty label catalog")
        return cls(list(line_of), descriptors)

    def save_tsv(self, path) -> None:
        with open(path, "w") as fh:
            for code, desc in zip(self.codes, self.descriptors):
                fh.write(f"{code}\t{desc}\n")


@dataclass
class DocumentRecord:
    """One document after preprocessing and id resolution."""

    doc_id: str
    tokens: list[int]
    labels: set[int]
    aux_codes: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: {t: () for t in TERMINOLOGIES}
    )

    def label_ids(self, num_labels) -> list[int]:
        """Sorted gold label ids; a label id outside the ``num_labels``-label
        catalog is a ``DataError`` naming the document."""
        ids = sorted(self.labels)
        for lab in ids:
            if lab < 0 or lab >= num_labels:
                raise DataError(f"document {self.doc_id}: label id {lab} outside catalog")
        return ids

    def label_vector(self, num_labels):
        """0/1 gold vector over ``num_labels`` labels."""
        import numpy as np

        vec = np.zeros(num_labels)
        vec[self.label_ids(num_labels)] = 1.0
        return vec


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _raw_row_problem(rec) -> str | None:
    """What is wrong with one raw-corpus row, or None."""
    if not isinstance(rec, dict) or "doc_id" not in rec or "text" not in rec:
        return "document needs 'doc_id' and 'text' fields"
    if not isinstance(rec["text"], str):
        return "text must be a string"
    for key in ("labels", *TERMINOLOGIES):
        if not _is_str_list(rec.get(key, [])):
            return f"{key} must be a list of strings"
    return None


def load_corpus_jsonl(path) -> list[dict]:
    """Read a raw JSONL corpus into dicts; a row that breaks the schema is a
    ``DataError`` naming the file and line.  Rows end at newlines only: JSON
    strings may hold U+2028 and the other breaks ``splitlines`` cuts at."""
    docs = []
    for ln, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{ln}: invalid JSON ({exc})") from None
        problem = _raw_row_problem(rec)
        if problem:
            raise DataError(f"{path}:{ln}: {problem}")
        docs.append(rec)
    if not docs:
        raise DataError(f"{path}: empty corpus")
    return docs


def encode_documents(
    raw_docs: list[dict],
    vocab: Vocabulary,
    catalog: LabelCatalog,
    max_len: int = DEFAULT_MAX_LEN,
    source: str = "corpus",
) -> list[DocumentRecord]:
    """Preprocess and id-encode raw documents against a vocabulary/catalog.

    A document whose text yields no tokens is a ``DataError`` naming
    ``source`` (the file the documents came from) and the document."""
    records = []
    for rec in raw_docs:
        tokens = vocab.encode(preprocess(rec["text"], max_len))
        if not tokens:
            raise DataError(f"{source}: document {rec['doc_id']!r} has no tokens")
        labels = {catalog.id_of(code) for code in rec.get("labels", [])}
        aux = {t: tuple(rec.get(t, ())) for t in TERMINOLOGIES}
        records.append(
            DocumentRecord(
                doc_id=str(rec["doc_id"]),
                tokens=tokens,
                labels=labels,
                aux_codes=aux,
            )
        )
    return records


# ---------------------------------------------------------------------------
# encoded-corpus artifact (id space, loadable without re-tokenizing)

_ENCODED_FORMAT = "xmtc-encoded-corpus"


def save_encoded(records: list[DocumentRecord], path, config_hash: str = "") -> None:
    with open(path, "w") as fh:
        header = {"format": _ENCODED_FORMAT, "version": 1, "config": config_hash}
        fh.write(json.dumps(header) + "\n")
        for r in records:
            row = {
                "doc_id": r.doc_id,
                "tokens": r.tokens,
                "labels": sorted(r.labels),
                "drg": list(r.aux_codes["drg"]),
                "cpt": list(r.aux_codes["cpt"]),
                "drugs": list(r.aux_codes["drugs"]),
            }
            fh.write(json.dumps(row) + "\n")


def _ids_in_range(ids, size: int) -> bool:
    return isinstance(ids, list) and all(type(i) is int and 0 <= i < size for i in ids)


def _encoded_row_problem(row, vocab_size: int, num_labels: int) -> str | None:
    """What is wrong with one encoded-corpus row, or None."""
    if not isinstance(row, dict) or not {"doc_id", "tokens", "labels"} <= row.keys():
        return "a row needs 'doc_id', 'tokens' and 'labels'"
    if not isinstance(row["doc_id"], str):
        return "doc_id must be a string"
    if not _ids_in_range(row["tokens"], vocab_size):
        return f"token ids must be integers in [0, {vocab_size})"
    if not _ids_in_range(row["labels"], num_labels):
        return f"label ids must be integers in [0, {num_labels})"
    for term in TERMINOLOGIES:
        if not _is_str_list(row.get(term, [])):
            return f"{term} codes must be a list of strings"
    return None


def load_encoded(path, vocab_size: int, num_labels: int) -> tuple[list[DocumentRecord], str]:
    """Load an encoded corpus artifact; returns (records, config_hash).

    Every token id must index the ``vocab_size``-row vocabulary and every
    label id the ``num_labels``-label catalog; a malformed line is a
    ``DataError`` naming the file and line.
    """
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty encoded corpus")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:1: invalid JSON header ({exc})") from None
    if not isinstance(header, dict) or header.get("format") != _ENCODED_FORMAT:
        raise DataError(f"{path}: not an encoded corpus artifact")
    records = []
    for ln, line in enumerate(lines[1:], start=2):
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{ln}: invalid JSON ({exc})") from None
        problem = _encoded_row_problem(row, vocab_size, num_labels)
        if problem:
            raise DataError(f"{path}:{ln}: {problem}")
        records.append(
            DocumentRecord(
                doc_id=row["doc_id"],
                tokens=row["tokens"],
                labels=set(row["labels"]),
                aux_codes={t: tuple(row.get(t, ())) for t in TERMINOLOGIES},
            )
        )
    return records, header.get("config", "")
