"""Synthetic corpora with planted, verifiable structure.

Documents draw labels from a long-tailed (Zipf-like) distribution, closed
under planted always-co-occur cliques.  Text is a concatenation of keyword
runs (one run per gold label, sampled from that label's private keyword
pool) followed by noise tokens, so each label is detectable from local
n-grams.  Auxiliary codes fire with a configured probability whenever their
planted label set is present, which makes the conditional tables
P(label | code) exactly 1.0 on the planted pairs.

A rejection pass appends targeted extra documents to break any accidental
perfect co-occurrence between non-clique labels, keeping threshold-1 graph
edges exactly the planted cliques.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import TERMINOLOGIES, DocumentRecord, LabelCatalog
from .errors import ConfigError, DataError

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _word(i: int, width: int = 4) -> str:
    """Letters-only token for index i (survives text preprocessing intact)."""
    chars = []
    for _ in range(width):
        chars.append(_LETTERS[i % 26])
        i //= 26
    return "".join(reversed(chars))


@dataclass
class GeneratorSpec:
    num_labels: int
    vocab_size: int
    num_docs: int
    tail_exponent: float = 1.0
    cliques: tuple[tuple[int, ...], ...] = ()
    keywords_per_label: int = 6
    noise_rate: float = 0.3
    aux_spec: dict[str, dict[str, tuple[tuple[int, ...], float]]] = field(default_factory=dict)
    doc_length: tuple[int, int] = (30, 60)
    labels_per_doc: tuple[int, int] = (1, 4)
    silent_labels: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.keywords_per_label * self.num_labels > self.vocab_size:
            raise ConfigError(
                f"infeasible spec: {self.keywords_per_label} keywords x "
                f"{self.num_labels} labels exceeds vocabulary size {self.vocab_size}"
            )
        if self.noise_rate > 0 and self.keywords_per_label * self.num_labels == self.vocab_size:
            raise ConfigError("noise_rate > 0 needs spare vocabulary beyond the keywords")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ConfigError(f"noise_rate must be in [0, 1), got {self.noise_rate}")
        if self.doc_length[0] > self.doc_length[1] or self.doc_length[0] < 1:
            raise ConfigError(f"bad doc_length range {self.doc_length}")
        seen: set[int] = set()
        for clique in self.cliques:
            members = set(clique)
            if members & seen:
                raise ConfigError("cliques must be disjoint")
            if any(m < 0 or m >= self.num_labels for m in members):
                raise ConfigError(f"clique member outside label range: {clique}")
            seen |= members
        if any(s < 0 or s >= self.num_labels for s in self.silent_labels):
            raise ConfigError(f"silent label outside range: {self.silent_labels}")
        for term, codes in self.aux_spec.items():
            if term not in TERMINOLOGIES:
                raise ConfigError(f"unknown terminology {term!r} in aux_spec")
            for code, (labels, prob) in codes.items():
                if not 0.0 < prob <= 1.0:
                    raise ConfigError(f"aux code {code!r}: emission probability {prob} not in (0, 1]")
                if any(lab < 0 or lab >= self.num_labels for lab in labels):
                    raise ConfigError(f"aux code {code!r} references labels outside range")


def standard_aux_spec(num_labels: int, emit_prob: float = 0.9) -> dict:
    """One per-label code in each of the three terminologies.

    With three independent chances per gold label, coverage of a label by
    at least one fired code is 1 - (1 - emit_prob)^3.
    """
    spec: dict[str, dict[str, tuple[tuple[int, ...], float]]] = {}
    prefixes = {"drg": "DRG", "cpt": "CPT", "drugs": "RX"}
    for term in TERMINOLOGIES:
        spec[term] = {
            f"{prefixes[term]}{lab:04d}": ((lab,), emit_prob) for lab in range(num_labels)
        }
    return spec


def standard_spec(
    num_labels: int = 200,
    num_docs: int = 5000,
    seed: int = 0,
    clique_size: int = 3,
    num_cliques: int | None = None,
    keywords_per_label: int = 6,
    noise_rate: float = 0.25,
    doc_length: tuple[int, int] = (30, 60),
    tail_exponent: float = 1.0,
    emit_prob: float = 0.9,
    silent_per_clique: int = 0,
) -> GeneratorSpec:
    """The corpus family used throughout the verification suite.

    ``silent_per_clique`` marks the last members of each clique as silent:
    present in the gold set but absent from the text, like diagnoses that a
    note never spells out and that must be inferred from co-occurring codes.
    """
    if num_cliques is None:
        num_cliques = num_labels // 10
    cliques = tuple(
        tuple(range(i * clique_size, (i + 1) * clique_size)) for i in range(num_cliques)
    )
    silent: list[int] = []
    if silent_per_clique:
        for clique in cliques:
            silent.extend(clique[-silent_per_clique:])
    vocab_size = keywords_per_label * num_labels + max(50, num_labels)
    return GeneratorSpec(
        num_labels=num_labels,
        vocab_size=vocab_size,
        num_docs=num_docs,
        tail_exponent=tail_exponent,
        cliques=cliques,
        keywords_per_label=keywords_per_label,
        noise_rate=noise_rate,
        aux_spec=standard_aux_spec(num_labels, emit_prob),
        doc_length=doc_length,
        silent_labels=tuple(silent),
        seed=seed,
    )


@dataclass
class GroundTruth:
    """What the generator planted, for downstream verification."""

    doc_labels: dict[str, tuple[str, ...]]
    cliques: tuple[tuple[str, ...], ...]
    planted_aux: dict[str, dict[str, tuple[str, ...]]]  # terminology -> code -> labels
    aux_tables: dict[str, dict[str, dict[str, float]]]  # empirical P(label | code)
    perfect_pairs: tuple[tuple[str, str], ...]  # empirical P(j|i) == 1 pairs, i != j
    label_weights: dict[str, float]  # sampling weights behind the long tail

    def to_json(self) -> str:
        payload = {
            "doc_labels": {k: list(v) for k, v in self.doc_labels.items()},
            "cliques": [list(c) for c in self.cliques],
            "planted_aux": {t: {c: list(v) for c, v in m.items()}
                            for t, m in self.planted_aux.items()},
            "aux_tables": self.aux_tables,
            "perfect_pairs": [list(p) for p in self.perfect_pairs],
            "label_weights": self.label_weights,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GroundTruth":
        raw = json.loads(text)
        return cls(
            doc_labels={k: tuple(v) for k, v in raw["doc_labels"].items()},
            cliques=tuple(tuple(c) for c in raw["cliques"]),
            planted_aux={t: {c: tuple(v) for c, v in m.items()}
                         for t, m in raw["planted_aux"].items()},
            aux_tables=raw["aux_tables"],
            perfect_pairs=tuple((a, b) for a, b in raw["perfect_pairs"]),
            label_weights=raw["label_weights"],
        )


def _label_code(i: int) -> str:
    return f"L{i:04d}"


class _DocFactory:
    def __init__(self, spec: GeneratorSpec):
        self.spec = spec
        self.keywords = [
            [_word(lab * spec.keywords_per_label + j) for j in range(spec.keywords_per_label)]
            for lab in range(spec.num_labels)
        ]
        self.noise_vocab = [
            _word(i) for i in range(spec.keywords_per_label * spec.num_labels, spec.vocab_size)
        ]
        weights = 1.0 / np.arange(1, spec.num_labels + 1) ** spec.tail_exponent
        self.weights = weights / weights.sum()
        self.clique_of = {m: tuple(c) for c in spec.cliques for m in c}
        self.silent = set(spec.silent_labels)

    def close(self, labels: set[int]) -> set[int]:
        closed = set(labels)
        for lab in labels:
            closed.update(self.clique_of.get(lab, ()))
        return closed

    def sample_labels(self, rng: np.random.Generator) -> set[int]:
        lo, hi = self.spec.labels_per_doc
        n_base = int(rng.integers(lo, hi + 1))
        base = rng.choice(self.spec.num_labels, size=min(n_base, self.spec.num_labels),
                          replace=False, p=self.weights)
        return self.close(set(int(b) for b in base))

    def build_doc(self, doc_id: str, labels: set[int], rng: np.random.Generator) -> dict:
        spec = self.spec
        length = int(rng.integers(spec.doc_length[0], spec.doc_length[1] + 1))
        n_noise = int(round(spec.noise_rate * length))
        ordered = sorted(labels)
        # silent labels leave no keyword trace: they are only inferable from
        # co-occurrence with their clique partners and from auxiliary codes
        emitting = [lab for lab in ordered if lab not in self.silent] or ordered[:1]
        # every emitting label contributes at least two keyword tokens
        n_kw = max(length - n_noise, 2 * len(emitting))
        counts = np.full(len(emitting), n_kw // len(emitting))
        counts[: n_kw % len(emitting)] += 1
        tokens: list[str] = []
        for lab, cnt in zip(emitting, counts):
            picks = rng.integers(0, spec.keywords_per_label, size=int(cnt))
            tokens.extend(self.keywords[lab][p] for p in picks)
        if n_noise and self.noise_vocab:
            picks = rng.integers(0, len(self.noise_vocab), size=n_noise)
            tokens.extend(self.noise_vocab[p] for p in picks)

        doc = {
            "doc_id": doc_id,
            "text": " ".join(tokens),
            "labels": [_label_code(lab) for lab in ordered],
        }
        for term in TERMINOLOGIES:
            fired = []
            for code in sorted(spec.aux_spec.get(term, {})):
                code_labels, prob = spec.aux_spec[term][code]
                if set(code_labels) <= labels and rng.random() < prob:
                    fired.append(code)
            doc[term] = fired
        return doc


def generate(spec: GeneratorSpec) -> tuple[list[dict], LabelCatalog, GroundTruth]:
    """Produce (raw documents, label catalog, ground truth).

    Deterministic for a fixed spec: every document draws from its own
    child seed, so the corpus is reproducible token for token.
    """
    factory = _DocFactory(spec)
    root = np.random.SeedSequence(spec.seed)
    # one child per document plus headroom for rejection-pass extras
    children = root.spawn(spec.num_docs + spec.num_labels * 4)
    next_child = 0

    docs: list[dict] = []
    label_sets: list[set[int]] = []
    for i in range(spec.num_docs):
        rng = np.random.default_rng(children[next_child])
        next_child += 1
        labels = factory.sample_labels(rng)
        docs.append(factory.build_doc(f"doc{i:06d}", labels, rng))
        label_sets.append(labels)

    # Rejection pass: break accidental always-co-occurrence between labels
    # that are not clique partners by appending a bare closure({i}) document.
    for _ in range(4):
        offenders = _accidental_sources(label_sets, spec, factory)
        if not offenders:
            break
        for src in offenders:
            rng = np.random.default_rng(children[next_child])
            next_child += 1
            labels = factory.close({src})
            docs.append(factory.build_doc(f"doc{len(docs):06d}", labels, rng))
            label_sets.append(labels)
    if _accidental_sources(label_sets, spec, factory):
        raise DataError("rejection pass failed to eliminate accidental perfect pairs")

    catalog = LabelCatalog(
        codes=[_label_code(i) for i in range(spec.num_labels)],
        descriptors=[" ".join(factory.keywords[i]) for i in range(spec.num_labels)],
    )
    truth = _ground_truth(docs, label_sets, spec, factory)
    return docs, catalog, truth


def _accidental_sources(label_sets, spec: GeneratorSpec, factory: _DocFactory) -> list[int]:
    l = spec.num_labels
    occur = np.zeros((len(label_sets), l))
    for row, labels in enumerate(label_sets):
        occur[row, sorted(labels)] = 1.0
    joint = occur.T @ occur
    singles = np.diag(joint)
    sources = set()
    for i in range(l):
        if singles[i] == 0:
            continue
        clique = set(factory.clique_of.get(i, (i,)))
        perfect = np.nonzero(joint[i] == singles[i])[0]
        for j in perfect:
            if j != i and int(j) not in clique:
                sources.add(i)
                break
    return sorted(sources)


def _ground_truth(docs, label_sets, spec: GeneratorSpec, factory: _DocFactory) -> GroundTruth:
    l = spec.num_labels
    occur = np.zeros((len(label_sets), l))
    for row, labels in enumerate(label_sets):
        occur[row, sorted(labels)] = 1.0
    joint = occur.T @ occur
    singles = np.diag(joint)
    perfect = []
    for i in range(l):
        if singles[i] == 0:
            continue
        for j in np.nonzero(joint[i] == singles[i])[0]:
            if int(j) != i:
                perfect.append((_label_code(i), _label_code(int(j))))

    aux_tables: dict[str, dict[str, dict[str, float]]] = {t: {} for t in TERMINOLOGIES}
    code_counts: dict[str, dict[str, int]] = {t: {} for t in TERMINOLOGIES}
    pair_counts: dict[str, dict[str, np.ndarray]] = {t: {} for t in TERMINOLOGIES}
    for doc, labels in zip(docs, label_sets):
        for term in TERMINOLOGIES:
            for code in doc[term]:
                if code not in code_counts[term]:
                    code_counts[term][code] = 0
                    pair_counts[term][code] = np.zeros(l)
                code_counts[term][code] += 1
                for lab in labels:
                    pair_counts[term][code][lab] += 1
    for term in TERMINOLOGIES:
        for code, total in code_counts[term].items():
            probs = pair_counts[term][code] / total
            aux_tables[term][code] = {
                _label_code(lab): float(probs[lab]) for lab in np.nonzero(probs)[0]
            }

    return GroundTruth(
        doc_labels={doc["doc_id"]: tuple(doc["labels"]) for doc in docs},
        cliques=tuple(tuple(_label_code(m) for m in c) for c in spec.cliques),
        planted_aux={
            term: {code: tuple(_label_code(lab) for lab in labels)
                   for code, (labels, _) in sorted(spec.aux_spec.get(term, {}).items())}
            for term in TERMINOLOGIES
        },
        aux_tables=aux_tables,
        perfect_pairs=tuple(perfect),
        label_weights={_label_code(i): float(factory.weights[i]) for i in range(l)},
    )


# ---------------------------------------------------------------------------
# verification


@dataclass
class VerifyReport:
    passed: bool
    flagged_docs: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def verify(docs: list[dict], truth: GroundTruth) -> VerifyReport:
    """Audit a corpus against its ground truth.

    Checks per-document gold labels, clique closure, the planted aux-code
    implication (code fired => planted labels present), and recomputes the
    empirical conditional tables, which must match exactly.
    """
    flagged: set[str] = set()
    problems: list[str] = []
    clique_of: dict[str, set[str]] = {}
    for clique in truth.cliques:
        for member in clique:
            clique_of[member] = set(clique)

    counts: dict[str, dict[str, int]] = {t: {} for t in TERMINOLOGIES}
    pair: dict[str, dict[str, dict[str, int]]] = {t: {} for t in TERMINOLOGIES}
    for doc in docs:
        doc_id = doc["doc_id"]
        labels = tuple(doc.get("labels", ()))
        expected = truth.doc_labels.get(doc_id)
        if expected is None:
            flagged.add(doc_id)
            problems.append(f"{doc_id}: not present in ground truth")
            continue
        if tuple(labels) != expected:
            flagged.add(doc_id)
            problems.append(f"{doc_id}: labels {labels} != planted {expected}")
        label_set = set(labels)
        for lab in labels:
            missing = clique_of.get(lab, set()) - label_set
            if missing:
                flagged.add(doc_id)
                problems.append(f"{doc_id}: clique of {lab} missing {sorted(missing)}")
        for term in TERMINOLOGIES:
            for code in doc.get(term, ()):
                planted = set(truth.planted_aux.get(term, {}).get(code, ()))
                if planted and not planted <= label_set:
                    flagged.add(doc_id)
                    problems.append(f"{doc_id}: {term} code {code} fired without its labels")
                counts[term][code] = counts[term].get(code, 0) + 1
                row = pair[term].setdefault(code, {})
                for lab in label_set:
                    row[lab] = row.get(lab, 0) + 1

    for term in TERMINOLOGIES:
        recomputed = {
            code: {lab: cnt / counts[term][code] for lab, cnt in rows.items()}
            for code, rows in pair[term].items()
        }
        expected_tables = truth.aux_tables.get(term, {})
        if set(recomputed) != set(expected_tables):
            problems.append(f"{term}: code set differs from ground truth")
        else:
            for code, rows in recomputed.items():
                exp = expected_tables[code]
                if set(rows) != set(exp) or any(abs(rows[k] - exp[k]) > 1e-12 for k in rows):
                    problems.append(f"{term}/{code}: conditional table differs from ground truth")

    return VerifyReport(passed=not flagged and not problems,
                        flagged_docs=sorted(flagged), problems=problems)


# ---------------------------------------------------------------------------
# file emission


def write_corpus(docs: list[dict], path) -> None:
    with open(path, "w") as fh:
        for doc in docs:
            row = {"doc_id": doc["doc_id"], "text": doc["text"],
                   "labels": doc.get("labels", [])}
            for term in TERMINOLOGIES:
                row[term] = doc.get(term, [])
            fh.write(json.dumps(row) + "\n")


def split_docs(docs: list[dict], fractions: tuple[float, float, float], seed: int):
    """Deterministic train/val/test split by shuffled assignment."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {fractions}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(docs))
    n_train = int(round(fractions[0] * len(docs)))
    n_val = int(round(fractions[1] * len(docs)))
    train = [docs[i] for i in order[:n_train]]
    val = [docs[i] for i in order[n_train : n_train + n_val]]
    test = [docs[i] for i in order[n_train + n_val :]]
    return train, val, test
