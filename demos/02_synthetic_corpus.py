#!/usr/bin/env python3
"""Generate a planted synthetic corpus and inspect its structure.

Run:  python demos/02_synthetic_corpus.py
"""

import numpy as np

from xmtc import synth
from xmtc.corpus import build_vocab, encode_documents, preprocess
from xmtc.embeddings import train_skipgram

print("=" * 60)
print("1. Generate a corpus with planted structure")
print("=" * 60)

spec = synth.standard_spec(num_labels=30, num_docs=400, seed=1, doc_length=(20, 40))
docs, catalog, truth = synth.generate(spec)
print(f"{len(docs)} documents, {len(catalog)} labels, cliques: {spec.cliques[:3]} ...")
print("example:", docs[0]["doc_id"], "labels", docs[0]["labels"])
print(" text:", docs[0]["text"][:72], "...")
print(" drg codes:", docs[0]["drg"], "drugs:", docs[0]["drugs"])

print()
print("=" * 60)
print("2. Check the corpus against its ground truth")
print("=" * 60)


def mislabelled(docs):
    """Documents whose labels are not the ones the generator planted."""
    return [d["doc_id"] for d in docs if tuple(d["labels"]) != truth.doc_labels[d["doc_id"]]]


clique_of = {member: set(clique) for clique in truth.cliques for member in clique}
open_cliques = [d["doc_id"] for d in docs
                if any(clique_of.get(lab, set()) - set(d["labels"]) for lab in d["labels"])]
assert not mislabelled(docs) and not open_cliques
print("labels as planted and every clique closed: True")

tampered = [dict(d) for d in docs]
tampered[5]["labels"] = ["L0029"]
print("after flipping one document's labels -> flagged:", mislabelled(tampered))

print()
print("=" * 60)
print("3. Preprocess and build the vocabulary")
print("=" * 60)

sample = "Pt given 4kg dose, STABLE. bp 120/80 [**Name**] follow up"
print(f"preprocess({sample!r})")
print("  ->", preprocess(sample))

token_docs = [preprocess(d["text"]) for d in docs]
vocab = build_vocab(token_docs, min_count=1)
records = encode_documents(docs, vocab, catalog)
print(f"vocabulary size {len(vocab)}; first encoded doc: {records[0].tokens[:10]} ...")

print()
print("=" * 60)
print("4. Skip-gram embeddings pick up the keyword structure")
print("=" * 60)

mat = train_skipgram([r.tokens for r in records], len(vocab), dim=32, epochs=4, seed=0)


def cosine(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v) + 1e-12))


# keywords of one label co-occur in its documents, so they should cluster
kw = catalog.descriptors[0].split()
same = cosine(mat[vocab.token_to_id[kw[0]]], mat[vocab.token_to_id[kw[1]]])
other = catalog.descriptors[15].split()
cross = cosine(mat[vocab.token_to_id[kw[0]]], mat[vocab.token_to_id[other[0]]])
print(f"cosine(same-label keywords)  = {same:+.3f}")
print(f"cosine(cross-label keywords) = {cross:+.3f}")
