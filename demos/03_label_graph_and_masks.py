#!/usr/bin/env python3
"""Label co-occurrence graph, GCN label features, and candidate masks.

Run:  python demos/03_label_graph_and_masks.py
"""

import numpy as np

from xmtc import synth
from xmtc.corpus import build_vocab, encode_documents, preprocess
from xmtc.embeddings import train_skipgram
from xmtc.graph import (
    build_cooccurrence,
    conditional_pairs,
    descriptor_average_matrix,
    gcn_forward,
    init_gcn_params,
)
from xmtc.mask import apply_mask, build_mask_index, make_doc_mask, mask_stats
from xmtc.tensor import Tensor, spmm

spec = synth.standard_spec(num_labels=30, num_docs=600, seed=2, doc_length=(20, 40))
docs, catalog, truth = synth.generate(spec)
vocab = build_vocab([preprocess(d["text"]) for d in docs], min_count=1)
records = encode_documents(docs, vocab, catalog)
train_docs, eval_docs = records[:480], records[480:]

print("=" * 60)
print("1. Co-occurrence graph at threshold 1.0")
print("=" * 60)

graph = build_cooccurrence(train_docs, len(catalog), lam=1.0)
print(f"labels {graph.num_labels}, edges above diagonal {graph.pair_count}")
print("planted cliques:", spec.cliques)
label_lists = [doc.label_ids(len(catalog)) for doc in train_docs]
rows, cols, values = conditional_pairs(label_lists, label_lists, len(catalog))
cond = dict(zip(zip(rows.tolist(), cols.tolist()), values.tolist()))  # absent pairs: 0
edges = set(zip(graph.rows.tolist(), graph.cols.tolist()))  # the graph keeps only these
i, j = spec.cliques[0][0], spec.cliques[0][1]
print(f"P({catalog.codes[j]} | {catalog.codes[i]}) = {cond.get((i, j), 0.0):.3f} "
      f"-> edge {int((i, j) in edges)}")
k = spec.cliques[1][0]
print(f"P({catalog.codes[k]} | {catalog.codes[i]}) = {cond.get((i, k), 0.0):.3f} "
      f"-> edge {int((i, k) in edges)}")

print()
print("=" * 60)
print("2. Descriptor features propagated through the GCN")
print("=" * 60)

table = train_skipgram([r.tokens for r in train_docs], len(vocab), dim=32, epochs=3, seed=0)
features = spmm(descriptor_average_matrix(catalog, vocab), Tensor(table))
params = init_gcn_params(32, np.random.default_rng(0))
h_label = gcn_forward(graph, features, params)
print("label representation matrix:", h_label.shape)

# clique members average each other's features, so they end up closer
def cos(u, v):
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v) + 1e-12))

a, b = spec.cliques[0][:2]
unrelated = len(catalog) - 1
print(f"cosine(clique pair)    = {cos(h_label.data[a], h_label.data[b]):+.3f}")
print(f"cosine(unrelated pair) = {cos(h_label.data[a], h_label.data[unrelated]):+.3f}")

print()
print("=" * 60)
print("3. Candidate masks from auxiliary codes")
print("=" * 60)

index = build_mask_index(train_docs, len(catalog), tau=0.4)
doc = eval_docs[0]
mask = make_doc_mask(doc, index)
print(f"doc {doc.doc_id}: aux codes {sum(len(v) for v in doc.aux_codes.values())}, "
      f"gold {sorted(doc.labels)}, mask {sorted(mask.labels)}")
masked = apply_mask(h_label, mask)
print("rows outside the mask are zeroed:",
      bool(np.all(masked.data[mask.vec == 0.0] == 0.0)))

print()
print("=" * 60)
print("4. Recall / mask-size trade-off against the threshold")
print("=" * 60)

print(f"{'tau':>6} {'recall':>8} {'mean size':>10} {'fraction':>9}")
for tau in (0.0, 0.1, 0.3, 0.5, 0.8, 1.0):
    index.tau = tau
    stats = mask_stats(eval_docs, [make_doc_mask(d, index) for d in eval_docs])
    print(f"{tau:>6.1f} {stats.recall_of_gold:>8.4f} {stats.mean_mask_size:>10.1f} "
          f"{stats.mask_fraction:>9.3f}")
