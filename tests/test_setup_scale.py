"""Memory guards for the set-up counting at paper scale.

At L = 3,000 labels the co-occurrence and candidate-mask statistics are
almost all zeros.  The builders count them sparse: the label graph is an
edge list that no build, save, load or propagation turns into an [L, L]
array, and the mask index holds its nonzeros only.
"""

import numpy as np
import pytest
import scipy.sparse  # noqa: F401  loaded before tracing, so its import is not counted

from xmtc.corpus import DocumentRecord
from xmtc.errors import DataError
from xmtc.graph import build_cooccurrence, load_graph, save_graph
from xmtc.mask import build_mask_index

from oracles import traced

NUM_LABELS = 3000
NUM_DOCS = 600


@pytest.fixture(scope="module")
def docs():
    """About 6.5 labels and 8 auxiliary codes per document; a few thousand
    distinct codes over the three terminologies."""
    rng = np.random.default_rng(3)

    def codes(prefix, pool, count):
        return tuple(f"{prefix}{c}" for c in rng.choice(pool, size=count, replace=False))

    return [
        DocumentRecord(
            doc_id=f"d{i}",
            tokens=[2],
            labels=set(rng.choice(NUM_LABELS, size=int(rng.integers(1, 13)),
                                  replace=False).tolist()),
            aux_codes={"drg": codes("G", 600, 1), "cpt": codes("C", 2000, 3),
                       "drugs": codes("D", 1500, 4)},
        )
        for i in range(NUM_DOCS)
    ]


def test_mask_index_holds_its_nonzeros_only(docs):
    index, held, _ = traced(lambda: build_mask_index(docs, NUM_LABELS))
    assert sum(len(per_term) for per_term in index.probs.values()) > 2000
    assert held < 10 * 2**20, f"mask index holds {held / 2**20:.1f} MB"


def test_graph_round_trip_peaks_below_one_byte_per_label_pair(docs, tmp_path):
    """Building, saving, loading and propagating the graph peak below L²
    bytes, so none of them allocates a dense [L, L] bool array, or any
    other block that large."""
    pairs = NUM_LABELS * NUM_LABELS
    path = tmp_path / "graph.txt"

    def round_trip():
        save_graph(build_cooccurrence(docs, NUM_LABELS), path)
        return load_graph(path, NUM_LABELS).propagation

    a_hat, _, peak = traced(round_trip)
    assert a_hat.shape == (NUM_LABELS, NUM_LABELS)
    assert peak < pairs, f"graph round trip peaked at {peak / pairs:.2f} bytes per label pair"


@pytest.mark.parametrize("build", [build_cooccurrence, build_mask_index],
                         ids=["build_cooccurrence", "build_mask_index"])
@pytest.mark.parametrize("bad", [-1, NUM_LABELS])
def test_label_outside_catalog_names_the_document(docs, build, bad):
    bad_doc = DocumentRecord(doc_id="bad7", tokens=[2], labels={4, bad},
                             aux_codes={"drg": ("G1",), "cpt": (), "drugs": ()})
    corpus = docs[:300] + [bad_doc] + docs[300:]
    with pytest.raises(DataError, match=f"document bad7: label id {bad} outside catalog"):
        build(corpus, NUM_LABELS)
