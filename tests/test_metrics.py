"""Tests for the multi-label metric implementations against brute-force
pair-counting and confusion-matrix references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmtc.errors import DataError
from xmtc.metrics import (
    compute_metrics,
    micro_macro_auc,
    micro_macro_f1,
    precision_at_k,
    top_k_labels,
)

from oracles import (f1_from_confusion, macro_micro_auc_bruteforce, precision_at_k_bruteforce,
                     top_k_bruteforce)


def random_instance(rng, n_docs=None, num_labels=None):
    n = n_docs or int(rng.integers(2, 12))
    l = num_labels or int(rng.integers(2, 9))
    gold = rng.random((n, l)) < 0.35
    if not gold.any():
        gold[0, 0] = True
    scores = rng.random((n, l))
    # sprinkle exact ties and exact zeros to exercise those paths
    scores[rng.random((n, l)) < 0.1] = 0.5
    scores[rng.random((n, l)) < 0.05] = 0.0
    return gold, scores


class TestPerfectScores:
    def test_all_metrics_one(self):
        gold = np.array([[True, False, True], [False, True, False]])
        scores = gold.astype(float)
        report = compute_metrics(gold, scores, threshold=0.5, ks=(1,))
        assert report.micro_f1 == 1.0
        assert report.macro_f1 == 1.0
        assert report.micro_auc == 1.0
        assert report.macro_auc == 1.0
        assert report.p_at_k[1] == 1.0


class TestHandCounted:
    def test_p_at_one_and_two(self):
        # single doc, gold {a}; ranking puts b first, then a
        gold = np.array([[True, False, False]])
        scores = np.array([[0.6, 0.9, 0.1]])
        p = precision_at_k(gold, scores, (1, 2))
        assert p[1] == 0.0
        assert p[2] == 0.5

    def test_f1_values_are_python_floats(self):
        gold = np.array([[True, False], [True, True]])
        pred = np.array([[True, True], [False, True]])
        micro, macro, skipped = micro_macro_f1(gold, pred)
        assert (type(micro), type(macro), type(skipped)) == (float, float, int)
        assert micro == 2 / 3


class TestBruteForceEquivalence:
    def test_f1_and_auc_and_p_at_k(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            gold, scores = random_instance(rng)
            pred = scores >= 0.5
            micro, macro, _ = micro_macro_f1(gold, pred)
            ref_micro, ref_macro = f1_from_confusion(gold, pred)
            assert abs(micro - ref_micro) < 1e-9
            assert abs(macro - ref_macro) < 1e-9

            micro_auc, macro_auc, _ = micro_macro_auc(gold, scores)
            ref_macro_auc, ref_micro_auc = macro_micro_auc_bruteforce(gold, scores)
            if ref_micro_auc is not None:
                assert abs(micro_auc - ref_micro_auc) < 1e-9
            assert abs(macro_auc - ref_macro_auc) < 1e-9

            for k in (1, 3, 5):
                ours = precision_at_k(gold, scores, (k,))[k]
                ref = precision_at_k_bruteforce(gold, scores, k)
                assert abs(ours - ref) < 1e-9


class TestRankInvariance:
    def test_p_at_k_invariant_to_monotone_transforms(self):
        rng = np.random.default_rng(7)
        gold = rng.random((20, 10)) < 0.3
        gold[0, 0] = True
        scores = rng.uniform(0.1, 1.0, (20, 10))
        base = precision_at_k(gold, scores, (1, 3, 5))
        for transform in (lambda s: s ** 3, lambda s: np.exp(s), lambda s: 2.0 * s + 0.0):
            again = precision_at_k(gold, transform(scores), (1, 3, 5))
            assert again == base


class TestTopK:
    def test_zero_scores_never_predicted(self):
        scores = np.array([0.0, 0.4, 0.0, 0.2])
        assert top_k_labels(scores, 3) == [1, 3]

    def test_tie_breaks_toward_lower_index(self):
        scores = np.array([0.3, 0.5, 0.5])
        assert top_k_labels(scores, 2) == [1, 2]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.5, 1.0, -0.5]) | st.floats(0, 1),
                    max_size=12),
           st.integers(0, 15))
    def test_matches_bruteforce(self, scores, k):
        # ties, zeros and k beyond the number of positive scores
        assert top_k_labels(np.array(scores), k) == top_k_bruteforce(scores, k)


class TestMacroSkipping:
    def test_labels_without_positives_are_skipped(self):
        gold = np.zeros((4, 3), dtype=bool)
        gold[:, 0] = True
        scores = np.array([[0.9, 0.8, 0.1]] * 4)
        report = compute_metrics(gold, scores, threshold=0.5, ks=(1,))
        assert report.skipped_labels_f1 == 2
        assert report.macro_f1 == 1.0  # only label 0 participates
        # AUC needs both classes: labels 1-2 lack positives and label 0,
        # positive everywhere, lacks negatives
        assert report.skipped_labels_auc == 3

    def test_no_gold_anywhere_is_an_error(self):
        with pytest.raises(DataError):
            compute_metrics(np.zeros((3, 2), dtype=bool), np.ones((3, 2)), 0.5, (1,))


class TestPerLabelTable:
    def test_tsv_contents(self, tmp_path):
        gold = np.array([[True, False], [True, True]])
        scores = np.array([[0.9, 0.2], [0.8, 0.9]])
        report = compute_metrics(gold, scores, threshold=0.5, ks=(1,), label_codes=["a", "b"])
        path = tmp_path / "per_label.tsv"
        report.write_per_label_tsv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("label\tsupport")
        assert lines[1].split("\t")[0] == "a"
        assert len(lines) == 3
