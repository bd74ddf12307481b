"""Vector primitive contracts: cosine, mean, row normalization."""

import numpy as np
import pytest

from spklab.embedding import cosine_similarity, mean_embedding, normalize_rows
from spklab.errors import DomainError


class TestCosineSimilarity:
    def test_identical_vectors(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal_vectors(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        # dot = 4, norms sqrt(5) each -> 4/5
        assert abs(cosine_similarity([1.0, 2.0], [2.0, 1.0]) - 0.8) < 1e-12

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.standard_normal(4)
            s = cosine_similarity(a, 3.0 * a)
            assert -1.0 <= s <= 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = rng.standard_normal((2, 6))
            assert cosine_similarity(a, b) == cosine_similarity(b, a)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a, b = rng.standard_normal((2, 5))
            s, t = rng.uniform(0.1, 10.0, size=2)
            assert abs(cosine_similarity(s * a, t * b) - cosine_similarity(a, b)) < 1e-12

    def test_zero_norm_errors_name_operand(self):
        with pytest.raises(DomainError, match="'a'"):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(DomainError, match="'b'"):
            cosine_similarity([1.0, 0.0], [0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError, match="mismatch"):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])


class TestMeanEmbedding:
    def test_identical_inputs(self):
        np.testing.assert_array_equal(mean_embedding([[1.0, 1.0], [1.0, 1.0]]), [1.0, 1.0])

    def test_symmetry(self):
        np.testing.assert_array_equal(mean_embedding([[2.0, 0.0], [0.0, 2.0]]), [1.0, 1.0])

    def test_hand_value(self):
        out = mean_embedding([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(out, [2.0 / 3.0, 2.0 / 3.0], atol=1e-15)

    def test_n_copies_exact(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 7):
            v = rng.standard_normal(4)
            np.testing.assert_array_equal(mean_embedding([v] * n), v)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            mean_embedding([])


class TestBatchHelpers:
    def test_normalize_rows_matches_normalize(self):
        rng = np.random.default_rng(17)
        mat = rng.standard_normal((5, 4))
        unit, norms = normalize_rows(mat)
        for i in range(5):
            np.testing.assert_allclose(unit[i], mat[i] / np.linalg.norm(mat[i]), atol=1e-15)
            assert abs(norms[i] - np.linalg.norm(mat[i])) < 1e-15

    def test_normalize_rows_zero_row(self):
        mat = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DomainError, match="row 1"):
            normalize_rows(mat)

