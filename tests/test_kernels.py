import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfrank.errors import InvalidInputError
from selfrank.kernels import KernelSpec, cross_vector, gram, kernel_eval


def check_gram(K: np.ndarray, eps: float = 1e-10) -> None:
    """Validate the Gram-matrix invariants; raises InvalidInputError on failure.

    Checks exact symmetry and that the smallest eigenvalue is >= -eps * trace.
    Intended for small n (eigendecomposition cost).
    """
    K = np.asarray(K)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise InvalidInputError(f"gram matrix must be square, got {K.shape}")
    if not np.array_equal(K, K.T):
        raise InvalidInputError("gram matrix is not exactly symmetric")
    w = np.linalg.eigvalsh(K)
    bound = -eps * float(np.trace(K))
    if w[0] < bound:
        raise InvalidInputError(
            f"gram matrix is not PSD: min eigenvalue {w[0]:.3e} < {bound:.3e}"
        )


class TestKernelEval:
    def test_linear_unit_vector_self(self):
        e = np.array([1.0, 0.0, 0.0])
        assert kernel_eval(KernelSpec("linear"), e, e) == 1.0

    def test_delta_distinct_labels(self):
        assert kernel_eval(KernelSpec("delta"), "classA", "classB") == 0.0

    def test_abel_unit_distance(self):
        # exp(-||a-b||/sigma) evaluated directly at distance 1, sigma 1
        a, b = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        assert kernel_eval(KernelSpec("abel", 1.0), a, b) == pytest.approx(
            0.36787944117144233, abs=1e-12
        )

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        for spec in (KernelSpec("linear"), KernelSpec("gaussian", 0.7), KernelSpec("abel", 2.0)):
            assert kernel_eval(spec, a, b) == kernel_eval(spec, b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            kernel_eval(KernelSpec("linear"), np.ones(3), np.ones(4))

    def test_delta_composite_outputs_compare_componentwise(self):
        spec = KernelSpec("delta")
        assert kernel_eval(spec, (1, 2.0), np.array([1.0, 2.0])) == 1.0
        assert kernel_eval(spec, (1, 2.0), (1, 3.0)) == 0.0

    @pytest.mark.parametrize("kind", ["gaussian", "abel"])
    @pytest.mark.parametrize("bandwidth", [0.0, None, np.inf, np.nan, True, np.True_, "1", [1.0]])
    def test_bad_bandwidth_rejected(self, kind, bandwidth):
        with pytest.raises(InvalidInputError, match=f"^bandwidth must be a finite number > 0 for the {kind} kernel"):
            KernelSpec(kind, bandwidth)

    @pytest.mark.parametrize("bandwidth", [np.float64(0.5), np.float32(0.5), 1])
    def test_real_bandwidth_accepted(self, bandwidth):
        assert KernelSpec("gaussian", bandwidth).bandwidth == bandwidth

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            KernelSpec("polynomial")

    @pytest.mark.parametrize("kind", ["linear", "delta"])
    def test_kernels_without_bandwidth_drop_it(self, kind):
        spec = KernelSpec(kind, 0.5)
        assert spec == KernelSpec(kind) and spec.to_config() == {"kernel.kind": kind}
        assert KernelSpec("gaussian", 0.5).to_config() == {"kernel.kind": "gaussian", "kernel.bandwidth": 0.5}


class TestGram:
    def test_orthonormal_linear_is_identity(self):
        pts = np.eye(3)
        np.testing.assert_array_equal(gram(pts, KernelSpec("linear")), np.eye(3))

    def test_delta_equality_pattern(self):
        K = gram(["a", "b", "a"], KernelSpec("delta"))
        np.testing.assert_array_equal(K, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])

    def test_gaussian_unit_diagonal_and_psd(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((4, 3))
        K = gram(pts, KernelSpec("gaussian", 1.3))
        np.testing.assert_array_equal(np.diag(K), np.ones(4))
        w = np.linalg.eigvalsh(K)
        assert w[0] >= -1e-10 * np.trace(K)

    def test_empty_list_rejected(self):
        with pytest.raises(InvalidInputError):
            gram([], KernelSpec("linear"))

    def test_entries_match_kernel_eval_exactly(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((6, 5))
        for spec in (KernelSpec("linear"), KernelSpec("gaussian", 0.9), KernelSpec("abel", 1.1)):
            K = gram(pts, spec)
            for i in range(6):
                for j in range(6):
                    assert K[i, j] == kernel_eval(spec, pts[i], pts[j])

    def test_exact_symmetry(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((30, 7))
        for spec in (KernelSpec("linear"), KernelSpec("gaussian", 2.0), KernelSpec("abel", 0.5)):
            K = gram(pts, spec)
            assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("kind,bw", [("linear", None), ("gaussian", 1.0), ("abel", 1.0)])
    def test_psd_at_n_200(self, kind, bw):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((200, 6))
        check_gram(gram(pts, KernelSpec(kind, bw)))


def gram_reference(points, spec: KernelSpec) -> np.ndarray:
    """The full-row form of gram (each row over all points), kept as its bitwise reference."""
    pts = np.asarray(points, dtype=float)
    out = np.empty((len(pts), len(pts)))
    for i in range(len(pts)):
        out[i] = cross_vector(pts, pts[i], spec)
    return out


# d <= 7 sums in numpy's plain loop, 8 <= d < 128 with eight accumulators and
# d >= 128 blocked pairwise: the half Gram must match in every branch
@pytest.mark.parametrize("d", [1, 7, 8, 9, 30, 60, 129, 200])
@pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("gaussian", 3.0), KernelSpec("abel", 2.0)],
                         ids=["linear", "gaussian", "abel"])
def test_gram_matches_full_row_reference_bitwise(d, spec):
    rng = np.random.default_rng(d)
    for n in (1, 2, 5, 300):
        pts = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, size=d)
        K = gram(pts, spec)
        assert K.tobytes() == gram_reference(pts, spec).tobytes(), f"n={n}"
        assert K.tobytes() == K.T.copy().tobytes()
        assert cross_vector(pts, pts[-1], spec).tobytes() == K[-1].tobytes()


class TestCrossVector:
    def test_self_point_gives_one(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((5, 3))
        v = cross_vector(pts, pts[0], KernelSpec("gaussian", 1.0))
        assert v[0] == 1.0

    def test_orthogonal_linear_gives_zeros(self):
        pts = np.eye(3)[:2]
        v = cross_vector(pts, np.array([0.0, 0.0, 1.0]), KernelSpec("linear"))
        np.testing.assert_array_equal(v, np.zeros(2))

    def test_matches_gram_row_exactly(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((8, 4))
        for spec in (KernelSpec("linear"), KernelSpec("gaussian", 0.8), KernelSpec("abel", 1.5)):
            K = gram(pts, spec)
            for i in range(8):
                assert np.array_equal(cross_vector(pts, pts[i], spec), K[i])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            cross_vector(np.ones((3, 2)), np.ones(5), KernelSpec("linear"))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_gram_psd_property(n, d, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3, 3, size=(n, d))
    for spec in (KernelSpec("linear"), KernelSpec("gaussian", 1.0), KernelSpec("abel", 1.0)):
        K = gram(pts, spec)
        w = np.linalg.eigvalsh(K)
        assert w[0] >= -1e-10 * max(np.trace(K), 1e-30)


def test_kernel_spec_config_round_trip():
    spec = KernelSpec("abel", 0.5)
    assert KernelSpec.from_config(spec.to_config()) == spec
