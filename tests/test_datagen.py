import hashlib
import math
import re

import numpy as np
import pytest

import screenlab as sl
from screenlab import datagen
from screenlab.dictionary import _BLOCK_BYTES, GroupPartition
from conftest import traced_peak


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["gaussian", "pnoise"])
    def test_same_spec_same_bytes(self, kind):
        spec = sl.GenSpec(kind=kind, n=20, k=50, seed=9)
        a = sl.gen_dictionary(spec)
        b = sl.gen_dictionary(spec)
        assert a.data.tobytes() == b.data.tobytes()

    def test_observation_bytes(self):
        spec = sl.GenSpec(kind="unit-sphere-obs", n=30, k=10, seed=4)
        dic = sl.gen_dictionary(sl.GenSpec(kind="gaussian", n=30, k=10, seed=4))
        assert np.array_equal(sl.gen_observation(spec, dic).y, sl.gen_observation(spec, dic).y)

    def test_streams_are_independent(self):
        # the dictionary and observation draws must not share a stream
        spec = sl.GenSpec(kind="gaussian", n=25, k=25, seed=8)
        dic = sl.gen_dictionary(spec)
        y = sl.gen_observation(spec, dic).y
        corr = np.abs(dic.correlate(y))
        assert np.max(corr) < 1.0 - 1e-6


class TestDictionaries:
    @pytest.mark.parametrize("kind", ["gaussian", "pnoise"])
    def test_unit_columns(self, kind):
        dic = sl.gen_dictionary(sl.GenSpec(kind=kind, n=40, k=80, seed=2))
        norms = np.linalg.norm(dic.data, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_pnoise_atoms_strongly_correlated(self):
        # the spike-plus-noise recipe has noise norm ~ 0.1 * kappa * sqrt(n),
        # so the near-1 pairwise correlation regime is the small-n one
        dic = sl.gen_dictionary(sl.GenSpec(kind="pnoise", n=30, k=60, seed=5))
        gram = dic.data.T @ dic.data
        off = gram[~np.eye(60, dtype=bool)]
        assert np.mean(np.abs(off)) > 0.9
        assert np.all(dic.data[0, :] > 0)

    def test_gaussian_atoms_weakly_correlated(self):
        n = 100
        dic = sl.gen_dictionary(sl.GenSpec(kind="gaussian", n=n, k=60, seed=6))
        gram = dic.data.T @ dic.data
        off = gram[~np.eye(60, dtype=bool)]
        assert np.mean(np.abs(off)) < 3.0 / np.sqrt(n)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            sl.GenSpec(kind="gaussian", n=0, k=5, seed=0)


class TestGenSpec:
    @pytest.mark.parametrize("field", ["n", "k", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_non_integer_rejected(self, field, value):
        fields = {**dict(n=3, k=4, seed=1), field: value}
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, not {value!r}")):
            sl.GenSpec(kind="gaussian", **fields)

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="^seed must be nonnegative, not -1$"):
            sl.gen_dictionary(sl.GenSpec(kind="gaussian", n=3, k=4, seed=-1))
        with pytest.raises(ValueError, match="^seed must be nonnegative, not -1$"):
            datagen.random_groups(4, 2, -1)

    def test_numpy_integers_pass(self):
        spec = sl.GenSpec(kind="gaussian", n=np.int64(3), k=np.int32(4), seed=np.uint8(1))
        assert sl.gen_dictionary(spec).data.shape == (3, 4)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf, math.inf, 1e308, -1e308, -7000.0])
    def test_snr_without_a_finite_positive_noise_scale_rejected(self, snr_db):
        message = f"snr_db must give a finite, positive noise scale 10 ** (snr_db / 20), not {snr_db!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sl.GenSpec(kind="bernoulli-gaussian-obs", n=3, k=4, seed=1, snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [-300.0, 0.0, 300.0])
    def test_extreme_finite_snr_gives_a_finite_observation(self, snr_db):
        dic = sl.gen_dictionary(sl.GenSpec(kind="gaussian", n=10, k=12, seed=1))
        part = sl.random_partition(dic, 3, seed=1)
        spec = sl.GenSpec(kind="bernoulli-gaussian-obs", n=10, k=12, seed=1, bernoulli_p=0.5,
                          snr_db=snr_db)
        obs = sl.gen_observation(spec, dic, part)
        assert np.all(np.isfinite(obs.y)) and np.linalg.norm(obs.y) == pytest.approx(1.0)


class TestDct:
    def test_square_is_orthonormal(self):
        dic = sl.gen_dct_dictionary(16, 16)
        gram = dic.data.T @ dic.data
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-10

    def test_oversampled_unit_columns(self):
        dic = sl.gen_dct_dictionary(16, 48)
        norms = np.linalg.norm(dic.data, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_zero_frequency_atom_is_constant(self):
        dic = sl.gen_dct_dictionary(10, 20)
        col = dic.data[:, 0]
        assert np.allclose(col, col[0], atol=1e-15)
        assert col[0] > 0

    def test_rejects_undercomplete(self):
        with pytest.raises(ValueError, match="k >= n"):
            sl.gen_dct_dictionary(200, 100)
        with pytest.raises(ValueError, match="k >= n"):
            sl.gen_dictionary(sl.GenSpec(kind="dct", n=200, k=100, seed=0))


class TestObservations:
    def test_unit_norm(self):
        dic = sl.gen_dictionary(sl.GenSpec(kind="gaussian", n=30, k=40, seed=3))
        for kind in ("gaussian", "pnoise", "unit-sphere-obs"):
            y = sl.gen_observation(sl.GenSpec(kind=kind, n=30, k=40, seed=3), dic).y
            assert abs(np.linalg.norm(y) - 1.0) <= 1e-12

    def test_bernoulli_gaussian_components(self):
        dic = sl.gen_dictionary(sl.GenSpec(kind="gaussian", n=30, k=40, seed=7))
        part = sl.random_partition(dic, 4, seed=7)
        spec = sl.GenSpec(kind="bernoulli-gaussian-obs", n=30, k=40, seed=7, bernoulli_p=0.3)
        obs = sl.gen_observation(spec, dic, part)
        assert abs(np.linalg.norm(obs.y) - 1.0) <= 1e-12
        # snr recomputed from the returned components
        snr = 10.0 * np.log10(np.linalg.norm(obs.clean) ** 2 / np.linalg.norm(obs.noise) ** 2)
        assert snr == pytest.approx(20.0, abs=1e-9)
        # the planted coefficients are group-structured
        norms = part.full.norms(obs.ground_truth)
        active = norms > 0
        assert active.any()
        for gid in np.flatnonzero(~active):
            assert np.all(obs.ground_truth[part.groups[gid]] == 0.0)

    def test_requires_partition(self):
        dic = sl.gen_dictionary(sl.GenSpec(kind="gaussian", n=10, k=12, seed=1))
        with pytest.raises(ValueError, match="partition"):
            sl.gen_observation(sl.GenSpec(kind="bernoulli-gaussian-obs", n=10, k=12, seed=1), dic)

    def test_all_inactive_draws_error_out(self):
        dic = sl.gen_dictionary(sl.GenSpec(kind="gaussian", n=10, k=12, seed=1))
        part = sl.random_partition(dic, 3, seed=1)
        spec = sl.GenSpec(kind="bernoulli-gaussian-obs", n=10, k=12, seed=1, bernoulli_p=1e-9)
        with pytest.raises(RuntimeError, match="no active group"):
            sl.gen_observation(spec, dic, part)

    def test_dct_is_not_an_observation_kind(self):
        dic = sl.gen_dictionary(sl.GenSpec(kind="gaussian", n=10, k=12, seed=1))
        with pytest.raises(ValueError):
            sl.gen_observation(sl.GenSpec(kind="dct", n=10, k=12, seed=1), dic)

    def test_bernoulli_p_validated(self):
        with pytest.raises(ValueError):
            sl.GenSpec(kind="bernoulli-gaussian-obs", n=5, k=5, seed=0, bernoulli_p=0.0)


class TestRandomPartition:
    def test_equal_sizes_and_cover(self):
        dic = sl.gen_dictionary(sl.GenSpec(kind="gaussian", n=10, k=20, seed=2))
        part = sl.random_partition(dic, 5, seed=2)
        assert part.n_groups == 4
        assert all(g.size == 5 for g in part.groups)
        assert np.array_equal(np.sort(np.concatenate(part.groups)), np.arange(20))

    def test_deterministic(self):
        dic = sl.gen_dictionary(sl.GenSpec(kind="gaussian", n=10, k=20, seed=2))
        a = sl.random_partition(dic, 5, seed=3)
        b = sl.random_partition(dic, 5, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.groups, b.groups))

    def test_divisibility_required(self):
        dic = sl.gen_dictionary(sl.GenSpec(kind="gaussian", n=10, k=20, seed=2))
        with pytest.raises(ValueError, match="divide"):
            sl.random_partition(dic, 3, seed=0)


class TestRngStability:
    def test_philox_reference_values(self):
        # pin the generator family: these values change only if the RNG
        # algorithm or the keying scheme changes
        rng = datagen.make_rng(0, 0)
        first = rng.random()
        rng2 = datagen.make_rng(0, 0)
        assert rng2.random() == first
        assert datagen.make_rng(0, 1).random() != first


def _sha256(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class TestPinnedBytes:
    """The generators' output bytes, pinned so that a rewrite keeps every value.

    Recorded with numpy 2 on x86-64. The spectral norms go through BLAS and
    LAPACK, so their digest holds for OpenBLAS; the other digests depend on
    numpy's own arithmetic alone.
    """

    N, K, SEED, GROUP_SIZE = 40, 200, 11, 5
    DICTIONARIES = {
        "gaussian": "3c31e143072a6277c39864623d04cb52d9ab0bb536aed0698be97cdf4c037eb3",
        "pnoise": "caa7041e0ec3915353913fff54576a41c870ac717a2e7c787ab087285df5401b",
        "dct": "8dc6903ab5f872a9e943b053cee6b2e4f246afebbbd96fb940c9ecdda5bed053",
    }
    # the gaussian and unit-sphere observations are the same draw
    OBSERVATIONS = {
        "gaussian": "cd3684582878f9b0a5fac720b1cd1cca73846505464a738e6a3770a510cad3f0",
        "pnoise": "3a1b705077eb3d7368469b6d51263ed81e31b7ad8f61f2125b3ecb2b597a0d34",
        "unit-sphere-obs": "cd3684582878f9b0a5fac720b1cd1cca73846505464a738e6a3770a510cad3f0",
        "bernoulli-gaussian-obs": "d6941a3d1a191722d1e258dbcefe0eb33629ffef9e6ed82caa8ff91eb1876413",
    }

    def spec(self, kind):
        return sl.GenSpec(kind=kind, n=self.N, k=self.K, seed=self.SEED)

    def pnoise_partition(self):
        dic = sl.gen_dictionary(self.spec("pnoise"))
        return dic, sl.random_partition(dic, self.GROUP_SIZE, self.SEED)

    @pytest.mark.parametrize("kind", sorted(DICTIONARIES))
    def test_dictionary(self, kind):
        assert _sha256(sl.gen_dictionary(self.spec(kind)).data) == self.DICTIONARIES[kind]

    @pytest.mark.parametrize("kind", sorted(OBSERVATIONS))
    def test_observation(self, kind):
        obs = sl.gen_observation(self.spec(kind), *self.pnoise_partition())
        fields = (obs.y, obs.ground_truth, obs.clean, obs.noise)
        assert _sha256(*(f for f in fields if f is not None)) == self.OBSERVATIONS[kind]

    def test_clean_is_the_full_product(self):
        # the support product of Dictionary.apply may round differently, and
        # the pinned observation bytes were taken with the full one
        dic, part = self.pnoise_partition()
        obs = sl.gen_observation(self.spec("bernoulli-gaussian-obs"), dic, part)
        assert obs.clean.tobytes() == (dic.data @ obs.ground_truth).tobytes()

    def test_random_groups(self):
        groups = datagen.random_groups(self.K, self.GROUP_SIZE, self.SEED)
        assert _sha256(*groups) == "83e5e357ddccaf50ce6bb41b2c22fb54e227989e3d4bce439bb3b29386216139"

    # shapes that span several blocks of rows, or chunks of groups; the
    # dictionaries and the 100x3000 partition end on a partial one
    MULTI_BLOCK_N, MULTI_BLOCK_K = 301, 2000
    MULTI_BLOCK_DICTIONARIES = {
        "gaussian": "1ecd2bb9420dd66277323d3c81e6342b426fd493a5fd42ac711430b9f062a941",
        "pnoise": "1cbfcade9b3784309a3fd3b5daa67dd7d519bfe0d48123ad841d72ade5a79a06",
        "dct": "b0f3d065710fd702f5203fa622b60190a2b5e7af45f98a39d44c7e7f4f25a1bc",
    }
    MULTI_CHUNK_NORMS = {
        (200, 20000, 5): "b290244974696e9f9aeca8780e8f93e6a59abb417f6d9187b90c728282018489",
        (100, 3000, 3): "13e42889d486bccedb30575ae3eef0ea0064769c9e10d99f2c6473936777a691",
    }

    @pytest.mark.parametrize("kind", sorted(MULTI_BLOCK_DICTIONARIES))
    def test_dictionary_over_several_blocks(self, kind):
        n, k = self.MULTI_BLOCK_N, self.MULTI_BLOCK_K
        rows = _BLOCK_BYTES // (8 * k)
        assert n > rows and n % rows
        spec = sl.GenSpec(kind=kind, n=n, k=k, seed=self.SEED)
        assert _sha256(sl.gen_dictionary(spec).data) == self.MULTI_BLOCK_DICTIONARIES[kind]

    @pytest.mark.parametrize("shape", sorted(MULTI_CHUNK_NORMS))
    def test_spectral_norms_over_several_chunks(self, shape):
        n, k, size = shape
        assert k // size > _BLOCK_BYTES // (8 * n * size)
        dic = sl.gen_dictionary(sl.GenSpec(kind="pnoise", n=n, k=k, seed=self.SEED))
        part = sl.random_partition(dic, size, self.SEED)
        assert _sha256(part.spectral_norms) == self.MULTI_CHUNK_NORMS[shape]

    def test_partition(self):
        _, part = self.pnoise_partition()
        digests = {f: _sha256(getattr(part, f)) for f in ("group_of", "weights", "spectral_norms")}
        assert digests == {
            "group_of": "8b48d0d748a6045ab03cb98229aabb1c2e4466d46f33b714004563663f02f1ba",
            "weights": "980be6a8d6f3c6d3e3e29777f4e4ec5b0ed9816c6201daad07a17095dfd4bdbd",
            "spectral_norms": "c608d1c8ae9c8f1c6aa5588ccd659cf0a60869bd0322f0ca65fd2960884518ce",
        }


class TestSetupMemory:
    """Set-up holds one full-size array: the matrix, and bounded blocks beside it."""

    @pytest.mark.parametrize("kind", ["gaussian", "pnoise", "dct"])
    def test_gen_dictionary_peak(self, kind):
        spec = sl.GenSpec(kind=kind, n=300, k=2000, seed=3)
        sl.gen_dictionary(spec)
        assert traced_peak(lambda: sl.gen_dictionary(spec)) <= 1.5 * 8 * spec.n * spec.k

    def test_partition_build_peak(self):
        dic = sl.gen_dictionary(sl.GenSpec(kind="pnoise", n=200, k=20000, seed=3))
        groups = datagen.random_groups(dic.n_cols, 5, 3)
        assert traced_peak(lambda: GroupPartition.build(dic, groups)) <= 8e6
