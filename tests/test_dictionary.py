import hashlib
import math
import re

import numpy as np
import pytest

import screenlab as sl
import screenlab.dictionary as dictionary_module
from screenlab.dictionary import (
    GroupPartition,
    index_set,
    read_dsmx,
    read_group_file,
    read_matrix,
    write_dsmx,
    write_group_file,
)
from conftest import traced_peak


def random_dictionary(seed, n, k):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, k))
    return sl.Dictionary(mat / np.linalg.norm(mat, axis=0))


def naive_matmul(mat, x):
    out = np.zeros(mat.shape[0])
    for i in range(mat.shape[0]):
        for j in range(mat.shape[1]):
            out[i] += mat[i, j] * x[j]
    return out


class TestApplyCorrelate:
    def test_identity_columns(self):
        dic = sl.Dictionary(np.eye(2))
        assert np.array_equal(dic.apply(np.array([0.3, 0.0])), np.array([0.3, 0.0]))
        assert np.array_equal(dic.correlate(np.array([1.0, 0.0])), np.array([1.0, 0.0]))

    def test_zero_vectors(self):
        dic = random_dictionary(0, 5, 8)
        assert np.all(dic.apply(np.zeros(8)) == 0.0)
        assert np.all(dic.correlate(np.zeros(5)) == 0.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        dic = random_dictionary(1, 5, 8)
        x = rng.standard_normal(8)
        v = rng.standard_normal(5)
        assert np.allclose(dic.apply(x), naive_matmul(dic.data, x), atol=1e-12)
        assert np.allclose(dic.correlate(v), naive_matmul(dic.data.T, v), atol=1e-12)

    def test_dimension_mismatch(self):
        dic = random_dictionary(2, 5, 8)
        with pytest.raises(ValueError):
            dic.apply(np.zeros(5))
        with pytest.raises(ValueError):
            dic.correlate(np.zeros(8))

    def test_adjoint_consistency(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            n, k = rng.integers(2, 12, size=2)
            dic = random_dictionary(100 + trial, int(n), int(k))
            x = rng.standard_normal(int(k))
            v = rng.standard_normal(int(n))
            lhs = float(dic.apply(x) @ v)
            rhs = float(x @ dic.correlate(v))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestConstruction:
    def test_rejects_non_unit_columns(self):
        with pytest.raises(ValueError, match="unit l2 norm"):
            sl.Dictionary(np.array([[1.0, 2.0], [0.0, 0.0]]))

    def test_rejects_nan_column(self):
        mat = np.eye(3)
        mat[:, 1] = np.nan
        with pytest.raises(ValueError, match="unit l2 norm"):
            sl.Dictionary(mat)

    def test_unit_norm_check_cannot_be_switched_off(self):
        with pytest.raises(TypeError):
            sl.Dictionary(np.eye(2), check_unit_norms=False)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            sl.Dictionary(np.zeros(3))
        with pytest.raises(ValueError):
            sl.Dictionary(np.zeros((0, 3)))

    def test_data_is_readonly(self):
        dic = random_dictionary(4, 4, 4)
        with pytest.raises(ValueError):
            dic.data[0, 0] = 1.0

    def test_data_is_an_aligned_fortran_copy(self):
        mat = random_dictionary(4, 5, 7).data
        for src in (np.ascontiguousarray(mat), np.asfortranarray(mat), mat.tolist()):
            dic = sl.Dictionary(src)
            assert dic.data.ctypes.data % 64 == 0 and dic.data.flags.f_contiguous
            assert np.array_equal(dic.data, mat) and dic.data is not src
            out = dic.reduce(np.array([0, 3, 4]))
            assert out.data.ctypes.data % 64 == 0 and out.data.flags.f_contiguous

    def test_adopt_takes_the_buffer_over(self):
        mat = random_dictionary(4, 5, 7).data
        buf = dictionary_module._aligned_empty(5, 7)
        buf[...] = mat
        assert buf.ctypes.data % 64 == 0 and buf.flags.f_contiguous and buf.flags.writeable
        dic = sl.Dictionary._adopt(buf)
        assert dic.data is buf and not buf.flags.writeable
        assert np.array_equal(dic.data, mat) and dic._opnorm is None

    def test_adopt_checks_unit_norms(self):
        buf = dictionary_module._aligned_empty(2, 2)
        buf[...] = [[1.0, 0.0], [0.0, 2.0]]
        with pytest.raises(ValueError, match="unit l2 norm"):
            sl.Dictionary._adopt(buf)


class TestReduce:
    def test_same_indices_is_identity(self):
        dic = random_dictionary(5, 4, 6)
        assert dic.reduce(np.arange(6)) is dic

    def test_empty_selection(self):
        dic = random_dictionary(6, 4, 6)
        out = dic.reduce(np.array([], dtype=np.int64))
        assert out.data.shape == (4, 0)

    def test_selects_columns_in_order(self):
        dic = random_dictionary(7, 3, 4)
        out = dic.reduce(np.array([1, 3]))
        assert np.array_equal(out.data, dic.data[:, [1, 3]])
        assert out.data.flags.f_contiguous and not out.data.flags.writeable

    def test_chain_matches_direct(self):
        dic = random_dictionary(8, 5, 10)
        b = np.array([0, 2, 3, 5, 7, 9])
        c = np.array([2, 5, 9])
        via_chain = dic.reduce(b).reduce(np.searchsorted(b, c))
        direct = dic.reduce(c)
        assert np.array_equal(via_chain.data, direct.data)

    def test_unsorted_or_out_of_range_raises(self):
        dic = random_dictionary(9, 3, 4)
        for cols in ([2, 1], [1, 1]):
            with pytest.raises(ValueError, match="strictly increasing"):
                dic.reduce(np.array(cols))
        for cols in ([1, 4], [-1, 2]):
            with pytest.raises(ValueError, match=r"\[0, 4\)"):
                dic.reduce(np.array(cols))
        reduced = dic.reduce(np.array([0, 2]))
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            reduced.reduce(np.array([2]))


class TestSpectralNorm:
    def test_single_unit_column(self):
        dic = random_dictionary(10, 6, 3)
        assert sl.spectral_norm(dic, np.array([1])) == pytest.approx(1.0, abs=1e-10)

    def test_orthonormal_pair(self):
        dic = sl.Dictionary(np.eye(4)[:, :2])
        assert sl.spectral_norm(dic, np.array([0, 1])) == pytest.approx(1.0, abs=1e-10)

    def test_matches_svd_oracle(self):
        for seed in range(40):
            dic = random_dictionary(200 + seed, 6, 3)
            got = sl.spectral_norm(dic, np.arange(3))
            want = np.linalg.svd(dic.data, compute_uv=False)[0]
            assert abs(got - want) <= 1e-12 * want

    def test_at_least_max_column_norm(self):
        for seed in range(10):
            dic = random_dictionary(300 + seed, 7, 5)
            cols = np.array([0, 2, 4])
            got = sl.spectral_norm(dic, cols)
            assert got >= np.max(np.linalg.norm(dic.data[:, cols], axis=0)) - 1e-10

    def test_empty_columns_raise(self):
        dic = random_dictionary(11, 4, 4)
        with pytest.raises(ValueError):
            sl.spectral_norm(dic, np.array([], dtype=np.int64))

    def test_operator_norm_matches_svd(self):
        for seed in range(10):
            dic = random_dictionary(400 + seed, 8, 15)
            want = np.linalg.svd(dic.data, compute_uv=False)[0]
            assert sl.operator_norm(dic) == pytest.approx(want, rel=1e-12)

    @staticmethod
    def hard_dictionaries():
        rng = np.random.default_rng(17)
        tall = rng.standard_normal((30, 8))
        wide = rng.standard_normal((8, 30))
        # rank 3: every column is a combination of three directions
        low_rank = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 20))
        # each atom appears twice, so the column Gram matrix is singular
        dup = rng.standard_normal((10, 7))
        dup = np.repeat(dup, 2, axis=1)
        for mat in (tall, wide, low_rank, dup):
            yield sl.Dictionary(mat / np.linalg.norm(mat, axis=0))

    def test_never_below_the_svd_norm(self):
        # screening divides by these norms, so an underestimate is unsafe;
        # rounding is the only shortfall allowed
        floor = 1.0 - 1e-14
        for dic in self.hard_dictionaries():
            k = dic.n_cols
            assert sl.operator_norm(dic) >= np.linalg.norm(dic.data, 2) * floor
            for cols in (np.arange(k), np.arange(0, k, 2), np.arange(min(k, 4))):
                want = np.linalg.norm(dic.data[:, cols], 2)
                assert sl.spectral_norm(dic, cols) >= want * floor
            groups = np.array_split(np.arange(k), 3)
            part = GroupPartition.build(dic, groups)
            for g, nrm in zip(part.groups, part.spectral_norms):
                assert nrm >= np.linalg.norm(dic.data[:, g], 2) * floor

    def test_operator_norm_is_cached_per_instance(self, monkeypatch):
        solves = []
        exact = dictionary_module._top_singular_values

        def counting(blocks):
            solves.append(blocks.shape)
            return exact(blocks)

        monkeypatch.setattr(dictionary_module, "_top_singular_values", counting)
        dic = random_dictionary(501, 9, 14)
        first = sl.operator_norm(dic)
        assert len(solves) == 1
        assert sl.operator_norm(dic) == first
        assert len(solves) == 1
        # a reduced dictionary never inherits the full one's norm
        reduced = dic.reduce(np.array([1, 4, 5]))
        assert reduced._opnorm is None
        want = np.linalg.norm(dic.data[:, [1, 4, 5]], 2)
        assert sl.operator_norm(reduced) == pytest.approx(want, rel=1e-12)
        assert len(solves) == 2
        assert sl.operator_norm(dic) == first
        assert len(solves) == 2


class TestIndexSet:
    def test_validates_ordering(self):
        with pytest.raises(ValueError):
            index_set([3, 1, 2])
        with pytest.raises(ValueError):
            index_set([1, 1])

    def test_bounds(self):
        with pytest.raises(ValueError):
            index_set([0, 5], size=5)
        assert np.array_equal(index_set([0, 4], size=5), np.array([0, 4]))

    def test_rejects_fractional_values(self):
        # a cast to int64 would truncate them without a word
        for values, bad in (([0.5, 1.7, 2.2], "0.5"), ([0.0, 1.9], "1.9"),
                            ([1.0, np.nan], "nan"), ([np.inf], "inf")):
            with pytest.raises(ValueError, match=f"indices must be integers, not {bad}$"):
                index_set(values, size=5)
        with pytest.raises(ValueError, match="not 0.9"):
            sl.expand(np.ones(2), [0.9, 2.5], 4)

    def test_rejects_boolean_mask(self):
        with pytest.raises(ValueError, match="not a boolean mask"):
            index_set(np.array([True, False, True]))

    def test_rejects_values_past_int64(self):
        # a whole float or an unsigned value past int64 used to wrap on the
        # cast, and a difference of neighbours to overflow, so that a negative
        # index passed as the largest
        big = np.array([5, 2**64 - 1], dtype=np.uint64)
        for values, shown in (([5.0, 1e20], "1e+20"), ([-1e19, 5.0], "-1e+19"),
                              (big, "18446744073709551615")):
            for size in (None, 10):
                want = f"indices must fit in int64, not {re.escape(shown)}$"
                with pytest.raises(ValueError, match=want):
                    index_set(values, size)
        for values in (np.array([5, -2**63]), [5, -2**63]):
            with pytest.raises(ValueError, match=f"increasing; {-2**63} follows 5$"):
                index_set(values, 10)
        dic = sl.Dictionary(np.eye(10))
        with pytest.raises(ValueError, match="indices must fit in int64, not 1e\\+20"):
            dic.reduce([5.0, 1e20])
        with pytest.raises(ValueError, match=f"increasing; {-2**63} follows 5"):
            dic.reduce(np.array([5, -2**63]))
        assert index_set([-(2.0**63), 0.0]).tolist() == [-2**63, 0]

    def test_rejects_more_than_one_dimension(self):
        # a ravel would flatten a nested set without a word
        with pytest.raises(ValueError, match=r"1-D array, not one of shape \(2, 2\)$"):
            index_set([[0, 1], [2, 3]])
        with pytest.raises(ValueError, match=r"not one of shape \(1, 3\)"):
            sl.Dictionary(np.eye(4)).reduce(np.array([[0, 1, 3]]))

    def test_whole_floats_and_integer_dtypes_pass(self):
        assert index_set([0.0, 2.0, 3.0], size=5).tolist() == [0, 2, 3]
        assert index_set(np.array([1, 4], dtype=np.int32)).dtype == np.int64
        assert index_set([]).dtype == np.int64


class TestDsmx(object):
    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.dsmx"
        write_dsmx(path, np.arange(6, dtype=float).reshape(2, 3))
        raw = path.read_bytes()
        assert raw[:4] == b"DSMX"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:16], "little") == 2
        assert int.from_bytes(raw[16:24], "little") == 3
        assert len(raw) == 24 + 6 * 8

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        mat = rng.standard_normal((7, 5))
        path = tmp_path / "m.dsmx"
        write_dsmx(path, mat)
        assert np.array_equal(read_dsmx(path), mat)

    def test_vector_written_as_column(self, tmp_path):
        path = tmp_path / "v.dsmx"
        write_dsmx(path, np.array([1.0, 2.0]))
        assert read_dsmx(path).shape == (2, 1)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dsmx"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError, match="not a DSMX"):
            read_dsmx(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "short.dsmx"
        write_dsmx(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload"):
            read_dsmx(path)

    def test_rejects_oversized_payload(self, tmp_path):
        path = tmp_path / "long.dsmx"
        write_dsmx(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="expected 32 payload bytes, got 40"):
            read_dsmx(path)

    def test_written_bytes_pinned(self, tmp_path):
        # recorded before writes went through the array's own buffer
        path = tmp_path / "m.dsmx"
        write_dsmx(path, sl.gen_dictionary(sl.GenSpec(kind="pnoise", n=30, k=70, seed=11)).data)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "34da68c4688f718793e846b561a7021ca1b419aca371f8d9f45793b7ec722700"
        write_dsmx(path, np.arange(12.0).reshape(3, 4) / 7)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "1ed8795950eb29579ceec6b2e2faa61d6f9806bed0bdda48d80d0c29e4cb2a1b"

    def test_one_copy_of_the_matrix(self, tmp_path):
        # a Fortran-ordered dictionary is copied once into row order to be
        # written, and a file is read straight into the returned array
        mat = sl.gen_dictionary(sl.GenSpec(kind="gaussian", n=300, k=2000, seed=3)).data
        path = tmp_path / "m.dsmx"
        assert traced_peak(lambda: write_dsmx(path, mat)) <= 1.5 * mat.nbytes
        assert traced_peak(lambda: read_dsmx(path)) <= 1.5 * mat.nbytes
        assert np.array_equal(read_dsmx(path), mat)

    def test_csv_import(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,4.5\n")
        # read_matrix sniffs the format
        assert np.array_equal(read_matrix(path), np.array([[1.0, 2.0], [3.0, 4.5]]))
        single = tmp_path / "row.csv"
        single.write_text("1.0,2.0,3.0\n")
        assert read_matrix(single).shape == (1, 3)
        dsmx = tmp_path / "m.dsmx"
        write_dsmx(dsmx, np.ones((2, 2)))
        assert np.array_equal(read_matrix(dsmx), np.ones((2, 2)))


class TestGroupFile:
    def test_round_trip_with_weights(self, tmp_path):
        path = tmp_path / "g.txt"
        write_group_file(path, [np.array([0, 2]), np.array([1, 3])], weights=[1.5, 2.0])
        groups, weights, _ = read_group_file(path)
        assert [g.tolist() for g in groups] == [[0, 2], [1, 3]]
        assert np.allclose(weights, [1.5, 2.0])

    def test_missing_weight_defaults_to_sqrt_size(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0,1,2,3\n;4,5\n")
        groups, weights, _ = read_group_file(path)
        assert np.allclose(weights, [2.0, np.sqrt(2.0)])

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# groups\n\n1.0;0,1\n")
        groups, weights, _ = read_group_file(path)
        assert len(groups) == 1

    def test_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1.0;a,b\n")
        with pytest.raises(ValueError, match="bad index list"):
            read_group_file(path)
        path.write_text("1.0;\n")
        with pytest.raises(ValueError, match="empty group"):
            read_group_file(path)

    def test_repeated_index_names_file_and_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0,1\n# note\n3,2,3\n")
        with pytest.raises(ValueError, match=rf"{path}:3: index 3 repeated"):
            read_group_file(path)

    def test_index_past_int64_names_file_and_line(self, tmp_path):
        path = tmp_path / "g.txt"
        for line, shown in (("0,99999999999999999999", "99999999999999999999"),
                            ("-9223372036854775809,0", "-9223372036854775809")):
            path.write_text(f"2,3\n{line}\n")
            with pytest.raises(ValueError, match=rf"{path}:2: index {shown} out of range$"):
                read_group_file(path)

    def test_rejects_bad_weights(self, tmp_path):
        path = tmp_path / "g.txt"
        for weight in ("x", "nan", "inf", "-inf"):
            path.write_text(f"1.0;0,1\n{weight};2,3\n")
            with pytest.raises(ValueError, match=rf"{path}:2: bad weight"):
                read_group_file(path)


def layout_by_hand(part, kept):
    """Fields of the layout over `kept`, each whole group in it located on its own."""
    chosen = [g for g, cols in enumerate(part.groups) if np.isin(cols, kept).all()]
    member = np.full(len(kept), -1, dtype=np.int64)
    for i, g in enumerate(chosen):
        member[np.searchsorted(kept, part.groups[g])] = i
    return {
        "group_ids": np.array(chosen, dtype=np.int64),
        "weights": part.weights[chosen],
        "member": member,
    }


class TestGroupPartition:
    def make(self, seed=13, n=6, k=8, sizes=(3, 3, 2)):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((n, k))
        dic = sl.Dictionary(mat / np.linalg.norm(mat, axis=0))
        idx = np.split(rng.permutation(k), np.cumsum(sizes)[:-1])
        return dic, GroupPartition.build(dic, [np.sort(g) for g in idx])

    def test_default_weights_are_sqrt_sizes(self):
        _, part = self.make()
        assert np.allclose(part.weights, np.sqrt([3, 3, 2]))

    def test_spectral_norms_match_svd(self):
        dic, part = self.make()
        for g, nrm in zip(part.groups, part.spectral_norms):
            want = np.linalg.svd(dic.data[:, g], compute_uv=False)[0]
            assert abs(nrm - want) <= 1e-12 * want

    def test_unequal_sizes_with_singletons_match_svd(self):
        rng = np.random.default_rng(31)
        for n in (3, 12):
            mat = rng.standard_normal((n, 24))
            dic = sl.Dictionary(mat / np.linalg.norm(mat, axis=0))
            # sizes 1, 1, 1, 2, 2, 4, 5, 8: one batched solve per size, with
            # groups both narrower and wider than the row count
            cuts = np.cumsum([1, 1, 1, 2, 2, 4, 5])
            groups = [np.sort(g) for g in np.split(rng.permutation(24), cuts)]
            part = GroupPartition.build(dic, groups)
            for g, nrm in zip(part.groups, part.spectral_norms):
                want = np.linalg.svd(dic.data[:, g], compute_uv=False)[0]
                assert abs(nrm - want) <= 1e-12 * want
                if g.size == 1:
                    assert nrm == pytest.approx(1.0, abs=1e-15)

    def test_rejects_overlap_and_gaps(self):
        dic, _ = self.make()
        with pytest.raises(ValueError, match="disjoint"):
            GroupPartition.build(dic, [np.arange(5), np.arange(4, 8)])
        with pytest.raises(ValueError, match="cover"):
            GroupPartition.build(dic, [np.arange(4)])

    def test_errors_name_the_group_and_its_fault(self):
        dic, _ = self.make()
        cases = [
            ([np.arange(4), np.array([5, 4, 6, 7])], "group 1: .*strictly increasing; 4 follows 5"),
            ([np.arange(4), np.arange(4, 9)], r"group 1: indices must lie in \[0, 8\), not 8"),
            ([np.arange(4), np.array([], dtype=int), np.arange(4, 8)], "nonempty; group 1 is empty"),
            ([np.arange(5), np.arange(4, 8)], "disjoint; 4 is in groups 0, 1"),
            ([np.arange(3), np.arange(4, 8)], "cover every column; 3 is in none"),
            ([[0.0, 1.9], [2, 3], np.arange(4, 8)], "group 0: indices must be integers, not 1.9"),
            ([np.arange(4), np.arange(8) >= 4], "group 1: indices must be integers, not a boolean"),
            ([np.arange(4), [[4, 5], [6, 7]]], r"group 1: .*1-D array, not one of shape \(2, 2\)"),
            # these two reached numpy's bincount with a negative index
            ([np.arange(5), [5.0, 1e20], [6, 7]],
             r"group 1: indices must fit in int64, not 1e\+20"),
            ([np.arange(5), np.array([5, -2**63]), [6, 7]],
             f"group 1: index set must be strictly increasing; {-2**63} follows 5"),
        ]
        for groups, message in cases:
            with pytest.raises(ValueError, match=message):
                GroupPartition.build(dic, groups)
        with pytest.raises(ValueError, match="group 1: weight -2.0 must be finite and positive"):
            GroupPartition.build(dic, [np.arange(4), np.arange(4, 8)], weights=[1.0, -2.0])
        with pytest.raises(ValueError, match="one weight per group, not 3 for 2"):
            GroupPartition.build(dic, [np.arange(4), np.arange(4, 8)], weights=[1.0, 1.0, 1.0])

    def test_errors_name_the_last_group(self):
        # each fault of the test above, in the last of the groups
        dic, _ = self.make()
        cases = [
            ([np.arange(2), np.arange(2, 4), np.array([5, 4, 6, 7])], 2,
             "group 2: .*strictly increasing; 4 follows 5"),
            ([np.arange(4), np.arange(4, 6), np.arange(6, 9)], 2,
             r"group 2: indices must lie in \[0, 8\), not 8"),
            ([np.arange(4), np.arange(4, 8), np.array([], dtype=int)], 2, "nonempty; group 2 is empty"),
            ([np.arange(4, 8), np.arange(5)], 1, "disjoint; 4 is in groups 0, 1"),
            ([np.arange(3), np.arange(5, 8), np.array([3, 4, 6])], 2, "disjoint; 6 is in groups 1, 2"),
            ([np.arange(4, 8), np.arange(3)], None, "cover every column; 3 is in none"),
            ([np.arange(2, 8), [0.0, 1.9]], 1, "group 1: indices must be integers, not 1.9"),
            ([np.arange(2), np.arange(2, 4), np.arange(8) >= 4], 2,
             "group 2: indices must be integers, not a boolean"),
            ([np.arange(2), np.arange(2, 4), [[4, 5], [6, 7]]], 2,
             r"group 2: .*1-D array, not one of shape \(2, 2\)"),
        ]
        for groups, gid, message in cases:
            with pytest.raises(ValueError, match=message) as err:
                GroupPartition.build(dic, groups)
            assert getattr(err.value, "group", None) == gid
        with pytest.raises(ValueError, match="group 2: weight -2.0 must be finite and positive"):
            GroupPartition.build(dic, [np.arange(2), np.arange(2, 4), np.arange(4, 8)],
                                 weights=[1.0, 1.0, -2.0])

    def test_first_fault_in_group_order_is_named(self):
        # a fault found over the concatenated groups and one found converting
        # a single group: the earlier group is named, whichever kind it is
        dic, _ = self.make()
        cases = [
            ([np.arange(4, 9), [0.5]], "group 0: indices must lie"),
            ([[0.5], np.arange(4, 9)], "group 0: indices must be integers"),
            ([np.arange(4), [4.0, 5.0], np.array([7, 6])], "group 2: .*6 follows 7"),
            ([np.arange(4), np.array([], dtype=int), np.arange(4, 9)], "group 2: indices must lie"),
        ]
        for groups, message in cases:
            with pytest.raises(ValueError, match=message):
                GroupPartition.build(dic, groups)

    def test_rejects_nonpositive_weights(self):
        dic, _ = self.make()
        with pytest.raises(ValueError, match="positive"):
            GroupPartition.build(dic, [np.arange(4), np.arange(4, 8)], weights=[1.0, 0.0])

    def test_rejects_non_finite_weights(self):
        dic, _ = self.make()
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                GroupPartition.build(dic, [np.arange(4), np.arange(4, 8)], weights=[1.0, bad])

    @staticmethod
    def reference_build(dic, groups, weights=None):
        """The partition's fields as a group-by-group loop computes them."""
        checked = [index_set(g, dic.n_cols) for g in groups]
        group_of = np.full(dic.n_cols, -1, dtype=np.int64)
        for gid, g in enumerate(checked):
            assert np.all(group_of[g] == -1)
            group_of[g] = gid
        assert np.all(group_of >= 0)
        sizes = np.array([g.size for g in checked], dtype=np.int64)
        weights = np.sqrt(sizes) if weights is None else np.array(weights, dtype=np.float64)
        norms = np.array([sl.dictionary.spectral_norm(dic, g) for g in checked])
        return checked, group_of, sizes, weights, norms

    def test_build_matches_group_by_group_reference(self):
        rng = np.random.default_rng(47)
        mat = rng.standard_normal((9, 60))
        dic = sl.Dictionary(mat / np.linalg.norm(mat, axis=0))
        for trial in range(30):
            sizes = []
            while sum(sizes) < 60:
                sizes.append(min(int(rng.integers(1, 8)), 60 - sum(sizes)))
            perm = rng.permutation(60)
            # group order is not the order of the first indices
            groups = [np.sort(g) for g in np.split(perm, np.cumsum(sizes)[:-1])]
            if trial % 3 == 1:
                groups = [g.tolist() for g in groups]
            elif trial % 3 == 2:
                groups = [g.astype(np.float64) for g in groups]
            weights = rng.uniform(0.5, 3.0, len(groups)) if trial % 2 else None
            part = GroupPartition.build(dic, groups, weights)
            checked, group_of, sizes, weights, norms = self.reference_build(dic, groups, weights)
            assert len(part.groups) == len(checked)
            for got, want in zip(part.groups, checked):
                assert got.dtype == np.int64 and np.array_equal(got, want)
                assert not got.flags.writeable
            assert np.array_equal(part.group_of, group_of)
            assert part.weights.tobytes() == weights.tobytes()
            # one batched solve per size against one solve per group
            np.testing.assert_allclose(part.spectral_norms, norms, rtol=1e-13)
            full = part.full
            assert np.array_equal(full.group_ids, np.arange(len(checked)))
            assert np.array_equal(full.member, group_of)
            assert np.array_equal(np.bincount(full.member), sizes)
            assert full.weights.tobytes() == weights.tobytes()

    def test_group_norms_match_loop(self):
        _, part = self.make()
        rng = np.random.default_rng(5)
        v = rng.standard_normal(8)
        want = [np.linalg.norm(v[g]) for g in part.groups]
        assert np.allclose(part.full.norms(v), want, atol=1e-12)

    def test_layout_restrict(self):
        _, part = self.make()
        kept = np.sort(np.concatenate([part.groups[0], part.groups[2]]))
        layout = part.layout(kept)
        assert layout.group_ids.tolist() == [0, 2]
        v = np.arange(kept.size, dtype=float)
        full = np.zeros(8)
        full[kept] = v
        want = part.full.norms(full)[[0, 2]]
        assert np.allclose(layout.norms(v), want, atol=1e-12)

    def test_layout_matches_group_by_group(self):
        # unequal random partitions; each kept group's columns are located in
        # `kept` one group at a time
        rng = np.random.default_rng(21)
        empty = np.empty(0, dtype=np.int64)
        for trial in range(40):
            k = int(rng.integers(1, 30))
            cuts = np.sort(rng.choice(np.arange(1, k), size=min(k - 1, trial % 7), replace=False))
            groups = [np.sort(g) for g in np.split(rng.permutation(k), cuts)]
            mat = rng.standard_normal((4, k))
            part = GroupPartition.build(sl.Dictionary(mat / np.linalg.norm(mat, axis=0)), groups)
            some = np.flatnonzero(rng.random(part.n_groups) < 0.5)
            for chosen in (some, empty, np.arange(part.n_groups)):
                kept = np.sort(np.concatenate([part.groups[g] for g in chosen] + [empty]))
                layout = part.layout(kept)
                parts = [np.searchsorted(kept, part.groups[g]) for g in chosen]
                want = layout_by_hand(part, kept)
                assert np.array_equal(want["group_ids"], chosen)
                for name, ref in want.items():
                    assert np.array_equal(getattr(layout, name), ref), name
                for arr in (layout.group_ids, layout.member):
                    assert arr.dtype == np.int64 and not arr.flags.writeable
                # the prox, one group at a time with the same arithmetic
                v = rng.standard_normal(kept.size)
                t = float(rng.random())
                norms = layout.norms(v)
                want = np.zeros(kept.size)
                for g, pos in enumerate(parts):
                    factor = 0.0
                    if norms[g] > 0:
                        factor = max(1.0 - t * layout.weights[g] / norms[g], 0.0)
                    want[pos] = v[pos] * factor
                assert np.array_equal(layout.prox(v, t), want)

    def test_layout_without_matches_layout_of_survivors(self):
        # a layout derived by dropping flagged groups, again and again, equals
        # the layout of the surviving columns built by hand, field by field
        rng = np.random.default_rng(22)
        for trial in range(30):
            k = int(rng.integers(1, 40))
            cuts = np.sort(rng.choice(np.arange(1, k), size=min(k - 1, trial % 9), replace=False))
            groups = [np.sort(g) for g in np.split(rng.permutation(k), cuts)]
            mat = rng.standard_normal((4, k))
            part = GroupPartition.build(sl.Dictionary(mat / np.linalg.norm(mat, axis=0)), groups)
            kept, layout = np.arange(k), part.full
            while kept.size:
                flagged = rng.random(layout.n_groups) < 0.3
                mask = np.isin(part.group_of[kept], layout.group_ids[flagged])
                layout, kept = layout.without(mask), kept[~mask]
                for name, ref in layout_by_hand(part, kept).items():
                    got = getattr(layout, name)
                    assert got.dtype == ref.dtype and np.array_equal(got, ref), name
                    assert not got.flags.writeable

    def test_full_layout_is_built_once(self):
        _, part = self.make()
        # the full layout places position p in group group_of[p]
        assert part.full.member is part.group_of
        for name, ref in layout_by_hand(part, np.arange(part.size)).items():
            got = getattr(part.full, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name
            assert not got.flags.writeable

    def test_group_kernels_match_loop_bit_for_bit(self):
        # norms, penalty and prox against one Python loop per group that sums
        # the squares in position order, on unequal partitions with singletons
        # and groups of 8 and 17 or more columns, over the full layout, a
        # reduced one and each layout of a chain of `without`
        rng = np.random.default_rng(41)
        sizes = [1, 8, 1, 17, 2, 3, 1, 21, 5]
        k = sum(sizes)
        empty = np.empty(0, dtype=np.int64)
        for trial in range(6):
            groups = [np.sort(g) for g in np.split(rng.permutation(k), np.cumsum(sizes)[:-1])]
            mat = rng.standard_normal((5, k))
            part = GroupPartition.build(sl.Dictionary(mat / np.linalg.norm(mat, axis=0)), groups)
            chosen = np.flatnonzero(rng.random(part.n_groups) < 0.6)
            kept = np.sort(np.concatenate([part.groups[g] for g in chosen] + [empty]))
            cases = [(np.arange(k), part.full), (kept, part.layout(kept))]
            kept, layout = cases[0]
            while kept.size:
                flagged = layout.group_ids[rng.random(layout.n_groups) < 0.3]
                mask = np.isin(part.group_of[kept], flagged)
                kept, layout = kept[~mask], layout.without(mask)
                cases.append((kept, layout))
            for kept, layout in cases:
                # magnitudes spread over six decades, and one group of signed zeros
                v = rng.standard_normal(kept.size) * 10.0 ** rng.integers(-3, 4, kept.size)
                positions = [np.searchsorted(kept, part.groups[g]) for g in layout.group_ids]
                if positions:
                    v[positions[0]] = -0.0
                t = float(rng.random())
                norms = np.empty(layout.n_groups)
                prox = np.empty(kept.size)
                for g, pos in enumerate(positions):
                    sq = 0.0
                    for p in pos:
                        sq += v[p] * v[p]
                    norms[g] = math.sqrt(sq)
                    factor = 0.0
                    if norms[g] > 0:
                        factor = max(1.0 - t * layout.weights[g] / norms[g], 0.0)
                    prox[pos] = v[pos] * factor
                assert layout.norms(v).tobytes() == norms.tobytes()
                assert layout.penalty(v) == float(layout.weights @ norms)
                assert layout.prox(v, t).tobytes() == prox.tobytes()

    def test_empty_layout_kernels(self):
        # a dynamic screen can drop every group; `run` then still takes the
        # penalty over the empty layout
        _, part = self.make()
        for layout in (part.layout([]), part.full.without(np.ones(part.size, dtype=bool))):
            assert layout.n_groups == 0 and layout.member.dtype == np.int64
            norms = layout.norms(np.empty(0))
            assert norms.dtype == np.float64 and norms.shape == (0,)
            assert layout.penalty(np.empty(0)) == 0.0
            prox = layout.prox(np.empty(0), 0.5)
            assert prox.dtype == np.float64 and prox.shape == (0,)

    def test_layout_rejects_partial_groups(self):
        _, part = self.make()
        kept = part.groups[0][:-1]
        with pytest.raises(ValueError, match="whole groups"):
            part.layout(kept)
