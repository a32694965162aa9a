"""Round-trip identity and corruption reporting for all file formats."""

import struct

import numpy as np
import pytest

from csarank.affinity import EmbeddingMatrix, RankingList
from csarank.checkpoint import (
    CorruptCheckpointError,
    describe_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from csarank.dataset import GroundTruth
from csarank.encoder import EncoderConfig, init_params, _tensor_shapes
from csarank.kernels import l2_normalize_rows, make_rng
from csarank.storage import (
    FormatError,
    read_embeddings,
    read_ground_truth,
    read_labels,
    read_rankings,
    write_embeddings,
    write_ground_truth,
    write_labels,
    write_rankings,
)


def unit_matrix(seed, n, d):
    rows = l2_normalize_rows(make_rng(seed).standard_normal((n, d)))
    return EmbeddingMatrix([f"e{i}" for i in range(n)], rows.astype(np.float32))


class TestEmbeddingsFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        emb = unit_matrix(0, 3, 4)
        path = tmp_path / "m.csae"
        write_embeddings(path, emb)
        back = read_embeddings(path)
        assert back.ids == emb.ids
        assert back.rows.tobytes() == emb.rows.tobytes()

    def test_corrupt_magic_reports_offset_zero(self, tmp_path):
        path = tmp_path / "m.csae"
        write_embeddings(path, unit_matrix(1, 2, 3))
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="offset 0"):
            read_embeddings(path)

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "m.csae"
        write_embeddings(path, unit_matrix(2, 4, 5))
        full = path.read_bytes()
        path.write_bytes(full[:len(full) - 7])
        with pytest.raises(FormatError) as err:
            read_embeddings(path)
        assert err.value.offset > 0

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.csae"
        write_embeddings(path, unit_matrix(3, 2, 2))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            read_embeddings(path)

    def test_non_utf8_id_reports_offset(self, tmp_path):
        path = tmp_path / "m.csae"
        write_embeddings(path, unit_matrix(3, 2, 3))
        data = bytearray(path.read_bytes())
        data[23] = 0xFF  # first byte of the first id, after the header and its length
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="utf-8") as err:
            read_embeddings(path)
        assert err.value.offset == 23

    def test_duplicated_id_reports_its_offset(self, tmp_path):
        path = tmp_path / "m.csae"
        write_embeddings(path, unit_matrix(5, 3, 2))
        data = bytearray(path.read_bytes())
        # ids start at 21: [2]"e0" [2]"e1" [2]"e2"; make the second one "e0"
        assert data[27:29] == b"e1"
        data[28] = ord("0")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="duplicate") as err:
            read_embeddings(path)
        assert err.value.offset == 25

    def test_non_finite_value_reports_its_offset(self, tmp_path):
        path = tmp_path / "m.csae"
        write_embeddings(path, unit_matrix(6, 3, 2))
        data = bytearray(path.read_bytes())
        rows_at = 21 + 3 * 4  # past the header and three 2-byte ids
        data[rows_at + 4 * 5 + 3] = 0x7F  # exponent bits all set: Inf or NaN
        data[rows_at + 4 * 5 + 2] |= 0x80
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="non-finite") as err:
            read_embeddings(path)
        assert err.value.offset == rows_at + 4 * 5

    def test_loader_renormalizes_drifted_rows(self, tmp_path):
        emb = unit_matrix(4, 3, 4)
        emb.rows[1] *= 1.5  # break the invariant behind the constructor's back
        path = tmp_path / "m.csae"
        write_embeddings(path, emb)
        back = read_embeddings(path)
        np.testing.assert_allclose(np.linalg.norm(back.rows, axis=1), 1.0,
                                   atol=1e-4)


class TestRankingsFormat:
    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_rankings(path, [])
        assert read_rankings(path) == []

    def test_round_trip_exact(self, tmp_path):
        rankings = [
            RankingList("q1", ["a", "b"], np.array([0.9, 0.5])),
            RankingList("q2", ["c"], np.array([0.25])),
        ]
        path = tmp_path / "r.jsonl"
        write_rankings(path, rankings)
        back = read_rankings(path)
        assert [r.query_id for r in back] == ["q1", "q2"]
        assert back[0].ids == ["a", "b"]
        np.testing.assert_array_equal(back[0].scores, rankings[0].scores)

    def test_bad_record_reports_line_and_offset(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"query": "q1", "entries": [["a", 0.9]]}\n{broken\n')
        with pytest.raises(FormatError, match="line 2"):
            read_rankings(path)

    def test_non_utf8_byte_reports_line_and_offset(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_rankings(path, [RankingList("q1", ["a"], np.array([0.9])),
                              RankingList("q2", ["b"], np.array([0.8]))])
        data = bytearray(path.read_bytes())
        second = data.index(b"\n") + 1
        data[second + 11] = 0xFF  # first byte of the second record's query id
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="line 2") as err:
            read_rankings(path)
        assert err.value.offset == second


class TestGroundTruthFormat:
    def test_round_trip(self, tmp_path):
        truth = GroundTruth({"q1": {"a", "b"}, "q2": set()},
                            ignores={"q1": {"j"}})
        path = tmp_path / "t.jsonl"
        write_ground_truth(path, truth)
        back = read_ground_truth(path)
        assert back.positives == truth.positives
        assert back.ignores == truth.ignores

    def test_labels_round_trip(self, tmp_path):
        labels = {"a": 0, "b": 3, "x": None}
        path = tmp_path / "labels.json"
        write_labels(path, labels)
        assert read_labels(path) == labels

    def test_non_utf8_byte_reports_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"query": "q\xff", "positives": []}\n')
        with pytest.raises(FormatError, match="line 1"):
            read_ground_truth(path)

    def test_bad_truth_record(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"query": "q", "positive": ["typo"]}\n')
        with pytest.raises(FormatError, match="line 1"):
            read_ground_truth(path)


TINY = EncoderConfig(depth=1, heads=2, head_dim=4, hidden=8, input_len=6).validate()


class TestCheckpointFormat:
    def test_round_trip_params_config_extra_momentum(self, tmp_path):
        params = init_params(TINY, make_rng(5))
        momentum = {n: np.full_like(t, 0.5) for n, t in params.tensors.items()}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, extra={"epoch": 3, "step": 17},
                        momentum=momentum)
        loaded, extra, buffers = load_checkpoint(path)
        assert loaded.config == TINY
        assert extra == {"epoch": 3, "step": 17}
        for name in params.tensors:
            assert loaded.tensors[name].tobytes() == params.tensors[name].tobytes()
            np.testing.assert_array_equal(buffers[name], 0.5)

    def test_sidecar_written(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(TINY, make_rng(6)))
        sidecar = tmp_path / "model.ckpt.json"
        assert sidecar.exists()
        assert '"hidden": 8' in sidecar.read_text()

    def test_identical_state_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, init_params(TINY, make_rng(7)), extra={"step": 1})
        save_checkpoint(b, init_params(TINY, make_rng(7)), extra={"step": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(TINY, make_rng(8)))
        data = bytearray(path.read_bytes())
        data[1] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpointError, match="offset 0"):
            load_checkpoint(path)

    def test_non_utf8_tensor_name_reports_offset(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(TINY, make_rng(11)))
        data = bytearray(path.read_bytes())
        data[14] = 0xFF  # first byte of the first tensor name
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpointError, match="utf-8") as err:
            load_checkpoint(path)
        assert err.value.offset == 14

    def test_corrupt_meta_reports_offset(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(TINY, make_rng(12)))
        data = bytearray(path.read_bytes())
        meta_at = data.rindex(b'{"config"')
        data[meta_at] = ord("x")
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpointError, match="meta") as err:
            load_checkpoint(path)
        assert err.value.offset == meta_at

    def test_overflowing_dims_report_truncation(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(TINY, make_rng(13)))
        data = bytearray(path.read_bytes())
        rank_at = 14 + struct.unpack_from("<H", data, 12)[0]  # past the first name
        assert data[rank_at] == 2
        # 2**32 x 2**32 values: an int64 product wraps to 0
        data[rank_at + 1:rank_at + 17] = struct.pack("<QQ", 2**32, 2**32)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("prefix", ["", "opt.momentum."])
    def test_flipped_tensor_name_byte_names_entry(self, tmp_path, prefix):
        params = init_params(TINY, make_rng(14))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params,
                        momentum={n: np.zeros_like(t) for n, t in params.tensors.items()})
        data = bytearray(path.read_bytes())
        entry_at = data.index(struct.pack("<H", len(prefix + "proj.w"))
                              + (prefix + "proj.w").encode())
        data[entry_at + 2 + len(prefix)] ^= 0x01  # "proj.w" -> "qroj.w"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpointError) as err:
            load_checkpoint(path)
        assert err.value.offset == entry_at
        assert err.value.entry == prefix + "qroj.w"

    def test_non_finite_tensor_value_names_entry(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(TINY, make_rng(15)))
        data = bytearray(path.read_bytes())
        entry_at = data.index(b"\x06\x00proj.b")
        value_at = entry_at + 2 + 6 + 1 + 8  # name, rank 1, one dim
        data[value_at:value_at + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpointError, match="non-finite") as err:
            load_checkpoint(path)
        assert (err.value.offset, err.value.entry) == (entry_at, "proj.b")

    def test_truncated_tensor_names_offending_entry(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(TINY, make_rng(9)))
        # first tensor alphabetically is layers.0.attn.fuse; cut inside its data
        path.write_bytes(path.read_bytes()[:64])
        with pytest.raises(CorruptCheckpointError) as err:
            load_checkpoint(path)
        assert err.value.entry is not None or err.value.offset > 0

    def test_describe_counts_model_tensors_only(self, tmp_path):
        params = init_params(TINY, make_rng(10))
        momentum = {n: np.zeros_like(t) for n, t in params.tensors.items()}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, momentum=momentum)
        info = describe_checkpoint(path)
        analytic = sum(int(np.prod(s)) for s in _tensor_shapes(TINY).values())
        assert info["param_count"] == analytic == params.param_count()
        assert info["momentum_buffers"] == len(params.tensors)
        assert set(info["tensors"]) == set(params.tensors)
