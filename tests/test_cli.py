"""Command-line surface: exit codes, file outputs, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from csarank.checkpoint import describe_checkpoint, load_checkpoint
from csarank.cli import main
from csarank.storage import read_embeddings, read_ground_truth, read_rankings


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


GEN = ["generate", "--clusters", "4", "--items", "4", "--dim", "8",
       "--noise", "0.15", "--views", "2", "--distractors", "4", "--seed", "3"]
TRAIN_SHAPE = ["--K", "8", "--L", "8", "--depth", "1", "--heads", "2",
               "--head-dim", "4", "--hidden", "8", "--batch", "16"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset + search + short training shared by the module."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    assert run(GEN + ["--out", str(data)]) == 0
    assert run(["search", "--embeddings", str(data / "embeddings_view0.csae"),
                "--out", str(root / "rankings.jsonl"), "--K", "16"]) == 0
    assert run(["train", "--data", str(data), "--out", str(root / "model"),
                "--epochs", "2", "--seed", "5", *TRAIN_SHAPE]) == 0
    return root


class TestGenerate:
    def test_outputs_loadable(self, workspace):
        data = workspace / "data"
        emb = read_embeddings(data / "embeddings_view0.csae")
        assert len(emb) == 4 * 4 + 4
        truth = read_ground_truth(data / "ground_truth.jsonl")
        assert len(truth.positives) == len(emb)

    def test_repeated_seed_identical_files(self, tmp_path):
        for d in ("a", "b"):
            assert run(GEN + ["--out", str(tmp_path / d)]) == 0
        for name in ("embeddings_view0.csae", "embeddings_view1.csae",
                     "ground_truth.jsonl", "labels.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes(), name

    def test_view_count_flag(self, tmp_path):
        assert run(["generate", "--out", str(tmp_path / "v3"), "--clusters", "2",
                    "--items", "3", "--dim", "4", "--views", "3",
                    "--distractors", "0"]) == 0
        assert len(list((tmp_path / "v3").glob("embeddings_view*.csae"))) == 3

    def test_unwritable_path_fails(self):
        assert run(GEN + ["--out", "/proc/nope"]) == 1


class TestSearch:
    def test_missing_file_exits_nonzero(self, tmp_path):
        assert run(["search", "--embeddings", str(tmp_path / "absent.csae"),
                    "--out", str(tmp_path / "r.jsonl")]) == 1

    def test_query_subset_file(self, workspace, tmp_path):
        qfile = tmp_path / "queries.txt"
        qfile.write_text("img000000\nimg000005\n")
        out = tmp_path / "subset.jsonl"
        assert run(["search", "--embeddings",
                    str(workspace / "data" / "embeddings_view0.csae"),
                    "--out", str(out), "--K", "4", "--queries", str(qfile)]) == 0
        rankings = read_rankings(out)
        assert [r.query_id for r in rankings] == ["img000000", "img000005"]
        assert all(len(r) == 4 for r in rankings)


class TestTrain:
    def test_smoke_run_emits_loadable_checkpoint(self, workspace):
        params, extra, momentum = load_checkpoint(workspace / "model" / "last.ckpt")
        assert params.config.hidden == 8
        assert extra["epoch"] == 1
        assert momentum  # buffers persisted for resume
        report = json.loads((workspace / "model" / "train_report.json").read_text())
        assert report["steps"] > 0

    def test_resume_continues_step_counter(self, workspace, tmp_path):
        out = tmp_path / "resumed"
        first_steps = json.loads(
            (workspace / "model" / "train_report.json").read_text())["steps"]
        assert run(["train", "--data", str(workspace / "data"),
                    "--out", str(out), "--epochs", "4", "--seed", "5",
                    "--resume", str(workspace / "model" / "last.ckpt"),
                    *TRAIN_SHAPE]) == 0
        _, extra, _ = load_checkpoint(out / "last.ckpt")
        assert extra["step"] > first_steps
        assert extra["epoch"] == 3

    def test_lambda_zero_still_logs_mse(self, workspace, tmp_path):
        out = tmp_path / "lam0"
        assert run(["train", "--data", str(workspace / "data"), "--out", str(out),
                    "--epochs", "1", "--lambda", "0", "--seed", "1",
                    *TRAIN_SHAPE]) == 0
        rec = json.loads((out / "loss_log.jsonl").read_text().splitlines()[0])
        assert rec["loss_mse"] > 0
        assert rec["loss_total"] == rec["loss_contrastive"]

    def test_bad_dim_combination_is_usage_error(self, workspace, tmp_path):
        code = run(["train", "--data", str(workspace / "data"),
                    "--out", str(tmp_path / "x"), "--epochs", "1",
                    "--K", "8", "--L", "8", "--depth", "1", "--heads", "3",
                    "--head-dim", "4", "--hidden", "8"])
        assert code == 2


class TestRerank:
    def test_aqe_runs_without_checkpoint(self, workspace, tmp_path):
        out = tmp_path / "aqe.jsonl"
        assert run(["rerank", "--method", "aqe",
                    "--rankings", str(workspace / "rankings.jsonl"),
                    "--embeddings",
                    str(workspace / "data" / "embeddings_view0.csae"),
                    "--out", str(out), "--K", "8", "--nqe", "3"]) == 0
        assert out.exists()

    def test_csa_without_checkpoint_is_usage_error(self, workspace, tmp_path):
        assert run(["rerank", "--method", "csa",
                    "--rankings", str(workspace / "rankings.jsonl"),
                    "--embeddings",
                    str(workspace / "data" / "embeddings_view0.csae"),
                    "--out", str(tmp_path / "x.jsonl")]) == 2

    def test_output_multiset_matches_input_topk(self, workspace, tmp_path):
        out = tmp_path / "csa.jsonl"
        assert run(["rerank", "--method", "csa",
                    "--rankings", str(workspace / "rankings.jsonl"),
                    "--embeddings",
                    str(workspace / "data" / "embeddings_view0.csae"),
                    "--checkpoint", str(workspace / "model" / "last.ckpt"),
                    "--out", str(out), "--K", "8", "--L", "8"]) == 0
        before = read_rankings(workspace / "rankings.jsonl")
        after = read_rankings(out)
        for b, a in zip(before, after):
            assert sorted(a.ids[:8]) == sorted(b.ids[:8])
            assert a.ids[8:] == b.ids[8:]

    def test_latency_file_and_deterministic_zeroing(self, workspace, tmp_path):
        out = tmp_path / "dfs.jsonl"
        lat = tmp_path / "lat.json"
        assert run(["rerank", "--method", "dfs",
                    "--rankings", str(workspace / "rankings.jsonl"),
                    "--embeddings",
                    str(workspace / "data" / "embeddings_view0.csae"),
                    "--out", str(out), "--K", "8", "--k-graph", "5",
                    "--latency-out", str(lat), "--deterministic"]) == 0
        payload = json.loads(lat.read_text())
        assert payload["mean_ms"] == 0.0


class TestEvaluate:
    def test_reports_match_and_persist(self, workspace, tmp_path):
        report_path = tmp_path / "report.json"
        code = run(["evaluate", "--rankings", str(workspace / "rankings.jsonl"),
                    "--truth", str(workspace / "data" / "ground_truth.jsonl"),
                    "--out", str(report_path)])
        assert code == 0
        rows = json.loads(report_path.read_text())
        assert len(rows) == 1
        per_query = rows[0]["per_query_ap"]
        assert abs(rows[0]["map"] - np.mean(list(per_query.values()))) < 1e-9

    def test_two_ranking_files_two_rows(self, workspace, tmp_path):
        second = tmp_path / "copy.jsonl"
        second.write_bytes((workspace / "rankings.jsonl").read_bytes())
        report_path = tmp_path / "report2.json"
        assert run(["evaluate", "--rankings", str(workspace / "rankings.jsonl"),
                    str(second), "--truth",
                    str(workspace / "data" / "ground_truth.jsonl"),
                    "--out", str(report_path)]) == 0
        rows = json.loads(report_path.read_text())
        assert len(rows) == 2
        assert rows[0]["map"] == rows[1]["map"]

    def test_query_mismatch_rejected(self, workspace, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"query": "ghost", "entries": [["img000001", 0.5]]}\n')
        assert run(["evaluate", "--rankings", str(bad), "--truth",
                    str(workspace / "data" / "ground_truth.jsonl")]) == 1


class TestInspect:
    def test_param_count_matches_analytic(self, workspace, capsys):
        assert run(["inspect", "--checkpoint",
                    str(workspace / "model" / "last.ckpt")]) == 0
        printed = capsys.readouterr().out
        info = describe_checkpoint(workspace / "model" / "last.ckpt")
        c = info["config"]
        hidden, l, heads, hd = c["hidden"], c["input_len"], c["heads"], c["head_dim"]
        ffn = c["ffn_mult"] * hidden
        mse_hidden = c["mse_head_hidden"] or hidden
        analytic = (l * hidden + hidden) + c["depth"] * (
            3 * heads * hidden * hd + heads * hd * hidden + 4 * hidden
            + hidden * ffn + ffn + ffn * hidden + hidden
        ) + hidden * mse_hidden + mse_hidden + mse_hidden * l + l
        assert info["param_count"] == analytic
        assert f"parameters: {analytic}" in printed

    def test_empty_path_is_usage_error(self):
        assert run(["inspect", "--checkpoint", ""]) == 2

    def test_corrupt_checkpoint_fails_with_entry(self, workspace, tmp_path):
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(
            (workspace / "model" / "last.ckpt").read_bytes()[:40])
        assert run(["inspect", "--checkpoint", str(broken)]) == 1

    def test_summary_stable_across_save_load(self, workspace, tmp_path):
        from csarank.checkpoint import save_checkpoint
        params, extra, momentum = load_checkpoint(workspace / "model" / "last.ckpt")
        copy = tmp_path / "copy.ckpt"
        save_checkpoint(copy, params, extra=extra, momentum=momentum)
        a = describe_checkpoint(workspace / "model" / "last.ckpt")
        b = describe_checkpoint(copy)
        assert a == b


class TestDeterministicPipeline:
    def _pipeline(self, root):
        data = root / "data"
        codes = [
            run(GEN + ["--out", str(data), "--deterministic"]),
            run(["search", "--embeddings", str(data / "embeddings_view0.csae"),
                 "--out", str(root / "r.jsonl"), "--K", "12",
                 "--deterministic"]),
            run(["train", "--data", str(data), "--out", str(root / "m"),
                 "--epochs", "2", "--seed", "4", "--deterministic",
                 *TRAIN_SHAPE]),
            run(["rerank", "--method", "csa", "--rankings", str(root / "r.jsonl"),
                 "--embeddings", str(data / "embeddings_view0.csae"),
                 "--checkpoint", str(root / "m" / "best.ckpt"),
                 "--out", str(root / "rr.jsonl"), "--K", "8", "--L", "8",
                 "--deterministic"]),
            run(["evaluate", "--rankings", str(root / "rr.jsonl"), "--truth",
                 str(data / "ground_truth.jsonl"), "--out", str(root / "e.json"),
                 "--deterministic"]),
        ]
        assert codes == [0] * 5
        digests = {}
        for p in sorted(root.rglob("*")):
            if p.is_file():
                digests[str(p.relative_to(root))] = hashlib.sha256(
                    p.read_bytes()).hexdigest()
        return digests

    def test_two_runs_byte_identical(self, tmp_path):
        root = tmp_path / "ws"
        first = self._pipeline(root)
        for p in sorted(root.rglob("*"), reverse=True):
            p.unlink() if p.is_file() else p.rmdir()
        second = self._pipeline(root)
        assert first == second


def test_console_entry_point_help():
    # The child does not inherit pytest's import path; point it at the
    # package's own source tree.
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "csarank.cli", "--help"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "rerank" in proc.stdout


def test_missing_subcommand_is_usage_error():
    assert run([]) == 2
