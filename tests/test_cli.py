"""Command-line interface: subcommands, exit codes, stdout formats.

Commands run in-process through ``cli.main`` so stdout/stderr land in
capsys; one subprocess test proves the module entry point works.
"""

from __future__ import annotations

import io
import json
import logging
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from idiomatize import cli, load_checkpoint
from idiomatize.numerics import ParamStore, grad_check, tsum
from idiomatize.numerics.tensor import _node
from idiomatize.pipeline import load_dataset

from conftest import write_config


@pytest.fixture(autouse=True)
def _reset_logging():
    """main() configures the root logger; un-bind captured streams after."""
    yield
    root = logging.getLogger()
    for handler in list(root.handlers):
        root.removeHandler(handler)


# ------------------------------------------------------------ exit codes

@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["train"],
        ["train", "reranker", "--data", "x", "--out", "y"],
        ["evaluate", "--config", "c", "--data", "d", "--ckpt-dir", "k", "--split", "dev"],
        ["transform", "--config", "c"],
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_missing_data_file_exits_two(tmp_path, capsys):
    code = cli.main(
        [
            "ingest",
            "--lexicon", str(tmp_path / "absent.jsonl"),
            "--pairs", str(tmp_path / "absent.jsonl"),
            "--out", str(tmp_path / "ds"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'absent.jsonl'}: ")


# ---------------------------------------------------------------- ingest

def test_ingest_writes_dataset(demo_files, tmp_path):
    out = str(tmp_path / "ds")
    code = cli.main(
        [
            "--quiet",
            "ingest",
            "--lexicon", demo_files["lexicon"],
            "--pairs", demo_files["pairs"],
            "--out", out,
            "--annotated", demo_files["annotated"],
        ]
    )
    assert code == 0
    ds = load_dataset(out)
    assert ds.annotated_ids == ("mull_over", "run_for_cover")
    assert len(ds.split.validation) == 2
    assert len(ds.split.test) == 2
    assert len(ds.split.train) == 28
    assert len(ds.vocab) > 4


def test_ingest_defaults_to_all_idioms_annotated(demo_files, tmp_path):
    out = str(tmp_path / "ds")
    code = cli.main(
        [
            "--quiet",
            "ingest",
            "--lexicon", demo_files["lexicon"],
            "--pairs", demo_files["pairs"],
            "--out", out,
        ]
    )
    assert code == 0
    ds = load_dataset(out)
    assert len(ds.annotated_ids) == len(ds.lexicon)
    # Two demo idioms have three pairs (1 validation + 1 test each) and
    # eight have two pairs (1 test each); singletons stay in train.
    assert len(ds.split.validation) == 2
    assert len(ds.split.test) == 10
    assert len(ds.split.train) == 20


def test_ingest_augmented_pairs_extend_train(demo_files, tmp_path, capsys):
    out = str(tmp_path / "ds")
    code = cli.main(
        [
            "--quiet",
            "ingest",
            "--lexicon", demo_files["lexicon"],
            "--pairs", demo_files["pairs"],
            "--pairs-aug", demo_files["pairs"],
            "--out", out,
            "--annotated", demo_files["annotated"],
        ]
    )
    assert code == 0
    ds = load_dataset(out)
    assert len(ds.split.train) == 28 + 32
    assert len(ds.split.validation) == 2
    assert len(ds.split.test) == 2


def test_ingest_rejects_unknown_annotated_id(demo_files, tmp_path, capsys):
    bad = str(tmp_path / "annotated.txt")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("mull_over\nnot_an_idiom\n")
    code = cli.main(
        [
            "ingest",
            "--lexicon", demo_files["lexicon"],
            "--pairs", demo_files["pairs"],
            "--out", str(tmp_path / "ds"),
            "--annotated", bad,
        ]
    )
    assert code == 2
    assert "not_an_idiom" in capsys.readouterr().err


# ----------------------------------------------------------------- train

def test_train_retrieval_checkpoint(demo_files, tmp_path):
    out = str(tmp_path / "nested" / "dir" / "retrieval.json")
    code = cli.main(
        [
            "--quiet",
            "train", "retrieval",
            "--data", demo_files["dataset"],
            "--out", out,
            "--epochs", "1",
            "--embed-dim", "8",
            "--hidden", "8",
            "--negatives", "3",
            "--batch", "8",
        ]
    )
    assert code == 0
    model = load_checkpoint(out)
    assert model.component == "retrieval"
    assert model.hyperparameters()["embed_dim"] == 8


def test_train_extractor_checkpoint(demo_files, tmp_path):
    out = str(tmp_path / "extractor.json")
    code = cli.main(
        [
            "--quiet",
            "train", "extractor",
            "--data", demo_files["dataset"],
            "--out", out,
            "--epochs", "1",
            "--embed-dim", "8",
            "--hidden", "8",
            "--batch", "8",
        ]
    )
    assert code == 0
    assert load_checkpoint(out).component == "extractor"


def test_train_generator_checkpoint(demo_files, tmp_path):
    out = str(tmp_path / "generator.json")
    code = cli.main(
        [
            "--quiet",
            "train", "generator",
            "--data", demo_files["dataset"],
            "--out", out,
            "--epochs", "1",
            "--hidden", "16",
            "--mode", "unguided",
            "--batch", "8",
        ]
    )
    assert code == 0
    model = load_checkpoint(out)
    assert model.component == "generator"
    assert model.guided is False
    assert model.hidden == 16


OUT_OF_RANGE_FLAGS = [
    ("train extractor", "--lr", "-1"),
    ("train extractor", "--lr", "0"),
    ("train extractor", "--lr", "nan"),
    ("train extractor", "--lr", "inf"),
    ("train extractor", "--epochs", "-1"),
    ("train extractor", "--epochs", "1.5"),
    ("train retrieval", "--negatives", "-1"),
    ("train extractor", "--batch", "0"),
    ("train extractor", "--batch", "-1"),
    ("train extractor", "--hidden", "0"),
    ("train generator", "--hidden", "-2"),
    ("train retrieval", "--embed-dim", "0"),
    ("train extractor", "--seed", "-1"),
    ("ingest", "--seed", str(2**64)),
    ("gradcheck", "--seed", "-1"),
]


@pytest.mark.parametrize("command, flag, value", OUT_OF_RANGE_FLAGS, ids=[f"{c} {f}={v}" for c, f, v in OUT_OF_RANGE_FLAGS])
def test_out_of_range_flag_is_a_usage_error(tmp_path, capsys, command, flag, value):
    # Refused at parse time, before any file is read: every input named here is absent.
    absent = str(tmp_path / "absent")
    files = {
        "train": ["--data", absent, "--out", str(tmp_path / "m.json")],
        "ingest": ["--lexicon", absent, "--pairs", absent, "--out", str(tmp_path / "ds")],
        "gradcheck": [],
    }[command.split()[0]]
    with pytest.raises(SystemExit) as exc:
        cli.main(["--quiet", *command.split(), *files, f"{flag}={value}"])
    assert exc.value.code == 1
    assert f"argument {flag}: must be " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_numeric_flags_keep_their_defaults_and_accept_their_edges():
    parser = cli._build_parser()
    train = ["train", "retrieval", "--data", "d", "--out", "o"]
    args = parser.parse_args(train)
    assert (args.epochs, args.lr, args.seed, args.negatives, args.batch) == (10, 1e-3, 0, 100, 32)
    assert (args.embed_dim, args.hidden) == (None, None)
    edges = ["--epochs=0", "--negatives=0", "--batch=1", "--hidden=1", "--embed-dim=1", "--lr=5e-324", f"--seed={2**64 - 1}"]
    args = parser.parse_args(train + edges)
    assert (args.epochs, args.negatives, args.batch, args.hidden, args.embed_dim) == (0, 0, 1, 1, 1)
    assert (args.lr, args.seed) == (5e-324, 2**64 - 1)
    assert parser.parse_args(["ingest", "--lexicon", "l", "--pairs", "p", "--out", "o", "--seed=0"]).seed == 0
    args = parser.parse_args(["gradcheck", f"--seed={2**64 - 1}", "--tolerance=0"])
    assert (args.seed, args.tolerance) == (2**64 - 1, 0.0)
    assert parser.parse_args(["gradcheck"]).tolerance == cli.GRADCHECK_TOLERANCE


def test_train_generator_embed_dim_is_a_usage_error(tmp_path, capsys):
    # Refused before the dataset is read: the dataset directory does not exist.
    out = tmp_path / "generator.json"
    argv = ["train", "generator", "--data", str(tmp_path / "absent"), "--out", str(out), "--embed-dim", "8"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert "--embed-dim" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, content",
    [
        ("vocab.json", "{}"),
        ("vocab.json", '{"tokens": 5}'),
        ("meta.json", "[]"),
        ("meta.json", '{"seed": 0, "annotated_ids": 5}'),
        ("meta.json", '{"seed": true, "annotated_ids": []}'),
    ],
)
def test_train_malformed_dataset_exits_two(demo_files, tmp_path, capsys, name, content):
    data = tmp_path / "dataset"
    shutil.copytree(demo_files["dataset"], data)
    (data / name).write_text(content, encoding="utf-8")
    out = str(tmp_path / "extractor.json")
    code = cli.main(["--quiet", "train", "extractor", "--data", str(data), "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("out", ["adir", "adir/", "newdir/", "afile/m.json", "afile/sub/m.json"])
def test_train_bad_out_path_exits_two_before_training(tmp_path, capsys, out):
    # Refused before the dataset is read (its directory does not exist), so
    # no training is lost to a checkpoint path that cannot be written.
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("x", encoding="utf-8")
    out = os.path.join(tmp_path, out)  # keeps a trailing slash, which pathlib drops
    code = cli.main(["--quiet", "train", "retrieval", "--data", str(tmp_path / "absent"), "--out", out])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {out}: ")
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "x"
    assert not (tmp_path / "newdir").exists()


# ------------------------------------------------------------- transform

def test_transform_inline_input(config_file, demo_files, ckpt_dir, capsys):
    code = cli.main(
        [
            "--quiet",
            "transform",
            "--config", config_file,
            "--lexicon", demo_files["lexicon"],
            "--ckpt-dir", ckpt_dir,
            "--input", "He thought about the problem for a long time.",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert set(record) == {
        "literal", "idiom_id", "sense_index", "span", "output", "scores",
    }
    assert record["literal"][0] == "he"
    assert isinstance(record["output"], list)


def test_transform_reads_stdin_lines(
    config_file, demo_files, ckpt_dir, capsys, monkeypatch
):
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO("He ran away quickly.\n\nShe kept thinking about it.\n"),
    )
    code = cli.main(
        [
            "--quiet",
            "transform",
            "--config", config_file,
            "--lexicon", demo_files["lexicon"],
            "--ckpt-dir", ckpt_dir,
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        json.loads(line)


class _TrickleStdin:
    """A stdin that hands out each line only once every earlier non-blank line's result is on stdout."""

    def __init__(self, lines, capsys):
        self.lines = iter(lines)
        self.capsys = capsys
        self.out = ""
        self.sent = 0

    def __iter__(self):
        return self

    def __next__(self):
        self.out += self.capsys.readouterr().out
        assert len(self.out.splitlines()) == self.sent
        line = next(self.lines)
        self.sent += bool(line.strip())
        return line


def test_transform_streams_stdin_lines(config_file, demo_files, ckpt_dir, capsys, monkeypatch):
    lines = ["He ran away quickly.\n", "\n", "She kept thinking about it.\n", "a <sep> b\n", "never read\n"]
    stdin = _TrickleStdin(lines, capsys)
    monkeypatch.setattr("sys.stdin", stdin)
    code = cli.main(
        [
            "--quiet",
            "transform",
            "--config", config_file,
            "--lexicon", demo_files["lexicon"],
            "--ckpt-dir", ckpt_dir,
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.strip() == "error: reserved token '<sep>' in text"
    # The two results before the failing line were printed; the line after it was never read.
    printed = (stdin.out + captured.out).splitlines()
    assert [json.loads(line)["literal"][0] for line in printed] == ["he", "she"]
    assert list(stdin.lines) == ["never read\n"]


@pytest.mark.parametrize(
    "text,message",
    [
        ("<sep> <pad> <eos>", "error: reserved token '<sep>' in text"),
        ("", "error: empty input sentence"),
        ("   ", "error: empty input sentence"),
    ],
)
def test_transform_rejects_reserved_or_empty_input(config_file, demo_files, ckpt_dir, capsys, text, message):
    code = cli.main(
        [
            "--quiet",
            "transform",
            "--config", config_file,
            "--lexicon", demo_files["lexicon"],
            "--ckpt-dir", ckpt_dir,
            "--input", text,
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == message


def test_transform_is_deterministic(config_file, demo_files, ckpt_dir, capsys):
    argv = [
        "--quiet",
        "transform",
        "--config", config_file,
        "--lexicon", demo_files["lexicon"],
        "--ckpt-dir", ckpt_dir,
        "--input", "The dog ran very fast.",
    ]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_transform_rule_based_needs_no_generator_file(
    tiny_models, demo_files, tmp_path, capsys
):
    from idiomatize import save_checkpoint

    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    save_checkpoint(tiny_models["retrieval"], str(ckpts / "retrieval.json"))
    save_checkpoint(tiny_models["extractor"], str(ckpts / "extractor.json"))
    config = write_config(str(tmp_path / "c.json"), generator_mode="rule_based")
    code = cli.main(
        [
            "--quiet",
            "transform",
            "--config", config,
            "--lexicon", demo_files["lexicon"],
            "--ckpt-dir", str(ckpts),
            "--input", "He ran away quickly.",
        ]
    )
    assert code == 0
    json.loads(capsys.readouterr().out)


def test_transform_missing_generator_file_exits_two(
    tiny_models, demo_files, tmp_path, capsys
):
    from idiomatize import save_checkpoint

    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    save_checkpoint(tiny_models["retrieval"], str(ckpts / "retrieval.json"))
    save_checkpoint(tiny_models["extractor"], str(ckpts / "extractor.json"))
    config = write_config(str(tmp_path / "c.json"))  # guided
    code = cli.main(
        [
            "transform",
            "--config", config,
            "--lexicon", demo_files["lexicon"],
            "--ckpt-dir", str(ckpts),
            "--input", "He ran away quickly.",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_transform_mode_mismatch_exits_two(demo_files, ckpt_dir, tmp_path, capsys):
    config = write_config(str(tmp_path / "c.json"), generator_mode="unguided")
    code = cli.main(
        [
            "transform",
            "--config", config,
            "--lexicon", demo_files["lexicon"],
            "--ckpt-dir", ckpt_dir,
            "--input", "He ran away quickly.",
        ]
    )
    assert code == 2
    assert "guided" in capsys.readouterr().err


@pytest.mark.parametrize(
    "layout, stage",
    [
        ({"retrieval": "extractor", "extractor": "retrieval", "generator": "generator"}, "retrieval"),
        ({"retrieval": "retrieval", "extractor": "extractor", "generator": "extractor"}, "generator"),
    ],
    ids=["retrieval_and_extractor_swapped", "extractor_in_generator_file"],
)
def test_transform_stage_file_holding_another_stage_exits_two(
    tiny_models, config_file, demo_files, tmp_path, capsys, layout, stage
):
    from idiomatize import save_checkpoint

    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    for name, held in layout.items():
        save_checkpoint(tiny_models[held], str(ckpts / f"{name}.json"))
    code = cli.main(
        [
            "transform",
            "--config", config_file,
            "--lexicon", demo_files["lexicon"],
            "--ckpt-dir", str(ckpts),
            "--input", "He ran away quickly.",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"the {stage} stage holds a model of component" in err


@pytest.mark.parametrize("content", ['{"beam": 2, "widths": 3}', "{oops", "[]", '{"beam": "4"}'])
def test_transform_bad_config_exits_two(
    demo_files, ckpt_dir, tmp_path, capsys, content
):
    config = str(tmp_path / "c.json")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(content)
    code = cli.main(
        [
            "transform",
            "--config", config,
            "--lexicon", demo_files["lexicon"],
            "--ckpt-dir", ckpt_dir,
            "--input", "He ran away quickly.",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {config}")


@pytest.mark.parametrize("seed", [True, 2**64])
def test_transform_checkpoint_seed_not_an_integer_exits_two(config_file, demo_files, ckpt_dir, tmp_path, capsys, seed):
    # True would seed as 1 and 2**64 would fold onto seed 0.
    ckpts = tmp_path / "ckpts"
    shutil.copytree(ckpt_dir, ckpts)
    path = ckpts / "extractor.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["hyperparameters"]["seed"] = seed
    path.write_text(json.dumps(payload), encoding="utf-8")
    argv = ["transform", "--config", config_file, "--lexicon", demo_files["lexicon"],
            "--ckpt-dir", str(ckpts), "--input", "x"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "seed must be an integer" in err


# ------------------------------------------------------------ data files

FILE_FAULTS = {
    "not_utf8": b'{"tokens": "\xff"}\n',
    "invalid_json": b"{oops\n",
    "not_object": b"[1, 2]\n",
    "no_reserved_prefix": b'{"tokens": ["the", "<pad>", "<unk>", "<sep>", "<eos>"]}\n',
}


@pytest.mark.parametrize(
    "name, fault",
    [
        (name, fault)
        for name in ("config", "vocab.json", "meta.json", "lexicon", "pairs", "checkpoint")
        for fault in ("not_utf8", "invalid_json", "not_object")
    ]
    + [("annotated", "not_utf8"), ("vocab.json", "no_reserved_prefix")],
)
def test_data_error_names_its_file(demo_files, config_file, ckpt_dir, tmp_path, capsys, name, fault):
    # One faulty file among good inputs; stderr starts with that file's path.
    bad = tmp_path / name
    if name in ("vocab.json", "meta.json"):
        shutil.copytree(demo_files["dataset"], tmp_path / "dataset")
        bad = tmp_path / "dataset" / name
        argv = ["train", "extractor", "--data", str(bad.parent), "--out", str(tmp_path / "x.json")]
    elif name == "config":
        argv = ["transform", "--config", str(bad), "--lexicon", demo_files["lexicon"], "--ckpt-dir", ckpt_dir, "--input", "x"]
    elif name == "checkpoint":
        # retrieval.json is the first checkpoint loaded, so a directory holding it alone will do.
        bad = tmp_path / "ckpts" / "retrieval.json"
        bad.parent.mkdir()
        argv = ["transform", "--config", config_file, "--lexicon", demo_files["lexicon"],
                "--ckpt-dir", str(bad.parent), "--input", "x"]
    else:
        files = {key: demo_files[key] for key in ("lexicon", "pairs", "annotated")} | {name: str(bad)}
        argv = ["ingest", "--out", str(tmp_path / "ds")]
        for key, path in files.items():
            argv += [f"--{key}", path]
    bad.write_bytes(FILE_FAULTS[fault])
    assert cli.main(["--quiet", *argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}")


DATASET_FILES = ("lexicon.jsonl", "train.jsonl", "validation.jsonl", "test.jsonl", "vocab.json", "meta.json")


@pytest.mark.parametrize("target", ["afile", "afile/sub", *DATASET_FILES])
def test_output_error_names_its_path(demo_files, tmp_path, capsys, target):
    # A file where ingest's --out directory should be, or a directory where a dataset file should be.
    (tmp_path / "afile").write_text("x", encoding="utf-8")
    if target.startswith("afile"):
        out = bad = tmp_path / target
    else:
        out = tmp_path / "ds"
        bad = out / target
        bad.mkdir(parents=True)
    argv = ["--quiet", "ingest", "--lexicon", demo_files["lexicon"], "--pairs", demo_files["pairs"], "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "x"
    assert [p.name for p in tmp_path.rglob("*.tmp")] == []


def test_failed_ingest_over_a_dataset_leaves_no_loadable_mix(demo_files, tmp_path, capsys):
    # ingest over a whole dataset fails at vocab.json after rewriting lexicon.jsonl and the splits;
    # the old meta.json is gone, so train refuses the directory instead of reading old and new files.
    out = tmp_path / "ds"
    shutil.copytree(demo_files["dataset"], out)
    (out / "vocab.json").unlink()
    (out / "vocab.json").mkdir()
    argv = ["--quiet", "ingest", "--lexicon", demo_files["lexicon"], "--pairs", demo_files["pairs"], "--out", str(out)]
    assert cli.main(argv) == 2
    capsys.readouterr()
    model = str(tmp_path / "extractor.json")
    assert cli.main(["--quiet", "train", "extractor", "--data", str(out), "--out", model]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out / 'meta.json'}: ")
    assert not os.path.exists(model)


# -------------------------------------------------------------- evaluate

def test_evaluate_prints_report(config_file, demo_files, ckpt_dir, capsys):
    code = cli.main(
        [
            "--quiet",
            "evaluate",
            "--config", config_file,
            "--data", demo_files["dataset"],
            "--ckpt-dir", ckpt_dir,
            "--split", "test",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["num_instances"] == 2
    assert 0.0 <= report["bleu"] <= 1.0
    assert "span_f1" in report
    assert "instances: 2" in captured.err
    assert "retrieval_acc" in captured.err


# ------------------------------------------------------------- gradcheck

def test_gradcheck_single_module(capsys):
    code = cli.main(["--quiet", "gradcheck", "--module", "extractor"])
    assert code == 0
    out = capsys.readouterr().out
    assert "extractor: max relative gradient error" in out


def test_gradcheck_strict_tolerance_exits_three(capsys):
    code = cli.main(
        ["--quiet", "gradcheck", "--module", "extractor", "--tolerance", "0"]
    )
    assert code == 3
    assert "gradcheck failed" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["nan", "-1e-4"])
def test_gradcheck_bad_tolerance_exits_one(capsys, tolerance):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--quiet", "gradcheck", "--module", "extractor", f"--tolerance={tolerance}"])
    assert exc.value.code == 1
    assert "argument --tolerance: must be a non-negative number" in capsys.readouterr().err


def test_gradcheck_nonfinite_gradient_exits_three(monkeypatch, capsys):
    def nan_check(seed):
        # A finite value whose backward gives NaN.
        store = ParamStore()
        w = store.add_zeros("w", (2,))
        return grad_check(lambda _s: tsum(_node(w.data.copy(), (w,), lambda g: (np.full_like(g, np.nan),))), store)

    monkeypatch.setitem(cli.ALL_CHECKS, "extractor", nan_check)
    assert cli.main(["--quiet", "gradcheck", "--module", "extractor"]) == 3
    assert "analytic gradient of 'w' is not finite" in capsys.readouterr().err


# ------------------------------------------------------------ subprocess

def test_module_entry_point(config_file, demo_files, ckpt_dir):
    proc = subprocess.run(
        [
            sys.executable, "-m", "idiomatize.cli",
            "--quiet",
            "transform",
            "--config", config_file,
            "--lexicon", demo_files["lexicon"],
            "--ckpt-dir", ckpt_dir,
            "--input", "He ran away quickly.",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["output"]
