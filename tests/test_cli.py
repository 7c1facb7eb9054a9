"""End-to-end pipeline tests through the command-line interface."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgrec import config, training
from kgrec.autodiff import save_checkpoint
from kgrec.cli import main
from kgrec.config import RunConfig, _format_value, _parse_value, load_config, save_config
from kgrec.evaluation import EvalConfig
from kgrec.graph import load_dataset
from kgrec.model import ModelConfig, init_params
from kgrec.sampling import WalkCache, WalkConfig

import synth

FAST_TRAIN = [
    "--set", "d=6", "--set", "S=2", "--set", "N=3", "--set", "M=3", "--set", "L=3",
    "--set", "eta=0.005", "--set", "B=32", "--set", "n_neg=2",
    "--set", "epochs=2", "--set", "eval_every=2", "--set", "K=5,10,20",
]


def _checkpoint_meta(store, kg, cfg=ModelConfig()):
    return {**dataclasses.asdict(cfg), "n_users": store.user_count,
            "n_entities": kg.entity_count, "n_relations": kg.relation_embedding_count}


@pytest.fixture()
def pipeline(tmp_path):
    ratings, kg_file, item_map = synth.write_planted_files(tmp_path / "raw", seed=1)
    dataset = tmp_path / "dataset"
    code = main(["preprocess", "--ratings", str(ratings), "--kg", str(kg_file),
                 "--item-map", str(item_map), "--out", str(dataset), "--seed", "3"])
    assert code == 0
    cache = tmp_path / "cache.bin"
    code = main(["build-cache", "--dataset", str(dataset), "--out", str(cache),
                 "--seed", "3", "--set", "S=2", "--set", "M=3", "--set", "L=3"])
    assert code == 0
    return tmp_path, dataset, cache


def test_preprocess_writes_stats_and_config(pipeline, capsys):
    tmp_path, dataset, _ = pipeline
    assert (dataset / "config.ini").exists()
    assert (dataset / "train.tsv").exists()
    # rerun to inspect its stdout statistics
    ratings, kg_file, item_map = (tmp_path / "raw" / n
                                  for n in ("ratings.tsv", "kg.tsv", "item_map.tsv"))
    out2 = tmp_path / "dataset2"
    main(["preprocess", "--ratings", str(ratings), "--kg", str(kg_file),
          "--item-map", str(item_map), "--out", str(out2), "--seed", "3"])
    lines = capsys.readouterr().out.strip().splitlines()
    stats = dict(line.split("\t") for line in lines if "\t" in line)
    assert stats["users"] == "20"
    assert int(stats["interactions"]) == 100
    assert int(stats["train"]) + int(stats["valid"]) + int(stats["test"]) == 100


def test_preprocess_is_reproducible(pipeline, tmp_path):
    _, dataset, _ = pipeline
    ratings, kg_file, item_map = (tmp_path / "raw" / n
                                  for n in ("ratings.tsv", "kg.tsv", "item_map.tsv"))
    again = tmp_path / "dataset_again"
    main(["preprocess", "--ratings", str(ratings), "--kg", str(kg_file),
          "--item-map", str(item_map), "--out", str(again), "--seed", "3"])
    for name in ("train.tsv", "valid.tsv", "test.tsv", "kg.tsv", "id_maps.tsv"):
        assert (dataset / name).read_bytes() == (again / name).read_bytes()


def test_train_evaluate_round_trip(pipeline, capsys):
    tmp_path, dataset, cache = pipeline
    run = tmp_path / "run"
    code = main(["train", "--dataset", str(dataset), "--cache", str(cache),
                 "--out", str(run), "--seed", "11"] + FAST_TRAIN)
    assert code == 0
    assert (run / "checkpoint.bin").exists()
    report = (run / "train_report.tsv").read_text().strip().splitlines()
    assert report[0] == "epoch\tl_bpr\tl_kg\tl2\thr20_valid"
    assert len(report) == 3
    assert (run / "timings.tsv").exists()

    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(dataset), "--cache", str(cache),
                 "--checkpoint", str(run / "checkpoint.bin"), "--split", "test",
                 "--out", str(run / "eval.tsv")] + FAST_TRAIN)
    assert code == 0
    lines = (run / "eval.tsv").read_text().strip().splitlines()
    parsed = [line.split("\t") for line in lines]
    assert all(row[0] == "test" for row in parsed)
    assert {row[2] for row in parsed} == {"precision", "recall", "hit_ratio"}
    assert all(0.0 <= float(row[3]) <= 1.0 for row in parsed)


def test_two_train_runs_are_byte_identical(pipeline):
    tmp_path, dataset, cache = pipeline
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = main(["train", "--dataset", str(dataset), "--cache", str(cache),
                     "--out", str(out), "--seed", "21"] + FAST_TRAIN)
        assert code == 0
        outs.append(out)
    a, b = outs
    assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
    assert (a / "train_report.tsv").read_bytes() == (b / "train_report.tsv").read_bytes()


def test_cache_rebuild_is_byte_identical(pipeline):
    tmp_path, dataset, cache = pipeline
    second = tmp_path / "cache2.bin"
    main(["build-cache", "--dataset", str(dataset), "--out", str(second),
          "--seed", "3", "--set", "S=2", "--set", "M=3", "--set", "L=3"])
    assert cache.read_bytes() == second.read_bytes()


def test_ablate_emits_four_parsable_records(pipeline):
    tmp_path, dataset, cache = pipeline
    out = tmp_path / "ablation"
    code = main(["ablate", "--dataset", str(dataset), "--cache", str(cache),
                 "--out", str(out), "--seed", "2"] + FAST_TRAIN)
    assert code == 0
    lines = (out / "ablate.tsv").read_text().strip().splitlines()
    assert lines[0] == "variant\thr20"
    records = [line.split("\t") for line in lines[1:]]
    assert [r[0] for r in records] == ["full", "no_local", "no_nonlocal",
                                       "no_user_attention"]
    assert all(0.0 <= float(r[1]) <= 1.0 for r in records)


def test_sweep_emits_per_value_table(pipeline):
    tmp_path, dataset, cache = pipeline
    out = tmp_path / "sweep"
    code = main(["sweep", "--dataset", str(dataset), "--cache", str(cache),
                 "--out", str(out), "--param", "N", "--values", "2,3",
                 "--seed", "2"] + FAST_TRAIN)
    assert code == 0
    lines = (out / "sweep.tsv").read_text().strip().splitlines()
    assert lines[0] == "value\tK\tmetric\tscore"
    values = {line.split("\t")[0] for line in lines[1:]}
    assert values == {"2", "3"}


def test_sweep_echoes_the_seed_flag(pipeline):
    tmp_path, dataset, cache = pipeline
    out = tmp_path / "sweep_seed"
    code = main(["sweep", "--dataset", str(dataset), "--cache", str(cache),
                 "--out", str(out), "--param", "N", "--values", "2",
                 "--seed", "3"] + FAST_TRAIN)
    assert code == 0
    assert load_config(out / "config.ini").seed == 3


def test_negative_seed_flag_exits_one(pipeline):
    tmp_path, dataset, cache = pipeline
    code = main(["train", "--dataset", str(dataset), "--cache", str(cache),
                 "--out", str(tmp_path / "x"), "--seed", "-3"])
    assert code == 1


def test_config_echo_reloads_identically(pipeline):
    tmp_path, dataset, cache = pipeline
    run = tmp_path / "run_echo"
    main(["train", "--dataset", str(dataset), "--cache", str(cache),
          "--out", str(run), "--seed", "4"] + FAST_TRAIN)
    cfg = load_config(run / "config.ini")
    assert cfg.seed == 4 and cfg.d == 6 and cfg.S == 2 and cfg.epochs == 2
    # round trip once more
    save_config(cfg, run / "config2.ini")
    cfg2 = load_config(run / "config2.ini")
    assert cfg == cfg2


def test_every_config_field_type_is_parsed(monkeypatch):
    """Each RunConfig value, written as the echoed config writes it, parses
    back to itself; a field of a type with no parser is refused by name."""
    samples = {"int": 3, "int | None": 3, "float": 0.5, "float | None": 0.5,
               "bool": True, "tuple": (1, 5)}
    for field in dataclasses.fields(RunConfig):
        assert field.type in samples, (field.name, field.type)
        for value in (field.default, samples[field.type]):
            assert _parse_value(field.name, _format_value(value)) == value, field.name

    @dataclasses.dataclass
    class WithText:
        label: str = "x"

    monkeypatch.setattr(config, "RunConfig", WithText)
    with pytest.raises(TypeError, match="config key 'label' has type"):
        _parse_value("label", "x")


def test_default_config_is_the_section_defaults():
    cfg = load_config()
    assert cfg.model_config() == ModelConfig()
    assert cfg.walk_config() == WalkConfig(context_size=cfg.S)
    assert cfg.train_config() == training.TrainConfig()
    assert cfg.eval_config() == EvalConfig()


# the README's toy corpus
TOY_FILES = {
    "ratings.tsv": b"u1\ti1\t5\nu1\ti2\t4\nu2\ti2\t5\nu2\ti3\t5\nu3\ti1\t5\nu3\ti3\t4\n",
    "kg.tsv": b"e1\tgenre\tg1\ne2\tgenre\tg1\ne3\tgenre\tg2\ng1\trelated\tg2\n",
    "item_map.tsv": b"i1\te1\ni2\te2\ni3\te3\n",
}


def test_preprocess_of_a_corrupt_raw_file_exits_zero_or_one(tmp_path, capsys):
    paths = {name: tmp_path / name for name in TOY_FILES}
    argv = ["preprocess", "--ratings", str(paths["ratings.tsv"]), "--kg", str(paths["kg.tsv"]),
            "--item-map", str(paths["item_map.tsv"]), "--out", str(tmp_path / "dataset")]
    codes = set()

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.sampled_from(sorted(TOY_FILES)),
           st.sampled_from(["flip", "cut", "repeat", "insert"]), st.data())
    def check(name, fault, data):
        blob = TOY_FILES[name]
        at = data.draw(st.integers(0, len(blob) - 1))
        if fault == "flip":
            bit = 1 << data.draw(st.integers(0, 7))
            blob = synth.corrupt_bytes(blob, at, blob[at] ^ bit, False)
        elif fault == "cut":
            blob = blob[:at]
        elif fault == "repeat":
            end = data.draw(st.integers(at, len(blob)))
            blob = blob[:end] + blob[at:end] + blob[end:]
        else:
            token = data.draw(st.sampled_from([b"-1", b"nan", b"\t", b"9" * 30, b"\xff"]))
            blob = blob[:at] + token + blob[at:]
        for other, path in paths.items():
            path.write_bytes(blob if other == name else TOY_FILES[other])
        code = main(argv)
        assert code in (0, 1)
        codes.add(code)

    check()
    capsys.readouterr()
    assert codes == {0, 1}


def test_missing_input_file_exits_one(tmp_path):
    code = main(["preprocess", "--ratings", str(tmp_path / "absent.tsv"),
                 "--kg", str(tmp_path / "kg.tsv"),
                 "--item-map", str(tmp_path / "map.tsv"),
                 "--out", str(tmp_path / "d")])
    assert code == 1


@pytest.mark.parametrize("via", ["set", "ini"])
@pytest.mark.parametrize("setting", ["bogus=1", "workers=1", "policy=full",
                                     "n_candidates=100"])
def test_bad_config_key_exits_one(pipeline, capsys, setting, via):
    """An unknown key is refused, and so is a retired one that an older
    echoed config.ini still names."""
    tmp_path, dataset, cache = pipeline
    key, value = setting.split("=")
    if via == "set":
        source = ["--set", setting]
    else:
        ini = tmp_path / "old.ini"
        ini.write_text(f"[{'run' if key == 'workers' else 'eval'}]\n{key} = {value}\n")
        source = ["--config", str(ini)]
    capsys.readouterr()
    code = main(["train", "--dataset", str(dataset), "--cache", str(cache),
                 "--out", str(tmp_path / "x")] + source)
    assert code == 1
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["build-cache", "--dataset", "d", "--out", "c.bin", "--workers", "2"], "--workers"),
    (["preprocess", "--ratings", "r", "--kg", "k", "--item-map", "m", "--out", "o",
      "--threshold", "4"], "--threshold"),
    (["train", "--dataset", "d", "--cache", "c.bin"], "--out"),
    (["bogus"], "'bogus'"),
    (["--help"], None),
], ids=["build-cache-workers", "preprocess-threshold", "missing-out",
        "unknown-subcommand", "help"])
def test_usage_errors_exit_one(tmp_path, monkeypatch, capsys, argv, named):
    """A usage error is an input error (exit 1) naming what is wrong, not
    argparse's exit 2, which would read as a numeric abort; --help exits 0."""
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # --help prints and exits
        code = exc.code
    if named is None:
        assert code == 0
    else:
        assert code == 1
        err = capsys.readouterr().err
        assert "input error" in err and named in err


def test_numeric_overflow_exits_two(pipeline):
    tmp_path, dataset, cache = pipeline
    code = main(["train", "--dataset", str(dataset), "--cache", str(cache),
                 "--out", str(tmp_path / "blowup"), "--seed", "1",
                 "--set", "eta=1e155", "--set", "epochs=3", "--set", "B=32",
                 "--set", "d=4", "--set", "S=2", "--set", "N=2",
                 "--set", "lambda2=1.0"])
    assert code == 2


def test_gamma_out_of_range_exits_one(pipeline):
    tmp_path, dataset, cache = pipeline
    code = main(["build-cache", "--dataset", str(dataset),
                 "--out", str(tmp_path / "c.bin"), "--set", "gamma=0.9"])
    assert code == 1


def test_unparseable_config_value_exits_one(pipeline):
    tmp_path, dataset, cache = pipeline
    code = main(["train", "--dataset", str(dataset), "--cache", str(cache),
                 "--out", str(tmp_path / "x"), "--set", "epochs=lots"])
    assert code == 1


def test_negative_seed_exits_one(pipeline):
    tmp_path, dataset, cache = pipeline
    code = main(["train", "--dataset", str(dataset), "--cache", str(cache),
                 "--out", str(tmp_path / "x"), "--set", "seed=-3"])
    assert code == 1


@pytest.mark.parametrize("setting", ["B=0", "n_neg=0", "eval_every=0", "epochs=0",
                                     "patience=-1", "max_batches=0", "eta=0", "eta=-1",
                                     "eta=nan", "lambda1=-1", "lambda1=nan",
                                     "lambda2=inf"])
def test_train_setting_out_of_range_exits_one(pipeline, capsys, setting):
    tmp_path, dataset, cache = pipeline
    capsys.readouterr()
    code = main(["train", "--dataset", str(dataset), "--cache", str(cache),
                 "--out", str(tmp_path / "x"), "--set", setting])
    assert code == 1
    assert "input error" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_one(pipeline):
    tmp_path, dataset, cache = pipeline
    store, kg, _, _ = load_dataset(dataset)
    bad = tmp_path / "bad.bin"
    # a version-3 header of the default model config, then a cut-off tensor
    bad.write_bytes(synth.raw_artifact(b"KGCK", 3, {"meta": _checkpoint_meta(store, kg),
                                                    "arrays": [["user_emb", "<f8", [1, 1]]]},
                                       b"\x99"))
    code = main(["evaluate", "--dataset", str(dataset), "--cache", str(cache),
                 "--checkpoint", str(bad), "--split", "test"])
    assert code == 1


def test_truncated_checkpoint_header_exits_one(pipeline, capsys):
    tmp_path, dataset, cache = pipeline
    bad = tmp_path / "short.bin"
    bad.write_bytes(b"KGCK" + struct.pack("<II", 3, 200) + b'{"meta":{"dim":32')
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(dataset), "--cache", str(cache),
                 "--checkpoint", str(bad), "--split", "test"])
    assert code == 1
    assert "checkpoint is truncated" in capsys.readouterr().err


def test_checkpoint_of_an_invalid_model_config_exits_one(pipeline, capsys):
    tmp_path, dataset, cache = pipeline
    store, kg, _, _ = load_dataset(dataset)
    params = init_params(ModelConfig(), store.user_count, kg.entity_count,
                         kg.relation_embedding_count, np.random.default_rng(0))
    ckpt = tmp_path / "both.bin"
    save_checkpoint(ckpt, params, {**_checkpoint_meta(store, kg), "disable_local": True,
                                   "disable_nonlocal": True})
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(dataset), "--cache", str(cache),
                 "--checkpoint", str(ckpt), "--split", "test"])
    # no valid run config equals one that ModelConfig refuses
    assert code == 1
    assert "trained with disable_local=True, this run has disable_local=False" in \
        capsys.readouterr().err


def test_version_one_checkpoint_exits_one(pipeline, capsys):
    tmp_path, dataset, cache = pipeline
    store, kg, _, _ = load_dataset(dataset)
    old = tmp_path / "v1.bin"
    old.write_bytes(b"KGCK" + struct.pack("<IIIIII", 1, 32, store.user_count, kg.entity_count,
                                          kg.relation_embedding_count, 0))
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(dataset), "--cache", str(cache),
                 "--checkpoint", str(old), "--split", "test"])
    assert code == 1
    assert "version 1" in capsys.readouterr().err


@pytest.mark.parametrize("setting, trained, run", [
    ("S=2", "local_size=4", "local_size=2"),
    ("N=3", "history_size=16", "history_size=3"),
    ("disable_local=true", "disable_local=False", "disable_local=True"),
])
def test_evaluate_with_other_model_config_exits_one(pipeline, capsys, setting, trained, run):
    tmp_path, dataset, cache = pipeline
    store, kg, _, _ = load_dataset(dataset)
    params = init_params(ModelConfig(), store.user_count, kg.entity_count,
                         kg.relation_embedding_count, np.random.default_rng(0))
    ckpt = tmp_path / "init.bin"
    save_checkpoint(ckpt, params, _checkpoint_meta(store, kg))
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(dataset), "--cache", str(cache),
                 "--checkpoint", str(ckpt), "--split", "test", "--set", setting])
    assert code == 1
    err = capsys.readouterr().err
    assert "input error" in err and trained in err and run in err


def test_non_finite_evaluation_exits_two(pipeline):
    tmp_path, dataset, cache = pipeline
    store, kg, _, _ = load_dataset(dataset)
    params = init_params(ModelConfig(), store.user_count, kg.entity_count,
                         kg.relation_embedding_count, np.random.default_rng(0))
    params["user_emb"].data[...] = 1.0
    synth.write_concat(params, "user_agg_W", 1e308)
    ckpt = tmp_path / "overflow.bin"
    save_checkpoint(ckpt, params, _checkpoint_meta(store, kg))
    code = main(["evaluate", "--dataset", str(dataset), "--cache", str(cache),
                 "--checkpoint", str(ckpt), "--split", "test"])
    assert code == 2


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_history_logit_overflow_exits_two_naming_the_op(pipeline, monkeypatch, capsys, command):
    """The history logit halves a_t and h are finite and their sum is not:
    the fused softmax names itself before its tanh would hide the overflow,
    over a history per tuple (train) and one shared history (evaluate)."""
    tmp_path, dataset, cache = pipeline
    store, kg, _, _ = load_dataset(dataset)
    init = training.init_params

    def overflowing(cfg, *args):
        params = init(cfg, *args)
        params["entity_emb"].data[...] = 1.0
        for k, value in ((1, 1e308 / cfg.dim), (2, 0.0), (3, 1e308 / cfg.dim), (4, 0.0)):
            params[f"hist_attn_w{k}"].data[...] = value
        return params

    if command == "train":
        monkeypatch.setattr(training, "init_params", overflowing)
        args = ["--out", str(tmp_path / "blowup"), *FAST_TRAIN]
    else:
        params = overflowing(ModelConfig(), store.user_count, kg.entity_count,
                             kg.relation_embedding_count, np.random.default_rng(0))
        ckpt = tmp_path / "overflow.bin"
        save_checkpoint(ckpt, params, _checkpoint_meta(store, kg))
        args = ["--checkpoint", str(ckpt), "--split", "test"]
    capsys.readouterr()
    code = main([command, "--dataset", str(dataset), "--cache", str(cache), *args])
    assert code == 2
    assert "op 'history_softmax' produced non-finite values" in capsys.readouterr().err


def test_evaluate_with_cache_of_other_item_count_exits_one(pipeline, tmp_path):
    _, dataset, cache = pipeline
    store, kg, _, _ = load_dataset(dataset)
    params = init_params(ModelConfig(), store.user_count, kg.entity_count,
                         kg.relation_embedding_count, np.random.default_rng(0))
    ckpt = tmp_path / "init.bin"
    save_checkpoint(ckpt, params, _checkpoint_meta(store, kg))
    for delta in (-1, 1):
        walks = WalkCache.load(cache)
        contexts = walks.contexts[:delta] if delta < 0 else walks.contexts + walks.contexts[:1]
        other = tmp_path / f"cache{delta}.bin"
        dataclasses.replace(walks, contexts=contexts).save(other)
        code = main(["evaluate", "--dataset", str(dataset), "--cache", str(other),
                     "--checkpoint", str(ckpt), "--split", "test"])
        assert code == 1


def _init_checkpoint(dataset, path):
    """A checkpoint of freshly initialized default-config parameters."""
    store, kg, _, _ = load_dataset(dataset)
    params = init_params(ModelConfig(), store.user_count, kg.entity_count,
                         kg.relation_embedding_count, np.random.default_rng(0))
    save_checkpoint(path, params, _checkpoint_meta(store, kg))
    return params


@pytest.mark.parametrize("command", ["build-cache", "train", "evaluate"])
def test_item_entity_out_of_range_exits_one(pipeline, capsys, command):
    tmp_path, dataset, cache = pipeline
    ckpt = tmp_path / "init.bin"
    _init_checkpoint(dataset, ckpt)
    _, kg, _, _ = load_dataset(dataset)
    rows = (dataset / "item_entities.tsv").read_text().splitlines()
    rows[3] = f"3\t{kg.entity_count}"
    (dataset / "item_entities.tsv").write_text("\n".join(rows) + "\n")
    args = {"build-cache": ["--out", str(tmp_path / "again.bin")],
            "train": ["--cache", str(cache), "--out", str(tmp_path / "run")] + FAST_TRAIN,
            "evaluate": ["--cache", str(cache), "--checkpoint", str(ckpt)]}[command]
    capsys.readouterr()
    assert main([command, "--dataset", str(dataset)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert f"item_entities.tsv row (3, {kg.entity_count}) names an entity outside" in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("fault, message", [
    ("items", "walk cache covers 15 items, dataset has 16"),
    ("entity", "walk cache context of item 2 names entity 999, dataset has 34 entities"),
])
def test_cache_that_does_not_fit_the_dataset_exits_one(pipeline, capsys, command, fault,
                                                        message):
    tmp_path, dataset, cache = pipeline
    ckpt = tmp_path / "init.bin"
    _init_checkpoint(dataset, ckpt)
    walks = WalkCache.load(cache)
    contexts = list(walks.contexts)
    if fault == "items":
        contexts.pop()
    else:
        contexts[2] = np.concatenate([[999], contexts[2]])[:walks.context_size]
    other = tmp_path / "other.bin"
    dataclasses.replace(walks, contexts=contexts).save(other)
    args = {"train": ["--out", str(tmp_path / "run")] + FAST_TRAIN,
            "evaluate": ["--checkpoint", str(ckpt)]}[command]
    capsys.readouterr()
    assert main([command, "--dataset", str(dataset), "--cache", str(other)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_checkpoint_exits_one(pipeline, capsys, value):
    tmp_path, dataset, cache = pipeline
    ckpt = tmp_path / "init.bin"
    params = _init_checkpoint(dataset, ckpt)
    params["attn_W_h"].data[1, 2] = value
    store, kg, _, _ = load_dataset(dataset)
    save_checkpoint(ckpt, params, _checkpoint_meta(store, kg))
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(dataset), "--cache", str(cache),
                 "--checkpoint", str(ckpt), "--split", "test"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "parameter 'attn_W_h' holds non-finite values" in err


def test_checkpoint_path_that_is_a_directory_exits_one(pipeline, capsys):
    tmp_path, dataset, cache = pipeline
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(dataset), "--cache", str(cache),
                 "--checkpoint", str(tmp_path), "--split", "test"])
    assert code == 1
    assert capsys.readouterr().err.startswith("input error:")


def test_cache_path_that_is_a_directory_exits_one(pipeline, tmp_path, capsys):
    _, dataset, _ = pipeline
    store, kg, _, _ = load_dataset(dataset)
    params = init_params(ModelConfig(), store.user_count, kg.entity_count,
                         kg.relation_embedding_count, np.random.default_rng(0))
    ckpt = tmp_path / "init.bin"
    save_checkpoint(ckpt, params, _checkpoint_meta(store, kg))
    capsys.readouterr()
    code = main(["evaluate", "--dataset", str(dataset), "--cache", str(tmp_path),
                 "--checkpoint", str(ckpt), "--split", "test"])
    assert code == 1
    assert capsys.readouterr().err.startswith("input error:")


def test_cache_of_context_size_zero_exits_one(pipeline, tmp_path, capsys):
    _, dataset, cache = pipeline
    walks = WalkCache.load(cache)
    zero = tmp_path / "zero.bin"
    dataclasses.replace(walks, contexts=[c[:0] for c in walks.contexts], context_size=0).save(zero)
    capsys.readouterr()
    code = main(["train", "--dataset", str(dataset), "--cache", str(zero),
                 "--out", str(tmp_path / "x")] + FAST_TRAIN)
    assert code == 1
    assert "context_size must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "ablate"])
def test_out_of_range_walk_settings_exit_one_before_any_output(pipeline, capsys, command):
    """Every config section is checked at load, not only the ones a command uses."""
    tmp_path, dataset, cache = pipeline
    out = tmp_path / "out"
    args = {"train": ["--out", str(out)], "ablate": ["--out", str(out)],
            "evaluate": ["--checkpoint", str(tmp_path / "none.bin"),
                         "--out", str(out / "eval.tsv")]}[command]
    capsys.readouterr()
    code = main([command, "--dataset", str(dataset), "--cache", str(cache), *args,
                 "--set", "gamma=0.9", "--set", "M=0", "--set", "L=-4"])
    assert code == 1
    assert "gamma must be in (0, 0.5), got 0.9" in capsys.readouterr().err
    assert not out.exists()


def test_truncated_cache_exits_one(pipeline, tmp_path):
    _, dataset, cache = pipeline
    stub = tmp_path / "trunc.bin"
    stub.write_bytes(cache.read_bytes()[:40])
    code = main(["train", "--dataset", str(dataset), "--cache", str(stub),
                 "--out", str(tmp_path / "x")] + FAST_TRAIN)
    assert code == 1


def test_bad_sweep_values_exit_one(pipeline):
    tmp_path, dataset, cache = pipeline
    code = main(["sweep", "--dataset", str(dataset), "--cache", str(cache),
                 "--out", str(tmp_path / "s"), "--param", "N",
                 "--values", "2,many"])
    assert code == 1
